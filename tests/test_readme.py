"""The README's library quick start runs as written."""

import json
import re
from pathlib import Path

import hallucheck

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    script = {
        "rules": [
            {
                "match": ["knowledge-graph triples"],
                "reply": '[["Vesna Marinko", "won", "Harlow Trophy"], '
                '["Vesna Marinko", "won in", "1991"]]',
            },
            {"match": ["Confidence score:", "1991"], "reply": "0.25"},
            {"match": ["Confidence score:"], "reply": "0.75"},
        ],
        "default": "",
    }
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = quick_start_code()
    imported = re.search(r"from hallucheck import \((.*?)\)", code, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(hallucheck.__all__)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("0.5 (")
    assert "Harlow Trophy" in printed and "0.25" in printed
