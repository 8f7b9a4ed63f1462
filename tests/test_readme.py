"""The README's quick starts hold: the library code runs as written, the CLI
config example loads, every config key is named, and every command line
parses."""

import json
import re
import shlex
from pathlib import Path

import hallucheck
from hallucheck import cli

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


def table_keys(spec):
    """Every key of a ``check_json`` spec's object tables, nested ones included."""
    kind, limit = spec if type(spec) is tuple else (spec, None)
    if type(limit) is dict:
        for key, sub in limit.items():
            yield key
            yield from table_keys(sub)
    elif kind is list:
        yield from table_keys(limit)


def test_cli_config_example_loads_and_every_config_key_is_named(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (CLI)", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "run.json").write_text(example, encoding="utf-8")
    cli.load_config(tmp_path / "run.json")
    keys = set(table_keys((cli.RunConfig, cli._CONFIG)))
    assert {"provider", "rate_limit_per_minute", "use_kg", "expected_samples"} <= keys
    assert [key for key in sorted(keys) if f"`{key}`" not in text and f'"{key}"' not in text] == []


def test_every_readme_command_line_parses():
    lines = README.read_text(encoding="utf-8").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("hallucheck ")]
    assert sorted({argv[0] for argv in commands}) == ["evaluate", "extract", "samples", "score"]
    for argv in commands:
        cli.build_parser().parse_args(argv)
