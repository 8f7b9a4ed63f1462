import fcntl
import hashlib
import json
import os
import shutil
import socket
import stat
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import hallucheck.provider.client
from hallucheck import cli
from hallucheck.cli import main
from hallucheck.core import KnowledgeGraph, Triple
from hallucheck.data import read_score_records

from conftest import FIXTURES

FIXTURE_FILES = (
    "run_config.json",
    "mock_script.json",
    "fixture_dataset.jsonl",
    "sentences.txt",
)


def copy_fixture(fixture_dir, dest, **config):
    """Copy the fixture files to ``dest``, overriding top-level config keys."""
    dest.mkdir(parents=True, exist_ok=True)
    for name in FIXTURE_FILES:
        shutil.copy(fixture_dir / name, dest / name)
    if config:
        path = dest / "run_config.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj.update(config)
        path.write_text(json.dumps(obj), encoding="utf-8")
    return dest


@pytest.fixture()
def workdir(tmp_path, fixture_dir):
    return copy_fixture(fixture_dir, tmp_path)


@pytest.fixture()
def config_path(workdir):
    return workdir / "run_config.json"


# The dataset ``strip_samples`` writes.
EMPTY_DATASET = {"path": "dataset_empty.jsonl", "kind": "wikibio", "expected_samples": 0}


def strip_samples(workdir, paragraphs=None):
    """Write ``dataset_empty.jsonl``: the fixture's rows, those of ``paragraphs``
    (all, if None) with their samples removed."""
    rows = [
        json.loads(line)
        for line in (workdir / "fixture_dataset.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    with open(workdir / "dataset_empty.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            if paragraphs is None or row["paragraph_id"] in paragraphs:
                row["samples"] = []
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def no_sample_config(workdir, **extra):
    """Config whose dataset rows carry no samples of their own, with the
    top-level keys in ``extra`` overridden."""
    strip_samples(workdir)
    cfg = {
        "provider": {"backend": "mock", "model_id": "mock-model", "script": "mock_script.json"},
        "embedding": {"backend": "hash", "dim": 64, "seed": 0},
        "detectors": [
            {"method": "selfcheck", "use_kg": False, "n_samples": 2},
            {"method": "selfcheck", "use_kg": True, "n_samples": 2},
        ],
        "dataset": EMPTY_DATASET,
        "cache_dir": "cache",
        "output_dir": "out",
        "seed": 7,
    }
    cfg.update(extra)
    path = workdir / "config_empty.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestExtract:
    def test_writes_meta_and_graphs(self, workdir, config_path, capsys):
        out = workdir / "kgs.jsonl"
        code = main(
            [
                "extract",
                "--config",
                str(config_path),
                "--input",
                str(workdir / "sentences.txt"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "wrote 3 knowledge graphs" in capsys.readouterr().out
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 4
        meta = lines[0]
        assert meta["_meta"] is True
        assert len(meta["config_digest"]) == 64
        assert meta["prompt_version"]
        assert meta["model_id"] == "mock-model"
        graphs = [
            KnowledgeGraph(
                triples=tuple(Triple(*t) for t in obj["triples"]),
                source_text=obj["source_text"],
                degenerate=obj["degenerate"],
            )
            for obj in lines[1:]
        ]
        assert [len(g.triples) for g in graphs] == [2, 2, 2]
        assert graphs[0].triples[0].subject == "Vesna Marinko"

    @pytest.mark.parametrize("before", [None, b"earlier graphs\n"], ids=["absent", "present"])
    def test_failed_run_leaves_the_earlier_file(
        self, workdir, config_path, monkeypatch, capsys, before
    ):
        # Calls 1 and 2 extract the first two sentences; every attempt at the
        # third fails.
        script_path = workdir / "mock_script.json"
        script = json.loads(script_path.read_text(encoding="utf-8"))
        script_path.write_text(json.dumps({**script, "fail_calls": [3, 4, 5]}), encoding="utf-8")
        monkeypatch.setattr(hallucheck.provider.client, "RETRY_BACKOFF_S", 0.0)
        out = workdir / "kgs.jsonl"
        if before is not None:
            out.write_bytes(before)
        sentences = str(workdir / "sentences.txt")
        argv = ["extract", "--config", str(config_path), "--input", sentences, "--output", str(out)]
        assert main(argv) == 3
        assert "scripted failure on call 5" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == before
        assert not list(workdir.glob("*.tmp"))

    def test_output_that_is_a_directory_is_refused_before_any_call(
        self, workdir, config_path, monkeypatch, capsys
    ):
        calls = timed_backend_calls(monkeypatch)
        out = workdir / "kgs"
        out.mkdir()
        sentences = str(workdir / "sentences.txt")
        argv = ["extract", "--config", str(config_path), "--input", sentences, "--output", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == f"data error: {out} is a directory\n"
        assert calls == []
        assert not list(workdir.glob("*.tmp"))

    def test_lone_surrogate_escape_in_a_reply_loses_the_triple(
        self, workdir, config_path, caplog, capsys
    ):
        escape_kranj(workdir)
        out = workdir / "kgs.jsonl"
        sentences = str(workdir / "sentences.txt")
        argv = ["extract", "--config", str(config_path), "--input", sentences, "--output", str(out)]
        assert main(argv) == 0
        graphs = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert graphs[0]["triples"] == [["Vesna Marinko", "born in year", "1968"]]
        assert [len(g["triples"]) for g in graphs] == [1, 2, 2]
        assert parse_loss_warnings(caplog) == ["dropped 1 unparseable triple(s)"]

    def test_missing_input_is_data_error(self, workdir, config_path):
        code = main(
            [
                "extract",
                "--config",
                str(config_path),
                "--input",
                str(workdir / "nope.txt"),
                "--output",
                str(workdir / "kgs.jsonl"),
            ]
        )
        assert code == 4

    def test_empty_input_is_data_error(self, workdir, config_path):
        empty = workdir / "empty.txt"
        empty.write_text("\n\n", encoding="utf-8")
        code = main(
            [
                "extract",
                "--config",
                str(config_path),
                "--input",
                str(empty),
                "--output",
                str(workdir / "kgs.jsonl"),
            ]
        )
        assert code == 4


def escape_kranj(workdir):
    """Spell "Kranj" with a lone-surrogate JSON escape, ``Kr\\ud800anj``, in
    the fixture's first extraction reply. The reply stays ASCII, so the client
    admits it; only decoding the JSON yields the lone surrogate."""
    path = workdir / "mock_script.json"
    script = json.loads(path.read_text(encoding="utf-8"))
    rule = script["rules"][0]
    assert "Kranj" in rule["match"][1]
    rule["reply"] = rule["reply"].replace("Kranj", "Kr\\ud800anj")
    path.write_text(json.dumps(script), encoding="utf-8")


def parse_loss_warnings(caplog):
    return [
        r.getMessage().split(" while ")[0]
        for r in caplog.records
        if "unparseable" in r.getMessage()
    ]


def no_network(*args):
    raise AssertionError("no test may open a network connection")


def unloadable_sbert():
    """A sentence_transformers module whose every model fails to load."""
    module = types.ModuleType("sentence_transformers")

    def load(model_id):
        raise OSError("no such model")

    module.SentenceTransformer = load
    return module


class TestConfigErrors:
    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["score", "--config", str(bad)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["score", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unknown_method(self, workdir, config_path, capsys):
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["detectors"] = [{"method": "vibes"}]
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 2
        assert "vibes" in capsys.readouterr().err

    def test_parallelism_below_one(self, tmp_path, fixture_dir, capsys):
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=0)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_parallelism_above_the_bound(self, tmp_path, fixture_dir, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=cli.MAX_PARALLELISM + 1)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 2
        err = capsys.readouterr().err
        assert "parallelism must be <= 64, got 65" in err and err.count("\n") == 1
        assert started == []
        assert not (workdir / "out" / "scores.jsonl").exists()

    def test_parallelism_at_the_bound_loads(self, tmp_path, fixture_dir):
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=64)
        assert cli.load_config(workdir / "run_config.json").parallelism == 64

    @staticmethod
    def with_embedding_dim(config_path, dim):
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["embedding"]["dim"] = dim
        config_path.write_text(json.dumps(obj), encoding="utf-8")

    def test_embedding_dim_above_the_bound(self, config_path, capsys, monkeypatch):
        self.with_embedding_dim(config_path, cli.MAX_EMBEDDING_DIM + 1)
        sha256 = hashlib.sha256
        calls = []
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or sha256(*a))
        assert main(["score", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "embedding.dim must be <= 4096, got 4097" in err and err.count("\n") == 1
        assert calls == []

    def test_embedding_dim_at_the_bound_loads(self, config_path):
        self.with_embedding_dim(config_path, 4096)
        assert cli.load_config(config_path).embedding.dim == 4096

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (["parallelism"], "two", "parallelism must be an integer"),
            (["parallelism"], 1.5, "parallelism must be an integer"),
            (["seed"], "7", "seed must be an integer"),
            (["embedding", "dim"], 0, "embedding.dim must be >= 1"),
            (["embedding", "dim"], "64", "embedding.dim must be an integer"),
            (["embedding", "seed"], True, "embedding.seed must be an integer"),
            (["detectors", 4, "n_samples"], "3", "detectors[4].n_samples must be an integer"),
            (["detectors", 1, "use_kg"], "false", "detectors[1].use_kg must be true or false"),
            (["provider", "rate_limit_per_minute"], "fast", "rate_limit_per_minute must be a number"),
            (["provider", "rate_limit_per_minute"], 0, "rate_limit_per_minute must be > 0"),
            (["output_dir"], 3, "output_dir must be a string"),
            (["dataset", "expected_samples"], "two", "dataset.expected_samples must be an integer"),
            (
                ["provider", "rate_limit_per_minute"],
                float("nan"),
                "provider.rate_limit_per_minute must be a finite number",
            ),
            (
                ["provider", "rate_limit_per_minute"],
                float("inf"),
                "provider.rate_limit_per_minute must be a finite number",
            ),
            pytest.param(
                ["provider", "rate_limit_per_minute"],
                10**400,
                "provider.rate_limit_per_minute must be a finite number",
                id="401-digit-rate_limit_per_minute",
            ),
            pytest.param(
                ["provider", "rate_limit_per_minute"],
                1e-320,
                "provider.rate_limit_per_minute must be > 0 and leave at most",
                id="1e-320-rate_limit_per_minute",
            ),
            pytest.param(
                ["provider", "rate_limit_per_minute"],
                1e-9,
                "provider.rate_limit_per_minute must be > 0 and leave at most",
                id="1e-9-rate_limit_per_minute",
            ),
            pytest.param(["detectors"], [], "config has no detectors", id="no-detectors"),
            pytest.param(["dataset", "path"], "", "config has no dataset.path", id="no-dataset"),
            pytest.param(
                ["provider", "backend"],
                "openai",
                "no API key: set HALLUCHECK_OPENAI_KEY",
                id="openai-without-a-key",
            ),
        ],
    )
    def test_bad_value_is_one_line(self, config_path, capsys, monkeypatch, path, value, message):
        monkeypatch.delenv("HALLUCHECK_OPENAI_KEY", raising=False)
        # A hosted backend without its key is refused before any connection.
        monkeypatch.setattr(socket, "getaddrinfo", no_network)
        monkeypatch.setattr(socket.socket, "connect", no_network)
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_negative_seed_is_one_line(self, tmp_path, fixture_dir, capsys, command):
        workdir = copy_fixture(fixture_dir, tmp_path, seed=-1)
        config = workdir / "run_config.json"
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {config}: seed must be >= 0, got -1\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("resamples", ["0", "-5", "1000001"])
    def test_resamples_below_one(self, config_path, capsys, resamples):
        code = main(["evaluate", "--config", str(config_path), "--resamples", resamples])
        assert code == 2
        err = capsys.readouterr().err
        message = f"--resamples must be 1 to {cli.MAX_RESAMPLES}, got {resamples}"
        assert message in err and err.count("\n") == 1

    def test_repeated_detector(self, workdir, config_path, capsys):
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["detectors"].append({"method": "self_confidence", "use_kg": False})
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "detectors[6] repeats detectors[2] (self_confidence)" in err
        assert err.count("\n") == 1
        assert not (workdir / "out" / "scores.jsonl").exists()

    def test_unknown_top_level_key(self, workdir, config_path):
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["extra"] = 1
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 2

    def test_unknown_provider_backend(self, workdir, config_path):
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["provider"]["backend"] = "telepathy"
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "name,command,code,kind",
        [
            ("run_config.json", "score", 2, "config error:"),
            ("mock_script.json", "score", 2, "config error:"),
            ("fixture_dataset.jsonl", "score", 4, "data error:"),
            ("scores.jsonl", "evaluate", 4, "data error:"),
            ("sentences.txt", "extract", 4, "data error:"),
        ],
    )
    def test_undecodable_input_file_is_one_line(
        self, workdir, config_path, capsys, name, command, code, kind
    ):
        bad = workdir / name
        bad.write_bytes(b'{"a": "\xff"}')
        extra = {
            "score": [],
            "evaluate": ["--scores", str(bad)],
            "extract": ["--input", str(bad), "--output", str(workdir / "kgs.jsonl")],
        }[command]
        assert main([command, "--config", str(config_path), *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith(kind) and name in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name,command,code,kind",
        [
            ("run_config.json", "score", 2, "config error:"),
            ("mock_script.json", "score", 2, "config error:"),
            ("fixture_dataset.jsonl", "score", 4, "data error:"),
            ("scores.jsonl", "evaluate", 4, "data error:"),
        ],
    )
    @pytest.mark.parametrize(
        "text", ["[" + "1" * 5000 + "]", "[" * 100_000], ids=["digits", "nesting"]
    )
    def test_json_past_the_decoder_limits_is_one_line(
        self, workdir, config_path, capsys, name, command, code, kind, text
    ):
        bad = workdir / name
        bad.write_text(text + "\n", encoding="utf-8")
        extra = ["--scores", str(bad)] if command == "evaluate" else []
        assert main([command, "--config", str(config_path), *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith(kind) and name in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,config,extra,bad",
        [
            ("evaluate", {}, ["--scores", "DIR"], "DIR"),
            ("evaluate", {}, ["--report", "DIR"], "DIR"),
            ("extract", {}, ["--input", "DIR", "--output", "kgs.jsonl"], "DIR"),
            ("extract", {}, ["--input", "sentences.txt", "--output", "DIR"], "DIR"),
            ("samples", {"cache_dir": "FILE"}, [], "FILE"),
            ("score", {"output_dir": "FILE"}, [], "FILE"),
            ("score", {"dataset": {"path": "DIR", "expected_samples": 3}}, [], "DIR"),
            ("score", {"cache_dir": "FILE"}, [], "FILE"),
        ],
        ids=[
            "evaluate-scores",
            "evaluate-report",
            "extract-input",
            "extract-output",
            "samples-cache-dir",
            "score-output-dir",
            "score-dataset-path",
            "score-cache-dir",
        ],
    )
    def test_unusable_path_is_one_line(
        self, tmp_path, fixture_dir, capsys, command, config, extra, bad
    ):
        """A directory where a file is expected, or a file where a directory
        is expected, is a data error naming the path."""
        workdir = copy_fixture(fixture_dir, tmp_path, **config)
        (workdir / "DIR").mkdir()
        (workdir / "FILE").write_text("", encoding="utf-8")
        config_path = str(workdir / "run_config.json")
        if "--report" in extra:
            assert main(["score", "--config", config_path]) == 0
        paths = ("DIR", "FILE", "kgs.jsonl", "sentences.txt")
        argv = [str(workdir / a) if a in paths else a for a in extra]
        capsys.readouterr()
        assert main([command, "--config", config_path, *argv]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(workdir / bad) in err and "Traceback" not in err

    def test_blank_dataset_sample_is_one_line(self, workdir, config_path, capsys):
        dataset = workdir / "fixture_dataset.jsonl"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        row["samples"][1] = "   "
        lines[1] = json.dumps(row, ensure_ascii=False) + "\n"
        dataset.write_text("".join(lines), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {dataset}:2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [("paragraph_id", ""), ("sentence", "  ")])
    def test_blank_dataset_key_field_is_one_line(self, workdir, config_path, capsys, field, value):
        dataset = workdir / "fixture_dataset.jsonl"
        edit_json(dataset, lambda row: row.update({field: value}), line=2)
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert err == f"data error: {dataset}:2: {field} must be non-empty\n"

    @pytest.mark.parametrize(
        "module,message",
        [
            (None, "sentence-transformers is not installed (pip install hallucheck[sbert])"),
            (unloadable_sbert(), "cannot load embedding model 'all-MiniLM-L6-v2': no such model"),
        ],
        ids=["not-installed", "model-not-loadable"],
    )
    def test_sbert_backend_that_cannot_load_is_refused_before_any_call(
        self, config_path, capsys, monkeypatch, module, message
    ):
        monkeypatch.setitem(sys.modules, "sentence_transformers", module)
        edit_json(config_path, lambda obj: obj.update(embedding={"backend": "sbert"}))
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("field", ["sentence", "concept", "samples"])
    def test_lone_surrogate_in_dataset_text_is_one_line(
        self, workdir, config_path, field, capsys
    ):
        dataset = workdir / "fixture_dataset.jsonl"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[1])
        if field == "samples":
            row["samples"][2] += " \ud800"
            field = "samples[2]"
        else:
            row[field] += " \udfff"
        lines[1] = json.dumps(row) + "\n"
        dataset.write_text("".join(lines), encoding="utf-8")
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert err == f"data error: {dataset}:2: {field} must be UTF-8 text, got a lone surrogate\n"
        assert err.count("\n") == 1

    def test_repeated_dataset_row_is_one_line_before_any_call(
        self, workdir, config_path, monkeypatch, capsys
    ):
        dataset = workdir / "fixture_dataset.jsonl"
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        dataset.write_text("".join(lines) + lines[0], encoding="utf-8")
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {dataset}:{len(lines) + 1}: ")
        assert err.endswith("repeats line 1\n") and err.count("\n") == 1
        assert calls == []

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


def edit_json(path, edit, line=None):
    """Apply ``edit`` to the JSON value in ``path``, or to the one on its line
    ``line`` (counted from 1)."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines() if line else [text]
    index = (line or 1) - 1
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestInputChecks:
    """One wrongly typed field in each JSON input: one line in the one form."""

    @pytest.mark.parametrize("input_name", ["config", "dataset", "scores"])
    def test_wrongly_typed_field_is_one_line(self, workdir, config_path, capsys, input_name):
        config, command = config_path, "score"
        if input_name == "config":
            edit_json(config_path, lambda obj: obj["embedding"].update(dim="64"))
            message = f"config error: {config_path}: embedding.dim must be an integer, got str"
        elif input_name == "dataset":
            path = workdir / "fixture_dataset.jsonl"
            edit_json(path, lambda row: row.update(sentence_index="1"), line=3)
            message = f"data error: {path}:3: sentence_index must be an integer, got str"
        else:
            assert main(["score", "--config", str(config_path)]) == 0
            path = workdir / "out" / "scores.jsonl"
            edit_json(path, lambda row: row.update(misses=0.5), line=2)
            command = "evaluate"
            message = f"data error: {path}:2: misses must be an integer, got float"
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == (2 if input_name == "config" else 4)
        assert capsys.readouterr().err == message + "\n"


class TestScore:
    def run_score(self, config_path, *extra):
        return main(["score", "--config", str(config_path), *extra])

    def test_full_run(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        assert "scored 60 (skipped 0" in capsys.readouterr().out
        scores_path = workdir / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 61
        assert json.loads(lines[0])["_meta"] is True
        records = list(read_score_records(scores_path))
        assert len(records) == 60
        pairs = {(r.method.value, r.kg_used) for r in records}
        assert len(pairs) == 6
        refs = {r.output_ref for r in records}
        assert len(refs) == 10
        assert all(0.0 <= r.score <= 1.0 for r in records)
        assert all(r.prompt_version for r in records)

    def test_resume_skips_everything(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        scores_path = workdir / "out" / "scores.jsonl"
        first = scores_path.read_bytes()
        capsys.readouterr()
        assert self.run_score(config_path) == 0
        assert "scored 0 (skipped 60" in capsys.readouterr().out
        assert scores_path.read_bytes() == first

    def test_reformatted_config_still_resumes(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps(obj, indent=4), encoding="utf-8")
        capsys.readouterr()
        assert self.run_score(config_path) == 0
        assert "skipped 60" in capsys.readouterr().out

    def test_changed_config_refuses_resume(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        obj["seed"] = 8
        config_path.write_text(json.dumps(obj), encoding="utf-8")
        assert self.run_score(config_path) == 2
        assert "--fresh" in capsys.readouterr().err

    def test_stream_of_another_prompt_version_refuses_resume(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        scores_path = workdir / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines(keepends=True)
        meta = {**json.loads(lines[0]), "prompt_version": "v0"}
        stale = json.dumps(meta, sort_keys=True) + "\n" + "".join(lines[1:41])
        scores_path.write_text(stale, encoding="utf-8")
        capsys.readouterr()
        assert self.run_score(config_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("rerun with --fresh\n")
        assert str(scores_path) in err and "'v0'" in err
        assert scores_path.read_text(encoding="utf-8") == stale

    def test_fresh_rewrites_identically(self, workdir, config_path):
        assert self.run_score(config_path) == 0
        scores_path = workdir / "out" / "scores.jsonl"
        first = scores_path.read_bytes()
        assert self.run_score(config_path, "--fresh") == 0
        assert scores_path.read_bytes() == first

    @pytest.mark.parametrize(
        "reply", ["[" + "1" * 5000 + "]", "[" * 100_000 + "]"], ids=["digits", "nesting"]
    )
    def test_extraction_reply_past_the_json_limits_is_scored(self, workdir, config_path, reply):
        script_path = workdir / "mock_script.json"
        script = json.loads(script_path.read_text(encoding="utf-8"))
        rule = {"match": "knowledge-graph triples", "reply": reply}
        script_path.write_text(
            json.dumps({**script, "rules": [rule, *script["rules"]]}), encoding="utf-8"
        )
        assert self.run_score(config_path) == 0

    @pytest.mark.parametrize("cache_dir", ["cache", None], ids=["cache", "no-cache"])
    def test_extraction_reply_with_a_lone_surrogate_is_one_line(
        self, workdir, config_path, capsys, cache_dir
    ):
        reply = '[["Vesna Marinko", "won", "Harlow Tr\ud800phy"]]'
        prepend_rule(workdir, {"match": ["knowledge-graph triples", "Harlow"], "reply": reply})
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps({**obj, "cache_dir": cache_dir}), encoding="utf-8")
        assert self.run_score(config_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("provider error: ") and err.count("\n") == 1
        assert err.endswith("backend returned text with a lone surrogate\n")
        replies = cached_responses(workdir)
        assert "Harlow" not in "".join(replies) and (cache_dir is None) == (replies == [])

    @pytest.mark.parametrize(
        "method, cache_dir",
        [("self_confidence", None), ("selfcheck", None), ("self_confidence", "cache")],
    )
    def test_extraction_reply_with_a_lone_surrogate_escape_loses_the_triple(
        self, workdir, config_path, caplog, method, cache_dir
    ):
        escape_kranj(workdir)
        detector = {"method": method, "use_kg": True, "n_samples": 3}
        edit_json(config_path, lambda c: c.update(detectors=[detector], cache_dir=cache_dir))
        assert self.run_score(config_path) == 0
        text = (workdir / "out" / "scores.jsonl").read_text(encoding="utf-8")
        assert "Kr" not in text and "ud800" not in text
        assert parse_loss_warnings(caplog) == ["dropped 1 unparseable triple(s)"]

    def test_triple_score_reply_with_a_lone_surrogate_is_a_miss(self, workdir, config_path):
        rule = {"match": ["Confidence score:", "won in year 1991"], "reply": "0.4\udfff"}
        prepend_rule(workdir, rule)
        assert self.run_score(config_path) == 0
        records = read_score_records(workdir / "out" / "scores.jsonl")
        assert [(r.output_ref, r.method.value, r.kg_used) for r in records if r.misses] == [
            ("p01:1", "self_confidence", True)
        ]

    @pytest.mark.parametrize(
        "body",
        ['{"resp', '{"digest": "d"}', '{"digest": "d", "request": "{}", "response": "\\ud800"}'],
    )
    def test_corrupt_cache_entry_is_a_miss(self, workdir, config_path, caplog, body):
        assert self.run_score(config_path) == 0
        scores_path = workdir / "out" / "scores.jsonl"
        clean = scores_path.read_bytes()
        log = workdir / "cache" / "responses.jsonl"
        first, rest = log.read_text(encoding="utf-8").split("\n", 1)
        log.write_text(body + "\n" + rest, encoding="utf-8")
        assert self.run_score(config_path, "--fresh") == 0
        assert scores_path.read_bytes() == clean
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [f"{log}:1" in r.getMessage() for r in warnings] == [True]
        # The call that follows appends the entry again.
        assert log.read_text(encoding="utf-8").splitlines()[-1] == first

    def test_second_run_on_a_locked_directory_is_refused(self, workdir, config_path, capsys):
        assert self.run_score(config_path) == 0
        out_dir = workdir / "out"
        scores_path = out_dir / "scores.jsonl"
        first = scores_path.read_bytes()
        capsys.readouterr()
        with open(out_dir / cli.SCORE_LOCK, "a", encoding="utf-8") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert self.run_score(config_path, "--fresh") == 4
            err = capsys.readouterr().err
            assert str(out_dir) in err and err.count("\n") == 1
            assert scores_path.read_bytes() == first
            # evaluate only reads the directory, so it takes no lock.
            assert main(["evaluate", "--config", str(config_path), "--resamples", "20"]) == 0
        assert self.run_score(config_path, "--fresh") == 0
        assert scores_path.read_bytes() == first

    def test_selfcheck_without_samples_names_subcommand(self, workdir, capsys):
        config = no_sample_config(workdir)
        assert main(["score", "--config", str(config)]) == 2
        assert "'samples'" in capsys.readouterr().err


def drawn(config, concept, n):
    """The cached replies to draws 0 to n - 1 of ``concept``'s sample prompt,
    None for a miss."""
    cfg = cli.load_config(config)
    return [cli.build_client(cfg).cached(r) for r in cli._draws(cfg, concept, n)]


def vesna_replies(workdir, *replies):
    """Script ``replies`` for the sample prompt about Vesna Marinko, in order, in
    place of the fixture's replies to it."""
    script_path = workdir / "mock_script.json"
    script = json.loads((FIXTURES / "mock_script.json").read_text(encoding="utf-8"))
    rule = {"match": ["introductory paragraph about", "Vesna Marinko"], "replies": replies}
    script_path.write_text(
        json.dumps({**script, "rules": [rule, *script["rules"]]}), encoding="utf-8"
    )


class TestSamples:
    def test_generate_store_reuse(self, workdir, capsys):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        log = workdir / "cache" / "responses.jsonl"
        out = capsys.readouterr().out
        assert f"made 4 draws and took 0 from the cache, for 2 paragraphs, in {log}" in out
        assert drawn(config, "Vesna Marinko", 2) == [
            "Vesna Marinko was a Slovenian skier born in Kranj.",
            "Vesna Marinko competed in downhill events during the 1990s.",
        ]
        assert not (workdir / "samples").exists()
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        assert "made 0 draws and took 4 from the cache" in capsys.readouterr().out

    def test_score_uses_stored_samples(self, workdir, capsys):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 0
        assert "scored 20" in capsys.readouterr().out
        records = list(read_score_records(workdir / "out" / "scores.jsonl"))
        assert len(records) == 20

    def test_score_looks_up_each_paragraphs_draws_once(self, workdir, monkeypatch):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        lookups = []
        cached = cli.ChatClient.cached

        def counting(client, request):
            hit = cached(client, request)
            lookups.append(hit)
            return hit

        monkeypatch.setattr(cli.ChatClient, "cached", counting)
        assert main(["score", "--config", str(config)]) == 0
        # 2 paragraphs × 2 draws, not 20 rows × 2 draws.
        assert len(lookups) == 2 * 2 and all(lookups)
        monkeypatch.undo()
        # The rows equal those scored from the same samples given inline.
        with open(workdir / "dataset_inline.jsonl", "w", encoding="utf-8") as fh:
            for line in (workdir / "dataset_empty.jsonl").read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                row["samples"] = drawn(config, row["concept"], 2)
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["dataset"].update(path="dataset_inline.jsonl", expected_samples=None)
        cfg.update(output_dir="out_inline", cache_dir=None)
        inline = workdir / "config_inline.json"
        inline.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["score", "--config", str(inline)]) == 0
        rows = [
            (workdir / out / "scores.jsonl").read_bytes().split(b"\n", 1)[1]
            for out in ("out", "out_inline")
        ]
        assert rows[0] == rows[1] and rows[0].count(b"\n") == 20

    def test_a_resumed_score_looks_up_draws_only_for_pairs_left_to_score(
        self, workdir, monkeypatch, capsys
    ):
        config = str(no_sample_config(workdir))
        assert main(["samples", "--config", config, "--n", "2"]) == 0
        assert main(["score", "--config", config]) == 0
        shutil.rmtree(workdir / "cache")
        capsys.readouterr()
        calls = record_backend_calls(monkeypatch)
        assert main(["score", "--config", config]) == 0
        assert "scored 0 (skipped 20 already present)" in capsys.readouterr().out
        # With p02's last selfcheck+kg row to score again, p02 alone needs its draws.
        scores = workdir / "out" / "scores.jsonl"
        lines = scores.read_bytes().splitlines(keepends=True)
        assert json.loads(lines[-1])["output_ref"].startswith("p02")
        scores.write_bytes(b"".join(lines[:-1]))
        assert main(["score", "--config", config]) == 2
        assert "paragraph 'p02' has 0 of the 2 samples" in capsys.readouterr().err
        assert calls == []

    def test_rows_with_their_own_samples_get_no_draws(self, workdir, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        argv = ["samples", "--config", str(workdir / "run_config.json"), "--n", "4"]
        assert main(argv) == 0
        assert calls == []
        assert "made 0 draws and took 0 from the cache, for 0 paragraphs" in capsys.readouterr().out
        # Only the paragraph whose rows lost their samples is drawn for.
        config = no_sample_config(workdir, dataset={**EMPTY_DATASET, "expected_samples": None})
        strip_samples(workdir, {"p02"})
        assert main(["samples", "--config", str(config), "--n", "4"]) == 0
        assert sorted(calls) == [("Tomás Urquiza", k) for k in range(4)]
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 0
        assert "scored 20" in capsys.readouterr().out

    def test_too_few_cached_draws_are_refused_before_any_call(
        self, workdir, monkeypatch, capsys
    ):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "1"]) == 0
        capsys.readouterr()
        calls = record_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: paragraph 'p01' has 1 of the 2 samples selfcheck needs; "
            "draw them first with the 'samples' subcommand\n"
        )
        assert calls == [] and not (workdir / "out" / "scores.jsonl").exists()

    def test_draws_under_another_model_are_not_served(self, workdir, monkeypatch, capsys):
        provider = {"backend": "mock", "model_id": "model-a", "script": "mock_script.json"}
        config = no_sample_config(workdir, provider=provider)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        config = no_sample_config(workdir, provider={**provider, "model_id": "model-b"})
        capsys.readouterr()
        calls = record_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config)]) == 2
        assert "paragraph 'p01' has 0 of the 2 samples" in capsys.readouterr().err
        assert calls == []

    def test_a_row_whose_concept_changed_gets_no_draws_of_the_old_concept(
        self, workdir, monkeypatch, capsys
    ):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        dataset = workdir / "dataset_empty.jsonl"
        rows = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            if row["paragraph_id"] == "p02":
                row["concept"] = "Tomás Urquiza Ibarra"
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        capsys.readouterr()
        calls = record_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config)]) == 2
        assert "paragraph 'p02' has 0 of the 2 samples" in capsys.readouterr().err
        assert calls == []

    def test_a_draw_that_cannot_be_cached_exits_4_and_leaves_the_log(self, workdir):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "1"]) == 0
        log = workdir / "cache" / "responses.jsonl"
        before = log.read_bytes()
        # The file size limit of the child process alone, with SIGXFSZ ignored.
        code = (
            "import resource, signal, sys\n"
            "from hallucheck.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[2]) + 40, hard))\n"
            "sys.exit(main(['samples', '--config', sys.argv[1], '--n', '2']))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, str(config), str(len(before))],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("data error:") and proc.stderr.count("\n") == 1
        assert str(log) in proc.stderr and "Traceback" not in proc.stderr
        assert log.read_bytes() == before

    @pytest.mark.parametrize("command", ["samples", "score"])
    def test_no_cache_dir_is_one_line(self, workdir, monkeypatch, capsys, command):
        config = no_sample_config(workdir, cache_dir=None)
        calls = record_backend_calls(monkeypatch)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "cache_dir" in err and err.count("\n") == 1
        assert calls == [] and not (workdir / "samples").exists()

    def test_samples_dir_is_an_unknown_key(self, workdir, capsys):
        config = no_sample_config(workdir, samples_dir="samples")
        assert main(["samples", "--config", str(config), "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {config}: unknown key 'samples_dir'\n"

    def test_zero_samples_rejected(self, workdir):
        config = no_sample_config(workdir)
        assert main(["samples", "--config", str(config), "--n", "0"]) == 2

    def test_more_samples_than_the_cap_are_refused_before_any_call(
        self, workdir, monkeypatch, capsys
    ):
        config = no_sample_config(workdir)
        calls = record_backend_calls(monkeypatch)
        n = cli.MAX_SAMPLES + 1
        assert main(["samples", "--config", str(config), "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --n must be 1 to {cli.MAX_SAMPLES}, got {n}\n"
        assert calls == [] and not (workdir / "cache").exists()

    def test_second_run_takes_every_draw_from_the_cache(self, workdir, monkeypatch):
        config = str(no_sample_config(workdir))
        calls = record_backend_calls(monkeypatch)
        argv = ["samples", "--config", config, "--n", "3"]
        assert main(argv) == 0
        assert len(calls) == 2 * 3
        log = (workdir / "cache" / "responses.jsonl").read_bytes()
        calls.clear()
        assert main(argv) == 0
        assert calls == []
        assert (workdir / "cache" / "responses.jsonl").read_bytes() == log

    def test_rerun_after_a_failed_draw_asks_only_for_the_missing_draws(
        self, workdir, monkeypatch, capsys
    ):
        config = str(no_sample_config(workdir))
        calls = record_backend_calls(monkeypatch)
        vesna_replies(workdir, "v0", "v1", "")
        assert main(["samples", "--config", config, "--n", "4"]) == 3
        assert capsys.readouterr().err == "provider error: backend returned empty content\n"
        assert calls == [("Vesna Marinko", 0), ("Vesna Marinko", 1), ("Vesna Marinko", 2)]
        assert drawn(config, "Vesna Marinko", 4) == ["v0", "v1", None, None]

        calls.clear()
        vesna_replies(workdir, "v2", "v3")
        assert main(["samples", "--config", config, "--n", "4"]) == 0
        assert [d for concept, d in calls if concept == "Vesna Marinko"] == [2, 3]
        assert drawn(config, "Vesna Marinko", 4) == ["v0", "v1", "v2", "v3"]

    def test_blank_draw_is_neither_cached_nor_stored(self, workdir, capsys):
        config = str(no_sample_config(workdir))
        vesna_replies(workdir, "v0", "   ")
        assert main(["samples", "--config", config, "--n", "2"]) == 3
        assert capsys.readouterr().err == "provider error: backend returned a blank sample\n"
        assert cached_responses(workdir) == ["v0"]

        vesna_replies(workdir, "v1")
        assert main(["samples", "--config", config, "--n", "2"]) == 0
        assert drawn(config, "Vesna Marinko", 2) == ["v0", "v1"]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_paragraphs_with_one_concept_share_one_set_of_draws(
        self, workdir, monkeypatch, capsys, parallelism
    ):
        config = no_sample_config(workdir, parallelism=parallelism)
        dataset = workdir / "dataset_empty.jsonl"
        rows = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        dataset.write_text(
            "".join(json.dumps({**row, "concept": "Vesna Marinko"}) + "\n" for row in rows),
            encoding="utf-8",
        )
        calls = record_backend_calls(monkeypatch)
        assert main(["samples", "--config", str(config), "--n", "3"]) == 0
        assert sorted(calls) == [("Vesna Marinko", k) for k in range(3)]
        assert "made 3 draws and took 0 from the cache, for 2 paragraphs" in capsys.readouterr().out
        assert None not in drawn(config, "Vesna Marinko", 3)

    def test_a_failed_parallel_run_keeps_every_earlier_draw(
        self, workdir, monkeypatch, capsys
    ):
        config = str(no_sample_config(workdir, parallelism=4))
        argv = ["samples", "--config", config, "--n", "4"]
        keyed_backend(monkeypatch, blank={("Tomás Urquiza", 1)})
        calls = record_backend_calls(monkeypatch)
        assert main(argv) == 3
        assert capsys.readouterr().err == "provider error: backend returned empty content\n"
        answered = set(calls) - {("Tomás Urquiza", 1)}
        # Each draw is cached as it completes, so every answered draw is kept.
        kept = {
            (concept, k)
            for concept in ("Vesna Marinko", "Tomás Urquiza")
            for k, hit in enumerate(drawn(config, concept, 4))
            if hit is not None
        }
        assert answered and kept == answered

        monkeypatch.undo()
        keyed_backend(monkeypatch)
        calls = record_backend_calls(monkeypatch)
        assert main(argv) == 0
        draws = {(concept, k) for concept in ("Vesna Marinko", "Tomás Urquiza") for k in range(4)}
        assert ("Tomás Urquiza", 1) in calls
        assert sorted(calls) == sorted(draws - answered)
        assert None not in drawn(config, "Vesna Marinko", 4) + drawn(config, "Tomás Urquiza", 4)


def prepend_rule(workdir, rule):
    """Put ``rule`` before the rules of the fixture's mock script."""
    script_path = workdir / "mock_script.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script_path.write_text(
        json.dumps({**script, "rules": [rule, *script["rules"]]}), encoding="utf-8"
    )


def cached_responses(workdir):
    """The responses in the response-cache log under ``workdir``, in order;
    none if there is no log."""
    log = workdir / "cache" / "responses.jsonl"
    lines = log.read_bytes().splitlines() if log.exists() else []
    return [json.loads(line)["response"] for line in lines]


def record_backend_calls(monkeypatch):
    """Record the (concept, draw) of every sample request the CLI's backend
    receives."""
    build = cli.build_backend
    calls = []

    class Recording:
        def __init__(self, backend):
            self.backend = backend
            self.name = backend.name

        def complete_once(self, request):
            prompt = request.messages[-1].content
            calls.append((prompt.rsplit(" about ", 1)[-1].rstrip(".\n"), request.draw))
            return self.backend.complete_once(request)

    monkeypatch.setattr(cli, "build_backend", lambda cfg: Recording(build(cfg)))
    return calls


class TestEvaluate:
    def evaluate(self, config_path, *extra):
        return main(
            ["evaluate", "--config", str(config_path), "--resamples", "40", *extra]
        )

    @pytest.fixture()
    def scored(self, workdir, config_path):
        assert main(["score", "--config", str(config_path)]) == 0
        return workdir

    def test_report_and_table(self, scored, config_path, capsys):
        capsys.readouterr()
        assert self.evaluate(config_path) == 0
        out = capsys.readouterr().out
        assert "±" in out
        assert "positive class: hallucinated" in out
        assert "selfcheck+kg vs selfcheck" in out
        report = json.loads((scored / "out" / "report.json").read_text(encoding="utf-8"))
        assert [m["method"] for m in report["methods"]] == [
            "self_confidence",
            "self_confidence+kg",
            "self_questioning",
            "self_questioning+kg",
            "selfcheck",
            "selfcheck+kg",
        ]
        assert all(m["n"] == 10 for m in report["methods"])
        assert len(report["comparisons"]) == 3
        assert report["meta"]["config_digest"]
        assert report["resamples"] == 40

    def test_positive_class_flag(self, scored, config_path):
        assert self.evaluate(config_path, "--positive", "accurate") == 0
        report = json.loads((scored / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["positive_class"] == "accurate"
        assert all(
            m["positive_class"] == "accurate" for m in report["methods"]
        )

    def test_unknown_ref_is_data_error(self, scored, config_path, capsys):
        scores_path = scored / "out" / "scores.jsonl"
        with open(scores_path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "output_ref": "zzz:0",
                        "method": "selfcheck",
                        "kg_used": False,
                        "score": 0.5,
                        "misses": 0,
                        "prompt_version": "v1",
                        "model_id": "m",
                    }
                )
                + "\n"
            )
        assert self.evaluate(config_path) == 4
        assert "zzz:0" in capsys.readouterr().err

    def test_duplicate_row_is_data_error(self, scored, config_path, capsys):
        scores_path = scored / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines(keepends=True)
        scores_path.write_text("".join(lines + [lines[3]]), encoding="utf-8")
        row = json.loads(lines[3])
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        err = capsys.readouterr().err
        assert f"{scores_path}:{len(lines) + 1}: duplicate row" in err
        assert repr((row["output_ref"], row["method"], row["kg_used"])) in err
        assert err.count("\n") == 1

    def test_meta_line_after_line_one_is_data_error(self, scored, config_path, capsys):
        scores_path = scored / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines(keepends=True)
        meta = {**json.loads(lines[0]), "config_digest": "other", "model_id": "other-model"}
        lines.insert(4, json.dumps(meta) + "\n")
        scores_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        err = capsys.readouterr().err
        assert f"{scores_path}:5: a meta line may only be line 1" in err
        assert err.count("\n") == 1

    def test_wrongly_typed_row_is_data_error(self, scored, config_path, capsys):
        scores_path = scored / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[3])
        row["kg_used"] = "false" if row["kg_used"] else "true"
        lines[3] = json.dumps(row) + "\n"
        scores_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        err = capsys.readouterr().err
        assert f"{scores_path}:4: kg_used must be true or false, got str" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda row: row.update(score=1.5), "score 1.5 outside [0, 1]"),
            (
                lambda row: row.update(score=0.0 if row["score"] > 0.5 else 1.0),
                "is not the mean of its triple scores",
            ),
            (
                lambda row: row["triple_scores"][0][0].__setitem__(1, " "),
                "triple field 'relation' is empty",
            ),
            (
                lambda row: row.update(score=0.7, misses=3, triple_scores=[]),
                "triple_scores must not be empty",
            ),
        ],
        ids=["score-above-one", "score-not-the-mean", "blank-triple-field", "empty-triple-scores"],
    )
    def test_row_the_record_refuses_is_data_error(
        self, scored, config_path, capsys, edit, message
    ):
        scores_path = scored / "out" / "scores.jsonl"
        lines = scores_path.read_text(encoding="utf-8").splitlines()
        line = next(i for i, text in enumerate(lines, 1) if '"triple_scores"' in text)
        edit_json(scores_path, edit, line=line)
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scores_path}:{line}: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["prompt_version", "model_id"])
    def test_rows_of_more_than_one_origin_are_refused(self, scored, config_path, capsys, field):
        scores_path = scored / "out" / "scores.jsonl"
        edit_json(scores_path, lambda row: row.update({field: "other"}), line=5)
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scores_path} mixes rows") and "'other'" in err
        assert err.count("\n") == 1
        assert not (scored / "out" / "report.json").exists()

    def test_missing_scores_is_data_error(self, workdir, config_path):
        assert self.evaluate(config_path) == 4

    def test_stream_of_only_its_meta_line_is_data_error(self, scored, config_path, capsys):
        scores_path = scored / "out" / "scores.jsonl"
        meta = scores_path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        scores_path.write_text(meta, encoding="utf-8")
        capsys.readouterr()
        assert self.evaluate(config_path) == 4
        assert capsys.readouterr().err == f"data error: {scores_path}: no score records\n"

    def test_custom_paths(self, scored, config_path):
        report_path = scored / "custom_report.json"
        code = self.evaluate(
            config_path,
            "--scores",
            str(scored / "out" / "scores.jsonl"),
            "--report",
            str(report_path),
        )
        assert code == 0
        assert report_path.exists()

    def test_report_in_a_missing_directory_is_one_line_naming_it(
        self, scored, config_path, capsys
    ):
        report = scored / "missing" / "r.json"
        capsys.readouterr()
        assert self.evaluate(config_path, "--report", str(report)) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(report) in err and ".tmp" not in err

    @pytest.mark.parametrize("target", ["DIR", "missing/r.json"], ids=["directory", "no-parent"])
    def test_unwritable_report_is_refused_before_any_bootstrap(
        self, scored, config_path, capsys, monkeypatch, target
    ):
        (scored / "DIR").mkdir()
        before = sorted(scored.rglob("*"))
        calls = []
        evaluate_method = cli.evaluate_method
        monkeypatch.setattr(
            cli, "evaluate_method", lambda *args: calls.append(args) or evaluate_method(*args)
        )
        report = scored / target
        capsys.readouterr()
        assert self.evaluate(config_path, "--report", str(report)) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1 and str(report) in err
        assert calls == [] and sorted(scored.rglob("*")) == before

    def test_report_has_the_mode_open_gives_a_new_file(self, scored, config_path):
        umask = os.umask(0o027)
        try:
            assert self.evaluate(config_path) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE((scored / "out" / "report.json").stat().st_mode) == 0o640

    def test_report_bytes(self, scored, config_path):
        # The fixture report at 200 resamples, pinned byte for byte: a float
        # that drifts in any metric kernel changes this digest.
        assert main(["evaluate", "--config", str(config_path), "--resamples", "200"]) == 0
        report = (scored / "out" / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "b0a2775adb82cd92afe5e06d400a52d6ec5358c5ef207275057dc1984f9438e8"
        )

    def test_report_bytes_without_np_percentile(self, scored, config_path, monkeypatch):
        # Every interval takes its ends from evaluation's own partition, so
        # the pinned report needs no np.percentile call.
        def refuse(*args, **kwargs):
            raise AssertionError("np.percentile called")

        monkeypatch.setattr(np, "percentile", refuse)
        self.test_report_bytes(scored, config_path)

    def test_one_draw_per_example_count(self, scored, config_path, generators_built):
        # Every bootstrap and paired comparison of one evaluate shares its
        # resamples: one generator per distinct n, whatever the method count.
        assert self.evaluate(config_path) == 0
        report = json.loads((scored / "out" / "report.json").read_text(encoding="utf-8"))
        assert len(report["methods"]) == 6 and len(report["comparisons"]) == 3
        assert len(generators_built) == len({m["n"] for m in report["methods"]}) == 1


class TestScoreResumeRepair:
    """A score stream left behind by a crash, or edited by hand."""

    @pytest.fixture()
    def full(self, workdir, config_path):
        assert main(["score", "--config", str(config_path)]) == 0
        return (workdir / "out" / "scores.jsonl").read_bytes()

    def test_torn_last_line_is_dropped_and_rescored(self, workdir, config_path, full, capsys):
        scores_path = workdir / "out" / "scores.jsonl"
        scores_path.write_bytes(full[: full.rindex(b"\n", 0, -1) + 1 + 40])
        capsys.readouterr()
        assert main(["score", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert "unterminated last line (40 bytes)" in captured.err
        assert "scored 1 (skipped 59" in captured.out
        assert scores_path.read_bytes() == full

    def test_rerun_after_a_torn_cache_line_makes_one_call(
        self, workdir, config_path, full, monkeypatch
    ):
        """A put killed in the middle of its line leaves the cache log torn;
        the rerun drops the torn line and makes only the call it held."""
        log = workdir / "cache" / "responses.jsonl"
        whole = log.read_bytes()
        last = whole.rindex(b"\n", 0, -1) + 1
        log.write_bytes(whole[: last + (len(whole) - last) // 2])
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(config_path), "--fresh"]) == 0
        assert len(calls) == 1
        repaired = log.read_bytes()
        assert repaired.endswith(b"\n")
        assert sorted(repaired.splitlines()) == sorted(whole.splitlines())
        assert (workdir / "out" / "scores.jsonl").read_bytes() == full

    def test_resume_after_any_cut_gives_the_uninterrupted_stream(
        self, workdir, config_path, full
    ):
        """A crash can leave the stream cut after any line or inside any
        line; resuming from each cut must end with the same bytes."""
        scores_path = workdir / "out" / "scores.jsonl"
        ends = [0] + [i + 1 for i, byte in enumerate(full) if byte == ord("\n")]
        assert len(ends) == 62
        cuts = ends + [(start + end) // 2 for start, end in zip(ends, ends[1:])]
        for cut in cuts:
            scores_path.write_bytes(full[:cut])
            assert main(["score", "--config", str(config_path)]) == 0, cut
            assert scores_path.read_bytes() == full, cut

    def test_torn_meta_line_restarts_the_stream(self, workdir, config_path, full):
        scores_path = workdir / "out" / "scores.jsonl"
        scores_path.write_bytes(full[:25])
        assert main(["score", "--config", str(config_path)]) == 0
        assert scores_path.read_bytes() == full

    def test_stream_without_a_meta_line_refuses_resume(self, workdir, config_path, full, capsys):
        scores_path = workdir / "out" / "scores.jsonl"
        headless = full.split(b"\n", 1)[1]
        scores_path.write_bytes(headless)
        obj = json.loads(config_path.read_text(encoding="utf-8"))
        config_path.write_text(json.dumps({**obj, "seed": 99}), encoding="utf-8")
        capsys.readouterr()
        assert main(["score", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert str(scores_path) in err and "--fresh" in err and err.count("\n") == 1
        assert scores_path.read_bytes() == headless

    def test_malformed_inner_line_names_file_and_line(self, workdir, config_path, full, capsys):
        scores_path = workdir / "out" / "scores.jsonl"
        lines = full.decode("utf-8").splitlines(keepends=True)
        lines[2] = lines[2][:30] + "\n"
        scores_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert f"{scores_path}:3: invalid JSON" in err
        assert "Traceback" not in err

    def test_row_missing_a_field_names_file_line_and_field(
        self, workdir, config_path, full, capsys
    ):
        scores_path = workdir / "out" / "scores.jsonl"
        lines = full.decode("utf-8").splitlines(keepends=True)
        row = json.loads(lines[4])
        del row["score"]
        lines[4] = json.dumps(row) + "\n"
        scores_path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["score", "--config", str(config_path)]) == 4
        err = capsys.readouterr().err
        assert f"{scores_path}:5:" in err
        assert "'score'" in err


def slow_backends(monkeypatch, delay_s):
    """Make every non-empty backend reply of the CLI take ``delay_s``, and
    record the most live threads seen during a backend call."""
    build = cli.build_backend
    seen = {"threads": 0}

    class Slow:
        def __init__(self, backend):
            self.backend = backend
            self.name = backend.name

        def complete_once(self, request):
            seen["threads"] = max(seen["threads"], threading.active_count())
            reply = self.backend.complete_once(request)
            if reply:
                time.sleep(delay_s)
            return reply

    monkeypatch.setattr(cli, "build_backend", lambda cfg: Slow(build(cfg)))
    return seen


def timed_backend_calls(monkeypatch, delay_s=0.0):
    """Record every backend call of the CLI as (prompt, thread name, start,
    end), each call held for ``delay_s`` after its reply."""
    build = cli.build_backend
    calls = []

    class Timed:
        def __init__(self, backend):
            self.backend = backend
            self.name = backend.name

        def complete_once(self, request):
            start = time.perf_counter()
            reply = self.backend.complete_once(request)
            time.sleep(delay_s)
            prompt = request.messages[-1].content
            calls.append((prompt, threading.current_thread().name, start, time.perf_counter()))
            return reply

    monkeypatch.setattr(cli, "build_backend", lambda cfg: Timed(build(cfg)))
    return calls


def rendezvous_backend(monkeypatch, groups, timeout_s=5.0):
    """Hold each extraction call of a passage in one of ``groups`` until a
    second call of that group has started, or for ``timeout_s``; return the
    (passage, met a partner) of each held call, in the order they went on."""
    build = cli.build_backend
    started = dict.fromkeys(groups, 0)
    meeting = threading.Condition()
    waits = []

    class Rendezvous:
        def __init__(self, backend):
            self.backend = backend
            self.name = backend.name

        def complete_once(self, request):
            text = passage(request.messages[-1].content)
            group = next((g for g in groups if text in g), None)
            if group is not None:
                with meeting:
                    started[group] += 1
                    meeting.notify_all()
                    met = meeting.wait_for(lambda: started[group] >= 2, timeout_s)
                    waits.append((text, met))
            return self.backend.complete_once(request)

    monkeypatch.setattr(cli, "build_backend", lambda cfg: Rendezvous(build(cfg)))
    return waits


def passage(prompt):
    """The text an extraction prompt extracts from, or None for other prompts."""
    if "knowledge-graph triples" not in prompt:
        return None
    return prompt.split("Passage: ", 1)[1].split("\n", 1)[0]


def most_at_once(calls):
    """The most of ``calls`` in flight at one instant."""
    events = sorted([(start, 1) for _, _, start, _ in calls] + [(end, -1) for *_, end in calls])
    running = most = 0
    for _, step in events:
        running += step
        most = max(most, running)
    return most


def unit_threads():
    return [t for t in threading.enumerate() if t.name.startswith("hallucheck-unit")]


# Each command that calls the provider, with the fewest backend calls it makes
# in ``fixture_run``.
COMMANDS = {"score": 61, "samples": 8, "extract": 3}


def fixture_run(fixture_dir, directory, command, **config):
    """Copy the fixture to ``directory`` and return the argv that runs
    ``command`` over it: ``samples`` draws 4 per paragraph, for rows with
    their samples removed."""
    if command == "samples":
        config["dataset"] = EMPTY_DATASET
    copy_fixture(fixture_dir, directory, **config)
    argv = [command, "--config", str(directory / "run_config.json")]
    if command == "samples":
        strip_samples(directory)
        return argv + ["--n", "4"]
    if command == "extract":
        sentences, out = str(directory / "sentences.txt"), str(directory / "kgs.jsonl")
        return argv + ["--input", sentences, "--output", out]
    return argv


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_cached_second_run_makes_no_backend_call(tmp_path, fixture_dir, monkeypatch, command):
    argv = fixture_run(fixture_dir, tmp_path, command, parallelism=4)
    if command == "score":
        argv.append("--fresh")
    output = tmp_path / {"score": "out", "samples": "cache", "extract": "kgs.jsonl"}[command]

    def written():
        paths = [output] if output.is_file() else sorted(output.glob("*.json*"))
        return {path.name: path.read_bytes() for path in paths}

    calls = timed_backend_calls(monkeypatch)
    assert main(argv) == 0
    assert len(calls) >= COMMANDS[command]
    first, log = written(), (tmp_path / "cache" / "responses.jsonl").read_bytes()
    assert first and all(first.values())
    calls.clear()
    assert main(argv) == 0
    assert calls == []
    assert written() == first
    assert (tmp_path / "cache" / "responses.jsonl").read_bytes() == log


def keyed_backend(monkeypatch, blank=()):
    """Make every reply of the CLI's backend depend only on its request and
    draw: a one-triple graph named by their digest, after a pause that also
    depends only on them, so replies come back out of order at a parallelism
    above 1. A request whose (concept, draw) is in ``blank`` gets an empty
    reply, which is a refusal."""
    build = cli.build_backend

    class Keyed:
        def __init__(self, backend):
            self.name = backend.name

        def complete_once(self, request):
            prompt = request.messages[-1].content
            if (prompt.rsplit(" about ", 1)[-1].rstrip(".\n"), request.draw) in blank:
                return ""
            digest = hashlib.sha256(f"{prompt}\0{request.draw}".encode("utf-8")).hexdigest()
            time.sleep(int(digest[:2], 16) / 255 * 0.004)
            return json.dumps([[f"s{digest[:8]}", "drawn", str(request.draw)]])

    monkeypatch.setattr(cli, "build_backend", lambda cfg: Keyed(build(cfg)))


class TestParallelScore:
    def run_pipeline(self, directory):
        config = str(directory / "run_config.json")
        assert main(["score", "--config", config]) == 0
        assert main(["evaluate", "--config", config, "--resamples", "200"]) == 0
        scores = (directory / "out" / "scores.jsonl").read_text(encoding="utf-8")
        meta, rows = scores.split("\n", 1)
        report = json.loads((directory / "out" / "report.json").read_text(encoding="utf-8"))
        return json.loads(meta), rows, report.pop("meta"), report

    def test_parallelism_does_not_change_artifacts(self, tmp_path, fixture_dir, monkeypatch):
        serial = self.run_pipeline(copy_fixture(fixture_dir, tmp_path / "p1", parallelism=1))
        seen = slow_backends(monkeypatch, 0.005)
        baseline = threading.active_count()
        parallel = self.run_pipeline(copy_fixture(fixture_dir, tmp_path / "p4", parallelism=4))
        assert parallel[1] == serial[1]
        assert parallel[3] == serial[3]
        for serial_meta, parallel_meta in ((serial[0], parallel[0]), (serial[2], parallel[2])):
            assert parallel_meta.pop("config_digest") != serial_meta.pop("config_digest")
            assert parallel_meta == serial_meta
        # One pool of 2 * 4 - 1 workers.
        assert seen["threads"] <= baseline + 2 * 4 - 1

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_samples_are_extracted_once_per_paragraph(
        self, tmp_path, fixture_dir, monkeypatch, parallelism
    ):
        detectors = [{"method": "selfcheck", "use_kg": True, "n_samples": 3}]
        workdir = copy_fixture(
            fixture_dir, tmp_path, parallelism=parallelism, detectors=detectors
        )
        rows = [
            json.loads(line)
            for line in (workdir / "fixture_dataset.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        samples = {}
        for row in rows:
            samples.setdefault(row["paragraph_id"], row["samples"][:3])
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 0
        # Each paragraph has 5 records and 3 samples: 3 sample extractions per
        # paragraph reach the backend, not 15.
        extracted = [passage(prompt) for prompt, *_ in calls]
        for paragraph_samples in samples.values():
            assert sum(text in paragraph_samples for text in extracted) == 3
        assert len(extracted) == len(rows) + 3 * len(samples)

    def test_failure_stops_new_pairs_and_resume_completes(
        self, tmp_path, fixture_dir, monkeypatch, capsys
    ):
        detectors = [
            {"method": m, "use_kg": kg}
            for m in ("self_questioning", "self_confidence")
            for kg in (False, True)
        ]
        expected_dir = copy_fixture(
            fixture_dir, tmp_path / "expected", parallelism=4, detectors=detectors
        )
        assert main(["score", "--config", str(expected_dir / "run_config.json")]) == 0
        expected = (expected_dir / "out" / "scores.jsonl").read_text(encoding="utf-8")

        workdir = copy_fixture(fixture_dir, tmp_path / "run", parallelism=4, detectors=detectors)
        script_path = workdir / "mock_script.json"
        script = json.loads(script_path.read_text(encoding="utf-8"))
        refusal = {
            "match": [
                "Confidence score:",
                "Statement: Tomás Urquiza composed the opera Mar Adentro in 1954.",
            ],
            "reply": "",
        }
        script_path.write_text(
            json.dumps({**script, "rules": [refusal, *script["rules"]]}), encoding="utf-8"
        )
        # Pair 22 (record 5, self_confidence) is refused. Every other pair takes
        # at least 50 ms, so while it fails each of the 6 other workers can have
        # started at most one later pair: pairs past 28 may start only if the
        # failure does not stop new pairs.
        failing, workers = 5 * 4 + 2, 2 * 4 - 1
        slow_backends(monkeypatch, 0.05)
        started = []
        run_detector = cli.run_detector

        def record_start(config, output, ctx, samples=None):
            started.append((output.prompt_id, config.method.value, config.use_kg))
            return run_detector(config, output, ctx, samples=samples)

        monkeypatch.setattr(cli, "run_detector", record_start)
        config = str(workdir / "run_config.json")
        capsys.readouterr()
        assert main(["score", "--config", config]) == 3
        assert "provider error: self_confidence failed on p02:0" in capsys.readouterr().err

        order = [
            (f"p0{1 + i // 5}:{i % 5}", d["method"], d["use_kg"])
            for i in range(10)
            for d in detectors
        ]
        assert order[failing] in started
        assert len(started) == len(set(started))
        assert max(order.index(key) for key in started) < failing + workers

        partial = (workdir / "out" / "scores.jsonl").read_text(encoding="utf-8")
        rows = [json.loads(line) for line in partial.splitlines()[1:]]
        keys = [(r["output_ref"], r["method"], r["kg_used"]) for r in rows]
        assert keys == order[: len(keys)]
        assert len(keys) <= failing
        assert expected.startswith(partial)

        script_path.write_text(json.dumps(script), encoding="utf-8")
        monkeypatch.undo()
        assert main(["score", "--config", config]) == 0
        assert (workdir / "out" / "scores.jsonl").read_text(encoding="utf-8") == expected


class TestOnePool:
    """Every command that calls the provider runs its units on one pool of
    2 * parallelism - 1 workers, with at most ``parallelism`` backend calls in
    flight. Each check runs every command in ``COMMANDS`` in turn."""

    def test_one_thread_makes_every_call_at_parallelism_one(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        calls = timed_backend_calls(monkeypatch)
        for command, fewest in COMMANDS.items():
            calls.clear()
            assert main(fixture_run(fixture_dir, tmp_path / command, command, parallelism=1)) == 0
            assert len(calls) >= fewest, command
            assert len({thread for _, thread, _, _ in calls}) == 1, command

    def test_calls_in_flight_and_calling_threads_are_bounded(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        calls = timed_backend_calls(monkeypatch, 0.005)
        for command in COMMANDS:
            calls.clear()
            assert main(fixture_run(fixture_dir, tmp_path / command, command, parallelism=4)) == 0
            assert len({thread for _, thread, _, _ in calls}) <= 2 * 4 - 1, command
            assert 2 <= most_at_once(calls) <= 4, command

    def test_a_paragraphs_samples_are_extracted_side_by_side(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        detectors = [{"method": "selfcheck", "use_kg": True, "n_samples": 3}]
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=4, detectors=detectors)
        rows = (workdir / "fixture_dataset.jsonl").read_text(encoding="utf-8").splitlines()
        paragraphs = {tuple(json.loads(row)["samples"]) for row in rows}
        waits = rendezvous_backend(monkeypatch, paragraphs)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 0
        assert len(waits) == 3 * len(paragraphs)
        assert [text for text, met in waits if not met] == []

    @pytest.mark.parametrize("failed", [False, True], ids=["success", "provider-failure"])
    def test_no_worker_outlives_the_run(self, tmp_path, fixture_dir, monkeypatch, failed):
        monkeypatch.setattr(hallucheck.provider.client, "RETRY_BACKOFF_S", 0.0)
        slow_backends(monkeypatch, 0.05)
        for command in COMMANDS:
            argv = fixture_run(fixture_dir, tmp_path / command, command, parallelism=4)
            if failed:
                # The first backend call succeeds and every later attempt fails.
                script_path = tmp_path / command / "mock_script.json"
                script = json.loads(script_path.read_text(encoding="utf-8"))
                script["fail_calls"] = list(range(2, 1000))
                script_path.write_text(json.dumps(script), encoding="utf-8")
            assert main(argv) == (3 if failed else 0), command
            assert unit_threads() == [], command

    def test_a_stream_that_cannot_be_opened_is_refused_before_any_call(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        argv = fixture_run(fixture_dir, tmp_path, "score", parallelism=4)
        (tmp_path / "out" / "scores.jsonl").mkdir(parents=True)
        calls = timed_backend_calls(monkeypatch)
        assert main(argv + ["--fresh"]) == 4
        assert calls == []
        assert unit_threads() == []

    @pytest.mark.parametrize("command", ["samples", "extract"])
    def test_files_are_the_same_at_any_parallelism(
        self, tmp_path, fixture_dir, monkeypatch, command
    ):
        keyed_backend(monkeypatch)
        written = []
        for parallelism in (1, 4):
            workdir = tmp_path / f"p{parallelism}"
            assert main(fixture_run(fixture_dir, workdir, command, parallelism=parallelism)) == 0
            if command == "samples":
                # The log's lines follow the order in which the draws complete.
                log = (workdir / "cache" / "responses.jsonl").read_bytes()
                written.append(sorted(log.splitlines()))
            else:
                # The meta line holds the config digest, which covers parallelism.
                written.append((workdir / "kgs.jsonl").read_bytes().splitlines()[1:])
        assert len(written[0]) == (2 * 4 if command == "samples" else 3)
        assert written[0] == written[1]

    def test_too_few_samples_is_refused_before_any_call(
        self, tmp_path, fixture_dir, monkeypatch, capsys
    ):
        # The fixture's six detectors, with sentence-level selfcheck after four
        # provider-backed detectors.
        six = json.loads((fixture_dir / "run_config.json").read_text(encoding="utf-8"))["detectors"]
        six[4]["n_samples"] = 5
        kg_only = [{"method": "selfcheck", "use_kg": True, "n_samples": 5}]
        calls = timed_backend_calls(monkeypatch)
        for name, detectors in (("kg", kg_only), ("six", six)):
            workdir = copy_fixture(fixture_dir, tmp_path / name, parallelism=4, detectors=detectors)
            assert main(["score", "--config", str(workdir / "run_config.json")]) == 2, name
            assert "selfcheck needs 5 samples, got 3" in capsys.readouterr().err, name
            assert calls == [], name
            assert not (workdir / "out" / "scores.jsonl").exists(), name
