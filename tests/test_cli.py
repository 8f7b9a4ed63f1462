import fcntl
import hashlib
import json
import shutil
import threading
import time

import numpy as np
import pytest

from hallucheck import cli
from hallucheck.cli import main
from hallucheck.core import KnowledgeGraph, Triple
from hallucheck.data import SampleStore, read_score_records

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


def no_sample_config(workdir, with_store):
    """Config whose dataset rows carry no samples of their own."""
    rows = [
        json.loads(line)
        for line in (workdir / "fixture_dataset.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    with open(workdir / "dataset_empty.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            row["samples"] = []
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    cfg = {
        "provider": {"backend": "mock", "model_id": "mock-model", "script": "mock_script.json"},
        "embedding": {"backend": "hash", "dim": 64, "seed": 0},
        "detectors": [
            {"method": "selfcheck", "use_kg": False, "n_samples": 2},
            {"method": "selfcheck", "use_kg": True, "n_samples": 2},
        ],
        "dataset": {"path": "dataset_empty.jsonl", "kind": "wikibio", "expected_samples": 0},
        "cache_dir": "cache",
        "output_dir": "out",
        "seed": 7,
    }
    if with_store:
        cfg["samples_dir"] = "samples"
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
        ],
    )
    def test_bad_value_is_one_line(self, config_path, capsys, path, value, message):
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
        assert main([command, "--config", str(workdir / "run_config.json")]) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
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
            ("samples", {"samples_dir": "FILE"}, [], "FILE"),
            ("score", {"output_dir": "FILE"}, [], "FILE"),
            ("score", {"dataset": {"path": "DIR", "expected_samples": 3}}, [], "DIR"),
            ("score", {"cache_dir": "FILE"}, [], "FILE"),
        ],
        ids=[
            "evaluate-scores",
            "evaluate-report",
            "extract-input",
            "extract-output",
            "samples-store",
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

    @pytest.mark.parametrize("input_name", ["config", "dataset", "scores", "store"])
    def test_wrongly_typed_field_is_one_line(self, workdir, config_path, capsys, input_name):
        config, command = config_path, "score"
        if input_name == "config":
            edit_json(config_path, lambda obj: obj["embedding"].update(dim="64"))
            message = "config error: embedding.dim must be an integer, got str"
        elif input_name == "dataset":
            path = workdir / "fixture_dataset.jsonl"
            edit_json(path, lambda row: row.update(sentence_index="1"), line=3)
            message = f"data error: {path}:3: sentence_index must be an integer, got str"
        elif input_name == "scores":
            assert main(["score", "--config", str(config_path)]) == 0
            path = workdir / "out" / "scores.jsonl"
            edit_json(path, lambda row: row.update(misses=0.5), line=2)
            command = "evaluate"
            message = f"data error: {path}:2: misses must be an integer, got float"
        else:
            config = no_sample_config(workdir, with_store=True)
            assert main(["samples", "--config", str(config), "--n", "2"]) == 0
            path = SampleStore(workdir / "samples")._path_for("p02")
            edit_json(path, lambda obj: obj["samples"].__setitem__(1, 7))
            message = f"data error: {path}: samples[1] must be a string, got int"
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
        replies = [json.loads(p.read_bytes())["response"] for p in workdir.glob("cache/*.json")]
        assert "Harlow" not in "".join(replies) and (cache_dir is None) == (replies == [])

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
        entry = sorted((workdir / "cache").glob("*.json"))[0]
        entry.write_text(body, encoding="utf-8")
        assert self.run_score(config_path, "--fresh") == 0
        assert scores_path.read_bytes() == clean
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert [str(entry) in r.getMessage() for r in warnings] == [True]
        assert json.loads(entry.read_text(encoding="utf-8"))["response"] is not None

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
        config = no_sample_config(workdir, with_store=False)
        assert main(["score", "--config", str(config)]) == 2
        assert "'samples'" in capsys.readouterr().err


class TestSamples:
    def test_generate_store_reuse(self, workdir, capsys):
        config = no_sample_config(workdir, with_store=True)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        assert "stored 4 samples for 2 paragraphs (0 already present)" in capsys.readouterr().out
        store = SampleStore(workdir / "samples")
        assert store.has("p01") and store.has("p02")
        assert len(list((workdir / "samples").glob("*.json"))) == 2
        assert store.get("p01") == [
            "Vesna Marinko was a Slovenian skier born in Kranj.",
            "Vesna Marinko competed in downhill events during the 1990s.",
        ]
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        assert "(2 already present)" in capsys.readouterr().out

    def test_score_uses_stored_samples(self, workdir, capsys):
        config = no_sample_config(workdir, with_store=True)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 0
        assert "scored 20" in capsys.readouterr().out
        records = list(read_score_records(workdir / "out" / "scores.jsonl"))
        assert len(records) == 20

    def test_score_reads_each_store_file_once(self, workdir, monkeypatch):
        config = no_sample_config(workdir, with_store=True)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        gets = []
        get = SampleStore.get
        monkeypatch.setattr(
            SampleStore, "get", lambda store, pid: gets.append(pid) or get(store, pid)
        )
        assert main(["score", "--config", str(config)]) == 0
        assert sorted(gets) == ["p01", "p02"]
        # The rows equal those scored from the same samples given inline.
        store = SampleStore(workdir / "samples")
        with open(workdir / "dataset_inline.jsonl", "w", encoding="utf-8") as fh:
            for line in (workdir / "dataset_empty.jsonl").read_text(encoding="utf-8").splitlines():
                row = json.loads(line)
                row["samples"] = store.get(row["paragraph_id"])
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        cfg = json.loads(config.read_text(encoding="utf-8"))
        del cfg["samples_dir"]
        cfg["dataset"].update(path="dataset_inline.jsonl", expected_samples=None)
        cfg["output_dir"] = "out_inline"
        inline = workdir / "config_inline.json"
        inline.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["score", "--config", str(inline)]) == 0
        rows = [
            (workdir / out / "scores.jsonl").read_bytes().split(b"\n", 1)[1]
            for out in ("out", "out_inline")
        ]
        assert rows[0] == rows[1] and rows[0].count(b"\n") == 20

    @pytest.mark.parametrize("body", ['{"samp', '["a", "b"]'])
    def test_corrupt_store_file_is_data_error(self, workdir, capsys, body):
        config = no_sample_config(workdir, with_store=True)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 0
        entry = sorted((workdir / "samples").glob("*.json"))[0]
        entry.write_text(body, encoding="utf-8")
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert str(entry) in err and err.count("\n") == 1

    def test_no_samples_dir_is_one_line(self, workdir, capsys):
        config = no_sample_config(workdir, with_store=False)
        assert main(["samples", "--config", str(config), "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "samples_dir" in err and err.count("\n") == 1
        assert not (workdir / "samples").exists()

    def test_zero_samples_rejected(self, workdir):
        config = no_sample_config(workdir, with_store=True)
        assert main(["samples", "--config", str(config), "--n", "0"]) == 2

    def test_second_run_takes_every_draw_from_the_cache(self, workdir, monkeypatch):
        config = str(no_sample_config(workdir, with_store=True))
        calls = record_backend_calls(monkeypatch)
        argv = ["samples", "--config", config, "--n", "3"]
        assert main(argv) == 0
        assert len(calls) == 2 * 3
        (workdir / "samples").rename(workdir / "first")
        calls.clear()
        assert main(argv) == 0
        assert calls == []
        first, second = (
            {p.name: p.read_bytes() for p in (workdir / store).glob("*.json")}
            for store in ("first", "samples")
        )
        assert len(first) == 2 and first == second

    def test_rerun_after_a_failed_draw_asks_only_for_the_missing_draws(
        self, workdir, monkeypatch, capsys
    ):
        config = str(no_sample_config(workdir, with_store=True))
        script_path = workdir / "mock_script.json"
        script = json.loads(script_path.read_text(encoding="utf-8"))

        def vesna_replies(*replies):
            rule = {"match": ["introductory paragraph about", "Vesna Marinko"], "replies": replies}
            rules = [rule, *script["rules"]]
            script_path.write_text(json.dumps({**script, "rules": rules}), encoding="utf-8")

        calls = record_backend_calls(monkeypatch)
        vesna_replies("v0", "v1", "")
        assert main(["samples", "--config", config, "--n", "4"]) == 3
        assert capsys.readouterr().err == "provider error: backend returned empty content\n"
        assert calls == [("Vesna Marinko", 0), ("Vesna Marinko", 1), ("Vesna Marinko", 2)]
        assert not list((workdir / "samples").glob("*.json"))

        calls.clear()
        vesna_replies("v2", "v3")
        assert main(["samples", "--config", config, "--n", "4"]) == 0
        assert [d for concept, d in calls if concept == "Vesna Marinko"] == [2, 3]
        assert SampleStore(workdir / "samples").get("p01") == ["v0", "v1", "v2", "v3"]

    def test_blank_draw_is_neither_cached_nor_stored(self, workdir, capsys):
        config = str(no_sample_config(workdir, with_store=True))
        script_path = workdir / "mock_script.json"
        script = json.loads(script_path.read_text(encoding="utf-8"))

        def vesna_replies(*replies):
            rule = {"match": ["introductory paragraph about", "Vesna Marinko"], "replies": replies}
            rules = [rule, *script["rules"]]
            script_path.write_text(json.dumps({**script, "rules": rules}), encoding="utf-8")

        vesna_replies("v0", "   ")
        assert main(["samples", "--config", config, "--n", "2"]) == 3
        assert capsys.readouterr().err == "provider error: backend returned a blank sample\n"
        assert not list((workdir / "samples").glob("*.json"))
        cached = [
            json.loads(path.read_text(encoding="utf-8"))["response"]
            for path in (workdir / "cache").glob("*.json")
        ]
        assert cached == ["v0"]

        vesna_replies("v1")
        assert main(["samples", "--config", config, "--n", "2"]) == 0
        assert SampleStore(workdir / "samples").get("p01") == ["v0", "v1"]


def prepend_rule(workdir, rule):
    """Put ``rule`` before the rules of the fixture's mock script."""
    script_path = workdir / "mock_script.json"
    script = json.loads(script_path.read_text(encoding="utf-8"))
    script_path.write_text(
        json.dumps({**script, "rules": [rule, *script["rules"]]}), encoding="utf-8"
    )


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

    def test_missing_scores_is_data_error(self, workdir, config_path):
        assert self.evaluate(config_path) == 4

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


def passage(call):
    """The text an extraction call extracts from, or None for other calls."""
    prompt = call[0]
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
        extracted = [passage(call) for call in calls]
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
    """``score`` runs every unit on one pool of 2 * parallelism - 1 workers,
    with at most ``parallelism`` backend calls in flight."""

    def test_one_thread_makes_every_call_at_parallelism_one(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=1)
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 0
        assert len(calls) > 60
        assert len({thread for _, thread, _, _ in calls}) == 1

    def test_calls_in_flight_and_calling_threads_are_bounded(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=4)
        calls = timed_backend_calls(monkeypatch, 0.005)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 0
        assert len({thread for _, thread, _, _ in calls}) <= 2 * 4 - 1
        assert most_at_once(calls) <= 4

    def test_a_paragraphs_samples_are_extracted_side_by_side(
        self, tmp_path, fixture_dir, monkeypatch
    ):
        detectors = [{"method": "selfcheck", "use_kg": True, "n_samples": 3}]
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=4, detectors=detectors)
        calls = timed_backend_calls(monkeypatch, 0.02)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 0
        rows = (workdir / "fixture_dataset.jsonl").read_text(encoding="utf-8").splitlines()
        for samples in {tuple(json.loads(row)["samples"]) for row in rows}:
            assert most_at_once([call for call in calls if passage(call) in samples]) >= 2

    @pytest.mark.parametrize("refused", [False, True], ids=["success", "provider-failure"])
    def test_no_worker_outlives_the_run(self, tmp_path, fixture_dir, monkeypatch, refused):
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=4)
        if refused:
            script_path = workdir / "mock_script.json"
            script = json.loads(script_path.read_text(encoding="utf-8"))
            refusal = {"match": ["Confidence score:", "Harlow Trophy"], "reply": ""}
            script["rules"].insert(0, refusal)
            script_path.write_text(json.dumps(script), encoding="utf-8")
        slow_backends(monkeypatch, 0.05)
        code = main(["score", "--config", str(workdir / "run_config.json")])
        assert code == (3 if refused else 0)
        assert unit_threads() == []

    def test_too_few_samples_is_refused_before_any_call(
        self, tmp_path, fixture_dir, monkeypatch, capsys
    ):
        detectors = [{"method": "selfcheck", "use_kg": True, "n_samples": 5}]
        workdir = copy_fixture(fixture_dir, tmp_path, parallelism=4, detectors=detectors)
        calls = timed_backend_calls(monkeypatch)
        assert main(["score", "--config", str(workdir / "run_config.json")]) == 2
        assert "selfcheck needs 5 samples, got 3" in capsys.readouterr().err
        assert calls == []
