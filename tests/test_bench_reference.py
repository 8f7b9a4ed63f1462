"""The benchmark's byte check under the default test run.

``bench/run.py`` compares the sha256 digests of ``scores.jsonl`` and
``report.json`` against ``bench/reference.json`` on every command it times,
but the benchmark runs outside the default test run. This test builds two of
the benchmark's replicas (seed 0, zero latency), runs ``score --fresh`` and
``evaluate --resamples 1000`` in process over the synthetic backend, and
checks both digests against the stored ones. The benchmark's modules are
loaded by path and left unchanged."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hallucheck import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def load_bench_modules():
    """``replica``, ``backend`` and ``run`` from ``bench/``. They import one
    another by bare name, so each is registered under it while the next one
    loads, and all are unregistered afterwards."""
    loaded = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in ("replica", "tracing", "backend", "run"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            loaded[name] = module
    return loaded


@pytest.fixture(scope="module")
def bench():
    return load_bench_modules()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload, paragraphs", [("cpu-full", 1), ("provider-latency", 3)])
def test_outputs_match_the_reference_digests(bench, tmp_path, monkeypatch, workload, paragraphs):
    replica, backend, run = bench["replica"], bench["backend"], bench["run"]
    plan = replica.build_replica(tmp_path, 0, paragraphs)
    config = run.write_config(tmp_path, run.WORKLOADS[workload], 0)
    monkeypatch.setattr(cli, "build_backend", lambda cfg: backend.SyntheticBackend(plan, 0.0))
    assert cli.main(["score", "--config", str(config), "--fresh"]) == 0
    assert cli.main(["evaluate", "--config", str(config), "--resamples", "1000"]) == 0
    expected = REFERENCE[f"{workload}/{paragraphs}"]["0"]
    out = tmp_path / "out"
    assert sha256(out / "scores.jsonl") == expected["scores"]
    assert sha256(out / "report.json") == expected["report"]
