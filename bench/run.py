"""Benchmark of the hallucheck pipeline: ``score`` then ``evaluate``.

Each run builds a seeded replica of the WikiBio evaluation set, writes a run
config for it, and drives the real command line in process:
``hallucheck.cli.main(["score", "--config", ..., "--fresh"])`` and then
``main(["evaluate", ..., "--resamples", "1000"])``. Provider calls go to a
deterministic synthetic backend (``backend.py``), installed by replacing
``hallucheck.cli.build_backend``. The two commands repeat until ``--seconds``
have gone by, ``score`` taking about two thirds of that time. ``setup_s`` is
timed seven times, each in a fresh interpreter (``probe.py``).

The host shares its cores, and its speed swings by up to 2x for every process
alike, in stretches from under a second to minutes. So the benchmark runs a
fixed job (``reference_job_s``) before the first and after every timed
section, and reports paced times: the mean wall time of a command (or
set-up) times ``REFERENCE_JOB_S`` over the mean time of the job in that run.
They read as seconds on the host in its fast stretches. ``score`` on
``provider-latency`` mostly waits on the backend, which does not slow down
with the host; its ``score_s`` is the fastest wall time of the run.

Every command is checked: both exit 0, every (record, detector) pair has
exactly one score in [0, 1], and the sha256 digests of ``scores.jsonl`` and
``report.json`` equal the stored reference digests (``reference.json``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates plain
and traced passes, prints per-layer metrics taken from the traced passes
(``tracing.py``), and reports the tracing overhead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

    python3 bench/run.py --workload cpu-full --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from replica import PARAGRAPH_SIZES, build_replica
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

ALL_DETECTORS = (
    "self_questioning",
    "self_questioning+kg",
    "self_confidence",
    "self_confidence+kg",
    "selfcheck",
    "selfcheck+kg",
)
PROVIDER_DETECTORS = ALL_DETECTORS[:4]
RESAMPLES = 1000
SETUP_PROBES = 7
# Inputs come from ``seed % REFERENCE_SEEDS``, so that every seed has stored
# reference digests to check the output bytes against.
REFERENCE_SEEDS = 32
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170
# About the reference job's time on the benchmark host (2 shared vCPUs,
# CPython 3.11) in its fast stretches. Paced times are in seconds at that speed.
REFERENCE_JOB_S = 0.007
_JOB_VECTORS = [
    tuple(((i * 7919 + j * 104729) % 1009) / 1009 - 0.5 for j in range(384)) for i in range(32)
]
_JOB_ROWS = [
    {"output_ref": f"wb-{i:03d}-{j:02d}", "method": "selfcheck", "score": j / 21}
    for i in range(30)
    for j in range(20)
]


@dataclass(frozen=True)
class Workload:
    detectors: tuple[str, ...]
    paragraphs: int
    latency_s: float
    cache: bool
    warm: bool
    reference: str


WORKLOADS = {
    # All six detectors, zero latency, no response cache: embedding and
    # similarity aggregation do nearly all the work.
    "cpu-full": Workload(ALL_DETECTORS, 1, 0.0, cache=False, warm=False, reference="cpu-full"),
    # The four provider-backed detectors, 10 ms per backend call, a cache that
    # starts cold: provider wait is nearly the whole wall time.
    "provider-latency": Workload(
        PROVIDER_DETECTORS, 3, 0.010, cache=True, warm=False, reference="provider-latency"
    ),
    # Same inputs and config as provider-latency, rescored over the cache a
    # cold pass filled during set-up: no backend calls, so client, cache,
    # parsing, dispatch and the score-stream write are exposed. Its outputs
    # must equal provider-latency's byte for byte. It is not one of the
    # workloads in BENCHMARK.json: its short, thread- and file-bound ``score``
    # slows down with the shared host far more than the reference job in
    # some stretches, so its times are not steady enough to gate on.
    "rescore-warm": Workload(
        PROVIDER_DETECTORS, 3, 0.0, cache=True, warm=True, reference="provider-latency"
    ),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def reference_job_s() -> float:
    """Mean time of four passes of a fixed job, in seconds. It mixes what the
    program spends its time on, without calling it: cosines of float tuples
    through numpy, SHA-256 counter blocks turned into floats, resampling
    with a seeded generator and sorting, and a JSON round trip of score
    rows. It measures how fast the host runs this interpreter at the
    moment, and nothing of the program."""
    started = time.perf_counter()
    for _ in range(4):
        for a in _JOB_VECTORS:
            for b in _JOB_VECTORS[:6]:
                va, vb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
                float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
        for block in range(48):
            digest = hashlib.sha256(f"0:{block}:reference job".encode()).digest()
            [int.from_bytes(digest[i : i + 8], "big") / 2**63 - 1.0 for i in range(0, 32, 8)]
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx = rng.integers(0, len(_JOB_ROWS), size=60)
            sorted((_JOB_ROWS[i] for i in idx), key=lambda row: row["score"])
        json.loads(json.dumps(_JOB_ROWS))
    return (time.perf_counter() - started) / 4


class Pacer:
    """Runs the reference job before the first and after every timed
    section, and scales wall times by the jobs' mean. The host's fast and
    slow stretches often come and go within a second, so one job next to one
    section may catch another stretch than the section did; over a run,
    the jobs and the sections see the same mix."""

    def __init__(self) -> None:
        self.jobs = [reference_job_s()]

    def tick(self) -> None:
        self.jobs.append(reference_job_s())

    def paced(self, times: list[float]) -> float:
        return REFERENCE_JOB_S * statistics.fmean(times) / statistics.fmean(self.jobs)


def sha256_file(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def write_config(work: Path, workload: Workload, seed: int) -> Path:
    detectors = []
    for name in workload.detectors:
        method = name.removesuffix("+kg")
        entry = {"method": method, "use_kg": name.endswith("+kg")}
        if method == "selfcheck":
            entry["n_samples"] = 20
        detectors.append(entry)
    config = {
        "provider": {"backend": "mock", "model_id": "synthetic-model"},
        "embedding": {"backend": "hash", "dim": 384, "seed": 0},
        "detectors": detectors,
        "dataset": {"path": "dataset.jsonl", "kind": "wikibio", "expected_samples": 20},
        "output_dir": "out",
        "seed": seed,
        "parallelism": 2,
    }
    if workload.cache:
        config["cache_dir"] = "cache"
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


def reference_for(workload: Workload, paragraphs: int, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(f"{workload.reference}/{paragraphs}", {}).get(str(seed))


def expected_refs(paragraphs: int) -> list[str]:
    return [
        f"bio-{p:03d}:{i}" for p, size in enumerate(PARAGRAPH_SIZES[:paragraphs]) for i in range(size)
    ]


def check_scores(
    out: Path, refs: list[str], detectors: tuple[str, ...], rc: int, reference: dict | None
) -> tuple[int, list[str]]:
    """Failed (record, detector) pairs of one score pass, with the reasons."""
    pairs = len(refs) * len(detectors)
    if rc != 0:
        return pairs, [f"score exited {rc}"]
    path = out / "scores.jsonl"
    if not path.exists():
        return pairs, ["scores.jsonl missing"]
    problems = []
    good: set[tuple[str, str]] = set()
    rows = 0
    wanted = {(ref, name) for ref in refs for name in detectors}
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            obj = json.loads(line)
            if obj.get("_meta"):
                continue
            rows += 1
            key = (obj["output_ref"], obj["method"] + ("+kg" if obj["kg_used"] else ""))
            score = obj["score"]
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
            problems.append(f"unreadable score row: {exc}")
            continue
        if not (isinstance(score, float) and 0.0 <= score <= 1.0):
            problems.append(f"score {score!r} for {key} outside [0, 1]")
        elif key in wanted and key not in good:
            good.add(key)
        else:
            problems.append(f"unexpected or repeated row {key}")
    if rows != pairs:
        problems.append(f"{rows} score rows, expected {pairs}")
    failed = pairs - len(good)
    if reference is not None and sha256_file(path) != reference["scores"]:
        problems.append("scores.jsonl differs from the reference digest")
        failed = pairs
    return failed, problems


def check_report(out: Path, rc: int, reference: dict | None) -> list[str]:
    if rc != 0:
        return [f"evaluate exited {rc}"]
    digest = sha256_file(out / "report.json")
    if digest is None:
        return ["report.json missing"]
    if reference is not None and digest != reference["report"]:
        return ["report.json differs from the reference digest"]
    return []


class Pipeline:
    """The program, imported in this process, with the synthetic backend
    installed and each command's console output captured."""

    def __init__(self, config: Path, plan: dict, latency_s: float):
        # Imported here: the package is importable only after main() has
        # found its sources and put them on the path.
        from backend import SyntheticBackend
        from hallucheck import cli

        self.cli = cli
        self.config = str(config)
        self.backend_cls = SyntheticBackend
        self.backends: list = []

        def build_backend(_cfg):
            backend = SyntheticBackend(plan, latency_s)
            self.backends.append(backend)
            return backend

        cli.build_backend = build_backend

    def command(self, argv: list[str]) -> tuple[int, float]:
        """Exit code and wall time of one command."""
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli.main(argv)
        except Exception:
            rc = 1
            captured.write(traceback.format_exc())
        elapsed = time.perf_counter() - started
        if rc != 0:
            log(f"{argv[0]} exited {rc}:\n{captured.getvalue()[-2000:]}")
        return rc, elapsed

    def score(self) -> tuple[int, float]:
        return self.command(["score", "--config", self.config, "--fresh"])

    def evaluate(self) -> tuple[int, float]:
        return self.command(["evaluate", "--config", self.config, "--resamples", str(RESAMPLES)])


def probe_setup(config: Path, warm: bool) -> dict:
    argv = [sys.executable, str(BENCH / "probe.py"), "--config", str(config)]
    if warm:
        argv.append("--warm")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least 10 samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def layer_metrics(tracer, backends: list, passes: int, traced: list[float], plain: list[float]) -> dict:
    from backend import KINDS  # imports the package; see Pipeline

    spans: dict[str, list] = {}
    for frame in tracer.spans:
        spans.setdefault(frame.name, []).append(frame)
    selfs = tracer.self_times()

    def total(name: str) -> float:
        return sum(f.end - f.start for f in spans.get(name, ()))

    def self_s(name: str) -> float:
        return sum(selfs[f.id] for f in spans.get(name, ()))

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    score_total = total("cli.score")
    m: dict[str, tuple[float, str]] = {}
    for kind in KINDS:
        m[f"provider.calls.{kind}"] = (sum(b.calls[kind] for b in backends) / passes, "count")
    m["provider.busy_s"] = (total("provider.backend") / passes, "s")
    m["provider.concurrency_mean"] = (total("provider.backend") / score_total, "ratio")
    m["provider.inflight_max"] = (max((b.inflight_max for b in backends), default=0), "count")
    m["client.complete_calls"] = (calls("client.complete") / passes, "count")
    m["client.cache_hits"] = (tracer.counts["client.cache_hits"] / passes, "count")
    m["client.self_s"] = (self_s("client.complete") / passes, "s")
    m["cache.get_s"] = (total("cache.get") / passes, "s")
    m["cache.put_s"] = (total("cache.put") / passes, "s")
    m["kgx.extract_calls"] = (calls("kgx.extract") / passes, "count")
    for name in ("extract_misses", "parse_losses", "degenerate_graphs", "triples"):
        m[f"kgx.{name}"] = (tracer.counts[f"kgx.{name}"] / passes, "count")
    m["kgx.extract_self_s"] = (self_s("kgx.extract") / passes, "s")
    m["kgx.parse_s"] = (total("kgx.parse") / passes, "s")
    m["embed.calls"] = (tracer.hot_n["embed.embed"] / passes, "count")
    m["embed.unique_texts"] = (tracer.counts["embed.unique_texts"] / passes, "count")
    m["embed.s"] = (tracer.hot_s["embed.embed"] / passes, "s")
    m["detect.cosine_calls"] = (tracer.hot_n["detect.cosine_sim"] / passes, "count")
    m["detect.cosine_s"] = (tracer.hot_s["detect.cosine_sim"] / passes, "s")
    m["detect.graph_consistency_calls"] = (calls("detect.graph_consistency") / passes, "count")
    m["detect.graph_consistency_s"] = (total("detect.graph_consistency") / passes, "s")
    m["detect.graph_consistency_self_s"] = (self_s("detect.graph_consistency") / passes, "s")
    m["detect.pairs"] = (tracer.counts["detect.pairs"] / passes, "count")
    for method in ALL_DETECTORS:
        key = method.replace("+kg", "_kg")
        durations = [f.end - f.start for f in spans.get("detect.run_detector", ()) if f.tag == key]
        pct = tail_percentile(len(durations))
        m[f"detect.{key}.s"] = (sum(durations) / passes, "s")
        m[f"detect.{key}.n"] = (len(durations), "count")
        m[f"detect.{key}.p50_ms"] = (percentile(durations, 50) * 1e3 if durations else 0.0, "ms")
        m[f"detect.{key}.tail_ms"] = (percentile(durations, pct) * 1e3 if durations else 0.0, "ms")
        m[f"detect.{key}.tail_pct"] = (pct, "pct")
    m["detect.triple_misses"] = (tracer.counts["detect.triple_misses"] / passes, "count")
    m["detect.self_s"] = (self_s("detect.run_detector") / passes, "s")
    loads = spans.get("data.load_wikibio", ())
    m["data.load_wikibio_s"] = (total("data.load_wikibio") / max(1, len(loads)), "s")
    m["data.read_s"] = (tracer.hot_s["data.read"] / passes, "s")
    m["cli.load_config_s"] = (total("cli.load_config") / passes, "s")
    m["cli.build_s"] = ((total("cli.build_client") + total("cli.build_embedder")) / passes, "s")
    m["cli.score_self_s"] = (self_s("cli.score") / passes, "s")
    m["evaluation.evaluate_method_s"] = (total("evaluation.evaluate_method") / passes, "s")
    m["evaluation.threshold_search_s"] = (total("evaluation.threshold_search") / passes, "s")
    m["evaluation.bootstrap_s"] = (total("evaluation.bootstrap_ci") / passes, "s")
    m["evaluation.metric_calls"] = (tracer.hot_n["evaluation.metrics_at"] / passes, "count")
    m["evaluation.auc_pr_calls"] = (tracer.hot_n["evaluation.auc_pr"] / passes, "count")
    m["evaluation.auc_pr_s"] = (tracer.hot_s["evaluation.auc_pr"] / passes, "s")
    m["evaluation.compare_s"] = (total("evaluation.compare_methods") / passes, "s")
    in_score = sum(selfs[f.id] for f in tracer.spans if f.root == "cli.score")
    in_score += tracer.hot_root_s["cli.score"]
    m["trace.score_s"] = (statistics.median(traced), "s")
    m["trace.untraced_score_s"] = (statistics.median(plain), "s")
    m["trace.overhead_share"] = (statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    m["trace.self_sum_share"] = (in_score / score_total, "ratio")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, paragraphs: int | None) -> int:
    workload = WORKLOADS[name]
    paragraphs = paragraphs or workload.paragraphs
    input_seed = seed % REFERENCE_SEEDS
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = build_replica(work, input_seed, paragraphs)
    config = write_config(work, workload, input_seed)
    reference = reference_for(workload, paragraphs, input_seed)
    if reference is None:
        log(f"no reference digests for {workload.reference}/{paragraphs} seed {input_seed}; "
            "output bytes are not checked against a reference")
    refs = expected_refs(paragraphs)
    pairs = len(refs) * len(workload.detectors)
    out = work / "out"
    attempted = failed = 0
    problems: list[str] = []

    setup_pacer = Pacer()
    setups = []
    for _ in range(1 if trace else SETUP_PROBES):
        shutil.rmtree(work / "cache", ignore_errors=True)
        setups.append(probe_setup(config, workload.warm))
        setup_pacer.tick()
    setup_calls = setups[-1]["provider_calls"]
    cold_bytes = None
    if workload.warm:
        # The last probe's cold pass filled the cache the timed passes read.
        bad, why = check_scores(out, refs, workload.detectors, setups[-1]["rc"], reference)
        attempted, failed = pairs, bad
        problems += why
        cold_bytes = (out / "scores.jsonl").read_bytes() if not bad else None

    pipeline = Pipeline(config, plan, workload.latency_s)
    tracer = Tracer() if trace else None
    times: dict[str, list[float]] = {"score": [], "evaluate": [], "traced score": []}
    pacer = Pacer()
    calls: list[int] = []
    traced_backends: list = []

    def step(command: str, traced: bool) -> None:
        nonlocal attempted, failed
        if command == "score" and workload.cache and not workload.warm:
            shutil.rmtree(work / "cache", ignore_errors=True)
        if traced:
            tracer.install(pipeline.backend_cls)
            with tracer.root(f"cli.{command}"):
                rc, elapsed = getattr(pipeline, command)()
            tracer.uninstall()
        else:
            rc, elapsed = getattr(pipeline, command)()
        pacer.tick()
        if command == "evaluate":
            why = check_report(out, rc, reference)
            attempted += 1
            failed += 1 if why else 0
            problems.extend(why)
            if not traced:
                times["evaluate"].append(elapsed)
            return
        times["traced score" if traced else "score"].append(elapsed)
        backend = pipeline.backends[-1]
        calls.append(backend.total_calls)
        if traced:
            traced_backends.append(backend)
        bad, why = check_scores(out, refs, workload.detectors, rc, reference)
        if workload.warm and rc == 0:
            if backend.total_calls:
                why.append(f"warm pass made {backend.total_calls} backend calls")
                bad = pairs
            if (out / "scores.jsonl").read_bytes() != cold_bytes:
                why.append("warm scores.jsonl differs from the cold pass")
                bad = pairs
        attempted += pairs
        failed += bad
        problems.extend(why)

    started = time.perf_counter()
    if trace:
        # Plain and traced (score, evaluate) pairs alternate, so the tracing
        # overhead is measured under the same conditions.
        traced = False
        while not times["traced score"] or time.perf_counter() - started < seconds:
            step("score", traced)
            step("evaluate", traced)
            traced = not traced
    else:
        # ``score`` gets about two thirds of the measuring time: its runs
        # are longer and vary more, so it needs the time to get as many.
        while not times["evaluate"] or time.perf_counter() - started < seconds:
            busy = {c: sum(times[c]) for c in ("score", "evaluate")}
            step("score" if busy["score"] <= 2 * busy["evaluate"] else "evaluate", False)

    for problem in dict.fromkeys(problems):
        log(f"check failed: {problem}")
    log(f"{name}: seed {seed} (inputs {input_seed}), {paragraphs} paragraphs, "
        f"failed {failed} of {attempted} operations")
    log("times: " + json.dumps({"setup": [s["setup_s"] for s in setups], **times}))
    log("jobs: " + json.dumps({"setup": setup_pacer.jobs, "commands": pacer.jobs}))

    if trace:
        tracer.write_spans(work / "spans.jsonl")
        metrics = layer_metrics(
            tracer, traced_backends, len(times["traced score"]), times["traced score"], times["score"]
        )
    else:
        provider_calls = max(calls) + (setup_calls if workload.warm else 0)
        metrics = {
            "setup_s": (setup_pacer.paced([s["setup_s"] for s in setups]), "s"),
            # Mostly provider wait, which does not slow down with the host:
            # not paced, and the fastest run is the one least slowed.
            "score_s": (
                min(times["score"]) if workload.latency_s else pacer.paced(times["score"]),
                "s",
            ),
            "evaluate_s": (pacer.paced(times["evaluate"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "provider_calls": (provider_calls, "count"),
        }
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool, paragraphs: int | None) -> int:
    """Run every workload in its own process and print a table of metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if paragraphs:
            argv += ["--paragraphs", str(paragraphs)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if not lines:
            log(f"{name}: no result (exit {done.returncode})")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        share = result["failed"] / result["attempted"]
        print(f"{name}: failed_share {share:.4f} ({result['failed']} of {result['attempted']} operations)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--paragraphs", type=int, help="replica size in paragraphs (default: the workload's own)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "hallucheck" / "__init__.py").is_file():
        log(f"cannot find the hallucheck sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.paragraphs)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.paragraphs)


if __name__ == "__main__":
    sys.exit(main())
