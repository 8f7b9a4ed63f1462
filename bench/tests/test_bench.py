"""Tests of the benchmark itself: replica, synthetic backend, output check.

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from backend import UNPARSEABLE_SCORE, SyntheticBackend
from hallucheck.detect import DetectorPrompts, ScoreParseError, parse_score
from hallucheck.kgx import ExtractionPromptTemplate, parse_triples
from hallucheck.provider import DETECT_PROFILE, ChatRequest
from replica import SAMPLE_WORDS, build_replica, passage_triples, triple_statement
import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replica(tmp_path_factory):
    directory = tmp_path_factory.mktemp("replica")
    plan = build_replica(directory, seed=3, paragraphs=2)
    records = [json.loads(line) for line in (directory / "dataset.jsonl").read_text().splitlines()]
    return plan, records


def request(prompt: str) -> ChatRequest:
    return ChatRequest.user("synthetic-model", prompt, DETECT_PROFILE)


def test_replica_matches_the_test_fixture(tmp_path):
    spec = importlib.util.spec_from_file_location("repo_conftest", ROOT / "tests" / "conftest.py")
    fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixture)
    expected = fixture.build_synthetic_wikibio(tmp_path / "fixture.jsonl")
    build_replica(tmp_path, seed=20240817, paragraphs=50)
    assert (tmp_path / "dataset.jsonl").read_bytes() == expected.read_bytes()


def test_replica_is_a_seeded_prefix(tmp_path, replica):
    build_replica(tmp_path / "a", seed=3, paragraphs=2)
    build_replica(tmp_path / "b", seed=3, paragraphs=5)
    small = (tmp_path / "a" / "dataset.jsonl").read_text().splitlines()
    large = (tmp_path / "b" / "dataset.jsonl").read_text().splitlines()
    assert large[: len(small)] == small
    _, records = replica
    assert [r["sentence"] for r in records] == [json.loads(line)["sentence"] for line in small]
    assert all(len(r["samples"]) == 20 for r in records)
    assert all(len(s.split()) == SAMPLE_WORDS for s in records[0]["samples"])


def test_backend_replies_depend_only_on_the_request(replica):
    plan, records = replica
    prompts = DetectorPrompts.default()
    statement = records[1]["sentence"]
    requests = [
        request(ExtractionPromptTemplate.default().render(statement, records[1]["concept"])),
        request(prompts.render_question(statement)),
        request(prompts.render_confidence(statement)),
    ]
    first, second = SyntheticBackend(plan), SyntheticBackend(plan)
    replies = [first.complete_once(r) for r in requests]
    assert [first.complete_once(r) for r in reversed(requests)] == replies[::-1]
    assert [second.complete_once(r) for r in requests] == replies
    assert first.calls == {"extract": 2, "question": 2, "answer": 0, "score": 2}


def test_extraction_replies_round_trip_through_parse_triples(replica):
    plan, records = replica
    backend = SyntheticBackend(plan)
    template = ExtractionPromptTemplate.default()
    passages = [r["sentence"] for r in records] + list(records[0]["samples"])
    kinds = set()
    for passage in passages:
        parsed = parse_triples(backend.complete_once(request(template.render(passage))))
        expected = [] if passage in plan["empty"] else passage_triples(passage)
        assert [[t.subject, t.relation, t.obj] for t in parsed.triples] == expected
        assert parsed.losses == (passage in plan["malformed"])
        kinds.add((passage in plan["empty"], passage in plan["malformed"]))
    assert kinds == {(False, False), (True, False), (False, True)}


def test_score_replies_round_trip_through_parse_score(replica):
    plan, records = replica
    backend = SyntheticBackend(plan)
    prompts = DetectorPrompts.default()
    scores = set()
    for record in records:
        for triple in passage_triples(record["sentence"]):
            statement = triple_statement(triple)
            for prompt in (
                prompts.render_confidence(statement),
                prompts.render_consistency(statement, "Records mention a prize."),
            ):
                reply = backend.complete_once(request(prompt))
                if statement in plan["miss"]:
                    assert reply == UNPARSEABLE_SCORE
                    with pytest.raises(ScoreParseError):
                        parse_score(reply)
                else:
                    score = parse_score(reply)
                    assert 0.0 <= score <= 1.0 and reply == f"{score:.2f}"
                    scores.add(score)
        sentence_reply = backend.complete_once(request(prompts.render_confidence(record["sentence"])))
        assert 0.0 <= parse_score(sentence_reply) <= 1.0
    assert len(scores) > 20


def bench_run(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_passes_the_output_check(workload):
    rc, result = bench_run(
        "--workload", workload, "--seed", "0", "--seconds", "0", "--paragraphs", "1", "--trace", "0"
    )
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    rc, result = bench_run(
        "--workload", "cpu-full", "--seed", "0", "--seconds", "0", "--paragraphs", "1", "--trace", "1"
    )
    assert rc == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert abs(result["metrics"]["trace.self_sum_share"]["value"] - 1) < 0.1


def test_corrupted_scores_fail_the_check(tmp_path):
    rc, _ = bench_run("--workload", "cpu-full", "--seed", "0", "--seconds", "0", "--paragraphs", "1")
    assert rc == 0
    out = tmp_path / "out"
    shutil.copytree(run.WORK / "cpu-full" / "out", out)
    workload = run.WORKLOADS["cpu-full"]
    reference = run.reference_for(workload, 1, 0)
    refs = run.expected_refs(1)
    assert run.check_scores(out, refs, workload.detectors, 0, reference) == (0, [])

    lines = (out / "scores.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[3])
    row["score"] = 0.25 if row["score"] != 0.25 else 0.75
    lines[3] = json.dumps(row, sort_keys=True) + "\n"
    (out / "scores.jsonl").write_text("".join(lines), encoding="utf-8")
    failed, problems = run.check_scores(out, refs, workload.detectors, 0, reference)
    assert failed == len(refs) * len(workload.detectors)
    assert problems == ["scores.jsonl differs from the reference digest"]

    (out / "scores.jsonl").write_text("".join(lines[:-2]), encoding="utf-8")
    failed, problems = run.check_scores(out, refs, workload.detectors, 0, None)
    assert failed == 2 and problems
