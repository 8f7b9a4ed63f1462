"""Gate suite: one test per release criterion, one visible line per result.

Result lines bypass pytest's capture so they are always printed. Every
criterion asserts; a FAIL line is followed by the assertion failure for that
test.
"""

import json
import os
import shutil
import time
from math import fsum
from pathlib import Path

import numpy as np
import pytest

from conftest import Example, cols
from hallucheck.cli import main as cli_main
from hallucheck.core import (
    DetectorMethod,
    GeneratedOutput,
    KnowledgeGraph,
    ScoreRecord,
    Triple,
    Label,
    mean_score,
)
from hallucheck.data import load_wikibio
from hallucheck.detect import (
    DetectorConfig,
    DetectorContext,
    graph_consistency_scores,
    run_detector,
)
from hallucheck.embed import HashEmbedder, cosine_sim
from hallucheck.evaluation import (
    THRESHOLD_GRID,
    LabeledScores,
    auc_pr,
    bootstrap_ci,
    compute_stats,
    threshold_metric,
    threshold_search,
)
from hallucheck.kgx import parse_triples, kg_to_record

FIXTURES = Path(__file__).parent / "data"


def serialize_kg(kg):
    """Round-trip oracle: the graph's triples as a JSON array of
    [subject, relation, object] rows, which ``parse_triples`` reads back."""
    return json.dumps([[t.subject, t.relation, t.obj] for t in kg.triples], ensure_ascii=False)


def kg_from_record(record):
    """Round-trip oracle: the graph a ``kg_to_record`` row holds."""
    return KnowledgeGraph(
        triples=tuple(Triple(s, r, o) for s, r, o in record["triples"]),
        source_text=record["source_text"],
        degenerate=bool(record["degenerate"]),
    )


H = Label.HALLUCINATED
A = Label.ACCURATE


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"{status}  {name}{suffix}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def vec(rng, dim=8):
    return rng.normal(size=dim)


def rows(rng, count, dim=8):
    return rng.normal(size=(count, dim))


def np_max_then_mean(targets, graphs):
    """Brute-force enumeration of the triple-consistency aggregation."""
    tn = targets / np.linalg.norm(targets, axis=1, keepdims=True)
    per_sample = []
    for g in graphs:
        if not len(g):
            per_sample.append(np.zeros(len(targets)))
            continue
        gn = g / np.linalg.norm(g, axis=1, keepdims=True)
        sims = np.clip(tn @ gn.T, -1.0, 1.0)
        per_sample.append(np.clip(sims, 0.0, None).max(axis=1))
    per_triple = np.stack(per_sample).mean(axis=0)
    return per_triple, float(per_triple.mean())


def test_a01_aggregation_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        targets = rows(rng, rng.integers(1, 6))
        graphs = [rows(rng, rng.integers(0, 6)) for _ in range(rng.integers(1, 6))]
        got_per_triple = graph_consistency_scores(targets, graphs)
        got_score = mean_score(got_per_triple)
        want_per_triple, want_score = np_max_then_mean(targets, graphs)
        worst = max(
            worst,
            abs(got_score - want_score),
            *(abs(g - w) for g, w in zip(got_per_triple, want_per_triple)),
        )
    elapsed = time.perf_counter() - started
    report(
        "A1 aggregation equals brute-force oracle (1000 instances)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_a02_mean_score_invariant():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(1000):
        values = [float(v) for v in rng.random(int(rng.integers(1, 6)))]
        triple_scores = tuple(
            (Triple(f"s{i}-{j}", "r", f"o{j}"), c) for j, c in enumerate(values)
        )
        record = ScoreRecord(
            output_ref=f"p:{i}",
            method=DetectorMethod.SELFCHECK,
            score=mean_score(values),
            kg_used=True,
            triple_scores=triple_scores,
        )
        worst = max(worst, abs(record.score - float(np.mean(values))))
    report("A2 score equals mean of triple scores (1000 records)", worst <= 1e-9, f"max err {worst:.2e}")


def _random_labeled(rng, n, on_grid):
    while True:
        values = (rng.integers(0, 101, n) / 100) if on_grid else rng.random(n)
        labels = [H if rng.random() < 0.5 else A for _ in range(n)]
        if len(set(labels)) == 2:
            return [Example(float(v), l) for v, l in zip(values, labels)]


def _exhaustive_best(scores, objective, positive):
    best = None
    for t in THRESHOLD_GRID:
        preds = [A if s.score > t else H for s in scores]
        correct = sum(p == s.label for p, s in zip(preds, scores))
        tp = sum(
            1 for p, s in zip(preds, scores) if p == positive and s.label == positive
        )
        predicted = sum(1 for p in preds if p == positive)
        actual = sum(1 for s in scores if s.label == positive)
        if objective == "accuracy":
            value = correct / len(scores)
        else:
            p = tp / predicted if predicted else 0.0
            r = tp / actual if actual else 0.0
            value = 2 * p * r / (p + r) if p + r else 0.0
        if best is None or value > best[1]:
            best = (t, value)
    return best


def test_a03_threshold_search_optimal():
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(200):
        scores = _random_labeled(rng, int(rng.integers(4, 40)), on_grid=trial % 2 == 0)
        for objective in ("accuracy", "f1"):
            for positive in (H, A):
                if threshold_search(cols(scores), objective, positive) != _exhaustive_best(
                    scores, objective, positive
                ):
                    ok = False
    tie_threshold, tie_value = threshold_search(LabeledScores([0.2, 0.8], [H, A]), "accuracy")
    ties_ok = tie_threshold == 0.20 and tie_value == 1.0
    report(
        "A3 threshold search matches grid enumeration, lowest-tie rule",
        ok and ties_ok,
        "200 sets x 2 objectives x 2 positives",
    )


def _rank_walk_ap(scores, positive):
    sign = 1.0 if positive == H else -1.0
    ordered = sorted(scores, key=lambda s: sign * s.score)
    npos = sum(s.label == positive for s in ordered)
    seen = pos = 0
    terms = []
    for s in ordered:
        seen += 1
        if s.label == positive:
            pos += 1
            terms.append(pos / seen)
    return fsum(terms) / npos


def test_a04_auc_pr_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        scores = _random_labeled(rng, int(rng.integers(4, 60)), on_grid=False)
        for positive in (H, A):
            worst = max(
                worst, abs(auc_pr(cols(scores), positive) - _rank_walk_ap(scores, positive))
            )
    perfect = LabeledScores([0.1, 0.2, 0.8, 0.9], [H, H, A, A])
    perfect_ok = auc_pr(perfect, H) == 1.0
    tied = LabeledScores([0.5] * 10, [H] * 3 + [A] * 7)
    tied_ok = abs(auc_pr(tied, H) - 0.3) <= 1e-12
    two_of_four = LabeledScores([0.1, 0.2, 0.3, 0.4], [H, A, H, A])
    known_ok = abs(auc_pr(two_of_four, H) - 5 / 6) <= 1e-9
    report(
        "A4 AUC-PR equals rank-walk oracle; edge cases",
        worst <= 1e-9 and perfect_ok and tied_ok and known_ok,
        f"max err {worst:.2e}; perfect→1.0, tied→prevalence",
    )


def _independent_bootstrap(scores, threshold, resamples, seed):
    rng = np.random.default_rng(seed)
    n = len(scores)
    replicates = []
    for _ in range(resamples):
        idx = rng.integers(0, n, n)
        picked = [scores[i] for i in idx]
        correct = sum((s.score > threshold) == (s.label == A) for s in picked)
        replicates.append(correct / n)
    low, high = np.percentile(replicates, [2.5, 97.5])
    return fsum(replicates) / len(replicates), float(low), float(high)


def test_a05_bootstrap_determinism():
    fixture = [Example(round(0.05 * i, 2), H if i % 3 else A, f"e{i}") for i in range(20)]
    metric = threshold_metric("accuracy", 0.5)
    first = bootstrap_ci(cols(fixture), metric, resamples=500, seed=11)
    second = bootstrap_ci(cols(fixture), metric, resamples=500, seed=11)
    deterministic = first == second

    def constant(_):
        return lambda idx: (np.full(len(idx), 0.4), np.zeros(len(idx), bool))

    flat = bootstrap_ci(cols(fixture), constant, resamples=100, seed=0)
    zero_var = flat.half_width == 0.0 and flat.low == flat.high == flat.mean == 0.4
    mean, low, high = _independent_bootstrap(fixture, 0.5, 500, 11)
    dual = first.mean == mean and first.low == low and first.high == high
    report(
        "A5 bootstrap: seeded determinism, zero-variance, dual implementation",
        deterministic and zero_var and dual,
    )


def test_a06_cosine_properties():
    rng = np.random.default_rng(106)
    worst_self = worst_sym = worst_scale = 0.0
    for _ in range(1000):
        a = vec(rng, dim=24)
        b = vec(rng, dim=24)
        worst_self = max(worst_self, abs(cosine_sim(a, a) - 1.0))
        worst_sym = max(worst_sym, abs(cosine_sim(a, b) - cosine_sim(b, a)))
        factor = float(rng.uniform(0.1, 50.0))
        scaled = factor * b
        worst_scale = max(worst_scale, abs(cosine_sim(a, scaled) - cosine_sim(a, b)))
    report(
        "A6 cosine: self-similarity, symmetry, scale invariance (1000 pairs)",
        worst_self <= 1e-6 and worst_sym <= 1e-12 and worst_scale <= 1e-9,
        f"self {worst_self:.1e}, sym {worst_sym:.1e}, scale {worst_scale:.1e}",
    )


_FIELD_POOL = (
    "Ada Lovelace", "Kranj", "Mar Adentro", "première", "Новак", "東京", "a b c",
    "orchestra", "1968", "co-founder", "Ülemiste", "x", "relation-of",
)


def test_a07_kg_round_trip():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(500):
        triples = []
        seen = set()
        for _ in range(int(rng.integers(1, 7))):
            t = Triple(
                subject=str(rng.choice(_FIELD_POOL)),
                relation=str(rng.choice(_FIELD_POOL)),
                obj=str(rng.choice(_FIELD_POOL)),
            )
            if t not in seen:
                seen.add(t)
                triples.append(t)
        kg = KnowledgeGraph.build(triples, source_text="src")
        reparsed = parse_triples(serialize_kg(kg))
        if reparsed.triples != kg.triples or reparsed.losses != 0:
            ok = False
        if kg_from_record(kg_to_record(kg)) != kg:
            ok = False
    duplicates = KnowledgeGraph.build(
        [Triple("A", "r", "B"), Triple("a", "R", "b"), Triple("C", "r", "D")],
        source_text="s",
    )
    dedup_ok = len(duplicates) == 2 and duplicates.triples[0].subject == "A"
    degenerate = KnowledgeGraph.build([], source_text="Nothing to extract.")
    degenerate_ok = (
        degenerate.degenerate
        and len(degenerate) == 1
        and degenerate.triples[0].obj == "Nothing to extract."
        and kg_from_record(kg_to_record(degenerate)) == degenerate
    )
    report(
        "A7 KG serialize→parse identity (500 graphs); dedup; degenerate policy",
        ok and dedup_ok and degenerate_ok,
    )


def test_a08_dataset_statistics(wikibio_file):
    records = load_wikibio(wikibio_file, expected_samples=20)
    stats = compute_stats(records, HashEmbedder(dim=32))
    counts_ok = (
        stats.sentence_count == 501
        and stats.paragraph_count == 50
        and stats.hallucinated_count == 241
        and stats.accurate_count == 260
    )
    samples_ok = all(len(r.samples) == 20 for r in records)
    spp_ok = round(stats.sentences_per_paragraph) == 10
    length_ok = abs(stats.avg_sample_length_words - 169.0) <= 1.0
    report(
        "A8 dataset: 501/50/241/260, 20 samples/paragraph, ~10 spp, 169±1 words",
        counts_ok and samples_ok and spp_ok and length_ok,
        f"spp {stats.sentences_per_paragraph:.2f}, len {stats.avg_sample_length_words:.1f}",
    )


def _run_pipeline(workdir: Path) -> dict[str, bytes]:
    for name in (
        "run_config.json",
        "mock_script.json",
        "fixture_dataset.jsonl",
        "sentences.txt",
    ):
        shutil.copy(FIXTURES / name, workdir / name)
    config = workdir / "run_config.json"
    assert (
        cli_main(
            [
                "extract",
                "--config",
                str(config),
                "--input",
                str(workdir / "sentences.txt"),
                "--output",
                str(workdir / "out" / "kgs.jsonl"),
            ]
        )
        == 0
    )
    assert cli_main(["score", "--config", str(config)]) == 0
    assert cli_main(["evaluate", "--config", str(config)]) == 0
    out = workdir / "out"
    return {
        name: (out / name).read_bytes()
        for name in ("kgs.jsonl", "scores.jsonl", "report.json")
    }


def test_a09_end_to_end_determinism(tmp_path, capsys):
    started = time.perf_counter()
    first_dir = tmp_path / "run1"
    second_dir = tmp_path / "run2"
    first_dir.mkdir()
    second_dir.mkdir()
    first = _run_pipeline(first_dir)
    second = _run_pipeline(second_dir)
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    identical = first == second
    report(
        "A9 end-to-end mock pipeline bit-identical across two runs",
        identical and elapsed < 30.0,
        f"{elapsed:.2f}s, artifacts: kgs, scores, report",
    )


def test_a10_permutation_invariance():
    rng = np.random.default_rng(110)
    embedder = HashEmbedder(dim=32)
    ctx = DetectorContext(embedder=embedder)
    output = GeneratedOutput("p", "A fixed output sentence for shuffling.")
    samples = [f"sample text number {i} with drift" for i in range(8)]
    config = DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=len(samples))

    def selfcheck(order):
        return run_detector(config, output, ctx, samples=[samples[i] for i in order]).score

    base_selfcheck = selfcheck(range(len(samples)))

    targets = rows(rng, 4, dim=16)
    graphs = [rows(rng, 3, dim=16) for _ in range(6)]
    base_scores = graph_consistency_scores(targets, graphs)
    base_overall = mean_score(base_scores)

    worst = 0.0
    for _ in range(250):
        order = rng.permutation(len(samples))
        shuffled = selfcheck(order)
        worst = max(worst, abs(shuffled - base_selfcheck))
    for _ in range(250):
        graph_order = rng.permutation(len(graphs))
        target_order = rng.permutation(len(targets))
        shuffled_scores = graph_consistency_scores(
            targets[target_order], [graphs[i] for i in graph_order]
        )
        worst = max(
            worst,
            abs(mean_score(shuffled_scores) - base_overall),
            *(
                abs(shuffled_scores[k] - base_scores[t])
                for k, t in enumerate(target_order)
            ),
        )
    report(
        "A10 permutation invariance of detector scores (500 shuffles)",
        worst <= 1e-12,
        f"max perturbation {worst:.1e}",
    )


@pytest.mark.live
def test_a11_live_directional_check(wikibio_file):
    """Environment-dependent: needs real credentials and the real dataset."""
    key = os.environ.get("HALLUCHECK_OPENAI_KEY")
    if not key:
        report("A11 live +kg directional check", True, "skipped: no credentials")
        pytest.skip("HALLUCHECK_OPENAI_KEY not set")
    from hallucheck.provider import ChatClient, OpenAIChatBackend

    records = load_wikibio(wikibio_file, expected_samples=None)[:30]
    client = ChatClient(OpenAIChatBackend())
    ctx = DetectorContext(
        client=client, model_id="gpt-4o", embedder=HashEmbedder(dim=64)
    )
    results: dict[bool, list[Example]] = {False: [], True: []}
    for use_kg in (False, True):
        config = DetectorConfig(method=DetectorMethod.SELF_CONFIDENCE, use_kg=use_kg)
        for r in records:
            ref = f"{r.paragraph_id}:{r.sentence_index}"
            out = GeneratedOutput(prompt_id=ref, text=r.sentence, context=r.concept)
            score = run_detector(config, out, ctx)
            results[use_kg].append(Example(score.score, r.label, ref))
    _, base_acc = threshold_search(cols(results[False]), "accuracy")
    _, kg_acc = threshold_search(cols(results[True]), "accuracy")
    report(
        "A11 live +kg directional check",
        kg_acc >= base_acc,
        f"baseline {base_acc:.3f}, +kg {kg_acc:.3f}",
    )
