import math
import tracemalloc
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallucheck import evaluation
from hallucheck.core import Label
from hallucheck.evaluation import (
    BootstrapCI,
    Confusion,
    DegenerateLabels,
    EvalReport,
    LabeledScore,
    MethodComparison,
    RefMismatch,
    THRESHOLD_GRID,
    auc_pr,
    auc_pr_metric,
    bootstrap_ci,
    classify,
    compare_methods,
    evaluate_method,
    metrics_at,
    render_report_table,
    threshold_metric,
    threshold_search,
)

H = Label.HALLUCINATED
A = Label.ACCURATE


def ls(score, label, ref=""):
    return LabeledScore(score=score, label=label, example_ref=ref)


SEPARABLE = [ls(0.2, H), ls(0.4, H), ls(0.6, A), ls(0.8, A)]


def random_scores(rng, n, on_grid=False):
    """Random labeled set guaranteed to contain both classes."""
    while True:
        if on_grid:
            values = rng.integers(0, 101, n) / 100
        else:
            values = rng.random(n)
        labels = [H if rng.random() < 0.5 else A for _ in range(n)]
        if len(set(labels)) == 2:
            return [ls(float(v), l) for v, l in zip(values, labels)]


class TestGridAndClassify:
    def test_grid_shape(self):
        assert len(THRESHOLD_GRID) == 101
        assert THRESHOLD_GRID[0] == 0.0
        assert THRESHOLD_GRID[40] == 0.40
        assert THRESHOLD_GRID[-1] == 1.0

    def test_separable_at_cut(self):
        c = classify(SEPARABLE, 0.40, positive=H)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)
        assert c.accuracy == 1.0

    def test_strictly_above_is_accurate(self):
        c = classify([ls(0.40, H)], 0.40, positive=H)
        assert c.tp == 1

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            classify(SEPARABLE, 1.5)

    def test_positive_accurate_swaps_roles(self):
        c_h = classify(SEPARABLE, 0.40, positive=H)
        c_a = classify(SEPARABLE, 0.40, positive=A)
        assert (c_a.tp, c_a.tn) == (c_h.tn, c_h.tp)
        assert c_a.accuracy == c_h.accuracy


class TestConfusion:
    def test_hand_oracle(self):
        c = Confusion(tp=2, fp=1, tn=6, fn=1)
        assert c.precision == pytest.approx(2 / 3)
        assert c.recall == pytest.approx(2 / 3)
        assert c.f1 == pytest.approx(2 / 3)
        assert c.accuracy == pytest.approx(0.8)

    def test_reachable_from_scores(self):
        scores = (
            [ls(0.2, H), ls(0.3, H), ls(0.7, H), ls(0.4, A)]
            + [ls(0.6 + i / 100, A) for i in range(6)]
        )
        c = classify(scores, 0.5, positive=H)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 6, 1)

    def test_zero_denominators(self):
        empty = Confusion(tp=0, fp=0, tn=0, fn=0)
        assert empty.accuracy == 0.0
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0

    def test_labeled_score_bounds(self):
        with pytest.raises(ValueError):
            ls(1.2, H)


def oracle_best_threshold(scores, objective, positive):
    best = None
    for t in THRESHOLD_GRID:
        preds = [A if s.score > t else H for s in scores]
        correct = sum(p == s.label for p, s in zip(preds, scores))
        tp = sum(1 for p, s in zip(preds, scores) if p == positive and s.label == positive)
        predicted_pos = sum(1 for p in preds if p == positive)
        actual_pos = sum(1 for s in scores if s.label == positive)
        if objective == "accuracy":
            value = correct / len(scores)
        else:
            p = tp / predicted_pos if predicted_pos else 0.0
            r = tp / actual_pos if actual_pos else 0.0
            value = 2 * p * r / (p + r) if p + r else 0.0
        if best is None or value > best[1]:
            best = (t, value)
    return best


class TestThresholdSearch:
    def test_separable_lowest_tie(self):
        threshold, value = threshold_search(SEPARABLE, "accuracy", positive=H)
        assert threshold == 0.40
        assert value == 1.0

    def test_separable_f1(self):
        threshold, value = threshold_search(SEPARABLE, "f1", positive=H)
        assert threshold == 0.40
        assert value == 1.0

    def test_single_pair(self):
        threshold, value = threshold_search([ls(0.3, A), ls(0.7, H)], "accuracy")
        assert threshold == 0.00
        assert value == 0.5

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            scores = random_scores(rng, int(rng.integers(4, 40)), on_grid=trial % 2 == 0)
            for objective in ("accuracy", "f1"):
                for positive in (H, A):
                    got = threshold_search(scores, objective, positive)
                    assert got == oracle_best_threshold(scores, objective, positive)

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            threshold_search(SEPARABLE, "recall")

    def test_rejects_single_class(self):
        with pytest.raises(DegenerateLabels):
            threshold_search([ls(0.2, H), ls(0.4, H)])

    def test_rejects_empty(self):
        with pytest.raises(DegenerateLabels):
            threshold_search([])

    def test_metrics_at_shape(self):
        m = metrics_at(SEPARABLE, 0.40)
        assert m.accuracy == m.f1 == 1.0


def oracle_average_precision(scores, positive):
    """Running-precision form; assumes all scores distinct."""
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


class TestAucPr:
    def test_perfect_ranking(self):
        scores = [ls(0.1, H), ls(0.2, H), ls(0.8, A), ls(0.9, A)]
        assert auc_pr(scores, positive=H) == 1.0
        assert auc_pr(scores, positive=A) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        scores = [ls(0.1, H), ls(0.2, A), ls(0.3, H), ls(0.4, A)]
        assert abs(auc_pr(scores, positive=H) - 5 / 6) <= 1e-9

    def test_all_tied_equals_prevalence(self):
        scores = [ls(0.5, H)] * 3 + [ls(0.5, A)] * 7
        assert auc_pr(scores, positive=H) == pytest.approx(0.3, abs=1e-12)

    def test_partial_tie_hand_value(self):
        scores = [ls(0.2, H), ls(0.2, A), ls(0.8, H)]
        expected = (1 * (1 / 2) + 1 * (2 / 3)) / 2
        assert auc_pr(scores, positive=H) == pytest.approx(expected, abs=1e-12)

    def test_matches_running_precision_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            scores = random_scores(rng, int(rng.integers(4, 50)))
            for positive in (H, A):
                got = auc_pr(scores, positive)
                want = oracle_average_precision(scores, positive)
                assert abs(got - want) <= 1e-9

    def test_input_order_invariant(self):
        rng = np.random.default_rng(3)
        scores = random_scores(rng, 20)
        shuffled = [scores[i] for i in rng.permutation(len(scores))]
        assert auc_pr(scores) == auc_pr(shuffled)

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(4)
        scores = random_scores(rng, 20)
        squared = [ls(s.score**2, s.label) for s in scores]
        assert auc_pr(scores) == auc_pr(squared)

    def test_mirror_symmetry(self):
        scores = [ls(0.25, H), ls(0.5, A), ls(0.75, A), ls(0.125, H)]
        mirrored = [ls(1.0 - s.score, A if s.label == H else H) for s in scores]
        assert auc_pr(scores, positive=H) == auc_pr(mirrored, positive=A)

    def test_rejects_single_class(self):
        with pytest.raises(DegenerateLabels):
            auc_pr([ls(0.5, A)])


def reference_bootstrap(scores, threshold, resamples, seed):
    """Re-derivation with its own metric arithmetic and the same draw order."""
    rng = np.random.default_rng(seed)
    n = len(scores)
    replicates = []
    for _ in range(resamples):
        idx = rng.integers(0, n, n)
        picked = [scores[i] for i in idx]
        correct = sum(
            (s.score > threshold) == (s.label == A) for s in picked
        )
        replicates.append(correct / n)
    low, high = np.percentile(replicates, [2.5, 97.5])
    return (
        fsum(replicates) / len(replicates),
        float(low),
        float(high),
    )


FIXTURE_20 = [
    ls(round(0.05 * i, 2), H if i % 3 else A, ref=f"e{i:02d}") for i in range(20)
]


def per_sample(metric):
    """A RowMetric that applies ``metric`` to each resample's list of scores
    in turn; a resample on which it raises DegenerateLabels is degenerate."""

    def bind(scores):
        def rows(idx):
            values = np.zeros(len(idx))
            degenerate = np.zeros(len(idx), dtype=bool)
            for i, row in enumerate(idx.tolist()):
                try:
                    values[i] = metric([scores[j] for j in row])
                except DegenerateLabels:
                    degenerate[i] = True
            return values, degenerate

        return rows

    return bind


ACCURACY_AT_HALF = threshold_metric("accuracy", 0.5)


class TestBootstrap:
    def test_deterministic(self):
        metric = ACCURACY_AT_HALF
        first = bootstrap_ci(FIXTURE_20, metric, resamples=200, seed=42)
        second = bootstrap_ci(FIXTURE_20, metric, resamples=200, seed=42)
        assert first == second

    def test_seed_changes_draws(self):
        metric = ACCURACY_AT_HALF
        a = bootstrap_ci(FIXTURE_20, metric, resamples=200, seed=1)
        b = bootstrap_ci(FIXTURE_20, metric, resamples=200, seed=2)
        assert a != b

    def test_zero_variance_metric(self):
        ci = bootstrap_ci(FIXTURE_20, per_sample(lambda s: 0.25), resamples=50, seed=0)
        assert ci == BootstrapCI(mean=0.25, half_width=0.0, low=0.25, high=0.25, skipped=0)

    def test_matches_independent_implementation(self):
        ci = bootstrap_ci(FIXTURE_20, ACCURACY_AT_HALF, resamples=300, seed=9)
        mean, low, high = reference_bootstrap(FIXTURE_20, 0.5, 300, 9)
        assert ci.mean == mean
        assert ci.low == low
        assert ci.high == high
        assert ci.half_width == (high - low) / 2
        assert ci.skipped == 0

    def test_degenerate_resamples_skipped_and_counted(self):
        scores = [ls(0.1, H, ref="h")] + [ls(0.9, A, ref=f"a{i}") for i in range(7)]
        ci = bootstrap_ci(scores, auc_pr_metric(), resamples=200, seed=0)
        assert 0 < ci.skipped < 200

    def test_all_degenerate_raises(self):
        def explode(_):
            raise DegenerateLabels("forced")

        with pytest.raises(DegenerateLabels):
            bootstrap_ci(FIXTURE_20, per_sample(explode), resamples=5, seed=0)

    def test_str_format(self):
        ci = BootstrapCI(mean=0.79, half_width=0.034, low=0.756, high=0.824, skipped=0)
        assert str(ci) == "0.790 ± 0.034"

    def test_rejects_empty_and_bad_resamples(self):
        with pytest.raises(DegenerateLabels):
            bootstrap_ci([], ACCURACY_AT_HALF)
        with pytest.raises(ValueError):
            bootstrap_ci(FIXTURE_20, ACCURACY_AT_HALF, resamples=0)


def paired_sets():
    labels = [H] * 5 + [A] * 5
    worst = [
        ls(0.9 if l == H else 0.1, l, ref=f"x{i}") for i, l in enumerate(labels)
    ]
    best = [
        ls(0.1 if l == H else 0.9, l, ref=f"x{i}") for i, l in enumerate(labels)
    ]
    return worst, best


def sequential_bootstrap(n, replicate, resamples, seed):
    """(mean, low, high, skipped) of a bootstrap that draws one index vector
    per resample, in order, and skips the resamples whose ``replicate``
    raises DegenerateLabels."""
    rng = np.random.default_rng(seed)
    values, skipped = [], 0
    for _ in range(resamples):
        idx = rng.integers(0, n, n)
        try:
            values.append(replicate(idx))
        except DegenerateLabels:
            skipped += 1
    if not values:
        raise DegenerateLabels("every resample was degenerate")
    low, high = np.percentile(values, [2.5, 97.5])
    return fsum(values) / len(values), float(low), float(high), skipped


def reference_compare(a, b, metric, resamples, seed):
    a = sorted(a, key=lambda s: s.example_ref)
    b = sorted(b, key=lambda s: s.example_ref)
    return sequential_bootstrap(
        len(a),
        lambda idx: metric([b[i] for i in idx]) - metric([a[i] for i in idx]),
        resamples,
        seed,
    )


def summary(result):
    """(mean, low, high, skipped) of a bootstrap result; DegenerateLabels as is."""
    if isinstance(result, BootstrapCI):
        return result.mean, result.low, result.high, result.skipped
    if isinstance(result, MethodComparison):
        return result.difference_mean, result.low, result.high, result.skipped
    return result


class TestCompareMethods:
    def test_resample_skipped_when_either_side_degenerates(self):
        worst, best = paired_sets()

        def metric(sample):
            # Picking x0 first is degenerate for b only (its x0 scores 0.1),
            # picking x7 first for a only.
            if sample[0].example_ref in ("x0", "x7") and sample[0].score == 0.1:
                raise DegenerateLabels("forced")
            return fsum(s.score for s in sample) / len(sample)

        cmp = compare_methods(worst, best, per_sample(metric), resamples=300, seed=3)
        assert summary(cmp) == reference_compare(worst, best, metric, 300, 3)
        assert cmp.skipped > 0

    def test_identical_methods_not_significant(self):
        worst, _ = paired_sets()
        cmp = compare_methods(worst, list(worst), ACCURACY_AT_HALF, resamples=100)
        assert cmp.difference_mean == 0.0
        assert not cmp.significant

    def test_dominant_method_significant(self):
        worst, best = paired_sets()
        cmp = compare_methods(worst, best, ACCURACY_AT_HALF, resamples=100)
        assert cmp.difference_mean == 1.0
        assert cmp.low > 0.0
        assert cmp.significant

    def test_ref_mismatch_names_examples(self):
        worst, best = paired_sets()
        with pytest.raises(RefMismatch, match="x9"):
            compare_methods(worst, best[:-1], ACCURACY_AT_HALF)

    def test_label_disagreement_rejected(self):
        worst, best = paired_sets()
        flipped = best[:]
        flipped[0] = ls(best[0].score, A, ref=best[0].example_ref)
        with pytest.raises(RefMismatch, match="x0"):
            compare_methods(worst, flipped, ACCURACY_AT_HALF)

    def test_str_mentions_verdict(self):
        worst, best = paired_sets()
        cmp = compare_methods(worst, best, ACCURACY_AT_HALF, resamples=50)
        assert "significant" in str(cmp)


class TestEvaluateMethod:
    def test_report_fields(self):
        rng = np.random.default_rng(2)
        scores = [
            ls(float(v), l, ref=f"r{i}")
            for i, (v, l) in enumerate(
                zip(rng.random(30), [H if i % 2 else A for i in range(30)])
            )
        ]
        report = evaluate_method("selfcheck+kg", scores, resamples=100, seed=5)
        assert report.method == "selfcheck+kg"
        assert report.n == 30
        assert report.bootstrap_seed == 5
        assert report.positive_class is H
        assert report.threshold_accuracy in THRESHOLD_GRID
        assert report.threshold_f1 in THRESHOLD_GRID
        record = report.as_record()
        assert record["accuracy"]["mean"] == report.accuracy.mean
        assert record["positive_class"] == "hallucinated"

    def test_report_validation(self):
        good = BootstrapCI(0.5, 0.1, 0.4, 0.6, 0)
        bad = BootstrapCI(1.5, 0.1, 1.4, 1.6, 0)
        with pytest.raises(ValueError):
            EvalReport(
                method="m",
                positive_class=H,
                n=1,
                bootstrap_seed=0,
                threshold_accuracy=0.5,
                threshold_f1=0.5,
                accuracy=bad,
                f1=good,
                auc_pr=good,
            )

    def test_render_table(self):
        worst, best = paired_sets()
        reports = [
            evaluate_method("self_confidence", worst, resamples=50),
            evaluate_method("selfcheck", best, resamples=50),
        ]
        table = render_report_table(reports)
        assert "self_confidence" in table
        assert "selfcheck" in table
        assert "±" in table
        assert "positive class: hallucinated" in table
        assert "bootstrap seed = 0" in table

    def test_render_empty(self):
        assert "no methods" in render_report_table([])


# Kernels against the per-sample path: scores on the hundredth grid (so tie
# groups and exact threshold hits occur), both classes and both positives.
grid_sets = st.lists(
    st.tuples(st.integers(0, 100), st.sampled_from([H, A])), min_size=1, max_size=60
).map(lambda rows: [ls(v / 100, l, ref=f"x{i:02d}") for i, (v, l) in enumerate(rows)])
positives = st.sampled_from([H, A])


def per_sample_metrics(threshold, positive):
    """(kernel, matching per-sample metric) pairs."""
    return [
        (threshold_metric("accuracy", threshold, positive),
         lambda s: metrics_at(s, threshold, positive).accuracy),
        (threshold_metric("f1", threshold, positive),
         lambda s: metrics_at(s, threshold, positive).f1),
        (auc_pr_metric(positive), lambda s: auc_pr(s, positive)),
    ]


def outcome(fn, *args):
    """The result of ``fn``, or the DegenerateLabels it raised."""
    try:
        return fn(*args)
    except DegenerateLabels:
        return DegenerateLabels


class TestKernelsEqualPerSamplePath:
    @settings(max_examples=150, deadline=None)
    @given(grid_sets, positives, st.integers(0, 100), st.integers(1, 80), st.integers(0, 2**16))
    def test_bootstrap_ci(self, scores, positive, cut, resamples, seed):
        for kernel, metric in per_sample_metrics(cut / 100, positive):
            got = outcome(bootstrap_ci, scores, kernel, resamples, seed)
            reference = outcome(
                sequential_bootstrap, len(scores),
                lambda idx: metric([scores[i] for i in idx]), resamples, seed,
            )
            assert summary(got) == reference

    @settings(max_examples=150, deadline=None)
    @given(
        grid_sets, st.randoms(use_true_random=False), positives, st.integers(0, 100),
        st.integers(1, 80), st.integers(0, 2**16),
    )
    def test_compare_methods(self, a, random, positive, cut, resamples, seed):
        b = [ls(random.randrange(101) / 100, s.label, ref=s.example_ref) for s in a]
        random.shuffle(b)
        for kernel, metric in per_sample_metrics(cut / 100, positive):
            got = outcome(compare_methods, a, b, kernel, resamples, seed)
            assert summary(got) == outcome(reference_compare, a, b, metric, resamples, seed)

    @settings(max_examples=150, deadline=None)
    @given(grid_sets, positives)
    def test_threshold_search_equals_per_threshold_classify(self, scores, positive):
        for objective in ("accuracy", "f1"):
            expected = DegenerateLabels
            if len({s.label for s in scores}) == 2:
                values = [getattr(classify(scores, t, positive), objective) for t in THRESHOLD_GRID]
                best = values.index(max(values))
                expected = (THRESHOLD_GRID[best], values[best])
            assert outcome(threshold_search, scores, objective, positive) == expected

    @settings(max_examples=100, deadline=None)
    @given(grid_sets, positives)
    def test_auc_pr_equals_tie_group_walk(self, scores, positive):
        assert outcome(auc_pr, scores, positive) == outcome(tie_group_walk, scores, positive)


@st.composite
def off_grid_sets(draw):
    """Up to 600 scores anywhere in [0, 1], so ties are rare and rows hold
    many average-precision terms; any share of hallucinated labels."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hallucinated = rng.random(n) < draw(st.floats(0, 1))
    return [
        ls(v, H if h else A, ref=f"x{i:03d}")
        for i, (v, h) in enumerate(zip(rng.random(n).tolist(), hallucinated.tolist()))
    ]


class TestAucPrRowsSumExactly:
    """The AUC-PR kernel against sequential resamples summed with ``fsum``."""

    @settings(max_examples=60, deadline=None)
    @given(off_grid_sets(), positives, st.integers(1, 80), st.integers(0, 2**16))
    def test_bootstrap_ci(self, scores, positive, resamples, seed):
        got = outcome(bootstrap_ci, scores, auc_pr_metric(positive), resamples, seed)
        reference = outcome(
            sequential_bootstrap, len(scores),
            lambda idx: tie_group_walk([scores[i] for i in idx], positive), resamples, seed,
        )
        assert summary(got) == reference

    @settings(max_examples=60, deadline=None)
    @given(
        off_grid_sets(), st.integers(0, 2**32 - 1), positives, st.integers(1, 80),
        st.integers(0, 2**16),
    )
    def test_compare_methods(self, a, b_seed, positive, resamples, seed):
        b_values = np.random.default_rng(b_seed).random(len(a)).tolist()
        b = [ls(v, s.label, ref=s.example_ref) for v, s in zip(b_values, a)]
        got = outcome(compare_methods, a, b, auc_pr_metric(positive), resamples, seed)
        reference = outcome(
            reference_compare, a, b, lambda s: tie_group_walk(s, positive), resamples, seed
        )
        assert summary(got) == reference

    @pytest.mark.parametrize("n, fsum_calls", [(2**17, 0), (2**17 + 1, 2)])
    def test_rows_at_the_two_part_limit(self, monkeypatch, n, fsum_calls):
        # Up to 2**17 scores a row is summed in two fixed-point parts; past
        # that, each row is one fsum call.
        rng = np.random.default_rng(n)
        values, hallucinated = rng.random(n).tolist(), (rng.random(n) < 0.5).tolist()
        scores = [ls(v, H if h else A) for v, h in zip(values, hallucinated)]
        idx = rng.integers(0, n, (2, n))
        calls = []
        monkeypatch.setattr(evaluation, "fsum", lambda terms: calls.append(1) or fsum(terms))
        got, degenerate = auc_pr_metric(H)(scores)(idx)
        assert len(calls) == fsum_calls and not degenerate.any()
        assert got.tolist() == [
            tie_group_walk([scores[i] for i in row], H) for row in idx.tolist()
        ]


def tie_group_walk(scores, positive):
    """Average precision by walking the sorted list one tie group at a time."""
    if len({s.label for s in scores}) < 2:
        raise DegenerateLabels("one class")
    sign = 1.0 if positive == H else -1.0
    ordered = sorted(scores, key=lambda s: sign * s.score)
    terms = []
    seen = seen_positives = i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].score == ordered[i].score:
            j += 1
        group_positives = sum(s.label == positive for s in ordered[i:j])
        seen += j - i
        seen_positives += group_positives
        if group_positives:
            terms.append(group_positives * (seen_positives / seen))
        i = j
    return fsum(terms) / seen_positives


class TestBlockedResampling:
    @pytest.mark.parametrize("block", [1, 20, 60, 61, evaluation.BLOCK])
    @pytest.mark.parametrize("resamples", [1, 7, 300])
    def test_blocks_reproduce_sequential_draws(self, monkeypatch, block, resamples):
        # n = 20: a block of 60 or 61 indices holds 3 rows, so 7 and 300
        # resamples end in a partial block; a block of 1 or 20 holds one row.
        monkeypatch.setattr(evaluation, "BLOCK", block)
        mean, low, high = reference_bootstrap(FIXTURE_20, 0.5, resamples, 9)
        for metric in (ACCURACY_AT_HALF, per_sample(lambda s: metrics_at(s, 0.5).accuracy)):
            ci = bootstrap_ci(FIXTURE_20, metric, resamples=resamples, seed=9)
            assert (ci.mean, ci.low, ci.high, ci.skipped) == (mean, low, high, 0)

    def test_nan_metric_propagates_as_before(self):
        # Samples starting with a hallucinated example give NaN, samples
        # starting with "e00" are degenerate; the rest give 0.5.
        def metric(sample):
            if sample[0].example_ref == "e00":
                raise DegenerateLabels("forced")
            return math.nan if sample[0].label == H else 0.5

        rng = np.random.default_rng(4)
        skipped = 0
        for _ in range(200):
            first = FIXTURE_20[rng.integers(0, 20, 20)[0]]
            skipped += first.example_ref == "e00"
        ci = bootstrap_ci(FIXTURE_20, per_sample(metric), resamples=200, seed=4)
        assert ci.skipped == skipped > 0
        assert all(math.isnan(v) for v in (ci.mean, ci.half_width, ci.low, ci.high))

    def test_memory_stays_bounded_at_many_resamples(self):
        rng = np.random.default_rng(8)
        scores = random_scores(rng, 501, on_grid=True)
        tracemalloc.start()
        try:
            bootstrap_ci(scores, threshold_metric("f1", 0.5), resamples=100_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One unblocked (100000, 501) int64 draw alone would take 400 MB.
        assert peak < 16 * 2**20
