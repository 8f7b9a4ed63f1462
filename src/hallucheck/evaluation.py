"""Threshold search, binary metrics with bootstrap intervals, comparisons,
dataset statistics.

Detector scores are turned into labels by a cut-off: an output is predicted
factual when its score is strictly above the threshold, hallucinated
otherwise. The threshold is chosen by exhaustive search over the hundredth
grid {0.00, 0.01, ..., 1.00}, separately for accuracy and F1. Ranking quality
is summarized threshold-free as average precision with deterministic tie
grouping. Uncertainty comes from a seeded percentile bootstrap over examples,
reported as mean plus or minus the interval half-width. The bootstrap draws
its resamples in blocks and turns each block into a matrix of per-example
counts, one row per resample. The built-in metrics score a whole block of
counts at once (``RowMetric``) with the same floats as scoring each resample
on its own. Every bootstrap with the same example count, resample count and
seed draws the same resamples, so the count blocks of the last draw of at most
``KEEP_CELLS`` cells (4 MB) are kept and shared, not drawn again.

The positive class defaults to hallucinated (detection framing) and is
configurable everywhere; reports always state which one they used.

``compute_stats`` gives a labelled dataset's statistics: label counts,
whitespace word lengths and the cosine between the two class centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import HallucheckError, Label, SchemaError
from .data import WikiBioRecord
from .embed import MemoizingEmbedder, cosine_sim

THRESHOLD_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))

DEFAULT_RESAMPLES = 1000
DEFAULT_POSITIVE = Label.HALLUCINATED


class DegenerateLabels(HallucheckError):
    """An operation that needs both label classes saw only one."""


class RefMismatch(HallucheckError):
    """Paired score lists do not cover the same examples."""


class LabeledScores:
    """One method's detector scores joined with their ground-truth labels, as
    columns in input order: read-only float64 ``scores``, a read-only bool
    ``hallucinated`` column and the example ``refs`` ("" each when not given).
    The constructor checks every score, label and length."""

    def __init__(
        self, scores: Sequence[float], labels: Iterable[Label], refs: Iterable[str] = ()
    ) -> None:
        self.scores = np.array(scores, dtype=float)
        self.hallucinated = np.array([Label(l) == Label.HALLUCINATED for l in labels], dtype=bool)
        self.refs = tuple(refs) or ("",) * len(self.scores)
        n = self.scores.size
        if self.scores.ndim != 1 or not n == len(self.hallucinated) == len(self.refs):
            raise ValueError(
                f"{n} scores need as many labels and refs, got "
                f"{len(self.hallucinated)} labels and {len(self.refs)} refs"
            )
        outside = ~((self.scores >= 0.0) & (self.scores <= 1.0))
        if outside.any():
            raise ValueError(f"score {self.scores[outside][0]} outside [0, 1]")
        self.scores.flags.writeable = self.hallucinated.flags.writeable = False

    def __len__(self) -> int:
        return len(self.scores)

    def positive(self, positive: Label) -> np.ndarray:
        """Which examples carry the ``positive`` label."""
        return self.hallucinated if positive == Label.HALLUCINATED else ~self.hallucinated

    def take(self, order: Sequence[int]) -> LabeledScores:
        """The examples at the positions in ``order``, in that order."""
        taken = object.__new__(LabeledScores)
        taken.scores, taken.hallucinated = self.scores[order], self.hallucinated[order]
        taken.refs = tuple(map(self.refs.__getitem__, order))
        taken.scores.flags.writeable = taken.hallucinated.flags.writeable = False
        return taken


def _ratio(num, den):
    """``num / den``, and 0.0 where ``den`` is 0; elementwise on arrays.

    Counts are converted to floats exactly, so each quotient is the float
    Python's ``int / int`` gives.
    """
    den = np.asarray(den, dtype=float)
    out = np.divide(num, den, out=np.zeros(den.shape), where=den != 0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Confusion:
    """Confusion counts: ints for one labelled set, or equal-shaped int arrays
    with one entry per resample or per threshold. The metrics take the same
    shape."""

    tp: int | np.ndarray
    fp: int | np.ndarray
    tn: int | np.ndarray
    fn: int | np.ndarray

    @property
    def total(self) -> int | np.ndarray:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | np.ndarray:
        return _ratio(self.tp + self.tn, self.total)

    @property
    def precision(self) -> float | np.ndarray:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float | np.ndarray:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float | np.ndarray:
        p, r = self.precision, self.recall
        return _ratio(2 * p * r, p + r)


def _outcomes(scores: LabeledScores, threshold: float, positive: Label) -> tuple[np.ndarray, ...]:
    """Per-example true-positive, false-positive and false-negative flags at a
    cut-off: an example is predicted accurate iff its score > threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    accurate = scores.scores > threshold
    predicted = accurate if positive == Label.ACCURATE else ~accurate
    actual = scores.positive(positive)
    return predicted & actual, predicted & ~actual, ~predicted & actual


def metrics_at(
    scores: LabeledScores, threshold: float, positive: Label = DEFAULT_POSITIVE
) -> Confusion:
    """Confusion counts at a cut-off: predicted accurate iff score > threshold."""
    tp, fp, fn = (int(flags.sum()) for flags in _outcomes(scores, threshold, positive))
    return Confusion(tp=tp, fp=fp, tn=len(scores) - tp - fp - fn, fn=fn)


# The threshold search objectives, each a ``Confusion`` property.
_OBJECTIVES = ("accuracy", "f1")


def _check_objective(objective: str) -> None:
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {list(_OBJECTIVES)}, got {objective!r}")


def threshold_search(
    scores: LabeledScores, objective: str = "accuracy", positive: Label = DEFAULT_POSITIVE
) -> tuple[float, float]:
    """Best grid threshold for the objective; ties go to the lowest threshold.

    Sorted scores give, by binary search, the confusion counts at every grid
    threshold at once; the first threshold reaching the best value wins.
    """
    _check_objective(objective)
    if scores.hallucinated.all() or not scores.hallucinated.any():
        raise DegenerateLabels(f"need both labels among the {len(scores)} examples")
    actual = scores.positive(positive)
    # Examples at or below a threshold are the ones predicted hallucinated.
    below = np.searchsorted(np.sort(scores.scores), THRESHOLD_GRID, side="right")
    pos_below = np.searchsorted(np.sort(scores.scores[actual]), THRESHOLD_GRID, side="right")
    neg_below = below - pos_below
    n_pos = int(actual.sum())
    n_neg = len(scores) - n_pos
    if positive == Label.HALLUCINATED:
        c = Confusion(tp=pos_below, fp=neg_below, tn=n_neg - neg_below, fn=n_pos - pos_below)
    else:
        c = Confusion(tp=n_pos - pos_below, fp=n_neg - neg_below, tn=neg_below, fn=pos_below)
    objective_values = getattr(c, objective)
    best = int(np.argmax(objective_values))
    return THRESHOLD_GRID[best], float(objective_values[best])


# A row metric's kernel: from a (rows, n) float64 block of per-example
# counts, one value per row and a mask of the degenerate rows. Row r holds how
# often resample r drew each of the n scores the metric was bound to, so it
# sums to n. A bootstrap metric depends only on the multiset of each resample,
# never on its draw order, and the counts give that multiset exactly.
RowFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# A metric that scores many resamples at once. Called on the scores, it does
# the work that depends only on them, once, and returns the kernel (see
# ``RowFn``). A row is degenerate where the per-sample form of the metric
# would raise ``DegenerateLabels``.
RowMetric = Callable[[LabeledScores], RowFn]


def threshold_metric(
    objective: str, threshold: float, positive: Label = DEFAULT_POSITIVE
) -> RowMetric:
    """The objective ("accuracy" or "f1") at a fixed threshold; the row form
    of ``getattr(metrics_at(s, threshold, positive), objective)``. It never
    degenerates."""
    _check_objective(objective)

    def bind(scores: LabeledScores) -> RowFn:
        tp, fp, fn = _outcomes(scores, threshold, positive)
        # One 0/1 column per confusion cell: tp, fp, tn, fn.
        flags = np.column_stack([tp, fp, ~(tp | fp | fn), fn]).astype(float)

        def rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # Integer-valued sums below 2**53, so exact in any order.
            n_tp, n_fp, n_tn, n_fn = (counts @ flags).T
            values = getattr(Confusion(tp=n_tp, fp=n_fp, tn=n_tn, fn=n_fn), objective)
            return values, np.zeros(len(counts), dtype=bool)

        return rows

    return bind


def auc_pr_metric(positive: Label = DEFAULT_POSITIVE) -> RowMetric:
    """Average precision (see ``auc_pr``) as a row metric. A row with no
    positive or no negative example is degenerate."""

    def bind(scores: LabeledScores) -> RowFn:
        sign = 1.0 if positive == Label.HALLUCINATED else -1.0
        # Tie groups, numbered most-positive-first.
        keys = sign * scores.scores
        ranks = np.unique(keys)
        group = np.searchsorted(ranks, keys)
        n_groups = len(ranks)
        bins = group + n_groups * scores.positive(positive)  # positives after negatives
        cells_of: dict[int, np.ndarray] = {}  # the bincount cells of each block height

        def rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            n_rows, n = counts.shape
            cells = cells_of.get(n_rows)
            if cells is None:
                cells = cells_of[n_rows] = (bins * n_rows + np.arange(n_rows)[:, None]).ravel()
            # Per-(group, row) negative and positive counts; every weighted
            # sum is an integer below 2**53, so exact.
            shape = (2, n_groups, n_rows)
            neg, pos = np.bincount(cells, counts.ravel(), 2 * n_groups * n_rows).reshape(shape)
            # Each group holding a positive adds group_positives * precision
            # at the group's end; the other cells hold 0.0 (seen >= 1 where
            # pos > 0, and elsewhere the term is a finite ratio times 0.0).
            # Counts are exact as floats, so each term is the float
            # ``int * (int / int)`` gives.
            seen_pos = pos.cumsum(axis=0)
            seen = seen_pos + neg.cumsum(axis=0)
            terms = seen_pos / np.maximum(seen, 1.0)
            terms *= pos
            # A resample's column of terms must sum to fsum's, the correctly
            # rounded sum. With q the least integer such that 2**q >= n and
            # K = 52 - q, splitting each term t at 2**-K into hi + lo gives
            # that sum from two plain sums over groups whenever q <= 17:
            # - A non-zero term is at least 2**-q: pos >= 1, seen_pos / seen
            #   >= 1 / n and rounding is monotone. So every term is a multiple
            #   of 2**(-q-52), and a column's terms sum to at most its
            #   positive count, n <= 2**q (each term is at most pos).
            # - The split is exact: t * 2**K, the floor and the division only
            #   move the exponent or drop fraction bits, and t - hi is a
            #   multiple of 2**(-q-52) below 2**-K = 2**(q-52), which takes
            #   2q <= 53 bits.
            # - Both column sums are exact in any order of addition: every
            #   partial sum of hi is a multiple of 2**-K of at most 2**q, so
            #   at most 2**52 units; every partial sum of lo is a multiple of
            #   2**(-q-52) below n * 2**-K, so below 2**(3q) <= 2**51 units.
            # - Adding the two exact sums rounds their exact total once, half
            #   to even, which is the value fsum returns.
            # Beyond q = 17 the lo sums may round, so each column takes fsum;
            # a block then holds a single resample anyway.
            q = (n - 1).bit_length()
            if q <= 17:
                scale = 2.0 ** (52 - q)
                hi = np.floor(terms * scale) / scale
                sums = hi.sum(axis=0) + (terms - hi).sum(axis=0)
            else:
                sums = np.array([fsum(column) for column in terms.T.tolist()])
            total_pos = seen_pos[-1]
            degenerate = (total_pos == 0) | (total_pos == n)
            values = np.divide(sums, total_pos, out=np.zeros(n_rows), where=~degenerate)
            return values, degenerate

        return rows

    return bind


def auc_pr(scores: LabeledScores, positive: Label = DEFAULT_POSITIVE) -> float:
    """Average precision over the ranking induced by the scores.

    Items are ranked most-positive-first: ascending score when the positive
    class is hallucinated (low score = likely hallucination), descending when
    it is accurate. Equal scores form one rank group and take the precision at
    the group's end, which makes the value independent of input order.
    """
    values, degenerate = auc_pr_metric(positive)(scores)(np.ones((1, len(scores))))
    if degenerate[0]:
        raise DegenerateLabels(f"need both labels among the {len(scores)} examples")
    return float(values[0])


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile bootstrap summary: replicate mean and 95% interval."""

    mean: float
    half_width: float
    low: float
    high: float
    skipped: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


# Indices drawn per block of resamples, which bounds a bootstrap's memory at
# any resample count.
BLOCK = 8192

# The largest draw, in resamples * n cells, whose count blocks are kept for
# the next bootstrap with the same key: 4 MB of float64, which covers 1,000
# resamples up to n = 524. A larger draw streams one block at a time.
KEEP_CELLS = 2**19


def _count_blocks(n: int, resamples: int, seed: int) -> Iterable[np.ndarray]:
    """The resamples as read-only (rows, n) float64 blocks of per-example
    counts, in draw order.

    Blocks hold ``BLOCK // n`` rows; their indices are exactly those of one
    ``rng.integers(0, n, n)`` call per resample. The last draw of at most
    ``KEEP_CELLS`` cells is kept, and a call with the same key gets the kept
    blocks instead of drawing again; a larger draw forgets it.
    """
    rows = max(1, BLOCK // max(n, 1))
    if resamples * n <= KEEP_CELLS:
        return _kept_blocks(n, resamples, seed, rows)
    _kept_blocks.cache_clear()
    return _draw_blocks(n, resamples, seed, rows)


@lru_cache(maxsize=1)
def _kept_blocks(n: int, resamples: int, seed: int, rows: int) -> tuple[np.ndarray, ...]:
    return tuple(_draw_blocks(n, resamples, seed, rows))


def _draw_blocks(n: int, resamples: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    offsets = n * np.arange(rows)[:, None]
    rng = np.random.default_rng(seed)
    for start in range(0, resamples, rows):
        m = min(rows, resamples - start)
        cells = (rng.integers(0, n, (m, n)) + offsets[:m]).ravel()
        counts = np.bincount(cells, minlength=m * n).reshape(m, n).astype(float)
        counts.flags.writeable = False
        yield counts


def _resample(n: int, rows: RowFn, resamples: int, seed: int) -> tuple[np.ndarray, int]:
    """The values of the non-degenerate resamples, in draw order, and the
    number of degenerate ones."""
    values = np.empty(resamples)
    degenerate = np.empty(resamples, dtype=bool)
    start = 0
    for counts in _count_blocks(n, resamples, seed):
        stop = start + len(counts)
        values[start:stop], degenerate[start:stop] = rows(counts)
        start = stop
    return values[~degenerate], int(degenerate.sum())


@lru_cache(maxsize=256)
def _interval_plan(n: int) -> tuple[np.ndarray, ...]:
    """Everything of the 2.5/97.5 percentiles of n values that depends only
    on n, computed as numpy's default ("linear") method does: the partition
    points, the neighbouring ranks of each end, its weight ``gamma``, ``1 -
    gamma``, and whether it interpolates down from the upper neighbour."""
    virtual = (n - 1) * (np.array([2.5, 97.5]) / 100)
    prev = np.floor(virtual).astype(np.intp)
    nxt = prev + 1
    above = virtual >= n - 1
    prev[above] = nxt[above] = -1
    gamma = virtual - prev
    kth = np.unique(np.concatenate(([0, -1], prev, nxt)))
    plan = (kth, prev, nxt, gamma, 1 - gamma, gamma >= 0.5)
    for array in plan:
        array.flags.writeable = False
    return plan


def _percentile_interval(replicates: np.ndarray) -> tuple[float, float, float]:
    """The replicates' mean and their 2.5/97.5 percentiles, equal bit for bit
    to ``np.percentile(replicates, [2.5, 97.5])`` (signed zeros, NaN and
    infinities included): the same partition and interpolation, without its
    per-call dispatch."""
    mean = fsum(replicates.tolist()) / len(replicates)
    kth, prev, nxt, gamma, rest, upper = _interval_plan(len(replicates))
    part = np.partition(replicates, kth)
    if np.isnan(part[-1]):
        # A NaN partitions to the end and makes both ends NaN.
        return mean, float(part[-1]), float(part[-1])
    a, b = part[prev], part[nxt]
    diff = b - a
    ends = a + diff * gamma
    np.subtract(b, diff * rest, out=ends, where=upper)
    low, high = ends.tolist()
    return mean, low, high


def bootstrap_ci(
    scores: LabeledScores, metric_fn: RowMetric, resamples: int = DEFAULT_RESAMPLES, seed: int = 0
) -> BootstrapCI:
    """Resample examples with replacement and take empirical 2.5/97.5 quantiles.

    ``metric_fn`` scores a block of resamples at once. Resamples on which
    the metric degenerates (one label class) are skipped and counted.
    Deterministic for a given seed: the generator draws one length-n index
    vector per resample, in order.
    """
    if not scores:
        raise DegenerateLabels("no scores to resample")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    replicates, skipped = _resample(len(scores), metric_fn(scores), resamples, seed)
    if not len(replicates):
        raise DegenerateLabels("every bootstrap resample was degenerate")
    mean, low, high = _percentile_interval(replicates)
    return BootstrapCI(
        mean=mean, half_width=(high - low) / 2, low=low, high=high, skipped=skipped
    )


@dataclass(frozen=True)
class MethodComparison:
    """Paired bootstrap of metric(b) - metric(a)."""

    difference_mean: float
    low: float
    high: float
    significant: bool
    skipped: int

    def __str__(self) -> str:
        verdict = "significant" if self.significant else "not significant"
        return (
            f"Δ = {self.difference_mean:+.3f} "
            f"[{self.low:+.3f}, {self.high:+.3f}] ({verdict})"
        )


def compare_methods(
    a: LabeledScores,
    b: LabeledScores,
    metric_fn: RowMetric,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> MethodComparison:
    """Is method b better than method a? Paired bootstrap over shared examples.

    Each resample draws one index vector applied to both methods, so the same
    examples are picked on both sides; a resample on which either side
    degenerates is skipped. Significant at the 95% level iff the percentile
    interval of the difference excludes zero.
    """
    # Python's stable sort of the refs, so equal refs pair in input order.
    paired_a = a.take(sorted(range(len(a)), key=a.refs.__getitem__))
    paired_b = b.take(sorted(range(len(b)), key=b.refs.__getitem__))
    if paired_a.refs != paired_b.refs:
        only_a = set(a.refs) - set(b.refs)
        only_b = set(b.refs) - set(a.refs)
        raise RefMismatch(
            f"methods cover different examples (only in a: {sorted(only_a)[:5]}, "
            f"only in b: {sorted(only_b)[:5]})"
        )
    disagree = np.flatnonzero(paired_a.hallucinated != paired_b.hallucinated)
    if len(disagree):
        raise RefMismatch(f"labels disagree for example {paired_a.refs[disagree[0]]!r}")
    rows_a, rows_b = metric_fn(paired_a), metric_fn(paired_b)

    def differences(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values_b, degenerate_b = rows_b(counts)
        values_a, degenerate_a = rows_a(counts)
        return values_b - values_a, degenerate_a | degenerate_b

    diffs, skipped = _resample(len(paired_a), differences, resamples, seed)
    if not len(diffs):
        raise DegenerateLabels("every paired resample was degenerate")
    mean, low, high = _percentile_interval(diffs)
    significant = low > 0.0 or high < 0.0
    return MethodComparison(
        difference_mean=mean, low=low, high=high, significant=significant, skipped=skipped
    )


@dataclass(frozen=True)
class EvalReport:
    """One method's row of the summary table, with its provenance."""

    method: str
    positive_class: Label
    n: int
    bootstrap_seed: int
    threshold_accuracy: float
    threshold_f1: float
    accuracy: BootstrapCI
    f1: BootstrapCI
    auc_pr: BootstrapCI

    def __post_init__(self) -> None:
        for name in ("accuracy", "f1", "auc_pr"):
            ci: BootstrapCI = getattr(self, name)
            if not 0.0 <= ci.mean <= 1.0:
                raise ValueError(f"{name} mean {ci.mean} outside [0, 1]")


def evaluate_method(
    method: str,
    scores: LabeledScores,
    positive: Label = DEFAULT_POSITIVE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> EvalReport:
    """Full per-method evaluation.

    Thresholds are chosen once on the complete data; the bootstrap then
    resamples examples with those thresholds held fixed, which measures
    sampling variability of the metric rather than of the search.
    """
    threshold_accuracy, _ = threshold_search(scores, "accuracy", positive)
    threshold_f1, _ = threshold_search(scores, "f1", positive)
    accuracy_ci = bootstrap_ci(
        scores, threshold_metric("accuracy", threshold_accuracy, positive), resamples, seed
    )
    f1_ci = bootstrap_ci(scores, threshold_metric("f1", threshold_f1, positive), resamples, seed)
    auc_ci = bootstrap_ci(scores, auc_pr_metric(positive), resamples, seed)
    return EvalReport(
        method=method,
        positive_class=positive,
        n=len(scores),
        bootstrap_seed=seed,
        threshold_accuracy=threshold_accuracy,
        threshold_f1=threshold_f1,
        accuracy=accuracy_ci,
        f1=f1_ci,
        auc_pr=auc_ci,
    )


def render_report_table(reports: Iterable[EvalReport]) -> str:
    """Plain-text summary: one row per method, metric columns with ± CI."""
    reports = list(reports)
    if not reports:
        return "(no methods evaluated)\n"
    header = ["Method", "Accuracy", "F1", "AUC-PR", "thr(acc)", "thr(F1)"]
    rows = [
        [
            r.method,
            str(r.accuracy),
            str(r.f1),
            str(r.auc_pr),
            f"{r.threshold_accuracy:.2f}",
            f"{r.threshold_f1:.2f}",
        ]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows)
    first = reports[0]
    lines.append("")
    lines.append(
        f"positive class: {first.positive_class.value}; n = {first.n}; "
        f"bootstrap seed = {first.bootstrap_seed}"
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DatasetStats:
    sentence_count: int
    paragraph_count: int
    hallucinated_count: int
    accurate_count: int
    sentences_per_paragraph: float
    avg_sample_length_words: float
    avg_hallucinated_length_words: float
    avg_accurate_length_words: float
    semantic_similarity_h_vs_a: float
    similarity_method: str = "centroid_cosine"

    def __post_init__(self) -> None:
        if self.hallucinated_count + self.accurate_count != self.sentence_count:
            raise ValueError("label counts do not sum to sentence count")


def _mean(values: Sequence[float]) -> float:
    return fsum(values) / len(values) if values else 0.0


def compute_stats(records: Sequence[WikiBioRecord], embedder: MemoizingEmbedder) -> DatasetStats:
    """Counts, whitespace word-length averages, and the class-separation
    similarity: cosine between the centroid embeddings of the two classes.

    Sample lengths are averaged per paragraph (each paragraph's samples count
    once, however many sentence rows repeat them).

    The centroid-cosine procedure is this package's own definition; the
    resulting number is comparable across runs of this package, not across
    other implementations.
    """
    if not records:
        raise SchemaError("no records")
    by_paragraph: dict[str, WikiBioRecord] = {}
    for r in records:
        by_paragraph.setdefault(r.paragraph_id, r)
    sample_lengths = [float(len(s.split())) for r in by_paragraph.values() for s in r.samples]
    hallucinated = [r.sentence for r in records if r.label == Label.HALLUCINATED]
    accurate = [r.sentence for r in records if r.label == Label.ACCURATE]
    if not hallucinated or not accurate:
        raise DegenerateLabels("need sentences in both classes to compute similarity")
    centroid_h = embedder.embed_many(hallucinated).mean(axis=0)
    centroid_a = embedder.embed_many(accurate).mean(axis=0)
    return DatasetStats(
        sentence_count=len(records),
        paragraph_count=len(by_paragraph),
        hallucinated_count=len(hallucinated),
        accurate_count=len(accurate),
        sentences_per_paragraph=len(records) / len(by_paragraph),
        avg_sample_length_words=_mean(sample_lengths),
        avg_hallucinated_length_words=_mean([float(len(s.split())) for s in hallucinated]),
        avg_accurate_length_words=_mean([float(len(s.split())) for s in accurate]),
        semantic_similarity_h_vs_a=cosine_sim(centroid_h, centroid_a),
    )
