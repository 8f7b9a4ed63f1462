"""Threshold search, binary metrics with bootstrap intervals, comparisons.

Detector scores are turned into labels by a cut-off: an output is predicted
factual when its score is strictly above the threshold, hallucinated
otherwise. The threshold is chosen by exhaustive search over the hundredth
grid {0.00, 0.01, ..., 1.00}, separately for accuracy and F1. Ranking quality
is summarized threshold-free as average precision with deterministic tie
grouping. Uncertainty comes from a seeded percentile bootstrap over examples,
reported as mean plus or minus the interval half-width. The bootstrap draws
its resamples as blocks of index rows, and the built-in metrics score a whole
block at once (``RowMetric``) with the same floats as scoring each resample
on its own.

The positive class defaults to hallucinated (detection framing) and is
configurable everywhere; reports always state which one they used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import HallucheckError, Label

THRESHOLD_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))

DEFAULT_RESAMPLES = 1000
DEFAULT_POSITIVE = Label.HALLUCINATED


class DegenerateLabels(HallucheckError):
    """An operation that needs both label classes saw only one."""


class RefMismatch(HallucheckError):
    """Paired score lists do not cover the same examples."""


@dataclass(frozen=True)
class LabeledScore:
    """A detector score joined with its ground-truth label."""

    score: float
    label: Label
    example_ref: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        object.__setattr__(self, "label", Label(self.label))


def _ratio(num, den):
    """``num / den``, and 0.0 where ``den`` is 0; elementwise on arrays.

    Counts are converted to floats exactly, so each quotient is the float
    Python's ``int / int`` gives.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    out = np.zeros(den.shape)
    nonzero = den != 0
    out[nonzero] = num[nonzero] / den[nonzero]
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


class Metrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float


def _require_both_labels(scores: Sequence[LabeledScore]) -> None:
    labels = {s.label for s in scores}
    if len(labels) < 2:
        raise DegenerateLabels(f"need both labels, saw {sorted(l.value for l in labels)}")


def _values(scores: Sequence[LabeledScore]) -> np.ndarray:
    return np.array([s.score for s in scores], dtype=float)


def _is_positive(scores: Sequence[LabeledScore], positive: Label) -> np.ndarray:
    return np.array([s.label == positive for s in scores], dtype=bool)


def _outcomes(
    scores: Sequence[LabeledScore], threshold: float, positive: Label
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-example true-positive, false-positive and false-negative flags at a
    cut-off: an example is predicted accurate iff its score > threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    accurate = _values(scores) > threshold
    predicted = accurate if positive == Label.ACCURATE else ~accurate
    actual = _is_positive(scores, positive)
    return predicted & actual, predicted & ~actual, ~predicted & actual


def classify(
    scores: Sequence[LabeledScore],
    threshold: float,
    positive: Label = DEFAULT_POSITIVE,
) -> Confusion:
    """Confusion counts at a cut-off: predicted accurate iff score > threshold."""
    tp, fp, fn = (int(flags.sum()) for flags in _outcomes(scores, threshold, positive))
    return Confusion(tp=tp, fp=fp, tn=len(scores) - tp - fp - fn, fn=fn)


def metrics_at(
    scores: Sequence[LabeledScore],
    threshold: float,
    positive: Label = DEFAULT_POSITIVE,
) -> Metrics:
    c = classify(scores, threshold, positive)
    return Metrics(accuracy=c.accuracy, precision=c.precision, recall=c.recall, f1=c.f1)


_OBJECTIVES: dict[str, Callable[[Confusion], float | np.ndarray]] = {
    "accuracy": lambda c: c.accuracy,
    "f1": lambda c: c.f1,
}


def _check_objective(objective: str) -> None:
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {sorted(_OBJECTIVES)}, got {objective!r}")


def threshold_search(
    scores: Sequence[LabeledScore],
    objective: str = "accuracy",
    positive: Label = DEFAULT_POSITIVE,
) -> tuple[float, float]:
    """Best grid threshold for the objective; ties go to the lowest threshold.

    Sorted scores give, by binary search, the confusion counts at every grid
    threshold at once; the first threshold reaching the best value wins.
    """
    _check_objective(objective)
    if not scores:
        raise DegenerateLabels("no scores to search over")
    _require_both_labels(scores)
    values = _values(scores)
    actual = _is_positive(scores, positive)
    # Examples at or below a threshold are the ones predicted hallucinated.
    below = np.searchsorted(np.sort(values), THRESHOLD_GRID, side="right")
    pos_below = np.searchsorted(np.sort(values[actual]), THRESHOLD_GRID, side="right")
    neg_below = below - pos_below
    n_pos = int(actual.sum())
    n_neg = len(scores) - n_pos
    if positive == Label.HALLUCINATED:
        c = Confusion(tp=pos_below, fp=neg_below, tn=n_neg - neg_below, fn=n_pos - pos_below)
    else:
        c = Confusion(tp=n_pos - pos_below, fp=n_neg - neg_below, tn=neg_below, fn=pos_below)
    objective_values = _OBJECTIVES[objective](c)
    best = int(np.argmax(objective_values))
    return THRESHOLD_GRID[best], float(objective_values[best])


# A row metric's kernel: from a (rows, n) matrix of indices into the scores
# it was bound to, one value per row and a mask of the degenerate rows.
RowFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class RowMetric:
    """A metric that scores many resamples at once.

    ``bind(scores)`` does the work that depends only on the scores, once, and
    returns the kernel (see ``RowFn``). A row is degenerate where the
    per-sample form of the metric would raise ``DegenerateLabels``.
    """

    bind: Callable[[Sequence[LabeledScore]], RowFn]


def threshold_metric(
    objective: str, threshold: float, positive: Label = DEFAULT_POSITIVE
) -> RowMetric:
    """The objective ("accuracy" or "f1") at a fixed threshold; the row form
    of ``getattr(metrics_at(s, threshold, positive), objective)``. It never
    degenerates."""
    _check_objective(objective)
    score_fn = _OBJECTIVES[objective]

    def bind(scores: Sequence[LabeledScore]) -> RowFn:
        tp, fp, fn = _outcomes(scores, threshold, positive)

        def rows(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            n_tp, n_fp, n_fn = (flags[idx].sum(axis=1) for flags in (tp, fp, fn))
            n_tn = idx.shape[1] - n_tp - n_fp - n_fn
            values = score_fn(Confusion(tp=n_tp, fp=n_fp, tn=n_tn, fn=n_fn))
            return values, np.zeros(len(idx), dtype=bool)

        return rows

    return RowMetric(bind)


def auc_pr_metric(positive: Label = DEFAULT_POSITIVE) -> RowMetric:
    """Average precision (see ``auc_pr``) as a row metric. A row with no
    positive or no negative example is degenerate."""

    def bind(scores: Sequence[LabeledScore]) -> RowFn:
        sign = 1.0 if positive == Label.HALLUCINATED else -1.0
        # Tie groups, numbered most-positive-first.
        keys = sign * _values(scores)
        ranks = np.unique(keys)
        group = np.searchsorted(ranks, keys)
        n_groups = len(ranks)
        is_pos = _is_positive(scores, positive)

        def rows(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            n_rows, n = idx.shape
            cells = group[idx]
            cells += n_groups * np.arange(n_rows)[:, None]
            shape = (n_rows, n_groups)
            pos = np.bincount(cells[is_pos[idx]], minlength=n_rows * n_groups).reshape(shape)
            size = np.bincount(cells.ravel(), minlength=n_rows * n_groups).reshape(shape)
            # Counts are exact as floats, so each term is the float that
            # ``int * (int / int)`` gives.
            seen = size.cumsum(axis=1, dtype=float)
            seen_pos = pos.cumsum(axis=1, dtype=float)
            # Each group holding a positive adds group_positives * precision
            # at the group's end; flattened row by row.
            has = pos > 0
            terms = (pos[has] * (seen_pos[has] / seen[has])).tolist()
            ends = np.cumsum(has.sum(axis=1)).tolist()
            total_pos = pos.sum(axis=1)
            degenerate = (total_pos == 0) | (total_pos == n)
            values = [
                0.0 if skip else fsum(terms[start:end]) / count
                for start, end, count, skip in zip(
                    [0, *ends], ends, total_pos.tolist(), degenerate.tolist()
                )
            ]
            return np.array(values), degenerate

        return rows

    return RowMetric(bind)


def auc_pr(scores: Sequence[LabeledScore], positive: Label = DEFAULT_POSITIVE) -> float:
    """Average precision over the ranking induced by the scores.

    Items are ranked most-positive-first: ascending score when the positive
    class is hallucinated (low score = likely hallucination), descending when
    it is accurate. Equal scores form one rank group and take the precision at
    the group's end, which makes the value independent of input order.
    """
    _require_both_labels(scores)
    values, _ = auc_pr_metric(positive).bind(scores)(np.arange(len(scores))[None, :])
    return float(values[0])


class BootstrapCI(NamedTuple):
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


def _resample(n: int, rows: RowFn, resamples: int, seed: int) -> tuple[list[float], int]:
    """The values of the non-degenerate resamples, in draw order, and the
    number of degenerate ones.

    Resamples are drawn in blocks of ``BLOCK // n`` rows; the blocks yield
    exactly the indices of one ``rng.integers(0, n, n)`` call per resample.
    """
    rng = np.random.default_rng(seed)
    block = max(1, BLOCK // max(n, 1))
    kept: list[float] = []
    skipped = 0
    for start in range(0, resamples, block):
        values, degenerate = rows(rng.integers(0, n, (min(block, resamples - start), n)))
        kept.extend(values[~degenerate].tolist())
        skipped += int(degenerate.sum())
    return kept, skipped


def _percentile_interval(replicates: list[float]) -> tuple[float, float, float]:
    mean = fsum(replicates) / len(replicates)
    low, high = (float(v) for v in np.percentile(replicates, [2.5, 97.5]))
    return mean, low, high


def bootstrap_ci(
    scores: Sequence[LabeledScore],
    metric_fn: RowMetric,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
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
    replicates, skipped = _resample(len(scores), metric_fn.bind(scores), resamples, seed)
    if not replicates:
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


def _by_ref(scores: Sequence[LabeledScore]) -> list[LabeledScore]:
    return sorted(scores, key=lambda s: s.example_ref)


def compare_methods(
    a: Sequence[LabeledScore],
    b: Sequence[LabeledScore],
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
    refs_a = sorted(s.example_ref for s in a)
    refs_b = sorted(s.example_ref for s in b)
    if refs_a != refs_b:
        only_a = set(refs_a) - set(refs_b)
        only_b = set(refs_b) - set(refs_a)
        raise RefMismatch(
            f"methods cover different examples (only in a: {sorted(only_a)[:5]}, "
            f"only in b: {sorted(only_b)[:5]})"
        )
    paired_a = _by_ref(a)
    paired_b = _by_ref(b)
    for sa, sb in zip(paired_a, paired_b):
        if sa.label != sb.label:
            raise RefMismatch(f"labels disagree for example {sa.example_ref!r}")
    rows_a, rows_b = metric_fn.bind(paired_a), metric_fn.bind(paired_b)

    def differences(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values_b, degenerate_b = rows_b(idx)
        values_a, degenerate_a = rows_a(idx)
        return values_b - values_a, degenerate_a | degenerate_b

    diffs, skipped = _resample(len(paired_a), differences, resamples, seed)
    if not diffs:
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
            if ci.half_width < 0.0:
                raise ValueError(f"{name} half-width {ci.half_width} negative")

    def as_record(self) -> dict:
        return {
            "method": self.method,
            "positive_class": self.positive_class.value,
            "n": self.n,
            "bootstrap_seed": self.bootstrap_seed,
            "threshold_accuracy": self.threshold_accuracy,
            "threshold_f1": self.threshold_f1,
            "accuracy": self.accuracy._asdict(),
            "f1": self.f1._asdict(),
            "auc_pr": self.auc_pr._asdict(),
        }


def evaluate_method(
    method: str,
    scores: Sequence[LabeledScore],
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
