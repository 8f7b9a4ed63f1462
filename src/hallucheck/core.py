"""Shared domain types for fact-level hallucination scoring.

A generated sentence is decomposed into (subject, relation, object) triples;
detectors score either the whole sentence or each triple and aggregate to a
single consistency score in [0, 1], where lower means more likely hallucinated.
All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")

# Pseudo-triple used when extraction finds no triples: the whole sentence is
# wrapped as ("statement", "states", sentence) so triple-level detectors still
# produce a score.
DEGENERATE_SUBJECT = "statement"
DEGENERATE_RELATION = "states"

# Tolerance for the score == mean(triple scores) invariant.
SCORE_MEAN_TOL = 1e-9


class HallucheckError(Exception):
    """Base class for all errors raised by this package."""


def encodable(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8. A JSON escape such as ``\\ud800``
    decodes to a lone surrogate, which does not. An ASCII string is answered
    from a flag CPython keeps, without reading the text."""
    try:
        return text.isascii() or bool(text.encode("utf-8"))
    except UnicodeEncodeError:
        return False


def normalize_text(raw: str) -> str:
    """Normalize text for comparison: case-fold, trim, collapse whitespace runs.

    Idempotent; empty input returns empty text.
    """
    return " ".join(raw.casefold().split())


class Label(str, Enum):
    """Ground-truth annotation for one generated sentence."""

    ACCURATE = "accurate"
    HALLUCINATED = "hallucinated"


class DetectorMethod(str, Enum):
    """The three scoring strategies; each has a plain and a triple-level variant."""

    SELF_QUESTIONING = "self_questioning"
    SELF_CONFIDENCE = "self_confidence"
    SELFCHECK = "selfcheck"


@dataclass(frozen=True, eq=False)
class Triple:
    """One atomic fact: (subject, relation, object).

    Fields are stripped of leading/trailing whitespace at construction and must
    be non-empty afterwards. Equality and hashing use normalized fields
    (case-folded, whitespace-collapsed), so "Alan  Turing" == "alan turing".
    """

    subject: str
    relation: str
    obj: str

    def __post_init__(self) -> None:
        for name in ("subject", "relation", "obj"):
            value = getattr(self, name).strip()
            if not value:
                raise ValueError(f"triple field {name!r} is empty")
            object.__setattr__(self, name, value)
        # Computed once; a plain attribute, not a field, so fields() and repr
        # are unchanged.
        normalized = (
            normalize_text(self.subject),
            normalize_text(self.relation),
            normalize_text(self.obj),
        )
        object.__setattr__(self, "_normalized", normalized)

    @property
    def normalized(self) -> tuple[str, str, str]:
        return self._normalized

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash(self.normalized)


def dedupe_triples(triples: list[Triple] | tuple[Triple, ...]) -> tuple[Triple, ...]:
    """Drop duplicates under normalized equality, keeping first occurrences."""
    seen: set[tuple[str, str, str]] = set()
    kept: list[Triple] = []
    for t in triples:
        if t.normalized not in seen:
            seen.add(t.normalized)
            kept.append(t)
    return tuple(kept)


@dataclass(frozen=True)
class KnowledgeGraph:
    """The set of triples extracted from one text, in first-occurrence order.

    When extraction yields nothing, the whole sentence is wrapped as a single
    pseudo-triple and ``degenerate`` is set, so downstream scoring never has to
    handle an empty graph.
    """

    triples: tuple[Triple, ...]
    source_text: str
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(dedupe_triples(self.triples)) != len(self.triples):
            raise ValueError("knowledge graph contains duplicate triples")
        if self.degenerate:
            if len(self.triples) != 1:
                raise ValueError("degenerate graph must hold exactly one triple")
            t = self.triples[0]
            if t.subject != DEGENERATE_SUBJECT or t.relation != DEGENERATE_RELATION:
                raise ValueError(
                    "degenerate graph triple must be "
                    f"({DEGENERATE_SUBJECT!r}, {DEGENERATE_RELATION!r}, <sentence>)"
                )

    @classmethod
    def build(cls, triples: list[Triple] | tuple[Triple, ...], source_text: str) -> "KnowledgeGraph":
        """Construct from raw triples: deduplicate, or fall back to the
        degenerate pseudo-triple when no triples are given."""
        kept = dedupe_triples(triples)
        if not kept:
            return cls.degenerate_for(source_text)
        return cls(triples=kept, source_text=source_text)

    @classmethod
    def degenerate_for(cls, source_text: str) -> "KnowledgeGraph":
        pseudo = Triple(DEGENERATE_SUBJECT, DEGENERATE_RELATION, source_text)
        return cls(triples=(pseudo,), source_text=source_text, degenerate=True)

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class GeneratedOutput:
    """One sentence under evaluation, with an optional surrounding paragraph.

    Multi-sentence text is accepted but is scored as one unit.
    """

    prompt_id: str
    text: str
    context: str | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("generated output text is empty")


def make_output_ref(prompt_id: str, sentence_index: int | None = None) -> str:
    """Stable identifier joining a prompt id and an optional sentence index."""
    if sentence_index is None:
        return prompt_id
    return f"{prompt_id}:{sentence_index}"


def mean_score(values: list[float] | tuple[float, ...]) -> float:
    """Arithmetic mean via exactly-rounded summation, so the result does not
    depend on the order of the inputs."""
    if not values:
        raise ValueError("mean of empty list")
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class ScoreRecord:
    """A detector's verdict for one output.

    ``score`` is the consistency estimate in [0, 1]. When the detector worked
    triple by triple, ``triple_scores`` holds the per-triple breakdown and
    ``score`` equals its arithmetic mean; ``misses`` counts triples dropped by
    the per-triple failure policy. ``elapsed_s`` is in-memory telemetry only
    and is never part of the serialized record.
    """

    output_ref: str
    method: DetectorMethod
    score: float
    kg_used: bool
    triple_scores: tuple[tuple[Triple, float], ...] | None = None
    misses: int = 0
    prompt_version: str = ""
    model_id: str = ""
    elapsed_s: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.misses < 0:
            raise ValueError(f"misses must be >= 0, got {self.misses}")
        if self.triple_scores:
            for _, c in self.triple_scores:
                if not 0.0 <= c <= 1.0:
                    raise ValueError(f"triple score {c} outside [0, 1]")
            mean = mean_score([c for _, c in self.triple_scores])
            if abs(self.score - mean) > SCORE_MEAN_TOL:
                raise ValueError(
                    f"score {self.score} is not the mean of its triple scores ({mean})"
                )


class OnceMemo(Generic[V]):
    """Thread-safe memo that computes each key at most once at a time.

    A caller asking for a key that another thread is computing waits for that
    result instead of computing it again. A failed computation is not
    memoized: its waiters get the same exception and the next caller retries.
    """

    def __init__(self) -> None:
        self._done: dict[Hashable, V] = {}
        self._pending: dict[Hashable, Future] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        with self._lock:
            if key in self._done:
                return self._done[key]
            cell = self._pending.get(key)
            owner = cell is None
            if owner:
                cell = self._pending[key] = Future()
        if not owner:
            return cell.result()
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                del self._pending[key]
            cell.set_exception(exc)
            raise
        with self._lock:
            self._done[key] = value
            del self._pending[key]
        cell.set_result(value)
        return value
