"""Shared domain types for fact-level hallucination scoring.

A generated sentence is decomposed into (subject, relation, object) triples;
detectors score either the whole sentence or each triple and aggregate to a
single consistency score in [0, 1], where lower means more likely hallucinated.
All types here are immutable after construction and safe to share across
threads.

The file layer every module shares lives here too: ``atomic_write`` writes
every whole file, and every JSON input file is read by ``read_json`` (one
value) or ``json_lines`` (one value a line) and checked by ``check_json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Generic, Hashable, Iterator, TextIO, TypeVar, get_args

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


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces ``path`` whole if the block ends without
    an error, and is removed otherwise. It is written beside ``path`` as
    ``<name>.<random>.tmp``, so an ``OSError`` names the target, with the mode
    ``open`` gives a new file: 0666 less the umask. A directory is refused on entry."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{os.fspath(path)} is a directory")
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class SchemaError(HallucheckError):
    """An input file violated the documented record schema."""


@contextlib.contextmanager
def open_text(path: str | os.PathLike) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; bytes that do not decode raise a
    SchemaError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{os.fspath(path)}: not UTF-8 text ({exc.reason})") from None


def json_lines(path: str | os.PathLike) -> Iterator[tuple[int, str, object]]:
    """``(line number, "<file>:<line>", value)`` for each non-blank line of a
    JSON-lines file. A line json cannot decode, including an integer past the
    digit limit or nesting past the recursion limit, raises SchemaError
    naming the file and the line."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{os.fspath(path)}:{lineno}"
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
            yield lineno, where, value


NUMBER = float | int  # a kind is named after its first type: "a number"
NON_BLANK = "non-blank"  # the limit of a string that must hold more than whitespace
_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    list: "a list", dict: "an object",
}


def check_json(value, spec, where: str, error: type[HallucheckError], path: tuple = ()):
    """``value``, once it matches ``spec``; otherwise ``error`` with one line
    that starts with ``where``: ``<field> must be <kind>, got <type>``, or
    ``unknown key 'k' in <field>`` or ``missing key 'k' in <field>``, where
    ``<field>`` is a dotted path such as ``detectors[4].n_samples``.

    A spec is a kind or a ``(kind, limit)`` pair. Scalar kinds are ``str``,
    ``int``, ``bool`` and ``NUMBER`` (finite; ``true`` and ``false`` are only
    booleans), and ``| None`` also takes null; no string may hold a lone
    surrogate. A scalar's limit is its least value, a tuple of its allowed
    values or ``NON_BLANK``; a ``list``'s is the spec of every element, or a
    list of one spec per position. ``dict`` with no limit takes any object
    unread. Any other kind is the class an object is read into, with its key
    table as the limit: no other key may appear, and a key is required unless
    the class has an attribute of that name, as a dataclass field with a
    default does.
    """
    # A value of exactly a str, int or bool kind (an ASCII one, for a string),
    # a finite float under NUMBER, an allowed value of a str kind and an int of
    # at least an int kind's least value meet it without a call of their own.
    # (Allowed values are the program's own strings, so they are UTF-8.) A
    # field's path is a tuple of keys and indices, named only in an error.
    kind, limit = spec if type(spec) is tuple else (spec, None)
    if type(limit) is dict:
        if type(value) is not dict:
            raise error(f"{where}{_name(path)} must be an object, got {_json_type(value)}")
        for key, item in value.items():
            if key not in limit:
                raise error(f"{where}unknown key {key!r}{' in ' + _name(path) if path else ''}")
            sub = limit[key]
            if not (type(item) is sub and (sub is not str or item.isascii())
                    or sub is NUMBER and type(item) is float and abs(item) <= sys.float_info.max
                    or type(sub) is tuple
                    and (sub[0] is str and type(sub[1]) is tuple and item in sub[1]
                         or sub[0] is int and type(item) is int and type(sub[1]) is int
                         and item >= sub[1])):
                check_json(item, sub, where, error, (*path, key))
        for key in limit:
            if key not in value and not hasattr(kind, key):
                raise error(f"{where}missing key {key!r}{' in ' + _name(path) if path else ''}")
        return value
    if value is None and isinstance(None, kind):
        return value
    if not isinstance(value, kind) or (type(value) is bool) != (kind is bool):
        kind_name = _KIND_NAMES[(get_args(kind) or (kind,))[0]]
        raise error(f"{where}{_name(path)} must be {kind_name}, got {_json_type(value)}")
    if type(value) is str and not encodable(value):
        raise error(f"{where}{_name(path)} must be UTF-8 text, got a lone surrogate")
    if type(value) is list:
        if type(limit) is list and len(value) != len(limit):
            raise error(
                f"{where}{_name(path)} must be a list of {len(limit)} items, got {len(value)}"
            )
        for i, item in enumerate(value):
            sub = limit[i] if type(limit) is list else limit
            if not (type(item) is sub and (sub is not str or item.isascii())
                    or sub is NUMBER and type(item) is float and abs(item) <= sys.float_info.max
                    or type(sub) is tuple
                    and (sub[0] is str and type(sub[1]) is tuple and item in sub[1]
                         or sub[0] is int and type(item) is int and type(sub[1]) is int
                         and item >= sub[1])):
                check_json(item, sub, where, error, (*path, i))
    elif isinstance(0.0, kind) and not abs(value) <= sys.float_info.max:
        raise error(f"{where}{_name(path)} must be a finite number, got {value}")
    elif type(limit) is tuple and value not in limit:
        raise error(f"{where}{_name(path)} must be one of {list(limit)}, got {value!r}")
    elif limit is NON_BLANK and not value.strip():
        raise error(f"{where}{_name(path)} must be a non-blank string, got {value!r}")
    elif type(limit) is int and value < limit:
        raise error(f"{where}{_name(path)} must be >= {limit}, got {value}")
    return value


def _name(path: tuple) -> str:
    """A check_json path of keys and indices as a dotted name, or "top level"."""
    name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
    return name.removeprefix(".") or "top level"


def _json_type(value: object) -> str:
    return "null" if value is None else type(value).__name__


def read_json(path: str | os.PathLike, spec, error: type[HallucheckError]):
    """The JSON value of the UTF-8 file at ``path``, once it matches ``spec``
    (see check_json). A file that cannot be read, decoded or checked raises
    ``error`` with one line that starts ``<path>: ``; so does an integer past
    json's digit limit or nesting past the recursion limit."""
    where = f"{os.fspath(path)}: "
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as exc:
        raise error(f"{where}{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{where}not UTF-8 text ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}invalid JSON ({exc})") from None
    return check_json(value, spec, where, error)


def drop_torn_tail(path: str | os.PathLike) -> int:
    """Truncate an unterminated last line, as a crash in the middle of a write
    leaves it, and return the number of bytes dropped."""
    data = Path(path).read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        os.truncate(path, keep)
    return len(data) - keep


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

    @property
    def normalized(self) -> tuple[str, str, str]:
        """The normalized fields, computed on first use and kept in the
        instance's ``__dict__``, so fields() and repr are unchanged. Two
        threads may both compute them; they store equal tuples."""
        normalized = self.__dict__.get("_normalized")
        if normalized is None:
            normalized = self.__dict__["_normalized"] = (
                normalize_text(self.subject),
                normalize_text(self.relation),
                normalize_text(self.obj),
            )
        return normalized

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self) -> int:
        return hash(self.normalized)


def dedupe_triples(triples: list[Triple] | tuple[Triple, ...]) -> tuple[Triple, ...]:
    """Drop duplicates under normalized equality, keeping first occurrences:
    a dict keeps the first of equal keys."""
    return tuple(dict.fromkeys(triples))


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
    triple by triple, ``triple_scores`` holds the per-triple breakdown, never
    empty, and ``score`` equals its arithmetic mean; ``misses`` counts triples
    dropped by the per-triple failure policy. ``elapsed_s`` is in-memory
    telemetry only and is never part of the serialized record.
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
        if self.triple_scores is not None:
            if not self.triple_scores:
                raise ValueError("triple_scores must not be empty")
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
