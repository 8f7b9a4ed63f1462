"""Dataset ingestion and persistence.

Three kinds of on-disk artifacts:

* biography benchmark records, one JSON object per line, each carrying a
  labeled sentence plus the stochastic samples drawn for its paragraph;
* short-form QA records in CSV, either the published two-column benchmark
  layout or this package's extended layout with grading columns;
* a sample store, one JSON file per paragraph, digest-checked so repeated
  writes are idempotent and conflicting rewrites are refused.

Score records cross process boundaries as JSON objects; timing never does,
so artifact bytes depend only on inputs and configuration.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from dataclasses import dataclass, replace
from math import fsum
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, get_args

from .core import DetectorMethod, HallucheckError, Label, ScoreRecord, Triple, encodable
from .embed import MemoizingEmbedder, cosine_sim
from .kgx import load_prompt_resource
from .provider import ChatClient, ChatRequest, DETECT_PROFILE

WIKIBIO_EXPECTED_SAMPLES = 20

_WORD = re.compile(r"\S+")


class SchemaError(HallucheckError):
    """An input file violated the documented record schema."""


class NotFound(HallucheckError):
    """Lookup of an unknown key in a store."""


class StoreConflict(HallucheckError):
    """A store key was rewritten with different content."""


class JudgeParseError(HallucheckError):
    """A grading reply contained no recognizable verdict token."""


@contextlib.contextmanager
def open_text(path: str | os.PathLike, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; bytes that do not decode raise a
    SchemaError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{os.fspath(path)}: not UTF-8 text ({exc.reason})") from None


def _json_line(line: str, where: str) -> object:
    """The JSON value on one line. A line json cannot decode, including an
    integer past the digit limit or nesting past the recursion limit, raises
    SchemaError naming ``where``."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None


NUMBER = float | int  # a kind is named after its first type: "a number"
NON_BLANK = "non-blank"  # the limit of a string that must hold more than whitespace
_KIND_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false", list: "a list"
}


def check_json(value, spec, where: str, error: type[HallucheckError], path: str = ""):
    """``value``, once it matches ``spec``; otherwise ``error`` with one line
    that starts with ``where``: ``<field> must be <kind>, got <type>``, or
    ``unknown key 'k' in <field>`` or ``missing key 'k' in <field>``, where
    ``<field>`` is a dotted path such as ``detectors[4].n_samples``.

    A spec is a kind or a ``(kind, limit)`` pair. Scalar kinds are ``str``,
    ``int``, ``bool`` and ``NUMBER`` (finite; ``true`` and ``false`` are only
    booleans), and ``| None`` also takes null; no string may hold a lone
    surrogate. A scalar's limit is its least value, a tuple of its allowed
    values or ``NON_BLANK``; a ``list``'s is the spec of every element, or a
    list of one spec per position. Any other kind is the class an object is
    read into, with its key table as the limit: no other key may appear, and
    a key is required unless the class has an attribute of that name, as a
    dataclass field with a default does.
    """
    # A value of exactly a str, int or bool kind (an ASCII one, for a string)
    # meets it without a call of its own.
    kind, limit = spec if type(spec) is tuple else (spec, None)
    name = path or "top level"
    if type(limit) is dict:
        if type(value) is not dict:
            raise error(f"{where}{name} must be an object, got {_json_type(value)}")
        for key, item in value.items():
            if key not in limit:
                raise error(f"{where}unknown key {key!r}{' in ' + path if path else ''}")
            sub = limit[key]
            if type(item) is not sub or sub is str and not item.isascii():
                check_json(item, sub, where, error, f"{path}.{key}" if path else key)
        for key in limit:
            if key not in value and not hasattr(kind, key):
                raise error(f"{where}missing key {key!r}{' in ' + path if path else ''}")
        return value
    if value is None and isinstance(None, kind):
        return value
    if not isinstance(value, kind) or (type(value) is bool) != (kind is bool):
        kind_name = _KIND_NAMES[(get_args(kind) or (kind,))[0]]
        raise error(f"{where}{name} must be {kind_name}, got {_json_type(value)}")
    if type(value) is str and not encodable(value):
        raise error(f"{where}{name} must be UTF-8 text, got a lone surrogate")
    if type(value) is list:
        if type(limit) is list and len(value) != len(limit):
            raise error(f"{where}{name} must be a list of {len(limit)} items, got {len(value)}")
        for i, item in enumerate(value):
            sub = limit[i] if type(limit) is list else limit
            if type(item) is not sub or sub is str and not item.isascii():
                check_json(item, sub, where, error, f"{path}[{i}]")
    elif isinstance(0.0, kind) and not abs(value) <= sys.float_info.max:
        raise error(f"{where}{name} must be a finite number, got {value}")
    elif type(limit) is tuple and value not in limit:
        raise error(f"{where}{name} must be one of {list(limit)}, got {value!r}")
    elif limit is NON_BLANK and not value.strip():
        raise error(f"{where}{name} must be a non-blank string, got {value!r}")
    elif type(limit) is int and value < limit:
        raise error(f"{where}{name} must be >= {limit}, got {value}")
    return value


def _json_type(value: object) -> str:
    return "null" if value is None else type(value).__name__


def word_count(text: str) -> int:
    return len(_WORD.findall(text))


@dataclass(frozen=True)
class WikiBioRecord:
    """One labeled sentence of a generated biography paragraph.

    ``samples`` holds the paragraph's regenerations; every sentence row of a
    paragraph repeats them so each record is self-contained.
    """

    paragraph_id: str
    concept: str
    sentence_index: int
    sentence: str
    label: Label
    samples: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.paragraph_id:
            raise ValueError("paragraph_id must be non-empty")
        if self.sentence_index < 0:
            raise ValueError(f"sentence_index {self.sentence_index} negative")
        if not self.sentence.strip():
            raise ValueError("sentence must be non-empty")
        object.__setattr__(self, "label", Label(self.label))
        object.__setattr__(self, "samples", tuple(self.samples))


_WIKIBIO_ROW = {
    "paragraph_id": str,
    "concept": str,
    "sentence_index": (int, 0),
    "sentence": str,
    "label": (str, tuple(label.value for label in Label)),
    "samples": (list, (str, NON_BLANK)),
}


def load_wikibio(
    path: str | os.PathLike,
    expected_samples: int | None = WIKIBIO_EXPECTED_SAMPLES,
) -> list[WikiBioRecord]:
    """Parse a record-per-line dataset file, validating every field. No two
    rows may share a (paragraph_id, sentence_index) pair.

    Pass ``expected_samples=None`` to accept any per-paragraph sample count.
    """
    records: list[WikiBioRecord] = []
    first_line: dict[tuple[str, int], int] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{os.fspath(path)}:{lineno}"
            obj = _json_line(line, where)
            check_json(obj, (WikiBioRecord, _WIKIBIO_ROW), f"{where}: ", SchemaError)
            if expected_samples is not None and len(obj["samples"]) != expected_samples:
                raise SchemaError(
                    f"{where}: expected {expected_samples} samples, found {len(obj['samples'])}"
                )
            try:
                record = WikiBioRecord(**obj)
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
            first = first_line.setdefault((record.paragraph_id, record.sentence_index), lineno)
            if first != lineno:
                raise SchemaError(
                    f"{where}: paragraph {record.paragraph_id!r} sentence "
                    f"{record.sentence_index} repeats line {first}"
                )
            records.append(record)
    if not records:
        raise SchemaError(f"{os.fspath(path)}: no records")
    return records


@dataclass(frozen=True)
class SimpleQARecord:
    question: str
    gold_answer: str
    model_answer: str | None = None
    label: Label | None = None
    judge_verdict: str | None = None

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.gold_answer.strip():
            raise ValueError("gold_answer must be non-empty")
        if self.label is not None:
            if self.model_answer is None:
                raise ValueError("label requires a model_answer")
            object.__setattr__(self, "label", Label(self.label))


_SIMPLEQA_PUBLISHED = ("metadata", "problem", "answer")
_SIMPLEQA_EXTENDED = ("question", "gold_answer", "model_answer", "label", "judge_verdict")


def load_simpleqa(path: str | os.PathLike) -> list[SimpleQARecord]:
    """Read QA pairs from CSV.

    Accepts the published benchmark header (metadata, problem, answer) and
    this package's extended header with grading columns.
    """
    records: list[SimpleQARecord] = []
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{os.fspath(path)}: empty file")
        names = tuple(reader.fieldnames)
        if set(_SIMPLEQA_PUBLISHED) <= set(names):
            question_key, gold_key = "problem", "answer"
            extended = False
        elif set(("question", "gold_answer")) <= set(names):
            question_key, gold_key = "question", "gold_answer"
            extended = True
        else:
            raise SchemaError(
                f"{os.fspath(path)}: unrecognized header {names}; expected "
                f"{_SIMPLEQA_PUBLISHED} or {_SIMPLEQA_EXTENDED}"
            )
        for lineno, row in enumerate(reader, start=2):
            where = f"{os.fspath(path)}:{lineno}"
            question = (row.get(question_key) or "").strip()
            gold = (row.get(gold_key) or "").strip()
            if not question:
                raise SchemaError(f"{where}: empty question")
            if not gold:
                raise SchemaError(f"{where}: empty gold answer")
            model_answer = label = verdict = None
            if extended:
                model_answer = row.get("model_answer") or None
                raw_label = row.get("label") or None
                verdict = row.get("judge_verdict") or None
                if raw_label is not None:
                    try:
                        label = Label(raw_label)
                    except ValueError:
                        raise SchemaError(f"{where}: bad label {raw_label!r}")
            try:
                records.append(
                    SimpleQARecord(
                        question=question,
                        gold_answer=gold,
                        model_answer=model_answer,
                        label=label,
                        judge_verdict=verdict,
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}")
    if not records:
        raise SchemaError(f"{os.fspath(path)}: no records")
    return records


def save_simpleqa(records: Iterable[SimpleQARecord], path: str | os.PathLike) -> None:
    """Write the extended CSV layout; load_simpleqa reads it back unchanged."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SIMPLEQA_EXTENDED)
        for r in records:
            writer.writerow(
                [
                    r.question,
                    r.gold_answer,
                    r.model_answer or "",
                    r.label.value if r.label else "",
                    r.judge_verdict or "",
                ]
            )


# INCORRECT is checked before CORRECT; \b keeps CORRECT from matching inside it.
_VERDICTS = (
    ("NOT_ATTEMPTED", re.compile(r"\bNOT_ATTEMPTED\b"), None),
    ("INCORRECT", re.compile(r"\bINCORRECT\b"), Label.HALLUCINATED),
    ("CORRECT", re.compile(r"\bCORRECT\b"), Label.ACCURATE),
)


def parse_judge_verdict(reply: str) -> tuple[str, Label | None]:
    """Map a judge reply to (verdict token, label); None = excluded."""
    for token, pattern, label in _VERDICTS:
        if pattern.search(reply):
            return token, label
    raise JudgeParseError(f"no verdict token in judge reply {reply!r}")


def grade_simpleqa(
    record: SimpleQARecord, client: ChatClient, model_id: str
) -> SimpleQARecord:
    """Ask the judge model to compare the model answer against gold.

    A NOT_ATTEMPTED verdict stores the verdict but leaves the label unset;
    such records are excluded from scoring downstream.
    """
    if record.model_answer is None:
        raise ValueError("cannot grade a record without a model_answer")
    prompt = (
        load_prompt_resource("simpleqa_judge.txt")
        .replace("{{QUESTION}}", record.question)
        .replace("{{GOLD}}", record.gold_answer)
        .replace("{{PREDICTED}}", record.model_answer)
    )
    reply = client.complete(ChatRequest.user(model_id, prompt, DETECT_PROFILE)).content
    verdict, label = parse_judge_verdict(reply)
    return replace(record, label=label, judge_verdict=verdict)


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
        for name in ("sentence_count", "paragraph_count", "hallucinated_count", "accurate_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} negative")
        if self.hallucinated_count + self.accurate_count != self.sentence_count:
            raise ValueError("label counts do not sum to sentence count")

    def as_record(self) -> dict:
        return {
            "sentence_count": self.sentence_count,
            "paragraph_count": self.paragraph_count,
            "hallucinated_count": self.hallucinated_count,
            "accurate_count": self.accurate_count,
            "sentences_per_paragraph": self.sentences_per_paragraph,
            "avg_sample_length_words": self.avg_sample_length_words,
            "avg_hallucinated_length_words": self.avg_hallucinated_length_words,
            "avg_accurate_length_words": self.avg_accurate_length_words,
            "semantic_similarity_h_vs_a": self.semantic_similarity_h_vs_a,
            "similarity_method": self.similarity_method,
        }


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
    from .evaluation import DegenerateLabels

    by_paragraph: dict[str, WikiBioRecord] = {}
    for r in records:
        by_paragraph.setdefault(r.paragraph_id, r)
    sample_lengths = [
        float(word_count(s)) for r in by_paragraph.values() for s in r.samples
    ]
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
        avg_hallucinated_length_words=_mean([float(word_count(s)) for s in hallucinated]),
        avg_accurate_length_words=_mean([float(word_count(s)) for s in accurate]),
        semantic_similarity_h_vs_a=cosine_sim(centroid_h, centroid_a),
    )


def _samples_digest(samples: Sequence[str]) -> str:
    payload = json.dumps(list(samples), ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_STORE_FILE = {"paragraph_id": str, "digest": str, "samples": (list, (str, NON_BLANK))}


class SampleStore:
    """One JSON file per paragraph, keyed by the id's digest.

    Rewriting identical content is a no-op; rewriting different content
    raises, because silently replacing samples would invalidate any scores
    already derived from them.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path_for(self, paragraph_id: str) -> Path:
        name = hashlib.sha256(paragraph_id.encode("utf-8")).hexdigest()[:24]
        return self.directory / f"{name}.json"

    def put(self, paragraph_id: str, samples: Sequence[str]) -> None:
        if not samples or not all(s.strip() for s in samples):
            raise ValueError("samples must be non-empty, and none blank")
        digest = _samples_digest(samples)
        path = self._path_for(paragraph_id)
        with self._lock:
            if path.exists():
                if self._read(path)["digest"] == digest:
                    return
                raise StoreConflict(
                    f"paragraph {paragraph_id!r} already stored with different samples"
                )
            payload = {
                "paragraph_id": paragraph_id,
                "digest": digest,
                "samples": list(samples),
            }
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, ensure_ascii=False)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    def get(self, paragraph_id: str) -> list[str]:
        path = self._path_for(paragraph_id)
        if not path.exists():
            raise NotFound(f"no samples stored for paragraph {paragraph_id!r}")
        return self._read(path)["samples"]

    @staticmethod
    def _read(path: Path) -> dict:
        """The stored file, checked against ``_STORE_FILE``; an unreadable
        file is a SchemaError naming it."""
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not a sample-store file ({exc})") from exc
        return check_json(obj, (dict, _STORE_FILE), f"{path}: ", SchemaError)

    def has(self, paragraph_id: str) -> bool:
        return self._path_for(paragraph_id).exists()


def score_record_to_dict(record: ScoreRecord) -> dict:
    """JSON shape for a score record. Timing is deliberately omitted so
    artifact bytes are reproducible."""
    obj: dict = {
        "output_ref": record.output_ref,
        "method": record.method.value,
        "kg_used": record.kg_used,
        "score": record.score,
        "misses": record.misses,
        "prompt_version": record.prompt_version,
        "model_id": record.model_id,
    }
    if record.triple_scores is not None:
        obj["triple_scores"] = [
            [[t.subject, t.relation, t.obj], c] for t, c in record.triple_scores
        ]
    return obj


_SCORE_ROW = {
    "output_ref": str,
    "method": (str, tuple(method.value for method in DetectorMethod)),
    "score": NUMBER,
    "kg_used": bool,
    "triple_scores": (list | None, (list, [(list, [str, str, str]), NUMBER])),
    "misses": (int, 0),
    "prompt_version": str,
    "model_id": str,
}


def score_record_from_dict(obj: object) -> ScoreRecord:
    """The record a score row holds, once the row matches ``_SCORE_ROW``, so a
    row is never silently coerced into another record."""
    check_json(obj, (ScoreRecord, _SCORE_ROW), "", SchemaError)
    triples = obj.get("triple_scores")
    try:
        if triples is not None:
            triples = tuple((Triple(*t), float(c)) for t, c in triples)
        method, score = DetectorMethod(obj["method"]), float(obj["score"])
        return ScoreRecord(**{**obj, "method": method, "score": score, "triple_scores": triples})
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def write_score_records(
    records: Iterable[ScoreRecord], path: str | os.PathLike, append: bool = False
) -> int:
    """Write records as they arrive, one line each, and return their count.
    Each line is flushed once written, so a crash tears at most the last line."""
    count = 0
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(score_record_to_dict(record), ensure_ascii=False, sort_keys=True))
            fh.write("\n")
            fh.flush()
            count += 1
    return count


def read_score_records(
    path: str | os.PathLike, meta: dict | None = None
) -> Iterator[ScoreRecord]:
    """The records of a score stream. Only line 1 may be a meta line; its
    fields go into ``meta`` when that is given. A meta line further down, a
    line that is not a valid record, or one that repeats the (output_ref,
    method, kg_used) key of an earlier line, raises SchemaError naming the
    file and the line."""
    seen: set[tuple[str, str, bool]] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{os.fspath(path)}:{lineno}"
            obj = _json_line(line, where)
            if isinstance(obj, dict) and obj.get("_meta"):
                if lineno > 1:
                    raise SchemaError(f"{where}: a meta line may only be line 1")
                if meta is not None:
                    meta.update(obj)
                continue
            try:
                record = score_record_from_dict(obj)
            except SchemaError as exc:
                raise SchemaError(f"{where}: {exc}") from None
            key = (record.output_ref, record.method.value, record.kg_used)
            if key in seen:
                raise SchemaError(f"{where}: duplicate row for {key}")
            seen.add(key)
            yield record


def drop_torn_tail(path: str | os.PathLike) -> int:
    """Truncate an unterminated last line, as a crash in the middle of a write
    leaves it, and return the number of bytes dropped."""
    data = Path(path).read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        os.truncate(path, keep)
    return len(data) - keep
