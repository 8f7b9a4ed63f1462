"""Dataset ingestion and persistence.

Biography benchmark records are one JSON object per line, each carrying a
labeled sentence plus the stochastic samples drawn for its paragraph.

Score records cross process boundaries as JSON objects; timing never does,
so artifact bytes depend only on inputs and configuration.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    NON_BLANK, NUMBER, DetectorMethod, Label, SchemaError, ScoreRecord, Triple, check_json,
    json_lines,
)

WIKIBIO_EXPECTED_SAMPLES = 20


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
# The second spec skips the samples, for a row that repeats the last list checked.
_ROW_SPECS = ((WikiBioRecord, _WIKIBIO_ROW), (WikiBioRecord, {**_WIKIBIO_ROW, "samples": list}))


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
    shared: tuple[str, ...] = ()  # the samples last checked, one tuple for all their rows
    for lineno, where, obj in json_lines(path):
        repeat = type(obj) is dict and obj.get("samples") == list(shared)
        check_json(obj, _ROW_SPECS[repeat], f"{where}: ", SchemaError)
        shared = shared if repeat else tuple(obj["samples"])
        if expected_samples is not None and len(shared) != expected_samples:
            raise SchemaError(f"{where}: expected {expected_samples} samples, found {len(shared)}")
        try:
            record = WikiBioRecord(**{**obj, "samples": shared})
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
    records: Iterable[ScoreRecord], path: str | os.PathLike, append=False, meta: dict | None = None
) -> int:
    """Write ``meta`` if the file is empty, then records as they arrive, one line
    each; return their count. Each line is flushed, so a crash tears at most the last."""
    count = 0
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        if meta is not None and fh.tell() == 0:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
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
    for lineno, where, obj in json_lines(path):
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
