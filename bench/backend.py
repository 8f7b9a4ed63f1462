"""Deterministic synthetic chat backend for the benchmark.

It implements the ``ChatBackend`` protocol (``name``, ``complete_once``). The
reply to a request depends only on the prompt text and the replica's loss
plan, never on call order, so the same request always gets the same reply,
with or without concurrency:

* extraction prompts get a JSON array of triples cut from the passage words
  (``replica.passage_triples``);
* question and answer prompts get short texts derived from their input;
* confidence and agreement prompts get a seed-salted, hash-derived score in
  hundredths, so scores tie in realistic groups.

The plan makes a fixed share of replies take the loss paths: an empty
extraction, an extraction with one malformed row, and an unparseable score for
chosen triple statements. The backend counts calls by prompt kind and the
largest number of calls in flight at once.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time

from hallucheck.kgx import load_prompt_resource
from replica import passage_triples

# Prompt kind by template resource; a prompt is classified by the first line
# of the template it was rendered from.
TEMPLATE_KINDS = {
    "kg_extraction.txt": "extract",
    "question_generation.txt": "question",
    "question_answering.txt": "answer",
    "confidence.txt": "score",
    "consistency.txt": "score",
}
KINDS = ("extract", "question", "answer", "score")

_PASSAGE = re.compile(r"^Passage: (.*)$", re.MULTILINE)
_STATEMENT = re.compile(r"^Statement: (.*)$", re.MULTILINE)
_QUESTION = re.compile(r"^Question: (.*)$", re.MULTILINE)
_ANSWER = re.compile(r"^Answer: (.*)$", re.MULTILINE)

MALFORMED_ROW = ["row with", "two fields"]
UNPARSEABLE_SCORE = "I cannot rate this statement."


def _field(pattern: re.Pattern, prompt: str) -> str:
    match = pattern.search(prompt)
    if match is None:
        raise ValueError(f"prompt lacks {pattern.pattern!r}")
    return match.group(1)


def _digest(*parts: str) -> int:
    return int.from_bytes(hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()[:8], "big")


class SyntheticBackend:
    """Offline backend replying from the prompt text and a loss plan."""

    name = "synthetic"

    def __init__(self, plan: dict, latency_s: float = 0.0):
        self.seed = str(plan["seed"])
        self.empty = frozenset(plan["empty"])
        self.malformed = frozenset(plan["malformed"])
        self.miss = frozenset(plan["miss"])
        self.latency_s = latency_s
        self.markers = [
            (load_prompt_resource(name).splitlines()[0], kind)
            for name, kind in TEMPLATE_KINDS.items()
        ]
        self.calls = dict.fromkeys(KINDS, 0)
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def kind_of(self, prompt: str) -> str:
        for marker, kind in self.markers:
            if prompt.startswith(marker):
                return kind
        raise ValueError(f"unrecognised prompt: {prompt[:60]!r}")

    def reply(self, prompt: str) -> tuple[str, str]:
        """(kind, reply text) for one prompt; pure, so tests can call it."""
        kind = self.kind_of(prompt)
        if kind == "extract":
            passage = _field(_PASSAGE, prompt)
            rows = [] if passage in self.empty else passage_triples(passage)
            if passage in self.malformed:
                rows = rows[:1] + [MALFORMED_ROW] + rows[1:]
            return kind, json.dumps(rows, ensure_ascii=False)
        if kind == "question":
            statement = _field(_STATEMENT, prompt)
            return kind, f"Is it true that {statement.rstrip('.')}?"
        if kind == "answer":
            question = _field(_QUESTION, prompt)
            h = _digest(self.seed, "answer", question)
            words = question.removeprefix("Is it true that ").rstrip("?").split()
            picked = [words[(h >> (8 * i)) % len(words)] for i in range(3)]
            return kind, "Records mention " + " ".join(picked) + "."
        statement = _field(_STATEMENT, prompt)
        if statement in self.miss:
            return kind, UNPARSEABLE_SCORE
        answer = _ANSWER.search(prompt)
        h = _digest(self.seed, "score", statement, answer.group(1) if answer else "")
        return kind, f"{h % 101 / 100:.2f}"

    def complete_once(self, request) -> str:
        with self._lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            kind, text = self.reply(request.messages[-1].content)
            if self.latency_s:
                time.sleep(self.latency_s)
        finally:
            with self._lock:
                self.inflight -= 1
        with self._lock:
            self.calls[kind] += 1
        return text
