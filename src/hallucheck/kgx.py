"""Knowledge-graph extraction from text via a single prompt.

One completion per text, run under the deterministic extraction profile. The
reply parser is total: it first tries a JSON array of three-field arrays,
then falls back to one ``subject | relation | object`` triple per line. Both
forms pass one rule, and anything it refuses is a loss, not a failure.
Extraction never returns an empty graph; a text yielding no triples gets the
degenerate pseudo-triple wrapper.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from dataclasses import dataclass
from importlib import resources

from .core import KnowledgeGraph, OnceMemo, Triple, encodable
from .provider import ChatClient, ChatRequest, KG_PROFILE

logger = logging.getLogger(__name__)

PASSAGE_SLOT = "{{PASSAGE}}"
_SLOT = re.compile(r"\{\{([A-Z_]+)\}\}")


def load_prompt_resource(name: str) -> str:
    return resources.files("hallucheck.prompts").joinpath(name).read_text(encoding="utf-8")


def fill(template: str, **slots: str) -> str:
    """``template`` with each ``{{NAME}}`` of ``slots`` replaced in one pass: an
    inserted value is never scanned again, so a slot marker it holds stays text."""
    return _SLOT.sub(lambda m: slots.get(m[1], m[0]), template)


def prompt_version() -> str:
    """Version stamp for the shipped prompt set; bumped whenever any prompt
    text changes, and recorded in every score record."""
    return load_prompt_resource("VERSION").strip()


@dataclass(frozen=True)
class ExtractionPromptTemplate:
    """Extraction prompt with a passage slot and an optional context slot."""

    template_text: str
    output_format_instructions: str

    @classmethod
    def default(cls) -> "ExtractionPromptTemplate":
        return cls(
            template_text=load_prompt_resource("kg_extraction.txt"),
            output_format_instructions=load_prompt_resource("kg_reply_format.txt"),
        )

    def render(self, passage: str, context: str | None = None) -> str:
        """Fill the slots; the context block disappears when no context is given.
        Blank-line runs are collapsed in the template's own text only, never in a
        filled-in value."""
        if PASSAGE_SLOT not in self.template_text:
            raise ValueError(f"template lacks the {PASSAGE_SLOT} placeholder")
        body = self.template_text if context else fill(self.template_text, CONTEXT="")
        while "\n\n\n" in body:
            body = body.replace("\n\n\n", "\n\n")
        block = f"Context (for reference only):\n{context}"
        body = fill(body.strip(), PASSAGE=passage, CONTEXT=block)
        return body + "\n\n" + self.output_format_instructions.strip()


@dataclass(frozen=True)
class ParseResult:
    triples: tuple[Triple, ...]
    losses: int


def _coerce_triple(item: object) -> Triple | None:
    """``item`` as a Triple, or None unless it holds three non-blank str, int or
    float fields, never bool, that encode as UTF-8 (an escape may be a lone surrogate)."""
    if not isinstance(item, (list, tuple)) or len(item) != 3:
        return None
    fields = [str(f) for f in item if type(f) in (str, int, float)]
    if len(fields) != 3 or not all(map(encodable, fields)):
        return None
    try:
        return Triple(*fields)
    except ValueError:
        return None


def parse_triples(reply: str) -> ParseResult:
    """Parse a model reply into triples; never raises.

    The candidates are the items of the reply's JSON array or, failing that,
    each non-blank line split at ``|``; one rule decides which is a triple.
    Duplicates are kept (graph construction deduplicates); every other
    candidate counts as a loss.
    """
    items = None
    start, end = reply.find("["), reply.rfind("]")
    if start != -1 and end > start:
        try:
            items = json.loads(reply[start : end + 1])
        except (ValueError, RecursionError):  # digit and nesting limits too
            pass
    if not isinstance(items, list):
        items = [line.split("|") for line in reply.splitlines() if line.strip()]
    triples = tuple(t for t in map(_coerce_triple, items) if t is not None)
    return ParseResult(triples, len(items) - len(triples))


def kg_to_record(kg: KnowledgeGraph) -> dict:
    return {
        "source_text": kg.source_text,
        "degenerate": kg.degenerate,
        "triples": [[t.subject, t.relation, t.obj] for t in kg.triples],
    }


class KGExtractor:
    """Extracts graphs through a chat client, memoizing per (text, context).

    ``parse_losses`` accumulates the count of unparseable reply fragments for
    run telemetry; losses never abort an extraction.
    """

    def __init__(self, client: ChatClient, model_id: str):
        self.client = client
        self.model_id = model_id
        self.template = ExtractionPromptTemplate.default()
        self.parse_losses = 0
        self._memo: OnceMemo[KnowledgeGraph] = OnceMemo()
        self._lock = threading.Lock()

    def extract(self, text: str, context: str | None = None) -> KnowledgeGraph:
        """The graph of ``text``. Concurrent callers for one (text, context)
        share a single client request."""
        if not text.strip():
            raise ValueError("cannot extract a graph from empty text")
        return self._memo.get((text, context), lambda: self._extract_once(text, context))

    def _extract_once(self, text: str, context: str | None) -> KnowledgeGraph:
        request = ChatRequest.user(self.model_id, self.template.render(text, context), KG_PROFILE)
        reply = self.client.complete(request).content
        result = parse_triples(reply)
        if result.losses:
            logger.warning(
                "dropped %d unparseable triple(s) while extracting from %.60r",
                result.losses,
                text,
            )
        with self._lock:
            self.parse_losses += result.losses
        return KnowledgeGraph.build(result.triples, source_text=text)
