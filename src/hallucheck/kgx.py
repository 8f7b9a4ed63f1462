"""Knowledge-graph extraction from text via a single prompt.

One completion per text, run under the deterministic extraction profile. The
reply parser is total: it first tries a JSON array of three-string arrays,
then falls back to one ``subject | relation | object`` triple per line, and
records anything unparseable as a loss instead of failing. Extraction never
returns an empty graph; a text yielding no triples gets the degenerate
pseudo-triple wrapper.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from importlib import resources

from .core import KnowledgeGraph, OnceMemo, Triple
from .provider import ChatClient, ChatRequest, KG_PROFILE

logger = logging.getLogger(__name__)

PASSAGE_SLOT = "{{PASSAGE}}"
CONTEXT_SLOT = "{{CONTEXT}}"


def load_prompt_resource(name: str) -> str:
    return resources.files("hallucheck.prompts").joinpath(name).read_text(encoding="utf-8")


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
        """Fill the slots; the context block disappears when no context is given."""
        if PASSAGE_SLOT not in self.template_text:
            raise ValueError(f"template lacks the {PASSAGE_SLOT} placeholder")
        context_block = f"Context (for reference only):\n{context}" if context else ""
        body = self.template_text.replace(CONTEXT_SLOT, context_block)
        body = body.replace(PASSAGE_SLOT, passage)
        while "\n\n\n" in body:
            body = body.replace("\n\n\n", "\n\n")
        return body.strip() + "\n\n" + self.output_format_instructions.strip()


@dataclass(frozen=True)
class ParseResult:
    triples: tuple[Triple, ...]
    losses: int


def _coerce_triple(item: object) -> Triple | None:
    if not isinstance(item, (list, tuple)) or len(item) != 3:
        return None
    parts = []
    for element in item:
        if not isinstance(element, (str, int, float)):
            return None
        text = str(element).strip()
        if not text:
            return None
        parts.append(text)
    return Triple(parts[0], parts[1], parts[2])


def parse_triples(reply: str) -> ParseResult:
    """Parse a model reply into triples; never raises.

    Duplicates are kept (graph construction deduplicates); malformed entries
    count as losses.
    """
    start, end = reply.find("["), reply.rfind("]")
    if start != -1 and end > start:
        try:
            data = json.loads(reply[start : end + 1])
        except json.JSONDecodeError:
            data = None
        if isinstance(data, list):
            triples: list[Triple] = []
            losses = 0
            for item in data:
                triple = _coerce_triple(item)
                if triple is None:
                    losses += 1
                else:
                    triples.append(triple)
            return ParseResult(tuple(triples), losses)
    return _parse_triples_lines(reply)


def _parse_triples_lines(reply: str) -> ParseResult:
    triples: list[Triple] = []
    losses = 0
    for line in reply.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and all(parts):
            triples.append(Triple(*parts))
        else:
            losses += 1
    return ParseResult(tuple(triples), losses)


def serialize_kg(kg: KnowledgeGraph) -> str:
    """Canonical JSON array of [subject, relation, object] rows; a graph
    serialized this way reparses to equal triples."""
    return json.dumps(
        [[t.subject, t.relation, t.obj] for t in kg.triples], ensure_ascii=False
    )


def kg_to_record(kg: KnowledgeGraph) -> dict:
    return {
        "source_text": kg.source_text,
        "degenerate": kg.degenerate,
        "triples": [[t.subject, t.relation, t.obj] for t in kg.triples],
    }


def kg_from_record(record: dict) -> KnowledgeGraph:
    triples = tuple(Triple(s, r, o) for s, r, o in record["triples"])
    return KnowledgeGraph(
        triples=triples,
        source_text=record["source_text"],
        degenerate=bool(record["degenerate"]),
    )


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
        return KnowledgeGraph.build(list(result.triples), source_text=text)
