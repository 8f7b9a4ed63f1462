"""Hallucination self-detection: three strategies, one dispatch.

Each strategy has a sentence-level and a triple-level (``+kg``) variant:

* self-questioning: the model writes a verification question about the claim,
  answers it from its own knowledge, then rates the agreement between claim
  and answer;
* self-confidence: the model directly rates its confidence that the claim is
  factually correct;
* selfcheck: the claim is compared against n independently sampled
  regenerations by embedding similarity.

The triple-level variants first extract a knowledge graph from the output and
run the same strategy on each triple; the output score is the arithmetic mean
of the triple scores. ``run_detector`` is the one entry point. All scores live
in [0, 1]; lower means more likely hallucinated. Aggregation uses
exactly-rounded summation, so triple or sample order never changes a score.
"""

from __future__ import annotations

import logging
import re
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    KnowledgeGraph,
    OnceMemo,
    ScoreRecord,
    Triple,
    mean_score,
)
from .embed import (
    DimensionMismatch,
    MemoizingEmbedder,
    ZeroVector,
    cosine_sim,  # noqa: F401  (unused; bench/tracing.py wraps detect.cosine_sim by name)
    triple_text,
)
from .kgx import KGExtractor, load_prompt_resource, prompt_version
from .provider import (
    ChatClient,
    ChatRequest,
    ConfigError,
    DETECT_PROFILE,
    ProviderError,
    ProviderRefusal,
)

logger = logging.getLogger(__name__)

_FIRST_NUMBER = re.compile(r"[-+]?(?:\d+\.\d+|\.\d+|\d+)")


class ScoreParseError(HallucheckError):
    """A score-elicitation reply contained no parseable number."""


class DetectorError(HallucheckError):
    """A detector could not produce a score for an output."""


class DetectorProviderError(DetectorError, ProviderError):
    """A detector failed because a provider call failed."""


def parse_score(reply: str) -> float:
    """First decimal number in the reply, clamped to [0, 1]."""
    match = _FIRST_NUMBER.search(reply)
    if match is None:
        raise ScoreParseError(f"no number in score reply {reply!r}")
    return max(0.0, min(1.0, float(match.group())))


@dataclass(frozen=True)
class DetectorPrompts:
    question_generation: str
    question_answering: str
    consistency: str
    confidence: str
    version: str

    @classmethod
    def default(cls) -> "DetectorPrompts":
        return cls(
            question_generation=load_prompt_resource("question_generation.txt"),
            question_answering=load_prompt_resource("question_answering.txt"),
            consistency=load_prompt_resource("consistency.txt"),
            confidence=load_prompt_resource("confidence.txt"),
            version=prompt_version(),
        )

    def render_question(self, statement: str) -> str:
        return self.question_generation.replace("{{STATEMENT}}", statement)

    def render_answer(self, question: str) -> str:
        return self.question_answering.replace("{{QUESTION}}", question)

    def render_consistency(self, statement: str, answer: str) -> str:
        return self.consistency.replace("{{STATEMENT}}", statement).replace("{{ANSWER}}", answer)

    def render_confidence(self, statement: str) -> str:
        return self.confidence.replace("{{STATEMENT}}", statement)


@dataclass(frozen=True)
class DetectorConfig:
    """Which detector to run and how; ``n_samples`` only applies to selfcheck."""

    method: DetectorMethod
    use_kg: bool = False
    n_samples: int = 20

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")


@dataclass
class DetectorContext:
    """Everything a detector call may need, bundled once per run.

    A detector call does all its work on the calling thread; any number of
    threads may share one context. Given a client and a model id, the context
    builds its own extractor unless one is passed, so every ``+kg`` call
    shares one extraction memo. selfcheck's sample side belongs to the
    paragraph: it is built once per context and shared by every record that
    draws on the same samples.
    """

    client: ChatClient | None = None
    model_id: str = ""
    embedder: MemoizingEmbedder | None = None
    extractor: KGExtractor | None = None
    prompts: DetectorPrompts | None = None

    def __post_init__(self) -> None:
        if self.prompts is None:
            self.prompts = DetectorPrompts.default()
        if self.extractor is None and self.client is not None and self.model_id:
            self.extractor = KGExtractor(self.client, self.model_id)
        self._sample_sides: OnceMemo[tuple] = OnceMemo()

    def require_client(self) -> ChatClient:
        if self.client is None or not self.model_id:
            raise ConfigError("detector needs a chat client and a model_id")
        return self.client

    def require_embedder(self) -> MemoizingEmbedder:
        if self.embedder is None:
            raise ConfigError("detector needs an embedder")
        return self.embedder

    def require_extractor(self) -> KGExtractor:
        if self.extractor is None:
            raise ConfigError("detector needs a chat client and a model_id")
        return self.extractor

    def _complete(self, content: str) -> str:
        client = self.require_client()
        return client.complete(ChatRequest.user(self.model_id, content, DETECT_PROFILE)).content


def verify_statement(ctx: DetectorContext, statement: str) -> float:
    """Question -> answer -> agreement, all against the same model."""
    prompts = ctx.prompts
    assert prompts is not None
    question = ctx._complete(prompts.render_question(statement)).strip()
    answer = ctx._complete(prompts.render_answer(question)).strip()
    return parse_score(ctx._complete(prompts.render_consistency(statement, answer)))


def _elicit_confidence(ctx: DetectorContext, statement: str) -> float:
    prompts = ctx.prompts
    assert prompts is not None
    return parse_score(ctx._complete(prompts.render_confidence(statement)))


def _triple_statements(kg: KnowledgeGraph) -> list[str]:
    return [triple_text(t) for t in kg.triples]


def _score_triples(
    kg: KnowledgeGraph, score_one: Callable[[str], float]
) -> tuple[tuple[tuple[Triple, float], ...], int]:
    """Apply a per-triple scorer with the miss policy: parse failures and
    refusals drop the triple; everything failing is a detector error."""
    kept = []
    for t in kg.triples:
        try:
            kept.append((t, score_one(triple_text(t))))
        except (ScoreParseError, ProviderRefusal) as exc:
            logger.warning("dropping triple %s: %s", t.normalized, exc)
    if not kept:
        raise DetectorError(f"all {len(kg.triples)} triples failed to score")
    return tuple(kept), len(kg.triples) - len(kept)


def graph_consistency_scores(
    targets: np.ndarray,
    sample_graphs: Sequence[np.ndarray],
    sample_norms: Sequence[np.ndarray] | None = None,
) -> list[float]:
    """Per-triple consistency against sampled graphs.

    ``targets`` is a ``(t, d)`` matrix of target triple vectors and each
    sample graph a ``(k, d)`` matrix of its triple vectors. For each target:
    average, over the sample graphs, of the best zero-floored cosine
    similarity to any triple in that graph; a graph with no triples
    contributes zero. Exactly-rounded summation keeps the result independent
    of sample order. ``sample_norms``, when given, holds each graph's row
    norms as ``_norms`` computes them.
    """
    if len(sample_graphs) == 0:
        raise ConfigError("consistency needs at least one sample graph")
    if sample_norms is None:
        sample_norms = [_norms(graph) for graph in sample_graphs]
    # Every similarity is the same float ``clamp0(cosine_sim(a, b))`` gives:
    # ``np.vecdot`` computes each dot product as ``np.dot`` does and the norms
    # as ``np.linalg.norm`` does. Pre-normalised rows or a matrix product
    # would round differently.
    target_norms = _norms(targets)
    best = np.zeros((len(sample_graphs), len(targets)))
    for g, (graph, norms) in enumerate(zip(sample_graphs, sample_norms)):
        if len(graph) == 0 or len(targets) == 0:
            continue
        if graph.shape[1] != targets.shape[1]:
            raise DimensionMismatch(
                f"vector lengths differ: {targets.shape[1]} vs {graph.shape[1]}"
            )
        if not (target_norms.all() and norms.all()):
            raise ZeroVector("cosine similarity with a zero vector")
        sims = np.vecdot(targets[:, None, :], graph[None, :, :]) / (
            target_norms[:, None] * norms[None, :]
        )
        sims = np.clip(sims, -1.0, 1.0)
        best[g] = np.where(sims > 0.0, sims, 0.0).max(axis=1)
    return [mean_score(column) for column in best.T.tolist()]


def _sentence_consistency(target: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> float:
    """Sentence-level selfcheck: the mean zero-floored cosine similarity of
    ``target`` to each sample row, each the float a one-row sample graph gives."""
    if rows.shape[1] != target.shape[0]:
        raise DimensionMismatch(f"vector lengths differ: {target.shape[0]} vs {rows.shape[1]}")
    target_norm = _norms(target)
    if not (target_norm and norms.all()):
        raise ZeroVector("cosine similarity with a zero vector")
    sims = np.clip(np.vecdot(target, rows) / (target_norm * norms), -1.0, 1.0)
    return mean_score(np.where(sims > 0.0, sims, 0.0).tolist())


def _norms(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(matrix, matrix))


def _sample_side(ctx: DetectorContext, use_kg: bool, chosen: tuple[str, ...]) -> tuple:
    """What selfcheck compares a record against, with its row norms: for
    ``+kg`` the list of per-sample triple matrices, otherwise the ``(n, d)``
    sample matrix. The matrices are the embedder's memoized arrays, never
    copies, and the side is built once per context, variant and samples."""

    def build() -> tuple:
        embedder = ctx.require_embedder()
        if not use_kg:
            rows = embedder.embed_many(chosen)
            return rows, _norms(rows)
        extractor = ctx.require_extractor()
        graphs = [embedder.embed_many(_triple_statements(extractor.extract(s))) for s in chosen]
        return graphs, [_norms(graph) for graph in graphs]

    return ctx._sample_sides.get((use_kg, chosen), build)


_STATEMENT_SCORERS: dict[DetectorMethod, Callable[[DetectorContext, str], float]] = {
    DetectorMethod.SELF_QUESTIONING: verify_statement,
    DetectorMethod.SELF_CONFIDENCE: _elicit_confidence,
}


def _chosen_samples(config: DetectorConfig, samples: Sequence[str] | None) -> tuple[str, ...]:
    if not samples:
        raise ConfigError("selfcheck configured but no samples provided")
    if len(samples) < config.n_samples:
        raise ConfigError(f"selfcheck needs {config.n_samples} samples, got {len(samples)}")
    return tuple(samples[: config.n_samples])


def run_detector(
    config: DetectorConfig,
    output: GeneratedOutput,
    ctx: DetectorContext,
    samples: Sequence[str] | None = None,
) -> ScoreRecord:
    """Score one output with the configured detector.

    self-questioning and self-confidence score the sentence with one
    per-statement scorer; their ``+kg`` variants run it on every triple of the
    output's graph under the miss policy. selfcheck compares the sentence, or
    each triple with the sample graphs, against the first ``n_samples``
    samples by embedding similarity. The samples are checked before any
    backend call.
    """
    started = time.perf_counter()
    triple_scores = None
    misses = 0
    try:
        if config.method is DetectorMethod.SELFCHECK:
            chosen = _chosen_samples(config, samples)
            embedder = ctx.require_embedder()
            if config.use_kg:
                kg = ctx.require_extractor().extract(output.text, output.context)
                graphs, norms = _sample_side(ctx, True, chosen)
                per_triple = graph_consistency_scores(
                    embedder.embed_many(_triple_statements(kg)), graphs, norms
                )
                triple_scores = tuple(zip(kg.triples, per_triple))
            else:
                rows, norms = _sample_side(ctx, False, chosen)
                score = _sentence_consistency(embedder.embed(output.text), rows, norms)
        else:
            score_one = _STATEMENT_SCORERS.get(config.method)
            if score_one is None:
                raise ConfigError(f"unknown detector method {config.method!r}")
            if config.use_kg:
                kg = ctx.require_extractor().extract(output.text, output.context)
                triple_scores, misses = _score_triples(
                    kg, lambda statement: score_one(ctx, statement)
                )
            else:
                score = score_one(ctx, output.text)
    except ConfigError:
        raise
    except HallucheckError as exc:
        error = DetectorProviderError if isinstance(exc, ProviderError) else DetectorError
        raise error(
            f"{config.method.value}{'+kg' if config.use_kg else ''} failed on "
            f"{output.prompt_id}: {exc}"
        ) from exc
    if triple_scores is not None:
        score = mean_score([c for _, c in triple_scores])
    assert ctx.prompts is not None
    return ScoreRecord(
        output_ref=output.prompt_id,
        method=config.method,
        score=score,
        kg_used=config.use_kg,
        triple_scores=triple_scores,
        misses=misses,
        prompt_version=ctx.prompts.version,
        model_id=ctx.model_id or (ctx.embedder.model_id if ctx.embedder else ""),
        elapsed_s=time.perf_counter() - started,
    )
