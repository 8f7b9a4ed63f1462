"""The six hallucination self-detectors.

Three strategies, each in a sentence-level and a triple-level variant:

* self-questioning: the model writes a verification question about the claim,
  answers it from its own knowledge, then rates the agreement between claim
  and answer;
* self-confidence: the model directly rates its confidence that the claim is
  factually correct;
* selfcheck: the claim is compared against n independently sampled
  regenerations by embedding similarity.

The triple-level variants first extract a knowledge graph from the output and
score each triple separately; the output score is the arithmetic mean of the
triple scores. All scores live in [0, 1]; lower means more likely
hallucinated. Aggregation uses exactly-rounded summation, so triple or sample
order never changes a score, which also makes bounded parallel execution safe.
"""

from __future__ import annotations

import logging
import re
import time
from concurrent.futures import Executor
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

from .core import (
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    KnowledgeGraph,
    ScoreRecord,
    Triple,
    mean_score,
)
from .embed import Embedder, EmbeddingVector, clamp0, cosine_sim, triple_text
from .kgx import KGExtractor, load_prompt_resource, prompt_version
from .provider import (
    ChatClient,
    ChatRequest,
    ConfigError,
    DETECT_PROFILE,
    GenerationParams,
    ProviderError,
    ProviderRefusal,
)

logger = logging.getLogger(__name__)

_FIRST_NUMBER = re.compile(r"[-+]?(?:\d+\.\d+|\.\d+|\d+)")

T = TypeVar("T")
R = TypeVar("R")


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
class QAStep:
    """One verification round: question asked, answer given, agreement score."""

    question: str
    answer: str
    consistency: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.consistency <= 1.0:
            raise ValueError(f"consistency {self.consistency} outside [0, 1]")


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
    prompt_version: str = ""
    score_parse_policy: str = "first_float_clamped"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.score_parse_policy != "first_float_clamped":
            raise ConfigError(f"unknown score parse policy {self.score_parse_policy!r}")


@dataclass
class DetectorContext:
    """Everything a detector call may need, bundled once per run.

    ``executor``, when given, runs a ``+kg`` detector's per-triple scoring and
    sample extractions concurrently. The tasks submitted to it never wait on
    other tasks, so one executor can serve every detector call of a run, even
    calls that themselves run on pool threads.
    """

    client: ChatClient | None = None
    model_id: str = ""
    embedder: Embedder | None = None
    extractor: KGExtractor | None = None
    prompts: DetectorPrompts | None = None
    params: GenerationParams = DETECT_PROFILE
    executor: Executor | None = None

    def __post_init__(self) -> None:
        if self.prompts is None:
            self.prompts = DetectorPrompts.default()

    def require_client(self) -> ChatClient:
        if self.client is None or not self.model_id:
            raise ConfigError("detector needs a chat client and a model_id")
        return self.client

    def require_embedder(self) -> Embedder:
        if self.embedder is None:
            raise ConfigError("detector needs an embedder")
        return self.embedder

    def require_extractor(self) -> KGExtractor:
        if self.extractor is None:
            self.extractor = KGExtractor(self.require_client(), self.model_id)
        return self.extractor

    def _complete(self, content: str) -> str:
        client = self.require_client()
        return client.complete(ChatRequest.user(self.model_id, content, self.params)).content


def _map_bounded(fn: Callable[[T], R], items: Sequence[T], executor: Executor | None) -> list[R]:
    if executor is None or len(items) <= 1:
        return [fn(item) for item in items]
    return list(executor.map(fn, items))


def verify_statement(ctx: DetectorContext, statement: str) -> QAStep:
    """Question -> answer -> agreement, all against the same model."""
    prompts = ctx.prompts
    assert prompts is not None
    question = ctx._complete(prompts.render_question(statement)).strip()
    answer = ctx._complete(prompts.render_answer(question)).strip()
    consistency = parse_score(ctx._complete(prompts.render_consistency(statement, answer)))
    return QAStep(question=question, answer=answer, consistency=consistency)


def _elicit_confidence(ctx: DetectorContext, statement: str) -> float:
    prompts = ctx.prompts
    assert prompts is not None
    return parse_score(ctx._complete(prompts.render_confidence(statement)))


def _triple_statements(kg: KnowledgeGraph) -> list[str]:
    return [triple_text(t) for t in kg.triples]


def _score_triples(
    kg: KnowledgeGraph,
    score_one: Callable[[str], float],
    executor: Executor | None,
) -> tuple[tuple[tuple[Triple, float], ...], int]:
    """Apply a per-triple scorer with the miss policy: parse failures and
    refusals drop the triple; everything failing is a detector error."""

    def attempt(t: Triple) -> tuple[Triple, float | None]:
        try:
            return t, score_one(triple_text(t))
        except (ScoreParseError, ProviderRefusal) as exc:
            logger.warning("dropping triple %s: %s", t.normalized, exc)
            return t, None

    results = _map_bounded(attempt, kg.triples, executor)
    kept = tuple((t, c) for t, c in results if c is not None)
    misses = len(results) - len(kept)
    if not kept:
        raise DetectorError(f"all {len(results)} triples failed to score")
    return kept, misses


def _record(
    output: GeneratedOutput,
    method: DetectorMethod,
    ctx: DetectorContext,
    *,
    score: float | None = None,
    triple_scores: tuple[tuple[Triple, float], ...] | None = None,
    misses: int = 0,
    kg_used: bool,
) -> ScoreRecord:
    if triple_scores is not None:
        score = mean_score([c for _, c in triple_scores])
    assert score is not None
    prompts = ctx.prompts
    assert prompts is not None
    return ScoreRecord(
        output_ref=output.prompt_id,
        method=method,
        score=score,
        kg_used=kg_used,
        triple_scores=triple_scores,
        misses=misses,
        prompt_version=prompts.version,
        model_id=ctx.model_id or (ctx.embedder.model_id if ctx.embedder else ""),
    )


def self_questioning(output: GeneratedOutput, ctx: DetectorContext) -> ScoreRecord:
    """Sentence-level verification question round; the agreement score is the
    consistency estimate."""
    step = verify_statement(ctx, output.text)
    return _record(
        output, DetectorMethod.SELF_QUESTIONING, ctx, score=step.consistency, kg_used=False
    )


def self_questioning_kg(output: GeneratedOutput, ctx: DetectorContext) -> ScoreRecord:
    """Per-triple verification rounds over the output's knowledge graph."""
    kg = ctx.require_extractor().extract(output.text, output.context)
    triple_scores, misses = _score_triples(
        kg,
        lambda statement: verify_statement(ctx, statement).consistency,
        ctx.executor,
    )
    return _record(
        output,
        DetectorMethod.SELF_QUESTIONING,
        ctx,
        triple_scores=triple_scores,
        misses=misses,
        kg_used=True,
    )


def self_confidence(output: GeneratedOutput, ctx: DetectorContext) -> ScoreRecord:
    """One confidence elicitation for the whole sentence."""
    score = _elicit_confidence(ctx, output.text)
    return _record(output, DetectorMethod.SELF_CONFIDENCE, ctx, score=score, kg_used=False)


def self_confidence_kg(output: GeneratedOutput, ctx: DetectorContext) -> ScoreRecord:
    """One confidence elicitation per extracted triple."""
    kg = ctx.require_extractor().extract(output.text, output.context)
    triple_scores, misses = _score_triples(
        kg, lambda statement: _elicit_confidence(ctx, statement), ctx.executor
    )
    return _record(
        output,
        DetectorMethod.SELF_CONFIDENCE,
        ctx,
        triple_scores=triple_scores,
        misses=misses,
        kg_used=True,
    )


def selfcheck(output: GeneratedOutput, samples: Sequence[str], ctx: DetectorContext) -> ScoreRecord:
    """Mean embedding similarity between the output and each sampled
    regeneration, negatives floored at zero."""
    if not samples:
        raise ConfigError("selfcheck needs at least one sample")
    embedder = ctx.require_embedder()
    target = embedder.embed(output.text)
    sims = [clamp0(cosine_sim(target, embedder.embed(s))) for s in samples]
    return _record(
        output, DetectorMethod.SELFCHECK, ctx, score=mean_score(sims), kg_used=False
    )


def graph_consistency_scores(
    target_vectors: Sequence[EmbeddingVector],
    sample_graphs: Sequence[Sequence[EmbeddingVector]],
) -> list[float]:
    """Per-triple consistency against sampled graphs.

    For each target triple vector: average, over the sample graphs, of the
    best zero-floored similarity to any triple in that graph; a graph with no
    triples contributes zero. Exactly-rounded summation keeps the result
    independent of sample order.
    """
    if not sample_graphs:
        raise ConfigError("consistency needs at least one sample graph")
    n = len(sample_graphs)
    scores: list[float] = []
    for v in target_vectors:
        contributions = []
        for graph in sample_graphs:
            if graph:
                contributions.append(max(clamp0(cosine_sim(v, u)) for u in graph))
            else:
                contributions.append(0.0)
        scores.append(mean_score(contributions) if contributions else 0.0)
    return scores


def selfcheck_kg(
    output: GeneratedOutput, samples: Sequence[str], ctx: DetectorContext
) -> ScoreRecord:
    """Triple-level selfcheck: extract graphs from the output and every
    sample, then score each output triple by its best match per sample graph."""
    if not samples:
        raise ConfigError("selfcheck needs at least one sample")
    extractor = ctx.require_extractor()
    embedder = ctx.require_embedder()
    kg = extractor.extract(output.text, output.context)
    sample_kgs = _map_bounded(lambda s: extractor.extract(s), samples, ctx.executor)
    target_vectors = [embedder.embed(s) for s in _triple_statements(kg)]
    sample_vectors = [
        [embedder.embed(s) for s in _triple_statements(sample_kg)] for sample_kg in sample_kgs
    ]
    per_triple = graph_consistency_scores(target_vectors, sample_vectors)
    triple_scores = tuple(zip(kg.triples, per_triple))
    return _record(
        output, DetectorMethod.SELFCHECK, ctx, triple_scores=triple_scores, kg_used=True
    )


def run_detector(
    config: DetectorConfig,
    output: GeneratedOutput,
    ctx: DetectorContext,
    samples: Sequence[str] | None = None,
) -> ScoreRecord:
    """Dispatch to the configured detector and stamp provenance and timing."""
    started = time.perf_counter()
    try:
        if config.method is DetectorMethod.SELFCHECK:
            if not samples:
                raise ConfigError("selfcheck configured but no samples provided")
            if len(samples) < config.n_samples:
                raise ConfigError(
                    f"selfcheck needs {config.n_samples} samples, got {len(samples)}"
                )
            chosen = list(samples[: config.n_samples])
            if config.use_kg:
                record = selfcheck_kg(output, chosen, ctx)
            else:
                record = selfcheck(output, chosen, ctx)
        elif config.method is DetectorMethod.SELF_QUESTIONING:
            record = self_questioning_kg(output, ctx) if config.use_kg else self_questioning(output, ctx)
        elif config.method is DetectorMethod.SELF_CONFIDENCE:
            record = self_confidence_kg(output, ctx) if config.use_kg else self_confidence(output, ctx)
        else:
            raise ConfigError(f"unknown detector method {config.method!r}")
    except ConfigError:
        raise
    except HallucheckError as exc:
        error = DetectorProviderError if isinstance(exc, ProviderError) else DetectorError
        raise error(
            f"{config.method.value}{'+kg' if config.use_kg else ''} failed on "
            f"{output.prompt_id}: {exc}"
        ) from exc
    stamps = {"elapsed_s": time.perf_counter() - started}
    if config.prompt_version:
        stamps["prompt_version"] = config.prompt_version
    return replace(record, **stamps)
