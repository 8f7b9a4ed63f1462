"""Fact-level hallucination self-detection for language model outputs.

The pipeline: decompose a generated sentence into knowledge-graph triples,
score factuality with one of three detector families (verification-question
rounds, direct confidence elicitation, or multi-sample consistency), each
available sentence-level or triple-level, then evaluate score streams against
labels with threshold search, average precision, and bootstrap intervals.

The root package exports the quick-start API, the types a caller constructs
and the error bases; everything else is importable from its submodule.
"""

from .core import (
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    KnowledgeGraph,
    Label,
    ScoreRecord,
    Triple,
)
from .detect import DetectorConfig, DetectorContext, DetectorError, DetectorPrompts, run_detector
from .embed import HashEmbedder, SbertEmbedder
from .evaluation import LabeledScore, compare_methods, evaluate_method
from .kgx import ExtractionPromptTemplate, KGExtractor
from .provider import (
    ChatClient,
    ChatRequest,
    ConfigError,
    GeminiChatBackend,
    GenerationParams,
    MockChatBackend,
    OpenAIChatBackend,
    ProviderError,
    ResponseCache,
)

__version__ = "0.1.0"

__all__ = [
    "ChatClient",
    "ChatRequest",
    "ConfigError",
    "DetectorConfig",
    "DetectorContext",
    "DetectorError",
    "DetectorMethod",
    "DetectorPrompts",
    "ExtractionPromptTemplate",
    "GeminiChatBackend",
    "GeneratedOutput",
    "GenerationParams",
    "HallucheckError",
    "HashEmbedder",
    "KGExtractor",
    "KnowledgeGraph",
    "Label",
    "LabeledScore",
    "MockChatBackend",
    "OpenAIChatBackend",
    "ProviderError",
    "ResponseCache",
    "SbertEmbedder",
    "ScoreRecord",
    "Triple",
    "compare_methods",
    "evaluate_method",
    "run_detector",
]
