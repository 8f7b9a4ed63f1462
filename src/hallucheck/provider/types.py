"""Request/response types shared by every chat backend.

Two fixed generation profiles are exposed: a deterministic one for graph
extraction and a stochastic one for the detection prompts. Callers select a
profile by role instead of passing raw numbers, so the values cannot drift
between call sites.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..core import HallucheckError

ROLES = ("system", "user", "assistant")


class ProviderError(HallucheckError):
    """Base class for chat-backend failures."""


class TransportError(ProviderError):
    """Network or HTTP failure, surfaced after the retry budget is spent."""


class ProviderRefusal(ProviderError):
    """The backend answered but returned no usable content."""


class ConfigError(ProviderError):
    """Bad request shape, unknown model, or missing credentials."""


@dataclass(frozen=True)
class GenerationParams:
    temperature: float
    top_p: float
    max_tokens: int
    frequency_penalty: float
    presence_penalty: float

    def __post_init__(self) -> None:
        # Every value must be finite: a request body is strict JSON.
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if not 0 < self.top_p <= 1:
            raise ConfigError("top_p must be in (0, 1]")
        if self.max_tokens <= 0:
            raise ConfigError("max_tokens must be positive")
        if not math.isfinite(self.frequency_penalty) or not math.isfinite(self.presence_penalty):
            raise ConfigError("frequency_penalty and presence_penalty must be finite")


# Graph extraction wants reproducible, repetition-averse output.
KG_PROFILE = GenerationParams(
    temperature=0.0,
    top_p=1.0,
    max_tokens=8096,
    frequency_penalty=1.0,
    presence_penalty=1.0,
)

# Detection prompts and sample generation run with free sampling.
DETECT_PROFILE = GenerationParams(
    temperature=1.0,
    top_p=1.0,
    max_tokens=8096,
    frequency_penalty=0.0,
    presence_penalty=0.0,
)


@dataclass(frozen=True)
class Message:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigError(f"unknown message role {self.role!r}")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion call: model, ordered messages, sampling params.

    ``draw`` numbers the independent draws of one prompt: draw k is cached
    apart from every other draw and from the undrawn request. It is never
    sent to the model.
    """

    model_id: str
    messages: tuple[Message, ...]
    params: GenerationParams
    draw: int | None = None

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ConfigError("model_id is empty")
        if not self.messages:
            raise ConfigError("request has no messages")
        if self.messages[-1].role != "user":
            raise ConfigError("last message must have role 'user'")

    @classmethod
    def user(
        cls, model_id: str, content: str, params: GenerationParams, draw: int | None = None
    ) -> "ChatRequest":
        return cls(model_id, (Message("user", content),), params, draw)


@dataclass(frozen=True)
class ChatResponse:
    content: str
    cached: bool = False


def canonical_request(request: ChatRequest, backend: str) -> str:
    """Canonical JSON form of a request, used for digests and cache records."""
    payload = {
        "backend": backend,
        "model_id": request.model_id,
        "params": vars(request.params),  # its fields, as asdict gives them
        "messages": [[m.role, m.content] for m in request.messages],
    }
    if request.draw is not None:  # the key's old name keeps old digests valid
        payload["nonce"] = f"sample:{request.draw}"
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def cache_key(request: ChatRequest, backend: str) -> str:
    """SHA-256 digest over the canonical request form.

    Equal requests give equal digests; changing any field (backend, model,
    params, messages, draw) changes the digest.
    """
    return request_digest(canonical_request(request, backend))


def request_digest(canonical: str) -> str:
    """The cache key of a request's canonical form (see ``cache_key``)."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
