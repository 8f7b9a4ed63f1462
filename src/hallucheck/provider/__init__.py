from .cache import ResponseCache
from .client import ChatBackend, ChatClient, RateLimiter, RetryPolicy
from .mock import MockChatBackend, MockRule
from .remote import GEMINI_KEY_ENV, OPENAI_KEY_ENV, GeminiChatBackend, OpenAIChatBackend
from .types import (
    DETECT_PROFILE,
    KG_PROFILE,
    ChatRequest,
    ChatResponse,
    ConfigError,
    GenerationParams,
    Message,
    ProviderError,
    ProviderRefusal,
    TransportError,
    cache_key,
    canonical_request,
)

__all__ = [
    "ChatBackend",
    "ChatClient",
    "ChatRequest",
    "ChatResponse",
    "ConfigError",
    "DETECT_PROFILE",
    "GEMINI_KEY_ENV",
    "GeminiChatBackend",
    "GenerationParams",
    "KG_PROFILE",
    "Message",
    "MockChatBackend",
    "MockRule",
    "OPENAI_KEY_ENV",
    "OpenAIChatBackend",
    "ProviderError",
    "ProviderRefusal",
    "RateLimiter",
    "ResponseCache",
    "RetryPolicy",
    "TransportError",
    "cache_key",
    "canonical_request",
]
