"""Client tying a chat backend to caching, retries, and rate limiting.

``complete`` serves identical requests from the on-disk cache when one is
configured; the draws of one prompt differ in ``ChatRequest.draw``, so each
is cached on its own. A draw must hold text: a blank one is refused, never
cached, and a blank draw found in the cache is a miss. A reply with a lone
surrogate (not encodable as UTF-8) is handled the same way. ``max_inflight``
caps the backend calls in flight at once over every thread sharing the client.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from typing import Callable, Protocol

from ..core import encodable
from .cache import ResponseCache
from .types import (
    ChatRequest,
    ChatResponse,
    ConfigError,
    ProviderRefusal,
    TransportError,
    cache_key,
    canonical_request,
)

logger = logging.getLogger(__name__)


class ChatBackend(Protocol):
    name: str

    def complete_once(self, request: ChatRequest) -> str: ...


# A transport failure is retried: at most RETRY_ATTEMPTS attempts in all,
# sleeping RETRY_BACKOFF_S before the first retry and RETRY_BACKOFF_FACTOR
# times longer before each further one.
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0
RETRY_BACKOFF_FACTOR = 2.0


class RateLimiter:
    """Global minimum spacing between requests, expressed as requests/minute."""

    def __init__(
        self,
        requests_per_minute: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        # ``time.sleep`` overflows past ``threading.TIMEOUT_MAX`` (about 292
        # years), so a rate must give an interval no longer than that.
        if not (requests_per_minute > 0 and 60.0 / requests_per_minute <= threading.TIMEOUT_MAX):
            raise ConfigError(
                f"rate_limit_per_minute must be > 0 and leave at most "
                f"{threading.TIMEOUT_MAX:.0f} s between requests, got {requests_per_minute}"
            )
        self.interval = 60.0 / requests_per_minute
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def wait(self) -> None:
        with self._lock:
            now = self._clock()
            delay = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + self.interval
        if delay > 0:
            self._sleep(delay)


class ChatClient:
    def __init__(
        self,
        backend: ChatBackend,
        cache: ResponseCache | None = None,
        rate_limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] = time.sleep,
        max_inflight: int | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {max_inflight}")
        self.backend = backend
        self.cache = cache
        self.rate_limiter = rate_limiter
        self._sleep = sleep
        self._inflight = (
            threading.BoundedSemaphore(max_inflight) if max_inflight else contextlib.nullcontext()
        )

    def _call_with_retry(self, request: ChatRequest) -> str:
        delay = RETRY_BACKOFF_S
        last: TransportError | None = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                with self._inflight:
                    if self.rate_limiter is not None:
                        self.rate_limiter.wait()
                    content = self.backend.complete_once(request)
            except TransportError as exc:
                last = exc
                if attempt < RETRY_ATTEMPTS:
                    logger.warning("transport failure (attempt %d/%d): %s", attempt, RETRY_ATTEMPTS, exc)
                    self._sleep(delay)
                    delay *= RETRY_BACKOFF_FACTOR
                continue
            if not content:
                raise ProviderRefusal("backend returned empty content")
            if request.draw is not None and not content.strip():
                raise ProviderRefusal("backend returned a blank sample")
            if not encodable(content):
                raise ProviderRefusal("backend returned text with a lone surrogate")
            return content
        assert last is not None
        raise last

    def complete(self, request: ChatRequest) -> ChatResponse:
        """Complete one request, serving repeats from the cache when enabled."""
        if self.cache is None:
            return ChatResponse(content=self._call_with_retry(request), cached=False)
        digest = cache_key(request, self.backend.name)
        hit = self.cache.get(digest)
        if hit is not None and (request.draw is None or hit.strip()):
            return ChatResponse(content=hit, cached=True)
        content = self._call_with_retry(request)
        self.cache.put(digest, canonical_request(request, self.backend.name), content)
        return ChatResponse(content=content, cached=False)
