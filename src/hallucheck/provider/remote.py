"""HTTP chat backends for the hosted model APIs.

Credentials come from environment variables (HALLUCHECK_OPENAI_KEY,
HALLUCHECK_GEMINI_KEY); the HTTP transport is injectable (``transport=``, by
default ``post_json``) so the request/response mapping is testable without a
network. Error mapping: connection problems, 5xx, and 429 become
TransportError (retryable); auth and unknown-model responses become
ConfigError; a 2xx body with no text becomes ProviderRefusal.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Callable

from .types import ChatRequest, ConfigError, ProviderRefusal, TransportError

OPENAI_KEY_ENV = "HALLUCHECK_OPENAI_KEY"
GEMINI_KEY_ENV = "HALLUCHECK_GEMINI_KEY"

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

Transport = Callable[[str, dict, dict, float], dict]


def post_json(url: str, headers: dict, payload: dict, timeout: float) -> dict:
    """POST ``payload`` as JSON to ``url`` and return the decoded JSON reply.

    Each call opens its own connection. The HTTP modules are imported here,
    not at module top, because only a live call needs them.
    """
    import http.client
    import urllib.error
    import urllib.request

    if not url.lower().startswith(("http://", "https://")):
        raise TransportError(f"request to {url} failed: not an http(s) URL")
    request = urllib.request.Request(
        url,
        data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers={**headers, "Content-Type": "application/json"},
        method="POST",
    )
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                status, body = exc.code, exc.read()
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    except ValueError:
        # http.client quotes the offending header value, which may be the key.
        raise ConfigError(f"cannot send request to {url}: malformed header value") from None
    if status in _RETRYABLE_STATUS:
        raise TransportError(f"HTTP {status} from {url}")
    if status in (401, 403):
        raise ConfigError(f"authentication rejected ({status}) by {url}")
    if status == 404:
        raise ConfigError(f"unknown model or endpoint ({url})")
    if status >= 400:
        text = body.decode("utf-8", errors="replace")
        raise TransportError(f"HTTP {status} from {url}: {text[:200]}")
    try:
        return json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise TransportError(f"non-JSON body from {url}") from exc


class _HostedBackend:
    """Key, endpoint and transport of a hosted API; the key comes from
    ``key_env`` unless given, and ``base_url`` defaults to ``default_url``."""

    key_env: str
    default_url: str

    def __init__(
        self,
        api_key: str | None = None,
        base_url: str | None = None,
        transport: Transport = post_json,
        timeout: float = 120.0,
    ):
        self.api_key = api_key if api_key is not None else os.environ.get(self.key_env, "")
        if not self.api_key:
            raise ConfigError(f"no API key: set {self.key_env}")
        self.base_url = (base_url or self.default_url).rstrip("/")
        self.transport = transport
        self.timeout = timeout


class OpenAIChatBackend(_HostedBackend):
    """OpenAI-style chat completions endpoint (also fits compatible gateways)."""

    name = "openai"
    key_env = OPENAI_KEY_ENV
    default_url = "https://api.openai.com/v1"

    def complete_once(self, request: ChatRequest) -> str:
        payload: dict[str, Any] = {
            "model": request.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            **asdict(request.params),
        }
        data = self.transport(
            f"{self.base_url}/chat/completions",
            {"Authorization": f"Bearer {self.api_key}"},
            payload,
            self.timeout,
        )
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str) or not content:
            raise ProviderRefusal("completion returned no content")
        return content


class GeminiChatBackend(_HostedBackend):
    """Google Generative Language API (generateContent)."""

    name = "gemini"
    key_env = GEMINI_KEY_ENV
    default_url = "https://generativelanguage.googleapis.com/v1beta"

    def complete_once(self, request: ChatRequest) -> str:
        contents = []
        system_parts = []
        for m in request.messages:
            if m.role == "system":
                system_parts.append(m.content)
                continue
            role = "model" if m.role == "assistant" else "user"
            contents.append({"role": role, "parts": [{"text": m.content}]})
        payload: dict[str, Any] = {
            "contents": contents,
            "generationConfig": {
                "temperature": request.params.temperature,
                "topP": request.params.top_p,
                "maxOutputTokens": request.params.max_tokens,
                "frequencyPenalty": request.params.frequency_penalty,
                "presencePenalty": request.params.presence_penalty,
            },
        }
        if system_parts:
            payload["systemInstruction"] = {"parts": [{"text": "\n".join(system_parts)}]}
        # The key goes in a header: the URL is quoted in error messages and logs.
        url = f"{self.base_url}/models/{request.model_id}:generateContent"
        data = self.transport(url, {"x-goog-api-key": self.api_key}, payload, self.timeout)
        try:
            text = "".join(p.get("text", "") for p in data["candidates"][0]["content"]["parts"])
        except (AttributeError, KeyError, IndexError, TypeError):
            text = ""
        if not text:
            raise ProviderRefusal("generateContent returned no text")
        return text
