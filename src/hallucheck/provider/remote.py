"""HTTP chat backends for the hosted model APIs.

Credentials come from environment variables (HALLUCHECK_OPENAI_KEY,
HALLUCHECK_GEMINI_KEY); the HTTP session is injectable so the request/response
mapping is testable without a network. Error mapping: connection problems,
5xx, and 429 become TransportError (retryable); auth and unknown-model
responses become ConfigError; a 2xx body with no text becomes ProviderRefusal.
"""

from __future__ import annotations

import os
from typing import Any

import requests

from .types import ChatRequest, ConfigError, ProviderRefusal, TransportError

OPENAI_KEY_ENV = "HALLUCHECK_OPENAI_KEY"
GEMINI_KEY_ENV = "HALLUCHECK_GEMINI_KEY"

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}


def _post_json(session: requests.Session, url: str, headers: dict, payload: dict, timeout: float) -> dict:
    try:
        response = session.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    if response.status_code in _RETRYABLE_STATUS:
        raise TransportError(f"HTTP {response.status_code} from {url}")
    if response.status_code in (401, 403):
        raise ConfigError(f"authentication rejected ({response.status_code}) by {url}")
    if response.status_code == 404:
        raise ConfigError(f"unknown model or endpoint ({url})")
    if response.status_code >= 400:
        raise TransportError(f"HTTP {response.status_code} from {url}: {response.text[:200]}")
    try:
        return response.json()
    except ValueError as exc:
        raise TransportError(f"non-JSON body from {url}") from exc


class OpenAIChatBackend:
    """OpenAI-style chat completions endpoint (also fits compatible gateways)."""

    name = "openai"

    def __init__(
        self,
        api_key: str | None = None,
        base_url: str = "https://api.openai.com/v1",
        session: requests.Session | None = None,
        timeout: float = 120.0,
    ):
        self.api_key = api_key if api_key is not None else os.environ.get(OPENAI_KEY_ENV, "")
        if not self.api_key:
            raise ConfigError(f"no API key: set {OPENAI_KEY_ENV}")
        self.base_url = base_url.rstrip("/")
        self.session = session or requests.Session()
        self.timeout = timeout

    def complete_once(self, request: ChatRequest) -> str:
        payload: dict[str, Any] = {
            "model": request.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.params.temperature,
            "top_p": request.params.top_p,
            "max_tokens": request.params.max_tokens,
            "frequency_penalty": request.params.frequency_penalty,
            "presence_penalty": request.params.presence_penalty,
        }
        data = _post_json(
            self.session,
            f"{self.base_url}/chat/completions",
            {"Authorization": f"Bearer {self.api_key}"},
            payload,
            self.timeout,
        )
        choices = data.get("choices") or []
        content = (choices[0].get("message") or {}).get("content") if choices else None
        if not content:
            raise ProviderRefusal("completion returned no content")
        return content


class GeminiChatBackend:
    """Google Generative Language API (generateContent)."""

    name = "gemini"

    def __init__(
        self,
        api_key: str | None = None,
        base_url: str = "https://generativelanguage.googleapis.com/v1beta",
        session: requests.Session | None = None,
        timeout: float = 120.0,
    ):
        self.api_key = api_key if api_key is not None else os.environ.get(GEMINI_KEY_ENV, "")
        if not self.api_key:
            raise ConfigError(f"no API key: set {GEMINI_KEY_ENV}")
        self.base_url = base_url.rstrip("/")
        self.session = session or requests.Session()
        self.timeout = timeout

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
        data = _post_json(self.session, url, {"x-goog-api-key": self.api_key}, payload, self.timeout)
        candidates = data.get("candidates") or []
        parts = (candidates[0].get("content") or {}).get("parts") if candidates else None
        text = "".join(p.get("text", "") for p in parts) if parts else ""
        if not text:
            raise ProviderRefusal("generateContent returned no text")
        return text
