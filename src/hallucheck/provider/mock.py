"""Deterministic scripted chat backend for offline runs and tests.

A script is an ordered list of rules plus a default reply. Each rule matches
when every one of its substrings occurs in the rendered request text (roles
and contents joined); the first matching rule wins. A rule may carry a single
reply or a sequence of replies consumed one per match, sticking on the last.
Calls can be scripted to fail by 1-based global call index, which exercises
retry and partial-failure handling without a network.

Reply sequences and failing call indices follow the global order of calls. When
several threads share the backend (``parallelism`` above 1), that order varies
from run to run, so only single-reply rules stay deterministic.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .types import ChatRequest, ConfigError, TransportError


@dataclass
class MockRule:
    match: tuple[str, ...]
    replies: tuple[str, ...]
    _served: int = field(default=0, repr=False)

    def matches(self, text: str) -> bool:
        return all(fragment in text for fragment in self.match)

    def next_reply(self) -> str:
        reply = self.replies[min(self._served, len(self.replies) - 1)]
        self._served += 1
        return reply


def _strings(value: object, what: str) -> tuple[str, ...]:
    """``value``, one string or a non-empty list of strings, as a tuple."""
    items = [value] if isinstance(value, str) else value
    if not isinstance(items, list) or not items or not all(isinstance(s, str) for s in items):
        raise ValueError(f"{what} must be a string or a non-empty list of strings")
    return tuple(items)


class MockChatBackend:
    name = "mock"

    def __init__(
        self,
        rules: list[MockRule] | None = None,
        default_reply: str = "",
        fail_calls: set[int] | None = None,
    ):
        self.rules = rules or []
        self.default_reply = default_reply
        self.fail_calls = fail_calls or set()
        self.calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_script_file(cls, path: str | Path) -> "MockChatBackend":
        try:
            return cls.from_script(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot load mock script {path}: {exc}") from exc

    @classmethod
    def from_script(cls, script: dict) -> "MockChatBackend":
        """The backend a parsed script describes; a malformed script raises
        ValueError."""
        if not isinstance(script, dict) or not isinstance(script.get("rules", []), list):
            raise ValueError("a script is a JSON object whose 'rules' is a list")
        default, fail_calls = script.get("default", ""), script.get("fail_calls", [])
        calls_ok = isinstance(fail_calls, list) and all(type(c) is int for c in fail_calls)
        if not isinstance(default, str) or not calls_ok:
            raise ValueError("'default' must be a string and 'fail_calls' a list of integers")
        rules = []
        for i, entry in enumerate(script.get("rules", [])):
            if not isinstance(entry, dict):
                raise ValueError(f"rule {i} is not a JSON object")
            match = _strings(entry.get("match"), f"rule {i} 'match'")
            replies = _strings(entry.get("replies", entry.get("reply")), f"rule {i} reply")
            rules.append(MockRule(match=match, replies=replies))
        return cls(rules=rules, default_reply=default, fail_calls=set(fail_calls))

    def complete_once(self, request: ChatRequest) -> str:
        text = "\n".join(f"{m.role}: {m.content}" for m in request.messages)
        with self._lock:
            self.calls += 1
            if self.calls in self.fail_calls:
                raise TransportError(f"scripted failure on call {self.calls}")
            for rule in self.rules:
                if rule.matches(text):
                    return rule.next_reply()
            return self.default_reply
