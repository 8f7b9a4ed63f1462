"""Deterministic scripted chat backend for offline runs and tests.

A script is an ordered list of rules plus a default reply. Each rule matches
when every one of its substrings occurs in the rendered request text (roles
and contents joined); the first matching rule wins. A rule may carry a single
reply or a sequence of replies consumed one per match, sticking on the last.
Calls can be scripted to fail by 1-based global call index, which exercises
retry and partial-failure handling without a network.

A script refuses an unknown key, a rule with both ``reply`` and ``replies``, an
empty ``match`` or ``replies`` and a ``fail_calls`` entry below 1. Only a rule's
replies may hold a lone surrogate, to script a reply the client must refuse.

Reply sequences and failing call indices follow the global order of calls. When
several threads share the backend (``parallelism`` above 1), that order varies
from run to run, so only single-reply rules stay deterministic.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from ..core import check_json, encodable, read_json
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


def _strings(value: object, where: str) -> tuple[str, ...]:
    """``value``, one string or a non-empty list of strings, as a tuple."""
    items = [value] if isinstance(value, str) else value
    if not isinstance(items, list) or not items or not all(isinstance(s, str) for s in items):
        raise ConfigError(f"{where} must be a string or a non-empty list of strings")
    return tuple(items)


# A script's key table, for check_json. A rule is checked by hand: its ``match``
# may be a string or a list, and its replies may hold a lone surrogate, which
# the checker refuses in any string.
_SCRIPT = {"rules": (list, dict), "default": str, "fail_calls": (list, (int, 1))}


class MockChatBackend:
    name = "mock"
    # A script may leave out any key: check_json reads a class attribute as a default.
    rules, default, fail_calls = (), "", ()

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
    def from_script_file(cls, path: str | os.PathLike) -> "MockChatBackend":
        return cls.from_script(read_json(path, dict, ConfigError), f"{os.fspath(path)}: ")

    @classmethod
    def from_script(cls, script: dict, where: str = "") -> "MockChatBackend":
        """The backend a parsed script describes. A malformed script raises a
        ConfigError with one line that starts with ``where``."""
        check_json(script, (cls, _SCRIPT), where, ConfigError)
        rules = []
        for i, rule in enumerate(script.get("rules", ())):
            name = f"rules[{i}]"
            for key in rule:
                if key not in ("match", "reply", "replies"):
                    raise ConfigError(f"{where}unknown key {key!r} in {name}")
            if ("reply" in rule) == ("replies" in rule):
                raise ConfigError(f"{where}{name} must have exactly one of 'reply' and 'replies'")
            match = _strings(rule.get("match"), f"{where}{name}.match")
            if "" in match:
                raise ConfigError(f"{where}{name}.match must not hold an empty string")
            if not all(map(encodable, match)):
                raise ConfigError(f"{where}{name}.match must be UTF-8 text, got a lone surrogate")
            key = "reply" if "reply" in rule else "replies"
            rules.append(MockRule(match, _strings(rule[key], f"{where}{name}.{key}")))
        return cls(rules, script.get("default", ""), set(script.get("fail_calls", ())))

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
