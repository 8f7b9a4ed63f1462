import dataclasses
import http.client
import io
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import hallucheck

from hallucheck.provider import (
    DETECT_PROFILE,
    KG_PROFILE,
    ChatClient,
    ChatRequest,
    ConfigError,
    GenerationParams,
    Message,
    MockChatBackend,
    MockRule,
    ProviderRefusal,
    RateLimiter,
    ResponseCache,
    TransportError,
    cache_key,
    canonical_request,
)
from hallucheck.provider.remote import (
    GEMINI_KEY_ENV,
    OPENAI_KEY_ENV,
    GeminiChatBackend,
    OpenAIChatBackend,
    post_json,
)


def req(content="hello", params=DETECT_PROFILE, model="m1", draw=None):
    return ChatRequest.user(model, content, params, draw=draw)


class TestGenerationParams:
    def test_extraction_profile_values(self):
        assert KG_PROFILE.temperature == 0.0
        assert KG_PROFILE.top_p == 1.0
        assert KG_PROFILE.max_tokens == 8096
        assert KG_PROFILE.frequency_penalty == 1.0
        assert KG_PROFILE.presence_penalty == 1.0

    def test_detection_profile_values(self):
        assert DETECT_PROFILE.temperature == 1.0
        assert DETECT_PROFILE.top_p == 1.0
        assert DETECT_PROFILE.max_tokens == 8096
        assert DETECT_PROFILE.frequency_penalty == 0.0
        assert DETECT_PROFILE.presence_penalty == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"max_tokens": 0},
            {"temperature": float("nan")},
            {"temperature": float("inf")},
            {"frequency_penalty": float("nan")},
            {"presence_penalty": float("-inf")},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            temperature=1.0, top_p=1.0, max_tokens=10, frequency_penalty=0, presence_penalty=0
        )
        base.update(kwargs)
        with pytest.raises(ConfigError):
            GenerationParams(**base)


class TestRequestTypes:
    def test_bad_role(self):
        with pytest.raises(ConfigError):
            Message("narrator", "hi")

    def test_last_message_must_be_user(self):
        with pytest.raises(ConfigError):
            ChatRequest(
                model_id="m",
                messages=(Message("user", "a"), Message("assistant", "b")),
                params=DETECT_PROFILE,
            )

    def test_empty_messages(self):
        with pytest.raises(ConfigError):
            ChatRequest(model_id="m", messages=(), params=DETECT_PROFILE)

    def test_user_constructor(self):
        r = req("what?")
        assert r.messages[0].role == "user"
        assert r.messages[0].content == "what?"


class TestCacheKey:
    def test_equal_requests_equal_digests(self):
        assert cache_key(req(), "mock") == cache_key(req(), "mock")

    def test_sensitivity(self):
        base = cache_key(req(), "mock")
        assert cache_key(req("other"), "mock") != base
        assert cache_key(req(params=KG_PROFILE), "mock") != base
        assert cache_key(req(model="m2"), "mock") != base
        assert cache_key(req(), "openai") != base
        assert cache_key(req(draw=0), "mock") != base
        assert cache_key(req(draw=1), "mock") != cache_key(req(draw=0), "mock")

    def test_draw_digests_are_pinned(self):
        """A draw keeps the digest it had as the ``nonce="sample:2"`` entry,
        and a request without a draw keeps its own, so existing cache entries
        stay valid."""
        prompt = "Write a short biography of Vesna Marinko."
        drawn = ChatRequest.user("mock-model", prompt, DETECT_PROFILE, draw=2)
        plain = ChatRequest.user("mock-model", prompt, DETECT_PROFILE)
        assert cache_key(drawn, "mock") == (
            "0cb68ab54e47bac7eaeb4364f6d66b6aa9919eb1f73797e5ddd5d24f5d7cb725"
        )
        assert cache_key(plain, "mock") == (
            "386984864737b1eac70ff5f9ef216d3fbb74685946dbd6fdf0c7fa67ba5da82b"
        )
        assert json.loads(canonical_request(drawn, "mock"))["nonce"] == "sample:2"
        assert "nonce" not in json.loads(canonical_request(plain, "mock"))

    def test_canonical_form_is_json(self):
        canon = json.loads(canonical_request(req(), "mock"))
        assert canon["backend"] == "mock"
        assert canon["messages"] == [["user", "hello"]]


def log_records(directory):
    """The records of a cache directory's log, one per line, in order."""
    data = (Path(directory) / "responses.jsonl").read_bytes()
    return [json.loads(line) for line in data.splitlines()]


def write_log(directory, *lines):
    """A cache log of the given lines (dicts become JSON), each with its newline."""
    body = "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines)
    (Path(directory) / "responses.jsonl").write_text(body, encoding="utf-8")


class TestResponseCache:
    def test_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = cache_key(req(), "mock")
        assert cache.get(digest) is None
        cache.put(digest, canonical_request(req(), "mock"), "stored reply")
        assert cache.get(digest) == "stored reply"

    def test_put_writes_one_entry_per_digest(self, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = cache_key(req(), "mock")
        cache.put(digest, "{}", "a")
        cache.put(digest, "{}", "a")
        assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]
        assert [r["digest"] for r in log_records(tmp_path)] == [digest]

    def test_manifest_of_an_older_version_is_ignored(self, tmp_path):
        digest = cache_key(req(), "mock")
        (tmp_path / "MANIFEST").write_text(digest + "\n", encoding="utf-8")
        cache = ResponseCache(tmp_path)
        assert cache.get(digest) is None
        cache.put(digest, "{}", "a")
        assert cache.get(digest) == "a"
        assert (tmp_path / "MANIFEST").read_text(encoding="utf-8") == digest + "\n"

    def test_other_json_in_the_cache_dir_is_not_read(self, tmp_path, caplog):
        """Only the log is read: an unrelated JSON file, a directory named like
        one and a per-entry ``<digest>.json`` file of an older version are left
        alone, with no warning."""
        digest = cache_key(req(), "mock")
        old = json.dumps({"digest": digest, "request": "{}", "response": "old reply"})
        (tmp_path / f"{digest}.json").write_text(old, encoding="utf-8")
        (tmp_path / "notes.json").write_text('{"a": 1}', encoding="utf-8")
        (tmp_path / "backup.json").mkdir()
        cache = ResponseCache(tmp_path)
        assert cache.get(digest) is None
        cache.put(digest, "{}", "new reply")
        assert cache.get(digest) == "new reply"
        assert log_records(tmp_path) == [
            {"digest": digest, "request": "{}", "response": "new reply"}
        ]
        assert (tmp_path / f"{digest}.json").read_text(encoding="utf-8") == old
        assert [r for r in caplog.records if r.levelname == "WARNING"] == []

    def test_entry_with_a_lone_surrogate_is_a_miss(self, tmp_path, caplog):
        digest = cache_key(req(), "mock")
        write_log(tmp_path, f'{{"digest": "{digest}", "request": "{{}}", "response": "Kr\\ud800nj"}}')
        assert ResponseCache(tmp_path).get(digest) is None
        assert f"{tmp_path / 'responses.jsonl'}:1" in caplog.text

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe not utf-8",
            b'{"digest": "d", "resp',
            b"",
            b'["d", "reply"]',
            b'{"digest": 1, "response": "reply"}',
            b'{"digest": "d", "response": 1}',
            b'{"digest": "d"}',
            b"1" * 5000,
            b"[" * 100_000 + b"]",
        ],
        ids=[
            "not-utf8", "not-json", "blank", "not-an-object", "digest-not-a-string",
            "response-not-a-string", "no-response", "digits", "nesting",
        ],
    )
    def test_bad_line_is_a_miss_with_one_warning(self, tmp_path, caplog, line):
        """A bad line is skipped with a warning naming it; the lines around it
        still load."""
        good = [json.dumps({"digest": f"g{i}", "request": "{}", "response": f"r{i}"}).encode()
                for i in range(2)]
        (tmp_path / "responses.jsonl").write_bytes(b"\n".join([good[0], line, good[1]]) + b"\n")
        cache = ResponseCache(tmp_path)
        assert [cache.get(d) for d in ("g0", "d", "g1")] == ["r0", None, "r1"]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"ignoring corrupt response cache entry {tmp_path / 'responses.jsonl'}:2"]

    def test_survives_reopen(self, tmp_path):
        digest = cache_key(req(), "mock")
        ResponseCache(tmp_path).put(digest, "{}", "persisted")
        assert ResponseCache(tmp_path).get(digest) == "persisted"

    def test_entry_bytes_depend_only_on_the_request(self, tmp_path):
        digest = cache_key(req(), "mock")
        logs = []
        for run in ("first", "second"):
            ResponseCache(tmp_path / run).put(digest, canonical_request(req(), "mock"), "reply")
            logs.append((tmp_path / run / "responses.jsonl").read_bytes())
            time.sleep(0.01)
        assert logs[0] == logs[1]
        assert json.loads(logs[0]) == {
            "digest": digest, "request": canonical_request(req(), "mock"), "response": "reply"
        }

    def test_entry_with_a_timestamp_is_still_a_hit(self, tmp_path):
        digest = cache_key(req(), "mock")
        write_log(tmp_path, {"digest": digest, "request": "{}", "response": "old reply",
                             "stored_at": "2024-01-01T00:00:00+00:00"})
        assert ResponseCache(tmp_path).get(digest) == "old reply"

    def test_the_later_line_wins(self, tmp_path):
        write_log(
            tmp_path,
            {"digest": "d", "request": "{}", "response": "first"},
            {"digest": "e", "request": "{}", "response": "other"},
            {"digest": "d", "request": "{}", "response": "second"},
            {"digest": "d", "response": 3},
        )
        cache = ResponseCache(tmp_path)
        assert (cache.get("d"), cache.get("e")) == ("second", "other")

    def test_every_cut_of_the_log_loads_a_prefix_of_its_entries(self, tmp_path, caplog):
        """A process killed in the middle of a put leaves the log cut at any
        byte; the load serves exactly the entries of the whole lines before
        the cut, drops the rest of the file and warns of nothing else."""
        full_dir = tmp_path / "full"
        cache = ResponseCache(full_dir)
        entries = [(cache_key(req(f"q{i}"), "mock"), f"reply {i} «é»") for i in range(4)]
        entries.append((entries[0][0], "redrawn"))
        for digest, response in entries:
            cache.put(digest, canonical_request(req(), "mock"), response)
        full = (full_dir / "responses.jsonl").read_bytes()
        ends = [i + 1 for i, byte in enumerate(full) if byte == ord("\n")]
        assert len(ends) == len(entries)
        for cut in range(len(full) + 1):
            directory = tmp_path / str(cut)
            directory.mkdir()
            (directory / "responses.jsonl").write_bytes(full[:cut])
            whole = sum(end <= cut for end in ends)
            loaded = ResponseCache(directory)
            assert {d: loaded.get(d) for d, _ in entries} == {
                **{d: None for d, _ in entries}, **dict(entries[:whole])
            }, cut
            kept = ends[whole - 1] if whole else 0
            assert (directory / "responses.jsonl").read_bytes() == full[:kept], cut
        assert "ignoring corrupt" not in caplog.text

    def test_two_processes_appending_keep_all_their_entries(self, tmp_path):
        src = Path(hallucheck.__file__).resolve().parents[1]
        # Each process loads the empty cache, then waits for its stdin to
        # close, so that both append at once.
        code = (
            "import sys\n"
            "from hallucheck.provider.cache import ResponseCache\n"
            "cache = ResponseCache(sys.argv[1])\n"
            "cache.get('none')\n"
            "sys.stdin.read()\n"
            "for i in range(N):\n"
            "    cache.put(f'{sys.argv[2]}{i}', '{}', 'x' * (i % 50) + sys.argv[2])\n"
        ).replace("N", "1000")
        env = {**os.environ, "PYTHONPATH": str(src)}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(tmp_path), name], env=env, stdin=subprocess.PIPE
            )
            for name in ("a", "b")
        ]
        for proc in procs:
            proc.stdin.close()
        assert [proc.wait(timeout=60) for proc in procs] == [0, 0]
        assert len(log_records(tmp_path)) == 2000
        cache = ResponseCache(tmp_path)
        for name in ("a", "b"):
            assert [cache.get(f"{name}{i}") for i in range(1000)] == [
                "x" * (i % 50) + name for i in range(1000)
            ]


    def test_a_put_cut_short_leaves_the_log_as_it_was_and_raises(self, tmp_path):
        """A write cut short by the file size limit of one child process, with
        SIGXFSZ ignored: the put raises naming the log, the log keeps its bytes
        and the entry is a miss."""
        src = Path(hallucheck.__file__).resolve().parents[1]
        code = (
            "import json, resource, signal, sys\n"
            "from hallucheck.provider.cache import ResponseCache\n"
            "cache = ResponseCache(sys.argv[1])\n"
            "cache.put('first', '{}', 'a')\n"
            "size = cache.path.stat().st_size\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (size + 40, hard))\n"
            "try:\n"
            "    cache.put('second', '{}', 'x' * 200)\n"
            "    error = None\n"
            "except OSError as exc:\n"
            "    error = str(exc)\n"
            "print(json.dumps({'error': error, 'hit': cache.get('second'), 'size': size}))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        result = json.loads(proc.stdout)
        log = tmp_path / "responses.jsonl"
        assert result["error"] is not None and str(log) in result["error"]
        assert result["hit"] is None
        assert log.stat().st_size == result["size"]
        assert [record["digest"] for record in log_records(tmp_path)] == ["first"]


class TestMockBackend:
    def test_first_matching_rule_wins(self):
        backend = MockChatBackend(
            rules=[
                MockRule(match=("alpha", "beta"), replies=("both",)),
                MockRule(match=("alpha",), replies=("only alpha",)),
            ],
            default_reply="fallback",
        )
        assert backend.complete_once(req("alpha and beta")) == "both"
        assert backend.complete_once(req("alpha alone")) == "only alpha"
        assert backend.complete_once(req("nothing")) == "fallback"

    def test_reply_sequence_sticks_on_last(self):
        backend = MockChatBackend(rules=[MockRule(match=("x",), replies=("1", "2"))])
        out = [backend.complete_once(req("x")) for _ in range(4)]
        assert out == ["1", "2", "2", "2"]

    def test_scripted_failures(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={2})
        assert backend.complete_once(req()) == "ok"
        with pytest.raises(TransportError):
            backend.complete_once(req())
        assert backend.complete_once(req()) == "ok"

    def test_from_script(self):
        backend = MockChatBackend.from_script(
            {
                "rules": [
                    {"match": "solo", "reply": "r1"},
                    {"match": ["a", "b"], "replies": ["r2", "r3"]},
                ],
                "default": "d",
                "fail_calls": [5],
            }
        )
        assert backend.complete_once(req("solo")) == "r1"
        assert backend.complete_once(req("a b")) == "r2"
        assert backend.default_reply == "d"
        assert backend.fail_calls == {5}

    def test_from_script_file_bad_path(self, tmp_path):
        with pytest.raises(ConfigError):
            MockChatBackend.from_script_file(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "script",
        [
            [],
            {"rules": {}},
            {"rules": ["x"]},
            {"rules": [{"reply": "r"}]},
            {"rules": [{"match": "m"}]},
            {"rules": [{"match": "m", "replies": []}]},
            {"rules": [{"match": 3, "reply": "r"}]},
            {"default": 0},
            {"fail_calls": [1.5]},
            {"rulez": [{"match": "m", "reply": "r"}], "fail_call": [1], "defualt": "0.9"},
            {"rules": [{"match": "m", "reply": "r", "replys": ["s"]}]},
            {"rules": [{"match": "m", "reply": "r", "replies": ["s"]}]},
            {"rules": [{"match": "", "reply": "r"}]},
            {"rules": [{"match": [], "reply": "r"}]},
            {"rules": [{"match": ["m", ""], "reply": "r"}]},
            {"fail_calls": [0]},
            {"default": "\ud800"},
            {"rules": [{"match": ["m", "\ud800"], "reply": "r"}]},
        ],
    )
    def test_malformed_script_is_a_config_error(self, tmp_path, script):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        with pytest.raises(ConfigError) as exc_info:
            MockChatBackend.from_script_file(path)
        message = str(exc_info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message

    @pytest.mark.parametrize("rule", [{"reply": "\udfff"}, {"replies": ["ok", "\ud800"]}])
    def test_a_reply_with_a_lone_surrogate_loads(self, tmp_path, rule):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"rules": [{"match": "x", **rule}]}), encoding="utf-8")
        replies = MockChatBackend.from_script_file(path).rules[0].replies
        assert replies == tuple(rule.get("replies", [rule.get("reply")]))


class TestChatClient:
    def test_complete_caches(self, tmp_path):
        backend = MockChatBackend(default_reply="answer")
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        first = client.complete(req())
        second = client.complete(req())
        assert (first.content, first.cached) == ("answer", False)
        assert (second.content, second.cached) == ("answer", True)
        assert backend.calls == 1

    def test_no_cache_key_without_a_cache(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cache key computed with no cache")

        monkeypatch.setattr(hallucheck.provider.client, "canonical_request", refuse)
        backend = MockChatBackend(default_reply="answer")
        response = ChatClient(backend).complete(req(draw=0))
        assert (response.content, response.cached, backend.calls) == ("answer", False, 1)

    def test_retry_then_success(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={1, 2})
        naps = []
        client = ChatClient(backend, sleep=naps.append)
        assert client.complete(req()).content == "ok"
        assert naps == [1.0, 2.0]

    def test_retry_exhausted(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={1, 2, 3})
        client = ChatClient(backend, sleep=lambda s: None)
        with pytest.raises(TransportError):
            client.complete(req())
        assert backend.calls == 3

    def test_empty_content_is_refusal_not_retried(self):
        backend = MockChatBackend(default_reply="")
        client = ChatClient(backend, sleep=lambda s: None)
        with pytest.raises(ProviderRefusal):
            client.complete(req())
        assert backend.calls == 1

    @pytest.mark.parametrize("blank", ["   ", "\n\t"], ids=["spaces", "newline-tab"])
    def test_blank_draw_is_refused_and_not_cached(self, tmp_path, blank):
        backend = MockChatBackend(default_reply=blank)
        client = ChatClient(backend, cache=ResponseCache(tmp_path), sleep=lambda s: None)
        with pytest.raises(ProviderRefusal, match="blank sample"):
            client.complete(req(draw=0))
        assert backend.calls == 1
        assert not list(tmp_path.iterdir())
        # Only a draw must hold text: any other request keeps a blank reply.
        assert client.complete(req()).content == blank

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_reply_with_a_lone_surrogate_is_refused_and_not_cached(self, tmp_path, cached):
        backend = MockChatBackend(default_reply="Kr\ud800nj")
        cache = ResponseCache(tmp_path) if cached else None
        client = ChatClient(backend, cache=cache, sleep=lambda s: None)
        with pytest.raises(ProviderRefusal, match="lone surrogate"):
            client.complete(req())
        assert backend.calls == 1
        assert not list(tmp_path.iterdir())

    def test_cached_never_calls_the_backend_nor_appends(self, tmp_path):
        backend = MockChatBackend(default_reply="answer")
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        client.complete(req())
        log = (tmp_path / "responses.jsonl").read_bytes()
        assert client.cached(req()) == "answer"
        assert client.cached(req("other")) is None
        assert client.cached(req(draw=0)) is None
        assert ChatClient(backend).cached(req()) is None
        assert backend.calls == 1
        assert (tmp_path / "responses.jsonl").read_bytes() == log

    def test_blank_draw_in_the_cache_is_a_miss(self, tmp_path):
        cache = ResponseCache(tmp_path)
        drawn = req(draw=0)
        cache.put(cache_key(drawn, "mock"), canonical_request(drawn, "mock"), "  ")
        backend = MockChatBackend(default_reply="text")
        assert ChatClient(backend, cache=cache).cached(drawn) is None
        response = ChatClient(backend, cache=cache).complete(drawn)
        assert (response.content, response.cached, backend.calls) == ("text", False, 1)
        assert cache.get(cache_key(drawn, "mock")) == "text"

    def test_empty_reply_in_the_cache_is_a_miss(self, tmp_path):
        # The backend's empty reply is a refusal and never cached; an empty
        # entry already in the cache is not served either.
        cache = ResponseCache(tmp_path)
        cache.put(cache_key(req(), "mock"), canonical_request(req(), "mock"), "")
        backend = MockChatBackend(default_reply="text")
        response = ChatClient(backend, cache=cache).complete(req())
        assert (response.content, response.cached, backend.calls) == ("text", False, 1)
        assert cache.get(cache_key(req(), "mock")) == "text"

    def test_draws_are_fresh_calls_then_cache_hits(self, tmp_path):
        backend = MockChatBackend(rules=[MockRule(match=("go",), replies=("a", "b", "c"))])
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        client.complete(req("go"))
        draws = [req("go", draw=k) for k in range(3)]
        assert [client.complete(r).content for r in draws] == ["b", "c", "c"]
        assert backend.calls == 4
        again = [client.complete(r) for r in draws]
        assert [r.content for r in again] == ["b", "c", "c"]
        assert all(r.cached for r in again) and backend.calls == 4

    def test_draws_write_indexed_cache_entries(self, tmp_path):
        client = ChatClient(MockChatBackend(default_reply="s"), cache=ResponseCache(tmp_path))
        for k in range(3):
            client.complete(req(draw=k))
        expected = [cache_key(req(draw=k), "mock") for k in range(3)]
        assert expected == [record["digest"] for record in log_records(tmp_path)]

    def test_canonical_request_is_built_once_per_call(self, tmp_path, monkeypatch):
        """A miss builds the canonical form once, for its digest and its entry;
        a hit builds it only for its digest."""
        built = []

        def counting(request, backend):
            built.append(request)
            return canonical_request(request, backend)

        monkeypatch.setattr(hallucheck.provider.client, "canonical_request", counting)
        backend = MockChatBackend(default_reply="answer")
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        client.complete(req())
        assert (len(built), backend.calls) == (1, 1)
        assert client.complete(req()).cached
        assert (len(built), backend.calls) == (2, 1)
        assert log_records(tmp_path)[0]["request"] == canonical_request(req(), "mock")

    def test_blank_draw_then_its_redraw_reload_as_the_redraw(self, tmp_path):
        """An older cache's blank draw is asked again, and the new line wins
        on the next load too."""
        drawn = req(draw=0)
        ResponseCache(tmp_path).put(cache_key(drawn, "mock"), canonical_request(drawn, "mock"), " ")
        backend = MockChatBackend(default_reply="text")
        assert ChatClient(backend, cache=ResponseCache(tmp_path)).complete(drawn).content == "text"
        again = ChatClient(backend, cache=ResponseCache(tmp_path)).complete(drawn)
        assert (again.content, again.cached, backend.calls) == ("text", True, 1)
        assert [r["response"] for r in log_records(tmp_path)] == [" ", "text"]


class TestRateLimiter:
    def test_spacing(self):
        now = [0.0]
        naps = []

        def clock():
            return now[0]

        def sleep(s):
            naps.append(s)
            now[0] += s

        limiter = RateLimiter(60, clock=clock, sleep=sleep)
        limiter.wait()
        limiter.wait()
        limiter.wait()
        assert naps == [1.0, 1.0]

    def test_client_calls_wait_out_the_interval(self):
        now = [0.0]
        naps = []

        def sleep(s):
            naps.append(s)
            now[0] += s

        backend = MockChatBackend(default_reply="ok")
        started = []
        reply = backend.complete_once
        backend.complete_once = lambda request: started.append(now[0]) or reply(request)
        limiter = RateLimiter(60, clock=lambda: now[0], sleep=sleep)
        client = ChatClient(backend, rate_limiter=limiter)
        for k in range(3):
            assert client.complete(req(draw=k)).content == "ok"
        assert naps == [1.0, 1.0]
        assert started == [0.0, 1.0, 2.0]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            RateLimiter(0)

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), 1e-320, 1e-9])
    def test_rejects_a_rate_without_a_sleepable_interval(self, rate):
        # 60 / 1e-9 is 6e10 s, past what time.sleep takes.
        with pytest.raises(ConfigError, match="rate_limit_per_minute must be > 0"):
            RateLimiter(rate)

    def test_slowest_rate_still_sleeps(self):
        naps = []
        limiter = RateLimiter(60 / threading.TIMEOUT_MAX, clock=lambda: 0.0, sleep=naps.append)
        limiter.wait()
        limiter.wait()
        assert naps == [threading.TIMEOUT_MAX]


class FakeTransport:
    """Stands in for ``post_json``: records each call and returns (or raises)
    the next scripted item."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append({"url": url, "headers": headers, "json": payload, "timeout": timeout})
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class FakeUrlopen:
    """Stands in for ``urllib.request.urlopen``. Each scripted item is a
    (status, body) pair (see ``FakeBody``), an exception, or a function of the
    request that returns an exception. Every response body it hands out is
    kept, so a test can check that each was closed."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []
        self.bodies = []

    def __call__(self, request, timeout=None):
        self.requests.append((request, timeout))
        item = self.replies.pop(0)
        if callable(item):
            item = item(request)
        if isinstance(item, Exception):
            raise item
        fp = FakeBody(*item)
        self.bodies.append(fp)
        if fp.status >= 400:
            raise urllib.error.HTTPError(request.full_url, fp.status, "status", {}, fp)
        return fp


class FakeBody(io.BytesIO):
    """A response body with its status; ``read`` raises ``body`` when it is
    an exception."""

    def __init__(self, status, body):
        self.status = status
        self.error = body if isinstance(body, Exception) else None
        super().__init__(b"" if self.error else body)

    def read(self, *args):
        if self.error:
            raise self.error
        return super().read(*args)


@pytest.fixture
def urlopen(monkeypatch):
    def install(*replies):
        fake = FakeUrlopen(replies)
        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return fake

    return install


URL = "https://api.test/v1/chat/completions"


class TestPostJson:
    def test_request_carries_method_headers_and_json_body(self, urlopen):
        fake = urlopen((200, b'{"ok": true}'))
        payload = {"model": "m", "text": "caf\u00e9"}
        assert post_json(URL, {"Authorization": "Bearer k"}, payload, 7.5) == {"ok": True}
        request, timeout = fake.requests[0]
        assert request.get_method() == "POST"
        assert request.full_url == URL
        assert request.get_header("Authorization") == "Bearer k"
        assert request.get_header("Content-type") == "application/json"
        assert request.data == json.dumps(payload).encode("utf-8")
        assert timeout == 7.5
        assert fake.bodies[0].closed

    @pytest.mark.parametrize("status", [408, 429, 500, 502, 503, 504])
    def test_retryable_status_is_transport_error(self, urlopen, status):
        fake = urlopen((status, b"busy"))
        with pytest.raises(TransportError, match=f"HTTP {status} from"):
            post_json(URL, {}, {}, 1.0)
        assert fake.bodies[0].closed

    @pytest.mark.parametrize("status", [401, 403, 404])
    def test_auth_and_unknown_endpoint_are_config_errors(self, urlopen, status):
        fake = urlopen((status, b"no"))
        with pytest.raises(ConfigError):
            post_json(URL, {}, {}, 1.0)
        assert fake.bodies[0].closed

    def test_other_status_quotes_at_most_200_characters_of_the_body(self, urlopen):
        fake = urlopen((418, b"t" * 300))
        with pytest.raises(TransportError) as info:
            post_json(URL, {}, {}, 1.0)
        assert str(info.value) == f"HTTP 418 from {URL}: " + "t" * 200
        assert fake.bodies[0].closed

    @pytest.mark.parametrize(
        "error",
        [
            urllib.error.URLError("connection refused"),
            TimeoutError("timed out"),
            ConnectionResetError("reset by peer"),
            http.client.BadStatusLine("garbage"),
        ],
    )
    def test_connection_failure_is_transport_error(self, urlopen, error):
        urlopen(error)
        with pytest.raises(TransportError, match=f"request to {URL} failed"):
            post_json(URL, {}, {}, 1.0)

    @pytest.mark.parametrize("status", [200, 418])
    def test_timeout_while_reading_the_body_is_transport_error(self, urlopen, status):
        fake = urlopen((status, TimeoutError("timed out")))
        with pytest.raises(TransportError, match=f"request to {URL} failed: timed out"):
            post_json(URL, {}, {}, 1.0)
        assert fake.bodies[0].closed

    def test_non_json_body_is_transport_error(self, urlopen):
        fake = urlopen((200, b"<html>busy</html>"))
        with pytest.raises(TransportError, match="non-JSON body"):
            post_json(URL, {}, {}, 1.0)
        assert fake.bodies[0].closed

    def test_non_http_url_is_transport_error(self, urlopen):
        fake = urlopen()
        with pytest.raises(TransportError, match="not an http"):
            post_json("file:///etc/hostname", {}, {}, 1.0)
        assert fake.requests == []

    def test_malformed_header_is_a_config_error_without_its_value(self):
        # http.client rejects the header before it opens a connection.
        with pytest.raises(ConfigError) as info:
            post_json("http://127.0.0.1:9/x", {"x-goog-api-key": "sec\nret"}, {}, 1.0)
        assert "sec" not in str(info.value)


class TestOpenAIBackend:
    def _backend(self, replies):
        return OpenAIChatBackend(api_key="k", transport=FakeTransport(replies))

    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv(OPENAI_KEY_ENV, raising=False)
        with pytest.raises(ConfigError):
            OpenAIChatBackend()

    def test_success_and_payload(self):
        body = {"choices": [{"message": {"content": "fine"}}]}
        backend = self._backend([body])
        assert backend.complete_once(req()) == "fine"
        call = backend.transport.calls[0]
        assert call["url"] == "https://api.openai.com/v1/chat/completions"
        assert call["headers"] == {"Authorization": "Bearer k"}
        sent = call["json"]
        assert sent["model"] == "m1"
        assert sent["temperature"] == 1.0
        assert sent["max_tokens"] == 8096
        assert sent["frequency_penalty"] == 0.0

    def test_retryable_status(self, urlopen):
        urlopen((429, b"{}"))
        with pytest.raises(TransportError):
            OpenAIChatBackend(api_key="k").complete_once(req())

    def test_auth_status_is_config_error(self, urlopen):
        urlopen((401, b"{}"))
        with pytest.raises(ConfigError):
            OpenAIChatBackend(api_key="k").complete_once(req())

    def test_empty_content_is_refusal(self):
        body = {"choices": [{"message": {"content": ""}}]}
        backend = self._backend([body])
        with pytest.raises(ProviderRefusal):
            backend.complete_once(req())


class TestGeminiBackend:
    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv(GEMINI_KEY_ENV, raising=False)
        with pytest.raises(ConfigError):
            GeminiChatBackend()

    def test_role_and_config_mapping(self):
        body = {"candidates": [{"content": {"parts": [{"text": "out"}]}}]}
        transport = FakeTransport([body])
        backend = GeminiChatBackend(api_key="k", transport=transport)
        request = ChatRequest(
            model_id="g",
            messages=(
                Message("system", "be terse"),
                Message("assistant", "earlier"),
                Message("user", "now"),
            ),
            params=KG_PROFILE,
        )
        assert backend.complete_once(request) == "out"
        sent = transport.calls[0]["json"]
        assert sent["systemInstruction"]["parts"] == [{"text": "be terse"}]
        roles = [c["role"] for c in sent["contents"]]
        assert roles == ["model", "user"]
        assert sent["generationConfig"]["temperature"] == 0.0
        assert sent["generationConfig"]["maxOutputTokens"] == 8096

    def test_key_sent_in_header_not_url(self):
        body = {"candidates": [{"content": {"parts": [{"text": "out"}]}}]}
        transport = FakeTransport([body])
        GeminiChatBackend(api_key="secret-key-123", transport=transport).complete_once(req())
        sent = transport.calls[0]
        assert sent["headers"] == {"x-goog-api-key": "secret-key-123"}
        assert "secret-key-123" not in sent["url"]

    def test_key_absent_from_errors_and_logs(self, caplog, urlopen):
        key = "secret-key-123"

        def refused(request):
            return urllib.error.URLError(f"connection refused for url: {request.full_url}")

        fake = urlopen(refused, (503, b"{}"), refused, (401, b"{}"), (404, b"{}"))
        client = ChatClient(GeminiChatBackend(api_key=key), sleep=lambda s: None)
        errors = []
        with caplog.at_level(logging.DEBUG):
            for expected in (TransportError, ConfigError, ConfigError):
                with pytest.raises(expected) as info:
                    client.complete(req())
                errors.append(str(info.value))
        assert len(fake.requests) == 5
        assert all(r.get_header("X-goog-api-key") == key for r, _ in fake.requests)
        assert any("generateContent" in text for text in errors)
        assert caplog.records
        for text in errors + [r.getMessage() for r in caplog.records]:
            assert key not in text


WIRE_REQUEST = ChatRequest(
    model_id="m1",
    messages=(
        Message("system", "be brief"),
        Message("user", "hi"),
        Message("assistant", "yo"),
        Message("user", "again"),
    ),
    params=KG_PROFILE,
)
OPENAI_BODY = (
    '{"model": "m1", "messages": [{"role": "system", "content": "be brief"}, '
    '{"role": "user", "content": "hi"}, {"role": "assistant", "content": "yo"}, '
    '{"role": "user", "content": "again"}], "temperature": 0.0, "top_p": 1.0, '
    '"max_tokens": 8096, "frequency_penalty": 1.0, "presence_penalty": 1.0}'
)
GEMINI_BODY = (
    '{"contents": [{"role": "user", "parts": [{"text": "hi"}]}, '
    '{"role": "model", "parts": [{"text": "yo"}]}, '
    '{"role": "user", "parts": [{"text": "again"}]}], '
    '"generationConfig": {"temperature": 0.0, "topP": 1.0, "maxOutputTokens": 8096, '
    '"frequencyPenalty": 1.0, "presencePenalty": 1.0}, '
    '"systemInstruction": {"parts": [{"text": "be brief"}]}}'
)
REPLY = {
    "choices": [{"message": {"content": "x"}}],
    "candidates": [{"content": {"parts": [{"text": "x"}]}}],
}


@pytest.mark.parametrize(
    "backend_cls,base_url,url,body",
    [
        (OpenAIChatBackend, None, "https://api.openai.com/v1/chat/completions", OPENAI_BODY),
        (
            OpenAIChatBackend,
            "https://gateway.test/v9/",
            "https://gateway.test/v9/chat/completions",
            OPENAI_BODY,
        ),
        (
            GeminiChatBackend,
            None,
            "https://generativelanguage.googleapis.com/v1beta/models/m1:generateContent",
            GEMINI_BODY,
        ),
        (
            GeminiChatBackend,
            "https://gateway.test/v9/",
            "https://gateway.test/v9/models/m1:generateContent",
            GEMINI_BODY,
        ),
    ],
    ids=["openai", "openai-base-url", "gemini", "gemini-base-url"],
)
def test_url_and_body_on_the_wire_are_pinned(backend_cls, base_url, url, body):
    """The URL and the JSON body ``post_json`` would send, with and without a
    draw number: the draw never reaches the model."""
    for draw in (None, 3):
        transport = FakeTransport([REPLY])
        backend = backend_cls(api_key="k", base_url=base_url, transport=transport)
        assert backend.complete_once(dataclasses.replace(WIRE_REQUEST, draw=draw)) == "x"
        assert transport.calls[0]["url"] == url
        assert json.dumps(transport.calls[0]["json"], allow_nan=False) == body


@pytest.mark.parametrize(
    "backend_cls, body",
    [
        (OpenAIChatBackend, []),
        (OpenAIChatBackend, {"choices": ["x"]}),
        (OpenAIChatBackend, {"choices": [{"message": "hi"}]}),
        (OpenAIChatBackend, {"choices": [{"message": {"content": 5}}]}),
        (GeminiChatBackend, []),
        (GeminiChatBackend, {"candidates": ["x"]}),
        (GeminiChatBackend, {"candidates": [{"content": {"parts": ["p"]}}]}),
        (GeminiChatBackend, {"candidates": [{"content": {"parts": [{"text": 3}]}}]}),
    ],
    ids=[
        "openai-list",
        "openai-string-choice",
        "openai-string-message",
        "openai-number-content",
        "gemini-list",
        "gemini-string-candidate",
        "gemini-string-part",
        "gemini-number-text",
    ],
)
def test_malformed_reply_is_a_refusal_after_one_call(tmp_path, backend_cls, body):
    transport = FakeTransport([body] * 3)
    backend = backend_cls(api_key="k", transport=transport)
    client = ChatClient(backend, cache=ResponseCache(tmp_path), sleep=lambda s: None)
    with pytest.raises(ProviderRefusal):
        client.complete(req())
    assert len(transport.calls) == 1
    assert not list(tmp_path.iterdir())


def test_importing_the_cli_loads_no_http_module():
    src = Path(hallucheck.__file__).resolve().parents[1]
    code = (
        "import sys, hallucheck.cli; "
        "print(sorted(m for m in ('requests', 'urllib3', 'urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    pyproject = (src.parent / "pyproject.toml").read_text(encoding="utf-8")
    dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert "numpy" in dependencies
    assert "requests" not in dependencies


class TestInflightBound:
    def test_backend_calls_in_flight_never_exceed_the_bound(self):
        class SlowBackend:
            name = "slow"

            def __init__(self):
                self.lock = threading.Lock()
                self.inflight = self.most = self.calls = 0

            def complete_once(self, request):
                with self.lock:
                    self.inflight += 1
                    self.calls += 1
                    self.most = max(self.most, self.inflight)
                time.sleep(0.002)
                with self.lock:
                    self.inflight -= 1
                return "ok"

        backend = SlowBackend()
        client = ChatClient(backend, max_inflight=3)
        threads = [
            threading.Thread(target=lambda i=i: [client.complete(req(f"q{i}-{k}")) for k in range(5)])
            for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert backend.calls == 60
        assert backend.most == 3

    def test_rejects_a_bound_below_one(self):
        with pytest.raises(ConfigError):
            ChatClient(MockChatBackend(), max_inflight=0)
