import json
import logging
import threading
import time

import pytest
import requests

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
    RetryPolicy,
    SampleBatchError,
    TransportError,
    cache_key,
    canonical_request,
)
from hallucheck.provider.remote import (
    GEMINI_KEY_ENV,
    OPENAI_KEY_ENV,
    GeminiChatBackend,
    OpenAIChatBackend,
)


def req(content="hello", params=DETECT_PROFILE, model="m1"):
    return ChatRequest.user(model, content, params)


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
        assert cache_key(req(), "mock", nonce="sample:0") != base

    def test_canonical_form_is_json(self):
        canon = json.loads(canonical_request(req(), "mock"))
        assert canon["backend"] == "mock"
        assert canon["messages"] == [["user", "hello"]]


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
        assert [p.name for p in tmp_path.iterdir()] == [f"{digest}.json"]

    def test_manifest_of_an_older_version_is_ignored(self, tmp_path):
        digest = cache_key(req(), "mock")
        (tmp_path / "MANIFEST").write_text(digest + "\n", encoding="utf-8")
        cache = ResponseCache(tmp_path)
        assert cache.get(digest) is None
        cache.put(digest, "{}", "a")
        assert cache.get(digest) == "a"
        assert (tmp_path / "MANIFEST").read_text(encoding="utf-8") == digest + "\n"

    def test_survives_reopen(self, tmp_path):
        digest = cache_key(req(), "mock")
        ResponseCache(tmp_path).put(digest, "{}", "persisted")
        assert ResponseCache(tmp_path).get(digest) == "persisted"

    def test_entry_bytes_depend_only_on_the_request(self, tmp_path):
        cache = ResponseCache(tmp_path)
        digest = cache_key(req(), "mock")
        path = tmp_path / f"{digest}.json"
        cache.put(digest, canonical_request(req(), "mock"), "reply")
        first = path.read_bytes()
        time.sleep(0.01)
        cache.put(digest, canonical_request(req(), "mock"), "reply")
        assert path.read_bytes() == first
        assert "stored_at" not in json.loads(first)

    def test_entry_with_a_timestamp_is_still_a_hit(self, tmp_path):
        digest = cache_key(req(), "mock")
        record = {"digest": digest, "request": "{}", "response": "old reply",
                  "stored_at": "2024-01-01T00:00:00+00:00"}
        (tmp_path / f"{digest}.json").write_text(json.dumps(record), encoding="utf-8")
        assert ResponseCache(tmp_path).get(digest) == "old reply"


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
        ],
    )
    def test_malformed_script_is_a_config_error(self, tmp_path, script):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot load mock script") as exc_info:
            MockChatBackend.from_script_file(path)
        assert str(path) in str(exc_info.value) and "\n" not in str(exc_info.value)


class TestChatClient:
    def test_complete_caches(self, tmp_path):
        backend = MockChatBackend(default_reply="answer")
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        first = client.complete(req())
        second = client.complete(req())
        assert (first.content, first.cached) == ("answer", False)
        assert (second.content, second.cached) == ("answer", True)
        assert backend.calls == 1

    def test_retry_then_success(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={1, 2})
        naps = []
        client = ChatClient(
            backend,
            retry=RetryPolicy(attempts=3, backoff_start_s=0.5, backoff_factor=3.0),
            sleep=naps.append,
        )
        assert client.complete(req()).content == "ok"
        assert naps == [0.5, 1.5]

    def test_retry_exhausted(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={1, 2, 3})
        client = ChatClient(backend, retry=RetryPolicy(attempts=3), sleep=lambda s: None)
        with pytest.raises(TransportError):
            client.complete(req())
        assert backend.calls == 3

    def test_empty_content_is_refusal_not_retried(self):
        backend = MockChatBackend(default_reply="")
        client = ChatClient(backend, sleep=lambda s: None)
        with pytest.raises(ProviderRefusal):
            client.complete(req())
        assert backend.calls == 1

    def test_sample_n_bad_count(self):
        client = ChatClient(MockChatBackend(default_reply="x"))
        with pytest.raises(ConfigError):
            client.sample_n(req(), 0)

    def test_sample_n_is_n_fresh_calls(self, tmp_path):
        backend = MockChatBackend(rules=[MockRule(match=("go",), replies=("a", "b", "c"))])
        client = ChatClient(backend, cache=ResponseCache(tmp_path))
        client.complete(req("go"))
        responses = client.sample_n(req("go"), 3)
        assert [r.content for r in responses] == ["b", "c", "c"]
        assert backend.calls == 4

    def test_sample_n_writes_indexed_cache_entries(self, tmp_path):
        cache = ResponseCache(tmp_path)
        client = ChatClient(MockChatBackend(default_reply="s"), cache=cache)
        client.sample_n(req(), 3)
        expected = {cache_key(req(), "mock", nonce=f"sample:{i}") for i in range(3)}
        assert expected == {p.stem for p in tmp_path.glob("*.json")}

    def test_sample_n_partial_failure(self):
        backend = MockChatBackend(default_reply="ok", fail_calls={3, 4, 5})
        client = ChatClient(backend, retry=RetryPolicy(attempts=3), sleep=lambda s: None)
        with pytest.raises(SampleBatchError) as exc_info:
            client.sample_n(req(), 4)
        assert exc_info.value.succeeded == 2

    def test_sample_n_temp_zero_warns(self, caplog):
        client = ChatClient(MockChatBackend(default_reply="same"))
        with caplog.at_level(logging.WARNING):
            client.sample_n(req(params=KG_PROFILE), 2)
        assert any("temperature 0" in message for message in caplog.messages)


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

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            RateLimiter(0)


class FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, headers=None, json=None, timeout=None):
        self.requests.append({"url": url, "headers": headers, "json": json})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestOpenAIBackend:
    def _backend(self, responses):
        return OpenAIChatBackend(api_key="k", session=FakeSession(responses))

    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv(OPENAI_KEY_ENV, raising=False)
        with pytest.raises(ConfigError):
            OpenAIChatBackend()

    def test_success_and_payload(self):
        body = {"choices": [{"message": {"content": "fine"}}]}
        backend = self._backend([FakeResponse(200, body)])
        assert backend.complete_once(req()) == "fine"
        sent = backend.session.requests[0]["json"]
        assert sent["model"] == "m1"
        assert sent["temperature"] == 1.0
        assert sent["max_tokens"] == 8096
        assert sent["frequency_penalty"] == 0.0

    def test_retryable_status(self):
        backend = self._backend([FakeResponse(429, {})])
        with pytest.raises(TransportError):
            backend.complete_once(req())

    def test_auth_status_is_config_error(self):
        backend = self._backend([FakeResponse(401, {})])
        with pytest.raises(ConfigError):
            backend.complete_once(req())

    def test_empty_content_is_refusal(self):
        body = {"choices": [{"message": {"content": ""}}]}
        backend = self._backend([FakeResponse(200, body)])
        with pytest.raises(ProviderRefusal):
            backend.complete_once(req())


class TestGeminiBackend:
    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv(GEMINI_KEY_ENV, raising=False)
        with pytest.raises(ConfigError):
            GeminiChatBackend()

    def test_role_and_config_mapping(self):
        body = {"candidates": [{"content": {"parts": [{"text": "out"}]}}]}
        session = FakeSession([FakeResponse(200, body)])
        backend = GeminiChatBackend(api_key="k", session=session)
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
        sent = session.requests[0]["json"]
        assert sent["systemInstruction"]["parts"] == [{"text": "be terse"}]
        roles = [c["role"] for c in sent["contents"]]
        assert roles == ["model", "user"]
        assert sent["generationConfig"]["temperature"] == 0.0
        assert sent["generationConfig"]["maxOutputTokens"] == 8096

    def test_key_sent_in_header_not_url(self):
        body = {"candidates": [{"content": {"parts": [{"text": "out"}]}}]}
        session = FakeSession([FakeResponse(200, body)])
        GeminiChatBackend(api_key="secret-key-123", session=session).complete_once(req())
        sent = session.requests[0]
        assert sent["headers"] == {"x-goog-api-key": "secret-key-123"}
        assert "secret-key-123" not in sent["url"]

    def test_key_absent_from_errors_and_logs(self, caplog):
        key = "secret-key-123"

        def url_error():
            url = session.requests[-1]["url"]
            return requests.ConnectionError(f"connection refused for url: {url}")

        class EchoingSession(FakeSession):
            def post(self, url, headers=None, json=None, timeout=None):
                self.requests.append({"url": url, "headers": headers, "json": json})
                item = self.responses.pop(0)
                if item is None:
                    raise url_error()
                return item

        session = EchoingSession(
            [None, FakeResponse(503, {}), None, FakeResponse(401, {}), FakeResponse(404, {})]
        )
        client = ChatClient(
            GeminiChatBackend(api_key=key, session=session), sleep=lambda s: None
        )
        errors = []
        with caplog.at_level(logging.DEBUG):
            for expected in (TransportError, ConfigError, ConfigError):
                with pytest.raises(expected) as info:
                    client.complete(req())
                errors.append(str(info.value))
        assert len(session.requests) == 5
        assert any("generateContent" in text for text in errors)
        assert caplog.records
        for text in errors + [r.getMessage() for r in caplog.records]:
            assert key not in text


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
