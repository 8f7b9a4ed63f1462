from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hallucheck.core import DetectorMethod, GeneratedOutput, Triple, mean_score
from hallucheck.detect import (
    DetectorConfig,
    DetectorContext,
    DetectorError,
    QAStep,
    ScoreParseError,
    graph_consistency_scores,
    parse_score,
    run_detector,
    selfcheck,
    selfcheck_kg,
    self_confidence,
    self_confidence_kg,
    self_questioning,
    self_questioning_kg,
    verify_statement,
)
from hallucheck.embed import EmbeddingVector, HashEmbedder, clamp0, cosine_sim, triple_text
from hallucheck.provider import ChatClient, ConfigError, MockChatBackend


def make_ctx(script=None, embedder=None, executor=None, fail_calls=None):
    backend = MockChatBackend.from_script(script or {"default": "0.5"})
    if fail_calls:
        backend.fail_calls = fail_calls
    client = ChatClient(backend, sleep=lambda s: None)
    ctx = DetectorContext(client=client, model_id="m", embedder=embedder, executor=executor)
    return ctx, backend


QA_SCRIPT = {
    "rules": [
        {"match": ["Write one question"], "reply": "Is the claim supported?"},
        {"match": ["your own knowledge"], "reply": "Mostly, yes."},
        {"match": ["Agreement score:", "Paris"], "reply": "0.9"},
        {"match": ["Agreement score:", "Atlantis"], "reply": "around 0.1 at best"},
        {"match": ["Agreement score:"], "reply": "0.6"},
        {"match": ["Confidence score:", "Paris"], "reply": "0.8"},
        {"match": ["Confidence score:", "Atlantis"], "reply": "0.2"},
        {"match": ["Confidence score:"], "reply": "0.7"},
        {
            "match": ["knowledge-graph triples", "two facts"],
            "reply": '[["France", "capital", "Paris"], ["Atlantis", "located in", "the sea"]]',
        },
        {"match": ["knowledge-graph triples"], "reply": '[["a", "r", "b"]]'},
    ],
    "default": "no number here",
}


class TestParseScore:
    @pytest.mark.parametrize(
        "reply,expected",
        [
            ("0.8", 0.8),
            ("Score: 0.73.", 0.73),
            ("1", 1.0),
            (".5", 0.5),
            ("2", 1.0),
            ("-0.2", 0.0),
            ("0.85 out of 1", 0.85),
            ("I would say 0, honestly", 0.0),
        ],
    )
    def test_values(self, reply, expected):
        assert parse_score(reply) == expected

    def test_no_number(self):
        with pytest.raises(ScoreParseError):
            parse_score("no idea whatsoever")


class TestConfigAndSteps:
    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=0)

    def test_bad_parse_policy(self):
        with pytest.raises(ConfigError):
            DetectorConfig(
                method=DetectorMethod.SELF_CONFIDENCE, score_parse_policy="strict"
            )

    def test_qastep_bounds(self):
        with pytest.raises(ValueError):
            QAStep(question="q", answer="a", consistency=1.3)


class TestQuestioning:
    def test_verify_statement_runs_three_calls(self):
        ctx, backend = make_ctx(QA_SCRIPT)
        step = verify_statement(ctx, "The capital of France is Paris.")
        assert step.question == "Is the claim supported?"
        assert step.answer == "Mostly, yes."
        assert step.consistency == 0.9
        assert backend.calls == 3

    def test_sentence_level(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = self_questioning(GeneratedOutput("p", "Paris is in France."), ctx)
        assert record.method is DetectorMethod.SELF_QUESTIONING
        assert not record.kg_used
        assert record.triple_scores is None
        assert record.score == 0.9
        assert record.prompt_version
        assert record.model_id == "m"

    def test_triple_level_averages(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = self_questioning_kg(
            GeneratedOutput("p", "A sentence with two facts."), ctx
        )
        assert record.kg_used
        assert [c for _, c in record.triple_scores] == [0.9, 0.1]
        assert record.score == 0.5
        assert record.misses == 0


class TestConfidence:
    def test_sentence_level(self):
        ctx, backend = make_ctx(QA_SCRIPT)
        record = self_confidence(GeneratedOutput("p", "Paris is in France."), ctx)
        assert record.score == 0.8
        assert backend.calls == 1

    def test_triple_level(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = self_confidence_kg(GeneratedOutput("p", "A sentence with two facts."), ctx)
        assert [c for _, c in record.triple_scores] == [0.8, 0.2]
        assert record.score == 0.5

    def test_miss_policy_drops_and_counts(self):
        script = {
            "rules": [
                {
                    "match": ["knowledge-graph triples"],
                    "reply": '[["France", "capital", "Paris"], ["mystery", "is", "thing"]]',
                },
                {"match": ["Confidence score:", "Paris"], "reply": "0.8"},
            ],
            "default": "cannot answer that",
        }
        ctx, _ = make_ctx(script)
        record = self_confidence_kg(GeneratedOutput("p", "text"), ctx)
        assert record.misses == 1
        assert len(record.triple_scores) == 1
        assert record.score == 0.8

    def test_all_triples_failing_is_detector_error(self):
        script = {
            "rules": [
                {"match": ["knowledge-graph triples"], "reply": '[["a", "r", "b"]]'}
            ],
            "default": "cannot answer that",
        }
        ctx, _ = make_ctx(script)
        with pytest.raises(DetectorError):
            self_confidence_kg(GeneratedOutput("p", "text"), ctx)


class TestSelfcheck:
    def test_identical_samples_give_one(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=32))
        out = GeneratedOutput("p", "The same sentence.")
        record = selfcheck(out, ["The same sentence.", "The same sentence."], ctx)
        assert record.score == pytest.approx(1.0, abs=1e-9)
        assert record.method is DetectorMethod.SELFCHECK
        assert not record.kg_used

    def test_matches_manual_mean(self):
        embedder = HashEmbedder(dim=32)
        ctx = DetectorContext(embedder=embedder)
        samples = ["First regeneration.", "Second regeneration.", "Third one."]
        out = GeneratedOutput("p", "The original output.")
        target = embedder.embed(out.text)
        expected = mean_score(
            [clamp0(cosine_sim(target, embedder.embed(s))) for s in samples]
        )
        assert selfcheck(out, samples, ctx).score == expected

    def test_order_does_not_matter(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=32))
        out = GeneratedOutput("p", "Order check.")
        samples = ["alpha text", "beta text", "gamma text"]
        forward = selfcheck(out, samples, ctx).score
        backward = selfcheck(out, list(reversed(samples)), ctx).score
        assert forward == backward

    def test_zero_samples_rejected(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=8))
        with pytest.raises(ConfigError):
            selfcheck(GeneratedOutput("p", "t"), [], ctx)

    def test_needs_embedder(self):
        ctx, _ = make_ctx()
        ctx.embedder = None
        with pytest.raises(ConfigError):
            selfcheck(GeneratedOutput("p", "t"), ["s"], ctx)


def random_vectors(rng, count, dim=6):
    return [
        EmbeddingVector(values=tuple(rng.normal(size=dim)), model_id="t")
        for _ in range(count)
    ]


def brute_force_consistency(target_vecs, sample_graphs):
    """Independent oracle: plain max-then-mean with numpy cosines."""
    out = []
    for v in target_vecs:
        per_sample = []
        for graph in sample_graphs:
            best = 0.0
            for u in graph:
                a = np.asarray(v.values)
                b = np.asarray(u.values)
                c = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                c = max(-1.0, min(1.0, c))
                best = max(best, max(0.0, c))
            per_sample.append(best)
        out.append(sum(per_sample) / len(per_sample))
    return out


class TestGraphConsistency:
    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            targets = random_vectors(rng, rng.integers(1, 5))
            graphs = [
                random_vectors(rng, rng.integers(0, 5)) for _ in range(rng.integers(1, 5))
            ]
            got = graph_consistency_scores(targets, graphs)
            want = brute_force_consistency(targets, graphs)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9

    def test_empty_sample_graph_contributes_zero(self):
        target = random_vectors(np.random.default_rng(1), 1)
        scores = graph_consistency_scores(target, [[], [target[0]]])
        assert scores[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_sample_graphs_rejected(self):
        target = random_vectors(np.random.default_rng(1), 1)
        with pytest.raises(ConfigError):
            graph_consistency_scores(target, [])


SELFCHECK_KG_SCRIPT = {
    "rules": [
        {
            "match": ["knowledge-graph triples", "was born in London and studied"],
            "reply": '[["Alan Turing", "born in", "London"], ["Alan Turing", "studied", "mathematics"]]',
        },
        {
            "match": ["knowledge-graph triples", "Turing was born in London."],
            "reply": '[["Alan Turing", "born in", "London"]]',
        },
        {
            "match": ["knowledge-graph triples", "lived in Cambridge"],
            "reply": '[["Alan Turing", "lived in", "Cambridge"]]',
        },
        {"match": ["knowledge-graph triples", "No facts at all."], "reply": "[]"},
    ],
    "default": "[]",
}


class TestSelfcheckKG:
    def build(self, executor=None):
        embedder = HashEmbedder(dim=32)
        ctx, backend = make_ctx(SELFCHECK_KG_SCRIPT, embedder=embedder, executor=executor)
        out = GeneratedOutput("p", "Alan Turing was born in London and studied there.")
        samples = [
            "Turing was born in London.",
            "Turing lived in Cambridge for a while.",
            "No facts at all.",
        ]
        return ctx, backend, out, samples

    def test_score_matches_componentwise_computation(self):
        ctx, _, out, samples = self.build()
        record = selfcheck_kg(out, samples, ctx)
        assert record.kg_used
        assert len(record.triple_scores) == 2

        embedder = HashEmbedder(dim=32)
        target_texts = ["Alan Turing born in London", "Alan Turing studied mathematics"]
        sample_graph_texts = [
            ["Alan Turing born in London"],
            ["Alan Turing lived in Cambridge"],
            ["statement states No facts at all."],
        ]
        expected = []
        for t in target_texts:
            tv = embedder.embed(t)
            per_sample = [
                max(clamp0(cosine_sim(tv, embedder.embed(s))) for s in graph)
                for graph in sample_graph_texts
            ]
            expected.append(mean_score(per_sample))
        assert [c for _, c in record.triple_scores] == expected
        assert record.score == mean_score(expected)

    def test_parallel_equals_serial(self):
        ctx, _, out, samples = self.build()
        serial_record = selfcheck_kg(out, samples, ctx)
        with ThreadPoolExecutor(4) as pool:
            ctx, _, out, samples = self.build(executor=pool)
            record = selfcheck_kg(out, samples, ctx)
        assert record.score == serial_record.score
        assert record.triple_scores == serial_record.triple_scores

    def test_sample_order_invariant(self):
        ctx, _, out, samples = self.build()
        forward = selfcheck_kg(out, samples, ctx).score
        ctx2, _, out2, _ = self.build()
        backward = selfcheck_kg(out2, list(reversed(samples)), ctx2).score
        assert forward == backward


class TestRunDetector:
    def test_dispatch_matrix(self):
        for method, use_kg in [
            (DetectorMethod.SELF_QUESTIONING, False),
            (DetectorMethod.SELF_QUESTIONING, True),
            (DetectorMethod.SELF_CONFIDENCE, False),
            (DetectorMethod.SELF_CONFIDENCE, True),
        ]:
            ctx, _ = make_ctx(QA_SCRIPT)
            config = DetectorConfig(method=method, use_kg=use_kg)
            record = run_detector(
                config, GeneratedOutput("p", "A sentence with two facts."), ctx
            )
            assert record.method is method
            assert record.kg_used is use_kg
            assert record.elapsed_s is not None

    def test_selfcheck_dispatch_uses_first_n_samples(self):
        embedder = HashEmbedder(dim=32)
        ctx = DetectorContext(embedder=embedder)
        config = DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=2)
        out = GeneratedOutput("p", "Output text.")
        samples = ["s one", "s two", "s three ignored"]
        record = run_detector(config, out, ctx, samples=samples)
        target = embedder.embed(out.text)
        expected = mean_score(
            [clamp0(cosine_sim(target, embedder.embed(s))) for s in samples[:2]]
        )
        assert record.score == expected

    def test_selfcheck_without_samples(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=8))
        config = DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=2)
        with pytest.raises(ConfigError):
            run_detector(config, GeneratedOutput("p", "t"), ctx)

    def test_selfcheck_with_too_few_samples(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=8))
        config = DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=5)
        with pytest.raises(ConfigError):
            run_detector(config, GeneratedOutput("p", "t"), ctx, samples=["a", "b"])

    def test_provider_failure_wrapped_with_method_name(self):
        ctx, _ = make_ctx(fail_calls={1, 2, 3})
        config = DetectorConfig(method=DetectorMethod.SELF_CONFIDENCE)
        with pytest.raises(DetectorError, match="self_confidence"):
            run_detector(config, GeneratedOutput("p", "t"), ctx)

    def test_config_prompt_version_override(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        config = DetectorConfig(
            method=DetectorMethod.SELF_CONFIDENCE, prompt_version="pinned-v9"
        )
        record = run_detector(config, GeneratedOutput("p", "Paris."), ctx)
        assert record.prompt_version == "pinned-v9"
