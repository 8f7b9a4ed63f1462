import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallucheck import detect as detect_module
from hallucheck.core import DetectorMethod, GeneratedOutput, mean_score
from hallucheck.detect import (
    DetectorConfig,
    DetectorContext,
    DetectorError,
    DetectorPrompts,
    DetectorProviderError,
    ScoreParseError,
    graph_consistency_scores,
    parse_score,
    run_detector,
    verify_statement,
)
from hallucheck.embed import (
    DimensionMismatch,
    HashEmbedder,
    ZeroVector,
    clamp0,
    cosine_sim,
    triple_text,
)
from hallucheck.kgx import KGExtractor
from hallucheck.provider import ChatClient, ConfigError, MockChatBackend


def make_ctx(script=None, embedder=None, fail_calls=None):
    backend = MockChatBackend.from_script(script or {"default": "0.5"})
    if fail_calls:
        backend.fail_calls = fail_calls
    client = ChatClient(backend, sleep=lambda s: None)
    ctx = DetectorContext(client=client, model_id="m", embedder=embedder)
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

    @given(st.text() | st.from_regex(r"[^0-9]{0,5}[-+]?[0-9]{0,400}\.?[0-9]{0,5}.{0,5}"))
    def test_any_reply_scores_in_the_unit_interval_or_raises(self, reply):
        try:
            score = parse_score(reply)
        except ScoreParseError:
            return
        assert 0.0 <= score <= 1.0


class TestConfigAndSteps:
    def test_bad_sample_count(self):
        with pytest.raises(ConfigError):
            DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=0)

    def test_extractor_needs_a_client_and_a_model_id(self):
        for ctx in (DetectorContext(), DetectorContext(client=make_ctx()[0].client)):
            with pytest.raises(ConfigError, match="chat client and a model_id"):
                ctx.require_extractor()
        given = KGExtractor(make_ctx()[0].client, "x")
        ctx = DetectorContext(client=given.client, model_id="m", extractor=given)
        assert ctx.require_extractor() is given


def detect(ctx, method, text, use_kg=False, samples=None):
    """``run_detector`` on one output; selfcheck uses every given sample."""
    config = DetectorConfig(method=method, use_kg=use_kg, n_samples=max(1, len(samples or ())))
    return run_detector(config, GeneratedOutput("p", text), ctx, samples=samples)


class TestQuestioning:
    def test_verify_statement_runs_three_calls(self, monkeypatch):
        ctx, backend = make_ctx(QA_SCRIPT)
        prompts = []
        complete_once = backend.complete_once

        def recording(request):
            prompts.append(request.messages[-1].content)
            return complete_once(request)

        monkeypatch.setattr(backend, "complete_once", recording)
        assert verify_statement(ctx, "The capital of France is Paris.") == 0.9
        assert backend.calls == 3
        # The question reaches the answer prompt, the answer the agreement prompt.
        assert "Is the claim supported?" in prompts[1]
        assert "Mostly, yes." in prompts[2]

    def test_sentence_level(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = detect(ctx, DetectorMethod.SELF_QUESTIONING, "Paris is in France.")
        assert record.method is DetectorMethod.SELF_QUESTIONING
        assert not record.kg_used
        assert record.triple_scores is None
        assert record.score == 0.9
        assert record.prompt_version
        assert record.model_id == "m"

    def test_triple_level_averages(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = detect(
            ctx, DetectorMethod.SELF_QUESTIONING, "A sentence with two facts.", use_kg=True
        )
        assert record.kg_used
        assert [c for _, c in record.triple_scores] == [0.9, 0.1]
        assert record.score == 0.5
        assert record.misses == 0


class TestConfidence:
    def test_sentence_level(self):
        ctx, backend = make_ctx(QA_SCRIPT)
        record = detect(ctx, DetectorMethod.SELF_CONFIDENCE, "Paris is in France.")
        assert record.score == 0.8
        assert backend.calls == 1

    def test_triple_level(self):
        ctx, _ = make_ctx(QA_SCRIPT)
        record = detect(
            ctx, DetectorMethod.SELF_CONFIDENCE, "A sentence with two facts.", use_kg=True
        )
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
        record = detect(ctx, DetectorMethod.SELF_CONFIDENCE, "text", use_kg=True)
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
            detect(ctx, DetectorMethod.SELF_CONFIDENCE, "text", use_kg=True)


class TestSelfcheck:
    def test_identical_samples_give_one(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=32))
        samples = ["The same sentence.", "The same sentence."]
        record = detect(ctx, DetectorMethod.SELFCHECK, "The same sentence.", samples=samples)
        assert record.score == pytest.approx(1.0, abs=1e-9)
        assert record.method is DetectorMethod.SELFCHECK
        assert not record.kg_used

    def test_matches_manual_mean(self):
        embedder = HashEmbedder(dim=32)
        ctx = DetectorContext(embedder=embedder)
        samples = ["First regeneration.", "Second regeneration.", "Third one."]
        target = embedder.embed("The original output.")
        expected = mean_score(
            [clamp0(cosine_sim(target, embedder.embed(s))) for s in samples]
        )
        record = detect(ctx, DetectorMethod.SELFCHECK, "The original output.", samples=samples)
        assert record.score == expected

    def test_order_does_not_matter(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=32))
        samples = ["alpha text", "beta text", "gamma text"]
        forward = detect(ctx, DetectorMethod.SELFCHECK, "Order check.", samples=samples).score
        backward = detect(
            ctx, DetectorMethod.SELFCHECK, "Order check.", samples=list(reversed(samples))
        ).score
        assert forward == backward

    def test_zero_samples_rejected(self):
        ctx = DetectorContext(embedder=HashEmbedder(dim=8))
        with pytest.raises(ConfigError):
            detect(ctx, DetectorMethod.SELFCHECK, "t", samples=[])

    def test_needs_embedder(self):
        ctx, _ = make_ctx()
        ctx.embedder = None
        with pytest.raises(ConfigError):
            detect(ctx, DetectorMethod.SELFCHECK, "t", samples=["s"])


def random_vectors(rng, count, dim=6):
    return rng.normal(size=(count, dim))


def brute_force_consistency(target_vecs, sample_graphs):
    """Independent oracle: plain max-then-mean with numpy cosines."""
    out = []
    for a in target_vecs:
        per_sample = []
        for graph in sample_graphs:
            best = 0.0
            for b in graph:
                c = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                c = max(-1.0, min(1.0, c))
                best = max(best, max(0.0, c))
            per_sample.append(best)
        out.append(sum(per_sample) / len(per_sample))
    return out


def scalar_consistency(target_vecs, sample_graphs):
    """The per-pair definition: clamp0(cosine_sim), max per graph, mean_score."""
    return [
        mean_score(
            [max((clamp0(cosine_sim(a, b)) for b in graph), default=0.0) for graph in sample_graphs]
        )
        for a in target_vecs
    ]


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

    def test_bit_identical_to_scalar_path_on_hash_vectors(self):
        embedder = HashEmbedder(dim=384)
        target_texts = [f"Person {i} born in City {i % 3}" for i in range(4)]
        graph_texts = [
            [f"Person {j} born in City {(i + j) % 3}" for j in range(i % 4)] for i in range(7)
        ]
        got = graph_consistency_scores(
            embedder.embed_many(target_texts),
            [embedder.embed_many(texts) for texts in graph_texts],
        )
        want = scalar_consistency(
            [embedder.embed(t) for t in target_texts],
            [[embedder.embed(s) for s in texts] for texts in graph_texts],
        )
        assert got == want

    def test_bit_identical_to_scalar_path_with_negative_similarities(self):
        rng = np.random.default_rng(12)
        negatives = 0
        for _ in range(200):
            dim = int(rng.choice([2, 3, 7, 64]))
            targets = random_vectors(rng, rng.integers(0, 5), dim)
            graphs = [
                random_vectors(rng, rng.integers(0, 6), dim) for _ in range(rng.integers(1, 5))
            ]
            negatives += sum(int((targets @ g.T < 0).sum()) for g in graphs)
            want = scalar_consistency(targets, graphs)
            assert graph_consistency_scores(targets, graphs) == want
        assert negatives > 1000

    def test_empty_sample_graph_contributes_zero(self):
        target = random_vectors(np.random.default_rng(1), 1)
        scores = graph_consistency_scores(target, [np.empty((0, 6)), target])
        assert scores == [0.5]

    def test_no_sample_graphs_rejected(self):
        target = random_vectors(np.random.default_rng(1), 1)
        with pytest.raises(ConfigError):
            graph_consistency_scores(target, [])

    def test_zero_vector_rejected(self):
        target = random_vectors(np.random.default_rng(1), 2)
        with pytest.raises(ZeroVector):
            graph_consistency_scores(target, [np.zeros((1, 6))])
        with pytest.raises(ZeroVector):
            graph_consistency_scores(np.zeros((1, 6)), [target])

    def test_dimension_mismatch_rejected(self):
        target = random_vectors(np.random.default_rng(1), 2)
        with pytest.raises(DimensionMismatch):
            graph_consistency_scores(target, [random_vectors(np.random.default_rng(2), 1, 5)])


def per_graph_loop(targets, sample_graphs):
    """Oracle: the similarity kernel as it ran before the sample side was
    shared, with each graph's norms taken inside the loop and plain selfcheck
    run as n one-row graphs."""
    target_norms = np.sqrt(np.vecdot(targets, targets))
    best = np.zeros((len(sample_graphs), len(targets)))
    for g, graph in enumerate(sample_graphs):
        if len(graph) == 0 or len(targets) == 0:
            continue
        if graph.shape[1] != targets.shape[1]:
            raise DimensionMismatch("vector lengths differ")
        norms = np.sqrt(np.vecdot(graph, graph))
        if not (target_norms.all() and norms.all()):
            raise ZeroVector("cosine similarity with a zero vector")
        sims = np.vecdot(targets[:, None, :], graph[None, :, :]) / (
            target_norms[:, None] * norms[None, :]
        )
        sims = np.clip(sims, -1.0, 1.0)
        best[g] = np.where(sims > 0.0, sims, 0.0).max(axis=1)
    return [mean_score(column) for column in best.T.tolist()]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the similarity error it raised."""
    try:
        return fn(*args)
    except (ZeroVector, DimensionMismatch) as exc:
        return type(exc)


@st.composite
def sample_sides(draw):
    """Targets and sample graphs with, now and then, a zero row or a graph of
    another width. Small integer components give exact ties and negative
    similarities."""
    dim = draw(st.sampled_from([1, 2, 64, 385]))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = lambda k, d: rng.integers(-2, 3, (k, d)).astype(np.float64)
    else:
        values = lambda k, d: rng.standard_normal((k, d))
    targets = values(draw(st.integers(0, 5)), dim)
    graphs = [values(k, dim) for k in sizes]
    rows = values(len(sizes), dim)
    fault = draw(st.sampled_from([None, None, "zero-target", "zero-sample", "width"]))
    g = draw(st.integers(0, len(sizes) - 1))
    if fault == "zero-target" and len(targets):
        targets[0] = 0.0
    elif fault == "zero-sample":
        rows[g] = 0.0
        if len(graphs[g]):
            graphs[g][-1] = 0.0
    elif fault == "width":
        graphs[g] = values(sizes[g], dim + 1)
        rows = values(len(sizes), dim + 1)
    return targets, graphs, rows


class TestSharedSampleSide:
    """The sample side built once per paragraph scores exactly as the
    per-graph loop did."""

    @settings(max_examples=200, deadline=None)
    @given(sample_sides())
    def test_equals_the_per_graph_loop(self, side):
        targets, graphs, rows = side
        norms = [np.sqrt(np.vecdot(g, g)) for g in graphs]
        want = outcome(per_graph_loop, targets, graphs)
        assert outcome(graph_consistency_scores, targets, graphs, norms) == want
        assert outcome(graph_consistency_scores, targets, graphs) == want
        row_norms = np.sqrt(np.vecdot(rows, rows))
        one_row_graphs = [rows[i : i + 1] for i in range(len(rows))]
        for target in targets:
            want = outcome(per_graph_loop, target[None, :], one_row_graphs)
            got = outcome(detect_module._sentence_consistency, target, rows, row_norms)
            assert got == (want if isinstance(want, type) else want[0])


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
    def build(self):
        embedder = HashEmbedder(dim=32)
        ctx, backend = make_ctx(SELFCHECK_KG_SCRIPT, embedder=embedder)
        text = "Alan Turing was born in London and studied there."
        samples = [
            "Turing was born in London.",
            "Turing lived in Cambridge for a while.",
            "No facts at all.",
        ]
        return ctx, backend, text, samples

    def test_score_matches_componentwise_computation(self):
        ctx, _, text, samples = self.build()
        record = detect(ctx, DetectorMethod.SELFCHECK, text, use_kg=True, samples=samples)
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
        ctx, _, text, samples = self.build()
        serial_record = detect(ctx, DetectorMethod.SELFCHECK, text, use_kg=True, samples=samples)
        # Four threads score the same output on one fresh context at once.
        ctx, _, text, samples = self.build()
        with ThreadPoolExecutor(4) as pool:
            records = list(
                pool.map(
                    lambda _: detect(
                        ctx, DetectorMethod.SELFCHECK, text, use_kg=True, samples=samples
                    ),
                    range(4),
                )
            )
        for record in records:
            assert record.score == serial_record.score
            assert record.triple_scores == serial_record.triple_scores

    def test_sample_order_invariant(self):
        ctx, _, text, samples = self.build()
        forward = detect(ctx, DetectorMethod.SELFCHECK, text, use_kg=True, samples=samples)
        ctx2, _, text2, _ = self.build()
        backward = detect(
            ctx2, DetectorMethod.SELFCHECK, text2, use_kg=True, samples=list(reversed(samples))
        )
        assert forward.score == backward.score


class TestSampleSideOncePerParagraph:
    TEXTS = [
        "Alan Turing was born in London and studied there.",
        "Turing lived in Cambridge for a while.",
        "He broke codes during the war.",
    ]
    SAMPLES = [
        "Turing was born in London.",
        "Turing lived in Cambridge for a while.",
        "No facts at all.",
    ]

    def score_paragraph(self, ctx, use_kg, pool=None):
        def one(text):
            return detect(ctx, DetectorMethod.SELFCHECK, text, use_kg=use_kg, samples=self.SAMPLES)

        if pool is None:
            return [one(t) for t in self.TEXTS]
        return list(pool.map(one, self.TEXTS))

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_samples_are_extracted_once_per_paragraph(self, monkeypatch, parallelism):
        extracted = []
        extract = KGExtractor.extract

        def counting(self, text, context=None):
            extracted.append(text)
            return extract(self, text, context)

        monkeypatch.setattr(KGExtractor, "extract", counting)
        with ThreadPoolExecutor(parallelism) as units:
            ctx, _ = make_ctx(SELFCHECK_KG_SCRIPT, embedder=HashEmbedder(dim=32))
            records = self.score_paragraph(ctx, True, units if parallelism > 1 else None)
        # One call for each record's own graph, and one per sample, not one
        # per sample and record. (The second text is also a sample.)
        assert len(extracted) == len(self.TEXTS) + len(self.SAMPLES)
        assert sorted(set(extracted)) == sorted(set(self.TEXTS) | set(self.SAMPLES))
        # Each record scores as it does on a context of its own.
        alone = [
            detect(
                make_ctx(SELFCHECK_KG_SCRIPT, embedder=HashEmbedder(dim=32))[0],
                DetectorMethod.SELFCHECK, text, use_kg=True, samples=self.SAMPLES,
            )
            for text in self.TEXTS
        ]
        assert records == alone

    def test_kg_side_holds_the_embedders_matrices(self, monkeypatch):
        seen = []
        consistency = detect_module.graph_consistency_scores

        def spy(targets, graphs, norms=None):
            seen.append(graphs)
            return consistency(targets, graphs, norms)

        monkeypatch.setattr(detect_module, "graph_consistency_scores", spy)
        embedder = HashEmbedder(dim=32)
        ctx, _ = make_ctx(SELFCHECK_KG_SCRIPT, embedder=embedder)
        self.score_paragraph(ctx, True)
        assert len(seen) == len(self.TEXTS)
        assert all(graphs is seen[0] for graphs in seen)
        for graph, sample in zip(seen[0], self.SAMPLES):
            texts = [triple_text(t) for t in ctx.extractor.extract(sample).triples]
            assert graph is embedder.embed_many(texts)

    def test_sentence_side_holds_the_embedders_matrix(self, monkeypatch):
        seen = []
        consistency = detect_module._sentence_consistency

        def spy(target, rows, norms):
            seen.append(rows)
            return consistency(target, rows, norms)

        monkeypatch.setattr(detect_module, "_sentence_consistency", spy)
        embedder = HashEmbedder(dim=32)
        records = self.score_paragraph(DetectorContext(embedder=embedder), False)
        assert len(seen) == len(self.TEXTS)
        assert all(rows is embedder.embed_many(self.SAMPLES) for rows in seen)
        for text, record in zip(self.TEXTS, records):
            target = embedder.embed(text)
            expected = mean_score(
                [clamp0(cosine_sim(target, embedder.embed(s))) for s in self.SAMPLES]
            )
            assert record.score == expected

    def test_concurrent_first_calls_share_one_extractor(self, run_together, monkeypatch):
        built = []

        class CountingExtractor(KGExtractor):
            def __init__(self, client, model_id):
                built.append(self)
                super().__init__(client, model_id)

        monkeypatch.setattr(detect_module, "KGExtractor", CountingExtractor)
        ctx, _ = make_ctx()
        extractors = run_together(ctx.require_extractor, 8)
        assert len(built) == 1
        assert all(e is ctx.extractor for e in extractors)


class TestRunDetector:
    def test_dispatch_matrix(self):
        for method, use_kg in [
            (DetectorMethod.SELF_QUESTIONING, False),
            (DetectorMethod.SELF_QUESTIONING, True),
            (DetectorMethod.SELF_CONFIDENCE, False),
            (DetectorMethod.SELF_CONFIDENCE, True),
            (DetectorMethod.SELFCHECK, False),
            (DetectorMethod.SELFCHECK, True),
        ]:
            ctx, _ = make_ctx(QA_SCRIPT, embedder=HashEmbedder(dim=8))
            config = DetectorConfig(method=method, use_kg=use_kg, n_samples=1)
            record = run_detector(
                config, GeneratedOutput("p", "A sentence with two facts."), ctx, samples=["s"]
            )
            assert record.method is method
            assert record.kg_used is use_kg
            assert (record.triple_scores is not None) is use_kg
            assert record.elapsed_s is not None

    def test_selfcheck_dispatch_uses_first_n_samples(self):
        samples = ["s one", "s two", "s three ignored"]
        out = GeneratedOutput("p", "Output text.")
        for use_kg in (False, True):
            embedder = HashEmbedder(dim=32)
            ctx, backend = make_ctx(SELFCHECK_KG_SCRIPT, embedder=embedder)
            config = DetectorConfig(method=DetectorMethod.SELFCHECK, use_kg=use_kg, n_samples=2)
            record = run_detector(config, out, ctx, samples=samples)
            first_two = detect(
                make_ctx(SELFCHECK_KG_SCRIPT, embedder=embedder)[0],
                DetectorMethod.SELFCHECK, out.text, use_kg=use_kg, samples=samples[:2],
            )
            assert record == first_two
            # One extraction for the output and one for each chosen sample.
            assert backend.calls == (3 if use_kg else 0)
        target = embedder.embed(out.text)
        expected = mean_score(
            [clamp0(cosine_sim(target, embedder.embed(s))) for s in samples[:2]]
        )
        ctx = DetectorContext(embedder=embedder)
        config = DetectorConfig(method=DetectorMethod.SELFCHECK, n_samples=2)
        assert run_detector(config, out, ctx, samples=samples).score == expected

    def test_selfcheck_without_samples(self):
        for use_kg in (False, True):
            for samples in (None, []):
                ctx, backend = make_ctx(QA_SCRIPT, embedder=HashEmbedder(dim=8))
                config = DetectorConfig(method=DetectorMethod.SELFCHECK, use_kg=use_kg, n_samples=2)
                with pytest.raises(ConfigError):
                    run_detector(config, GeneratedOutput("p", "t"), ctx, samples=samples)
                assert backend.calls == 0

    def test_selfcheck_with_too_few_samples(self):
        for use_kg in (False, True):
            ctx, backend = make_ctx(QA_SCRIPT, embedder=HashEmbedder(dim=8))
            config = DetectorConfig(method=DetectorMethod.SELFCHECK, use_kg=use_kg, n_samples=5)
            with pytest.raises(ConfigError):
                run_detector(config, GeneratedOutput("p", "t"), ctx, samples=["a", "b"])
            assert backend.calls == 0

    def test_provider_failure_wrapped_with_method_name(self):
        for use_kg in (False, True):
            ctx, _ = make_ctx(fail_calls={1, 2, 3})
            config = DetectorConfig(method=DetectorMethod.SELF_CONFIDENCE, use_kg=use_kg)
            name = "self_confidence+kg failed" if use_kg else "self_confidence failed"
            with pytest.raises(DetectorProviderError, match=re.escape(name)):
                run_detector(config, GeneratedOutput("p", "t"), ctx)

    def test_refusal_is_a_provider_error_at_sentence_level_and_a_miss_per_triple(self):
        script = {
            "rules": [
                {
                    "match": ["knowledge-graph triples"],
                    "reply": '[["France", "capital", "Paris"], ["mystery", "is", "thing"]]',
                },
                {"match": ["Confidence score:", "Paris"], "reply": "0.8"},
                {"match": ["Agreement score:", "Paris"], "reply": "0.9"},
                {"match": ["Write one question"], "reply": "Is it?"},
                {"match": ["your own knowledge"], "reply": "Yes."},
            ],
            "default": "",
        }
        for method in (DetectorMethod.SELF_QUESTIONING, DetectorMethod.SELF_CONFIDENCE):
            ctx, _ = make_ctx(script)
            with pytest.raises(DetectorProviderError, match=method.value):
                detect(ctx, method, "The mystery is a thing.")
            record = detect(ctx, method, "France has Paris and a mystery.", use_kg=True)
            assert record.misses == 1
            assert len(record.triple_scores) == 1

    def test_context_prompts_set_the_version(self):
        prompts = replace(DetectorPrompts.default(), version="pinned-v9")
        for use_kg in (False, True):
            ctx, _ = make_ctx(QA_SCRIPT)
            ctx.prompts = prompts
            config = DetectorConfig(method=DetectorMethod.SELF_CONFIDENCE, use_kg=use_kg)
            record = run_detector(config, GeneratedOutput("p", "Paris."), ctx)
            assert record.prompt_version == "pinned-v9"
