import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallucheck.core import (
    DEGENERATE_RELATION,
    DEGENERATE_SUBJECT,
    GeneratedOutput,
    KnowledgeGraph,
    Label,
    DetectorMethod,
    OnceMemo,
    ScoreRecord,
    Triple,
    dedupe_triples,
    make_output_ref,
    mean_score,
    normalize_text,
)

text_like = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=60
)


class TestNormalizeText:
    def test_collapses_whitespace_and_case(self):
        assert normalize_text("  Alan\t TURING \n") == "alan turing"

    def test_empty(self):
        assert normalize_text("") == ""
        assert normalize_text("   \t\n") == ""

    @given(text_like)
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    @given(text_like)
    def test_casefold_insensitive(self, raw):
        assert normalize_text(raw.upper()) == normalize_text(raw.lower())


class TestTriple:
    def test_strips_fields(self):
        t = Triple("  Alan Turing ", " born in ", " London ")
        assert t.subject == "Alan Turing"
        assert t.relation == "born in"
        assert t.obj == "London"

    @pytest.mark.parametrize("bad", [("", "r", "o"), ("s", "  ", "o"), ("s", "r", "\n")])
    def test_empty_field_rejected(self, bad):
        with pytest.raises(ValueError):
            Triple(*bad)

    def test_equality_is_normalized(self):
        assert Triple("Alan  Turing", "born in", "London") == Triple(
            "alan turing", "Born In", "london"
        )
        assert hash(Triple("A", "r", "B")) == hash(Triple("a", "R", "b"))

    def test_inequality(self):
        assert Triple("a", "r", "b") != Triple("a", "r", "c")
        assert Triple("a", "r", "b") != "not a triple"

    def test_dedupe_keeps_first_occurrence(self):
        first = Triple("Alan Turing", "born in", "London")
        triples = [first, Triple("x", "y", "z"), Triple("ALAN TURING", "BORN IN", "LONDON")]
        kept = dedupe_triples(triples)
        assert kept == (first, Triple("x", "y", "z"))
        assert kept[0].subject == "Alan Turing"


class TestKnowledgeGraph:
    def test_build_dedupes(self):
        kg = KnowledgeGraph.build(
            [Triple("a", "r", "b"), Triple("A", "R", "B"), Triple("c", "r", "d")],
            source_text="text",
        )
        assert len(kg) == 2
        assert not kg.degenerate

    def test_build_empty_falls_back_to_degenerate(self):
        kg = KnowledgeGraph.build([], source_text="The sky is green.")
        assert kg.degenerate
        assert len(kg) == 1
        t = kg.triples[0]
        assert (t.subject, t.relation, t.obj) == (
            DEGENERATE_SUBJECT,
            DEGENERATE_RELATION,
            "The sky is green.",
        )

    def test_duplicate_triples_rejected_on_direct_construction(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(
                triples=(Triple("a", "r", "b"), Triple("A", "r", "b")), source_text="t"
            )

    def test_degenerate_shape_enforced(self):
        with pytest.raises(ValueError):
            KnowledgeGraph(
                triples=(Triple("a", "r", "b"),), source_text="t", degenerate=True
            )
        with pytest.raises(ValueError):
            KnowledgeGraph(
                triples=(
                    Triple(DEGENERATE_SUBJECT, DEGENERATE_RELATION, "x"),
                    Triple("a", "r", "b"),
                ),
                source_text="t",
                degenerate=True,
            )


class TestGeneratedOutput:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            GeneratedOutput(prompt_id="p", text="   ")

    def test_single_sentence_advisory(self):
        assert GeneratedOutput("p", "One plain sentence.").is_single_sentence
        assert not GeneratedOutput("p", "First. Second.").is_single_sentence


def test_make_output_ref():
    assert make_output_ref("p01", 3) == "p01:3"
    assert make_output_ref("p01") == "p01"


class TestMeanScore:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_score([])

    def test_simple(self):
        assert mean_score([0.2, 0.8]) == 0.5

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30), st.integers())
    def test_permutation_exact(self, values, seed):
        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        assert mean_score(shuffled) == mean_score(values)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30))
    def test_matches_fsum(self, values):
        assert mean_score(values) == math.fsum(values) / len(values)


class TestScoreRecord:
    def _record(self, **kwargs):
        defaults = dict(
            output_ref="p:0",
            method=DetectorMethod.SELF_CONFIDENCE,
            score=0.5,
            kg_used=False,
        )
        defaults.update(kwargs)
        return ScoreRecord(**defaults)

    def test_score_bounds(self):
        with pytest.raises(ValueError):
            self._record(score=1.5)
        with pytest.raises(ValueError):
            self._record(score=-0.1)

    def test_triple_scores_must_average_to_score(self):
        triples = ((Triple("a", "r", "b"), 0.2), (Triple("c", "r", "d"), 0.8))
        record = self._record(score=0.5, triple_scores=triples, kg_used=True)
        assert record.score == 0.5
        with pytest.raises(ValueError):
            self._record(score=0.6, triple_scores=triples, kg_used=True)

    def test_triple_score_bounds(self):
        with pytest.raises(ValueError):
            self._record(score=1.0, triple_scores=((Triple("a", "r", "b"), 1.2),))

    def test_elapsed_not_part_of_equality(self):
        a = self._record(elapsed_s=1.0)
        b = self._record(elapsed_s=2.0)
        assert a == b


def test_labels_and_methods_are_strings():
    assert Label("accurate") is Label.ACCURATE
    assert Label.HALLUCINATED.value == "hallucinated"
    assert DetectorMethod("selfcheck") is DetectorMethod.SELFCHECK


class TestOnceMemo:
    def test_computes_once_and_memoizes(self):
        memo = OnceMemo()
        calls = []
        assert memo.get("k", lambda: calls.append(1) or "v") == "v"
        assert memo.get("k", lambda: calls.append(1) or "other") == "v"
        assert calls == [1]

    def test_a_failure_reaches_every_waiter_and_is_not_memoized(self, run_together):
        memo = OnceMemo()
        calls = []

        def failing():
            calls.append(1)
            time.sleep(0.2)
            raise RuntimeError("boom")

        def call():
            try:
                return memo.get("k", failing)
            except RuntimeError as exc:
                return str(exc)

        assert run_together(call, 8) == ["boom"] * 8
        assert calls == [1]
        assert memo.get("k", lambda: "fresh") == "fresh"
