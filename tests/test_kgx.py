import hashlib
import json
import time
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hallucheck
from hallucheck.core import KnowledgeGraph, Triple, encodable
from hallucheck.detect import DetectorPrompts
from hallucheck.kgx import (
    ExtractionPromptTemplate,
    KGExtractor,
    ParseResult,
    kg_to_record,
    parse_triples,
    prompt_version,
)
from hallucheck.provider import ChatClient, MockChatBackend, MockRule


def serialize_kg(kg):
    """Round-trip oracle: the graph's triples as a JSON array of
    [subject, relation, object] rows, which ``parse_triples`` reads back."""
    return json.dumps([[t.subject, t.relation, t.obj] for t in kg.triples], ensure_ascii=False)


def kg_from_record(record):
    """Round-trip oracle: the graph a ``kg_to_record`` row holds."""
    return KnowledgeGraph(
        triples=tuple(Triple(s, r, o) for s, r, o in record["triples"]),
        source_text=record["source_text"],
        degenerate=bool(record["degenerate"]),
    )


# Field text that survives Triple's strip() and stays printable.
field_text = (
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        min_size=1,
        max_size=25,
    )
    .map(str.strip)
    .filter(lambda s: s)
)


def triples_strategy(max_size=6):
    return st.lists(
        st.builds(Triple, field_text, field_text, field_text),
        min_size=0,
        max_size=max_size,
    )


def client_replying(reply: str) -> ChatClient:
    return ChatClient(MockChatBackend(default_reply=reply))


class TestTemplate:
    def test_render_fills_passage(self):
        rendered = ExtractionPromptTemplate.default().render("Alan Turing was born in London.")
        assert "Alan Turing was born in London." in rendered
        assert "{{PASSAGE}}" not in rendered
        assert "{{CONTEXT}}" not in rendered

    def test_context_block_only_when_given(self):
        template = ExtractionPromptTemplate.default()
        without = template.render("p")
        with_ctx = template.render("p", context="Alan Turing")
        assert "Alan Turing" not in without
        assert "Alan Turing" in with_ctx

    def test_format_instructions_appended(self):
        rendered = ExtractionPromptTemplate.default().render("p")
        assert "JSON array" in rendered

    def test_template_without_passage_slot_rejected(self):
        bad = ExtractionPromptTemplate(template_text="no slot here", output_format_instructions="x")
        with pytest.raises(ValueError):
            bad.render("p")

    def test_a_context_holding_the_passage_slot_keeps_it(self):
        rendered = ExtractionPromptTemplate.default().render("Real passage.", "See {{PASSAGE}}")
        assert "\nSee {{PASSAGE}}\n" in rendered and rendered.count("Real passage.") == 1

    def test_a_blank_line_run_in_the_passage_reaches_the_model(self):
        passage = "First line.\n\n\n\nSecond line."
        assert f"\nPassage: {passage}\n" in ExtractionPromptTemplate.default().render(passage)

    def test_a_statement_holding_the_answer_slot_keeps_it(self):
        prompt = DetectorPrompts.default().render_consistency("It says {{ANSWER}}.", "Yes.")
        assert "\nStatement: It says {{ANSWER}}.\nAnswer: Yes.\n" in prompt


def chained_render(template, passage, context=None):
    """The extraction renderer that filled slots by chained replacement and
    collapsed blank-line runs across the filled text, kept as the oracle."""
    context_block = f"Context (for reference only):\n{context}" if context else ""
    body = template.template_text.replace("{{CONTEXT}}", context_block)
    body = body.replace("{{PASSAGE}}", passage)
    while "\n\n\n" in body:
        body = body.replace("\n\n\n", "\n\n")
    return body.strip() + "\n\n" + template.output_format_instructions.strip()


def chained_detector_renders(prompts, a, b):
    """The detector renderers that used chained replacement, kept as the oracle."""
    return [
        prompts.question_generation.replace("{{STATEMENT}}", a),
        prompts.question_answering.replace("{{QUESTION}}", a),
        prompts.consistency.replace("{{STATEMENT}}", a).replace("{{ANSWER}}", b),
        prompts.confidence.replace("{{STATEMENT}}", a),
    ]


# Slot values on which both renderers agree: no slot marker and no blank-line
# run, even with a template blank line beside the value (no newline at an end).
slot_value = st.text(max_size=30).filter(
    lambda v: "{{" not in v and "\n\n\n" not in v and not v.startswith("\n")
    and not v.endswith("\n")
)


class TestOnePassFill:
    @given(slot_value, st.none() | slot_value)
    def test_extraction_render_matches_chained_replacement(self, passage, context):
        template = ExtractionPromptTemplate.default()
        assert template.render(passage, context) == chained_render(template, passage, context)

    @given(slot_value, slot_value)
    def test_detector_renders_match_chained_replacement(self, a, b):
        prompts = DetectorPrompts.default()
        renders = [
            prompts.render_question(a),
            prompts.render_answer(a),
            prompts.render_consistency(a, b),
            prompts.render_confidence(a),
        ]
        assert renders == chained_detector_renders(prompts, a, b)


class TestParseTriples:
    def test_json_array(self):
        result = parse_triples('[["a", "b", "c"], ["d", "e", "f"]]')
        assert result.triples == (Triple("a", "b", "c"), Triple("d", "e", "f"))
        assert result.losses == 0

    def test_json_with_prose_wrapper(self):
        reply = 'Here are the facts:\n[["a", "r", "b"]]\nDone.'
        assert parse_triples(reply).triples == (Triple("a", "r", "b"),)

    def test_numeric_elements_coerced(self):
        result = parse_triples('[["event", "year", 1954]]')
        assert result.triples == (Triple("event", "year", "1954"),)

    def test_wrong_shapes_become_losses(self):
        result = parse_triples('[["a", "r", "b"], ["two", "only"], "flat", ["x", "", "z"]]')
        assert result.triples == (Triple("a", "r", "b"),)
        assert result.losses == 3

    def test_json_boolean_field_is_a_loss(self):
        result = parse_triples('[[true, "is", "x"], ["a", "b", "c"]]')
        assert result == ParseResult(triples=(Triple("a", "b", "c"),), losses=1)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_lone_surrogate_escape_becomes_a_loss(self, field):
        # The reply is ASCII; only the decoded JSON holds the lone surrogate.
        parts = ['"a"', '"r"', '"b"']
        parts[field] = '"x\\udfffy"'
        reply = f'[["c", "s", "d"], [{", ".join(parts)}], ["d", "\\ud83d\\ude00", "e"]]'
        result = parse_triples(reply)
        assert result.triples == (Triple("c", "s", "d"), Triple("d", "\U0001f600", "e"))
        assert result.losses == 1

    def test_empty_array(self):
        result = parse_triples("[]")
        assert result.triples == ()
        assert result.losses == 0

    def test_line_fallback(self):
        reply = "a | r | b\njunk line\nc|s|d\n"
        result = parse_triples(reply)
        assert result.triples == (Triple("a", "r", "b"), Triple("c", "s", "d"))
        assert result.losses == 1

    def test_total_on_garbage(self):
        result = parse_triples("no structure at all")
        assert result.triples == ()
        assert result.losses == 1

    def test_duplicates_kept_for_caller(self):
        result = parse_triples('[["a", "r", "b"], ["A", "R", "B"]]')
        assert len(result.triples) == 2

    @pytest.mark.parametrize(
        "reply", ["[" + "1" * 5000 + "]", "[" * 100_000 + "]"], ids=["digits", "nesting"]
    )
    def test_reply_past_the_json_limits_falls_back_to_lines(self, reply):
        assert parse_triples(reply) == ParseResult(triples=(), losses=1)

    @given(
        st.text()
        | st.recursive(
            st.text(max_size=6) | st.integers() | st.floats(),
            lambda children: st.lists(children, max_size=4),
            max_leaves=12,
        ).map(json.dumps)
    )
    def test_never_raises(self, reply):
        result = parse_triples(reply)
        assert result.losses >= 0
        assert all(isinstance(t, Triple) for t in result.triples)


# A field of either reply form: blank, padded, numeric, holding a lone
# surrogate, or text with no "|", line break or bracket.
reply_field = (
    st.text(alphabet=st.characters(blacklist_characters="|[]"), max_size=8).filter(
        lambda f: f.splitlines() in ([], [f])
    )
    | st.sampled_from(["", "  ", " padded ", "\ud800", "x\udfffy"])
    | st.integers(-(10**9), 10**9)
    | st.floats()
)


class TestReplyForms:
    @given(st.lists(st.lists(reply_field, min_size=2, max_size=4), max_size=5))
    def test_json_and_line_forms_parse_alike(self, items):
        as_json = parse_triples(json.dumps(items))
        as_lines = parse_triples("\n".join(" | ".join(map(str, item)) for item in items))
        assert list(map(astuple, as_json.triples)) == list(map(astuple, as_lines.triples))
        assert as_json.losses == as_lines.losses
        assert all(encodable(f) for t in as_json.triples for f in astuple(t))


class TestExtractor:
    def test_extracts_graph(self):
        client = client_replying('[["Alan Turing", "born in", "London"]]')
        kg = KGExtractor(client, "m").extract("Alan Turing was born in London.")
        assert kg.triples == (Triple("Alan Turing", "born in", "London"),)
        assert not kg.degenerate

    def test_empty_reply_gives_degenerate_graph(self):
        kg = KGExtractor(client_replying("[]"), "m").extract("Nothing factual here!")
        assert kg.degenerate
        assert kg.triples[0].obj == "Nothing factual here!"

    def test_deduplicates(self):
        client = client_replying('[["a", "r", "b"], ["A", "r", "b"]]')
        kg = KGExtractor(client, "m").extract("text")
        assert len(kg) == 1

    def test_memoizes_per_text_and_context(self):
        backend = MockChatBackend(default_reply='[["a", "r", "b"]]')
        extractor = KGExtractor(ChatClient(backend), "m")
        first = extractor.extract("same text")
        again = extractor.extract("same text")
        assert first is again
        assert backend.calls == 1
        extractor.extract("same text", context="other context")
        assert backend.calls == 2

    def test_concurrent_extractions_of_one_text_make_one_call(self, run_together):
        class SlowBackend(MockChatBackend):
            def complete_once(self, request):
                time.sleep(0.2)
                return super().complete_once(request)

        backend = SlowBackend(default_reply='[["a", "r", "b"], ["bad"]]')
        extractor = KGExtractor(ChatClient(backend), "m")
        graphs = run_together(lambda: extractor.extract("same text", "ctx"), 8)
        assert backend.calls == 1
        assert all(kg is graphs[0] for kg in graphs)
        assert extractor.parse_losses == 1

    def test_parse_losses_accumulate(self):
        extractor = KGExtractor(client_replying('[["a", "r", "b"], ["bad"]]'), "m")
        extractor.extract("one")
        extractor.extract("two")
        assert extractor.parse_losses == 2

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            KGExtractor(client_replying("[]"), "m").extract("   ")

    def test_context_reaches_prompt(self):
        backend = MockChatBackend(
            rules=[MockRule(match=("the subject name",), replies=('[["s", "r", "o"]]',))],
            default_reply="[]",
        )
        extractor = KGExtractor(ChatClient(backend), "m")
        kg = extractor.extract("a sentence", context="the subject name")
        assert not kg.degenerate


class TestSerialization:
    def test_serialize_then_parse_identity(self):
        kg = KnowledgeGraph.build(
            [Triple("Alan Turing", "born in", "London"), Triple("x", "y", "z")], "src"
        )
        reparsed = parse_triples(serialize_kg(kg))
        assert reparsed.triples == kg.triples
        assert reparsed.losses == 0

    def test_record_roundtrip_preserves_everything(self):
        kg = KnowledgeGraph.build([Triple("a", "r", "b")], "source sentence")
        back = kg_from_record(json.loads(json.dumps(kg_to_record(kg))))
        assert back == kg

    def test_degenerate_roundtrip(self):
        kg = KnowledgeGraph.build([], "the sentence")
        back = kg_from_record(kg_to_record(kg))
        assert back.degenerate
        assert back == kg

    @given(triples_strategy())
    def test_roundtrip_property(self, triples):
        kg = KnowledgeGraph.build(triples, "src")
        assert kg_from_record(kg_to_record(kg)) == kg
        reparsed = parse_triples(serialize_kg(kg))
        assert reparsed.triples == kg.triples


def test_prompt_version_nonempty():
    version = prompt_version()
    assert version
    assert version == version.strip()


# The sha256 of every file under ``prompts/``, per prompt version. Scores,
# reports and cache keys carry the version, so a prompt edit must bump
# ``prompts/VERSION`` and add its digests here.
PROMPT_DIGESTS = {
    "v1": {
        "VERSION": "2d27fbdf4e8ca207afbfa388ca9172fbcc6c70e534af2476b3b704f87debadcf",
        "__init__.py": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "confidence.txt": "0419039b6d8e79428f2c0f85586a4e1c0c8ebe1eb513ddb26bca0b2d9d5feba5",
        "consistency.txt": "7c4e1f2fa7f177dea284601db13416c38d1cad8fe6df11790f41909c081ba178",
        "kg_extraction.txt": "74c189821d906fc0b340f31a96e619caca2473eefda41f823387b1bab4c67cdc",
        "kg_reply_format.txt": "2ba04eacbe3aeb054b3f24dd4862fb92c38f0f09f6f28707a197c55e931367bc",
        "question_answering.txt": "16eb5cf64d177540306b6189a1350454d3ec34d63ba46c2b778966e61d6df386",
        "question_generation.txt": "90c2cdc946a1f38533a8371437eba629b04e00faddec2b8e19811d8ff5187893",
        "sample_generation.txt": "ddbb68d640d0754ac6f822af10899642915c9f61e0204d7441410e3121d66f78",
    },
}


def test_prompt_files_match_the_digests_pinned_for_their_version():
    prompts = Path(hallucheck.__file__).parent / "prompts"
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in prompts.iterdir()
        if path.is_file()
    }
    assert digests == PROMPT_DIGESTS.get(prompt_version())
