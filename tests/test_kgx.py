import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallucheck.core import KnowledgeGraph, Triple
from hallucheck.kgx import (
    ExtractionPromptTemplate,
    KGExtractor,
    kg_from_record,
    kg_to_record,
    parse_triples,
    prompt_version,
    serialize_kg,
)
from hallucheck.provider import ChatClient, MockChatBackend, MockRule

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
