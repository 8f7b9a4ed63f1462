import dataclasses
import json
import re

import pytest
from hypothesis import given, strategies as st

from hallucheck.cli import load_config
from hallucheck.core import DetectorMethod, Label, ScoreRecord, Triple
from hallucheck.data import (
    DatasetStats,
    JudgeParseError,
    NotFound,
    SampleStore,
    SchemaError,
    SimpleQARecord,
    StoreConflict,
    WikiBioRecord,
    compute_stats,
    grade_simpleqa,
    load_simpleqa,
    load_wikibio,
    parse_judge_verdict,
    read_score_records,
    save_simpleqa,
    score_record_from_dict,
    score_record_to_dict,
    word_count,
    write_score_records,
)
from hallucheck.evaluation import DegenerateLabels
from hallucheck.provider import ChatClient, ConfigError, MockChatBackend

from conftest import FIXTURES, PinnedEmbedder

H = Label.HALLUCINATED
A = Label.ACCURATE

# Lines that json rejects with a ValueError or RecursionError, not a
# JSONDecodeError: an integer past the digit limit and nesting past the
# recursion limit.
PAST_JSON_LIMITS = ["[" + "1" * 5000 + "]", "[" * 100_000]


class TestWordCount:
    def test_basic(self):
        assert word_count("a b  c") == 3
        assert word_count("") == 0
        assert word_count("   ") == 0
        assert word_count("one.") == 1

    @given(st.text(max_size=200))
    def test_agrees_with_split(self, text):
        assert word_count(text) == len(text.split())


def wikibio(pid="p1", idx=0, sentence="She was born in 1901.", label=A, samples=("s1", "s2")):
    return WikiBioRecord(
        paragraph_id=pid,
        concept="Person",
        sentence_index=idx,
        sentence=sentence,
        label=label,
        samples=samples,
    )


class TestWikiBioRecord:
    def test_valid(self):
        r = wikibio()
        assert r.label is A
        assert r.samples == ("s1", "s2")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pid": ""},
            {"idx": -1},
            {"sentence": "   "},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            wikibio(**kwargs)

    def test_label_coerced_from_string(self):
        assert wikibio(label="hallucinated").label is H


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def valid_row(**overrides):
    row = {
        "paragraph_id": "p1",
        "concept": "Person",
        "sentence_index": 0,
        "sentence": "Born in 1901.",
        "label": "accurate",
        "samples": ["sample one", "sample two", "sample three"],
    }
    row.update(overrides)
    return row


class TestWikiBioIO:
    def test_load_valid(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(), valid_row(sentence_index=1, label="hallucinated")])
        records = load_wikibio(path, expected_samples=3)
        assert len(records) == 2
        assert records[1].label is H

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.jsonl"
        originals = [wikibio(idx=i, samples=("a", "b", "c")) for i in range(3)]
        write_jsonl(path, [dataclasses.asdict(r) for r in originals])
        assert load_wikibio(path, expected_samples=3) == originals

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="no records"):
            load_wikibio(path)

    def test_missing_field_names_field_and_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = valid_row()
        del row["label"]
        write_jsonl(path, [valid_row(), row])
        with pytest.raises(SchemaError, match=r"d\.jsonl:2: missing key 'label'$"):
            load_wikibio(path, expected_samples=3)

    def test_repeated_ref_names_file_and_both_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [valid_row(), valid_row(paragraph_id="p2"), valid_row(sentence_index=1)]
        write_jsonl(path, [*rows, valid_row(label="hallucinated")])
        repeat = r"d\.jsonl:4: paragraph 'p1' sentence 0 repeats line 1$"
        with pytest.raises(SchemaError, match=repeat):
            load_wikibio(path, expected_samples=3)
        write_jsonl(path, rows)
        assert len(load_wikibio(path, expected_samples=3)) == 3

    def test_wrong_sample_count(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(samples=["only one"])])
        with pytest.raises(SchemaError, match="expected 3 samples, found 1"):
            load_wikibio(path, expected_samples=3)

    def test_any_sample_count_when_unchecked(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(samples=["only one"])])
        assert len(load_wikibio(path, expected_samples=None)) == 1

    def test_non_string_sample(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(samples=["ok", 42, "ok"])])
        message = r"d\.jsonl:1: samples\[1\] must be a string, got int$"
        with pytest.raises(SchemaError, match=message):
            load_wikibio(path, expected_samples=3)

    @pytest.mark.parametrize("blank", ["", "   ", "\n\t"], ids=["empty", "spaces", "newline-tab"])
    def test_blank_sample_names_file_and_line(self, tmp_path, blank):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(), valid_row(samples=["ok", blank, "ok"])])
        message = r"d\.jsonl:2: samples\[1\] must be a non-blank string"
        with pytest.raises(SchemaError, match=message):
            load_wikibio(path, expected_samples=3)

    def test_wrong_field_type(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(sentence_index="0")])
        message = r"d\.jsonl:1: sentence_index must be an integer, got str$"
        with pytest.raises(SchemaError, match=message):
            load_wikibio(path, expected_samples=3)

    def test_bool_is_not_int(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(sentence_index=True)])
        with pytest.raises(SchemaError, match="sentence_index must be an integer, got bool$"):
            load_wikibio(path, expected_samples=3)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(label="maybe")])
        message = r"label must be one of \['accurate', 'hallucinated'\], got 'maybe'$"
        with pytest.raises(SchemaError, match=message):
            load_wikibio(path, expected_samples=3)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("paragraph_id", {"paragraph_id": "p\ud800"}),
            ("concept", {"concept": "Ada \udc00"}),
            ("sentence", {"sentence": "Born \udbff in 1815."}),
            ("samples[1]", {"samples": ["ok", "\ud83d half a pair", "ok"]}),
        ],
    )
    def test_lone_surrogate_names_file_line_and_field(self, tmp_path, field, overrides):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(), valid_row(sentence_index=1, **overrides)])
        message = rf"d\.jsonl:2: {re.escape(field)} must be UTF-8 text, got a lone surrogate$"
        with pytest.raises(SchemaError, match=message):
            load_wikibio(path, expected_samples=3)

    def test_upper_case_surrogate_escape_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(valid_row()).replace("Person", "Person \\uD800") + "\n")
        with pytest.raises(SchemaError, match="lone surrogate"):
            load_wikibio(path, expected_samples=3)

    def test_escaped_surrogate_pair_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(sentence="Smiled \U0001F600 once.")])
        assert "\\ud83d\\ude00" in path.read_text()
        [record] = load_wikibio(path, expected_samples=3)
        assert record.sentence == "Smiled \U0001F600 once."

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"broken\n')
        with pytest.raises(SchemaError, match=r"d\.jsonl:1.*invalid JSON"):
            load_wikibio(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(valid_row()) + "\n\n\n")
        assert len(load_wikibio(path, expected_samples=3)) == 1

    @pytest.mark.parametrize("line", PAST_JSON_LIMITS, ids=["digits", "nesting"])
    def test_line_past_the_json_limits_is_a_schema_error(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(valid_row()) + "\n" + line + "\n")
        with pytest.raises(SchemaError, match=r"d\.jsonl:2: invalid JSON"):
            load_wikibio(path, expected_samples=3)


class TestSimpleQA:
    def test_published_header(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text(
            "metadata,problem,answer\n"
            '"{\'topic\': \'Science\'}",What is the capital of France?,Paris\n'
        )
        records = load_simpleqa(path)
        assert records == [
            SimpleQARecord(question="What is the capital of France?", gold_answer="Paris")
        ]

    def test_extended_roundtrip(self, tmp_path):
        path = tmp_path / "qa.csv"
        originals = [
            SimpleQARecord(question="Q1?", gold_answer="G1"),
            SimpleQARecord(
                question="Q2?",
                gold_answer="G2",
                model_answer="M2",
                label=H,
                judge_verdict="INCORRECT",
            ),
        ]
        save_simpleqa(originals, path)
        assert load_simpleqa(path) == originals

    def test_empty_question(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("question,gold_answer\n,Paris\n")
        with pytest.raises(SchemaError, match="empty question"):
            load_simpleqa(path)

    def test_unrecognized_header(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError, match="unrecognized header"):
            load_simpleqa(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            load_simpleqa(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text("question,gold_answer\n")
        with pytest.raises(SchemaError, match="no records"):
            load_simpleqa(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_text(
            "question,gold_answer,model_answer,label,judge_verdict\n"
            "Q?,G,M,likely,\n"
        )
        with pytest.raises(SchemaError, match="bad label"):
            load_simpleqa(path)

    def test_undecodable_file_is_a_schema_error_naming_it(self, tmp_path):
        path = tmp_path / "qa.csv"
        path.write_bytes(b"question,gold_answer\nWhat is \xff?,Paris\n")
        with pytest.raises(SchemaError, match=r"qa\.csv: not UTF-8 text"):
            load_simpleqa(path)

    def test_label_requires_model_answer(self):
        with pytest.raises(ValueError, match="model_answer"):
            SimpleQARecord(question="Q?", gold_answer="G", label=A)


class TestJudgeVerdicts:
    @pytest.mark.parametrize(
        "reply,token,label",
        [
            ("CORRECT", "CORRECT", A),
            ("The verdict is: CORRECT.", "CORRECT", A),
            ("INCORRECT", "INCORRECT", H),
            ("Verdict: INCORRECT, the year is wrong.", "INCORRECT", H),
            ("NOT_ATTEMPTED", "NOT_ATTEMPTED", None),
        ],
    )
    def test_parse(self, reply, token, label):
        assert parse_judge_verdict(reply) == (token, label)

    def test_incorrect_does_not_read_as_correct(self):
        token, label = parse_judge_verdict("INCORRECT")
        assert token == "INCORRECT"
        assert label is H

    def test_word_boundary(self):
        with pytest.raises(JudgeParseError):
            parse_judge_verdict("MISCORRECTED")

    def test_no_token(self):
        with pytest.raises(JudgeParseError):
            parse_judge_verdict("the answer looks fine to me")

    def test_grade_simpleqa(self):
        backend = MockChatBackend.from_script(
            {
                "rules": [
                    {"match": ["Grade the predicted answer", "capital"], "reply": "CORRECT"},
                    {"match": ["Grade the predicted answer", "mountain"], "reply": "Verdict: INCORRECT."},
                    {"match": ["Grade the predicted answer", "quantum"], "reply": "NOT_ATTEMPTED"},
                ],
                "default": "??",
            }
        )
        client = ChatClient(backend)
        graded = [
            grade_simpleqa(
                SimpleQARecord(question=q, gold_answer="g", model_answer="m"),
                client,
                "judge-model",
            )
            for q in (
                "What is the capital of France?",
                "Name the tallest mountain.",
                "Explain quantum tunneling.",
            )
        ]
        assert [g.label for g in graded] == [A, H, None]
        assert [g.judge_verdict for g in graded] == ["CORRECT", "INCORRECT", "NOT_ATTEMPTED"]

    def test_grade_requires_model_answer(self):
        client = ChatClient(MockChatBackend())
        with pytest.raises(ValueError):
            grade_simpleqa(SimpleQARecord(question="Q?", gold_answer="G"), client, "m")


class TestStats:
    def build_records(self):
        p1_samples = ("alpha beta", "gamma delta epsilon")
        return [
            wikibio(pid="p1", idx=0, sentence="one two three", label=H, samples=p1_samples),
            wikibio(pid="p1", idx=1, sentence="four five", label=A, samples=p1_samples),
            wikibio(pid="p2", idx=0, sentence="six seven eight nine", label=A, samples=("zeta",)),
        ]

    def test_hand_computed(self):
        records = self.build_records()
        embedder = PinnedEmbedder(
            {
                "one two three": [1.0, 0.0],
                "four five": [0.0, 1.0],
                "six seven eight nine": [0.0, 1.0],
            }
        )
        stats = compute_stats(records, embedder)
        assert stats.sentence_count == 3
        assert stats.paragraph_count == 2
        assert stats.hallucinated_count == 1
        assert stats.accurate_count == 2
        assert stats.sentences_per_paragraph == pytest.approx(1.5)
        assert stats.avg_sample_length_words == pytest.approx(2.0)
        assert stats.avg_hallucinated_length_words == pytest.approx(3.0)
        assert stats.avg_accurate_length_words == pytest.approx(3.0)
        assert stats.semantic_similarity_h_vs_a == pytest.approx(0.0, abs=1e-12)
        assert stats.similarity_method == "centroid_cosine"

    def test_identical_centroids_give_one(self):
        records = self.build_records()
        embedder = PinnedEmbedder(
            {
                "one two three": [0.6, 0.8],
                "four five": [0.6, 0.8],
                "six seven eight nine": [0.6, 0.8],
            }
        )
        stats = compute_stats(records, embedder)
        assert stats.semantic_similarity_h_vs_a == pytest.approx(1.0, abs=1e-9)

    def test_samples_counted_once_per_paragraph(self):
        records = self.build_records()
        embedder = PinnedEmbedder(
            {
                "one two three": [1.0, 0.0],
                "four five": [1.0, 0.0],
                "six seven eight nine": [1.0, 0.0],
            }
        )
        stats = compute_stats(records, embedder)
        assert stats.avg_sample_length_words == pytest.approx((2 + 3 + 1) / 3)

    def test_single_class_rejected(self):
        records = [wikibio(pid="p1", label=A)]
        with pytest.raises(DegenerateLabels):
            compute_stats(records, PinnedEmbedder({}))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            compute_stats([], PinnedEmbedder({}))

    def test_stats_validation(self):
        with pytest.raises(ValueError, match="sum"):
            DatasetStats(
                sentence_count=3,
                paragraph_count=1,
                hallucinated_count=1,
                accurate_count=1,
                sentences_per_paragraph=3.0,
                avg_sample_length_words=1.0,
                avg_hallucinated_length_words=1.0,
                avg_accurate_length_words=1.0,
                semantic_similarity_h_vs_a=0.5,
            )

    def test_as_record_keys(self):
        records = self.build_records()
        embedder = PinnedEmbedder(
            {
                "one two three": [1.0, 0.0],
                "four five": [0.0, 1.0],
                "six seven eight nine": [0.0, 1.0],
            }
        )
        record = compute_stats(records, embedder).as_record()
        assert record["sentence_count"] == 3
        assert record["similarity_method"] == "centroid_cosine"


class TestSampleStore:
    def test_roundtrip(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        assert not store.has("bio-001")
        store.put("bio-001", ["first", "second"])
        assert store.get("bio-001") == ["first", "second"]
        assert store.has("bio-001")

    def test_identical_put_is_duplicate(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        (path,) = (tmp_path / "store").glob("*.json")
        first = path.stat()
        store.put("bio-001", ["x"])
        assert [p.name for p in (tmp_path / "store").iterdir()] == [path.name]
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (first.st_ino, first.st_mtime_ns)
        assert store.get("bio-001") == ["x"]

    def test_conflicting_put_raises(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        with pytest.raises(StoreConflict, match="bio-001"):
            store.put("bio-001", ["different"])

    def test_get_missing(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        with pytest.raises(NotFound, match="bio-404"):
            store.get("bio-404")
        assert not store.has("bio-404")

    def test_unsafe_id_characters(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        store.put("../weird/id", ["s"])
        assert store.get("../weird/id") == ["s"]
        assert (tmp_path / "store").is_dir()

    def test_non_string_sample_is_a_schema_error(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        (path,) = (tmp_path / "store").glob("*.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["samples"] = ["x", 7]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaError, match=path.name):
            store.get("bio-001")

    @pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
    def test_blank_sample_is_a_schema_error_naming_the_file(self, tmp_path, blank):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        (path,) = (tmp_path / "store").glob("*.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["samples"] = ["x", blank]
        path.write_text(json.dumps(payload), encoding="utf-8")
        message = rf"{path.name}: samples\[1\] must be a non-blank string"
        with pytest.raises(SchemaError, match=message):
            store.get("bio-001")

    def test_empty_samples_rejected(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.put("bio-001", [])

    @pytest.mark.parametrize("blank", ["", "   ", "\n\t"], ids=["empty", "spaces", "newline-tab"])
    def test_blank_sample_rejected_by_put(self, tmp_path, blank):
        store = SampleStore(tmp_path / "store")
        with pytest.raises(ValueError, match="none blank"):
            store.put("bio-001", ["x", blank])
        assert not store.has("bio-001")
        assert not list((tmp_path / "store").iterdir())

    def test_put_creates_the_directory(self, tmp_path):
        SampleStore(tmp_path / "store").put("bio-002", ["a"])
        assert SampleStore(tmp_path / "store").get("bio-002") == ["a"]

    @pytest.mark.parametrize(
        "body",
        [
            '{"samp',
            '["a", "b"]',
            '{"samples": "ab", "digest": 3}',
            pytest.param(PAST_JSON_LIMITS[0], id="digits"),
            pytest.param(PAST_JSON_LIMITS[1], id="nesting"),
        ],
    )
    def test_corrupt_file_is_a_schema_error_naming_it(self, tmp_path, body):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        (path,) = (tmp_path / "store").glob("*.json")
        path.write_text(body, encoding="utf-8")
        with pytest.raises(SchemaError, match=path.name):
            store.get("bio-001")
        with pytest.raises(SchemaError, match=path.name):
            store.put("bio-001", ["x"])


def sample_record(with_triples=True):
    triple_scores = None
    if with_triples:
        triple_scores = (
            (Triple(subject="a", relation="r", obj="b"), 0.2),
            (Triple(subject="c", relation="r", obj="d"), 0.8),
        )
    return ScoreRecord(
        output_ref="p1:0",
        method=DetectorMethod.SELF_QUESTIONING,
        score=0.5,
        kg_used=with_triples,
        triple_scores=triple_scores,
        misses=1 if with_triples else 0,
        prompt_version="v1",
        model_id="m",
        elapsed_s=1.25,
    )


class TestScoreRecordIO:
    def test_dict_roundtrip_with_triples(self):
        record = sample_record()
        obj = score_record_to_dict(record)
        assert "elapsed_s" not in obj
        assert obj["triple_scores"] == [[["a", "r", "b"], 0.2], [["c", "r", "d"], 0.8]]
        assert score_record_from_dict(obj) == record

    def test_dict_roundtrip_sentence_level(self):
        record = sample_record(with_triples=False)
        obj = score_record_to_dict(record)
        assert "triple_scores" not in obj
        assert score_record_from_dict(obj) == record

    def test_json_stable(self):
        obj = score_record_to_dict(sample_record())
        assert json.dumps(obj, sort_keys=True) == json.dumps(
            json.loads(json.dumps(obj, sort_keys=True)), sort_keys=True
        )

    def test_bad_record(self):
        with pytest.raises(SchemaError):
            score_record_from_dict({"output_ref": "x"})

    def test_bad_method(self):
        obj = score_record_to_dict(sample_record())
        obj["method"] = "astrology"
        with pytest.raises(SchemaError):
            score_record_from_dict(obj)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            pytest.param(
                "kg_used", "false", "kg_used must be true or false, got str", id="kg_used-str"
            ),
            pytest.param("kg_used", 0, "kg_used must be true or false, got int", id="kg_used-int"),
            pytest.param("score", "0.5", "score must be a number, got str", id="score-str"),
            pytest.param("score", True, "score must be a number, got bool", id="score-bool"),
            pytest.param("misses", 1.9, "misses must be an integer, got float", id="misses-float"),
            pytest.param("misses", True, "misses must be an integer, got bool", id="misses-bool"),
            pytest.param("misses", "1", "misses must be an integer, got str", id="misses-str"),
            ("misses", -5, "misses must be >= 0, got -5"),
        ],
    )
    def test_wrongly_typed_field_is_rejected(self, field, value, message):
        obj = score_record_to_dict(sample_record())
        obj[field] = value
        with pytest.raises(SchemaError, match=f"^{message}$"):
            score_record_from_dict(obj)

    @pytest.mark.parametrize("value", ["0.2", False, None])
    def test_wrongly_typed_triple_score_is_rejected(self, value):
        obj = score_record_to_dict(sample_record())
        obj["triple_scores"][0][1] = value
        with pytest.raises(SchemaError, match=r"^triple_scores\[0\]\[1\] must be a number, got "):
            score_record_from_dict(obj)

    def test_integer_scores_are_numbers(self):
        obj = score_record_to_dict(sample_record(with_triples=False))
        obj["score"] = 1
        record = score_record_from_dict(obj)
        assert record.score == 1.0 and isinstance(record.score, float)

    def test_reader_names_file_and_line_of_a_wrongly_typed_row(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_records([sample_record(with_triples=False)], path)
        obj = score_record_to_dict(sample_record())
        obj["kg_used"] = "false"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")
        message = r"scores\.jsonl:2: kg_used must be true or false, got str$"
        with pytest.raises(SchemaError, match=message):
            list(read_score_records(path))

    def test_jsonl_roundtrip_skips_meta(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"_meta": True, "config_digest": "abc"}) + "\n")
        records = [sample_record(), sample_record(with_triples=False)]
        count = write_score_records(records, path, append=True)
        assert count == 2
        assert list(read_score_records(path)) == records

    def test_read_bad_json(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(SchemaError, match="invalid JSON"):
            list(read_score_records(path))

    @pytest.mark.parametrize("line", PAST_JSON_LIMITS, ids=["digits", "nesting"])
    def test_line_past_the_json_limits_is_a_schema_error(self, tmp_path, line):
        path = tmp_path / "scores.jsonl"
        write_score_records([sample_record()], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(SchemaError, match=r"scores\.jsonl:2: invalid JSON"):
            list(read_score_records(path))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("output_ref", ["p1", 0]),
            ("prompt_version", 1),
            ("model_id", None),
            ("score", 10**400),
            ("triple_scores", [[["a", 1, "b"], 0.5]]),
            ("triple_scores", [["abc", 0.5]]),
            ("triple_scores", [[{"s": 1, "r": 2, "o": 3}, 0.5]]),
            ("triple_scores", [[["a", "b", "c"], 0.5, 1]]),
            (None, [1, 2]),
        ],
        ids=[
            "output_ref",
            "prompt_version",
            "model_id",
            "huge-score",
            "triple",
            "triple-string",
            "triple-object",
            "triple-entry-of-3",
            "list",
        ],
    )
    def test_row_that_is_not_a_record_is_a_schema_error(self, tmp_path, field, value):
        obj = score_record_to_dict(sample_record())
        if field is None:
            obj = value
        else:
            obj[field] = value
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"scores\.jsonl:1: "):
            list(read_score_records(path))


# Text with a lone surrogate, as a JSON escape such as \ud800 decodes to; an
# escaped pair such as \udbff\udc00 decodes to one code point instead.
lone_surrogates = st.text(st.sampled_from("a \ud800\udbff\udc00\udfff"), min_size=1, max_size=4)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
    | lone_surrogates,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


@st.composite
def score_lines(draw):
    """A score row with a few fields, or a triple field, replaced by any JSON
    value; or any JSON value at all."""
    obj = score_record_to_dict(sample_record())
    if draw(st.booleans()):
        obj["triple_scores"][0][0][draw(st.integers(0, 2))] = draw(json_values)
    for key in draw(st.lists(st.sampled_from([*sorted(obj), "_meta"]), max_size=3)):
        obj[key] = draw(json_values)
    return json.dumps(draw(st.just(obj) | json_values))


class TestScoreStreamProperty:
    """Whatever a score file holds, the reader yields records or raises
    SchemaError; nothing else escapes to the CLI."""

    @staticmethod
    def read(path, content: bytes):
        path.write_bytes(content)
        try:
            records = list(read_score_records(path))
        except SchemaError:
            return
        assert all(isinstance(r, ScoreRecord) for r in records)

    @given(st.binary(max_size=300))
    def test_any_bytes(self, tmp_path_factory, content):
        self.read(tmp_path_factory.getbasetemp() / "any_bytes.jsonl", content)

    @given(st.lists(score_lines(), max_size=4))
    def test_any_json_rows(self, tmp_path_factory, lines):
        content = "".join(line + "\n" for line in lines).encode("utf-8")
        self.read(tmp_path_factory.getbasetemp() / "any_rows.jsonl", content)


def value_paths(obj, path=()):
    """The path of every value in ``obj``, the whole of it and every key and
    list element at any depth included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from value_paths(value, (*path, key))


@st.composite
def one_value_replaced(draw, valid):
    """``valid`` with the value at one of its paths replaced by any JSON value,
    half the time by text with a lone surrogate."""
    obj = json.loads(json.dumps(valid))
    path = draw(st.sampled_from(list(value_paths(obj))))
    value = draw(lone_surrogates | json_values)
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def loads_or_refuses(load, error):
    """``load()``'s result, or None when it raises ``error`` with one line."""
    try:
        return load()
    except error as exc:
        assert "\n" not in str(exc)
        return None


STORED_SAMPLES = ["sample one", "sample two"]


class TestOneValueReplaced:
    """Each JSON input, valid but for one value at any path: its loader returns
    a result or raises its documented error with a one-line message. What it
    returns holds no lone surrogate, so writing it out as UTF-8 cannot fail."""

    @given(one_value_replaced(valid_row()))
    def test_dataset_row(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "one_row.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records = loads_or_refuses(lambda: load_wikibio(path, expected_samples=3), SchemaError)
        if records is not None:
            assert [type(r) for r in records] == [WikiBioRecord]
            json.dumps(dataclasses.asdict(records[0]), ensure_ascii=False).encode("utf-8")

    @given(one_value_replaced(score_record_to_dict(sample_record())))
    def test_score_row(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "one_score.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records = loads_or_refuses(lambda: list(read_score_records(path)), SchemaError)
        if records is not None:
            write_score_records(records, tmp_path_factory.getbasetemp() / "rewritten.jsonl")

    @given(one_value_replaced({"paragraph_id": "p1", "digest": "d", "samples": STORED_SAMPLES}))
    def test_sample_store_file(self, tmp_path_factory, obj):
        store = SampleStore(tmp_path_factory.getbasetemp() / "one_store")
        store._path_for("p1").write_text(json.dumps(obj), encoding="utf-8")
        samples = loads_or_refuses(lambda: store.get("p1"), SchemaError)
        if samples is not None:
            assert all(isinstance(s, str) and s.strip() for s in samples)
            "".join(samples).encode("utf-8")
        loads_or_refuses(lambda: store.put("p1", STORED_SAMPLES), (SchemaError, StoreConflict))

    @given(one_value_replaced(json.loads((FIXTURES / "run_config.json").read_text("utf-8"))))
    def test_config(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "one_config.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        if loads_or_refuses(lambda: load_config(path), ConfigError) is not None:
            json.dumps(json.loads(path.read_text("utf-8")), ensure_ascii=False).encode("utf-8")


class TestUnknownKey:
    """Every JSON input refuses a key its format does not list."""

    def test_dataset_row(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(), valid_row(sentence_index=1, extra=None)])
        with pytest.raises(SchemaError, match=r"d\.jsonl:2: unknown key 'extra'$"):
            load_wikibio(path, expected_samples=3)

    def test_score_row(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({**score_record_to_dict(sample_record()), "_meta": False}))
        with pytest.raises(SchemaError, match=r"scores\.jsonl:1: unknown key '_meta'$"):
            list(read_score_records(path))

    def test_sample_store_file(self, tmp_path):
        store = SampleStore(tmp_path / "store")
        store.put("bio-001", ["x"])
        (path,) = (tmp_path / "store").glob("*.json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "stored_at": 0}))
        with pytest.raises(SchemaError, match=rf"{path.name}: unknown key 'stored_at'$"):
            store.get("bio-001")

    def test_config_section(self, tmp_path):
        obj = json.loads((FIXTURES / "run_config.json").read_text(encoding="utf-8"))
        obj["detectors"][2]["samples"] = 3
        (tmp_path / "run.json").write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^unknown key 'samples' in detectors\[2\]$"):
            load_config(tmp_path / "run.json")
