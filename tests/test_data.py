import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

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
from hallucheck.embed import SpecFileEmbedder
from hallucheck.evaluation import DegenerateLabels
from hallucheck.provider import ChatClient, MockChatBackend

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
        with pytest.raises(SchemaError, match=r"d\.jsonl:2.*'label'"):
            load_wikibio(path, expected_samples=3)

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
        with pytest.raises(SchemaError, match="only strings"):
            load_wikibio(path, expected_samples=3)

    @pytest.mark.parametrize("blank", ["", "   ", "\n\t"], ids=["empty", "spaces", "newline-tab"])
    def test_blank_sample_names_file_and_line(self, tmp_path, blank):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(), valid_row(samples=["ok", blank, "ok"])])
        with pytest.raises(SchemaError, match=r"d\.jsonl:2: .*none blank"):
            load_wikibio(path, expected_samples=3)

    def test_wrong_field_type(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(sentence_index="0")])
        with pytest.raises(SchemaError, match="'sentence_index' must be int"):
            load_wikibio(path, expected_samples=3)

    def test_bool_is_not_int(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(sentence_index=True)])
        with pytest.raises(SchemaError, match="'sentence_index'"):
            load_wikibio(path, expected_samples=3)

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [valid_row(label="maybe")])
        with pytest.raises(SchemaError, match="'label'"):
            load_wikibio(path, expected_samples=3)

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


def pinned_embedder(vectors):
    return SpecFileEmbedder(vectors=vectors, dim=2, model_id="pinned")


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
        embedder = pinned_embedder(
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
        embedder = pinned_embedder(
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
        embedder = pinned_embedder(
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
            compute_stats(records, pinned_embedder({}))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            compute_stats([], pinned_embedder({}))

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
        embedder = pinned_embedder(
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
        with pytest.raises(SchemaError, match=f"{path.name}.*none blank"):
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
            ("kg_used", "false", "'kg_used' must be a boolean, got str"),
            ("kg_used", 0, "'kg_used' must be a boolean, got int"),
            ("score", "0.5", "'score' must be a number, got str"),
            ("score", True, "'score' must be a number, got bool"),
            ("misses", 1.9, "'misses' must be an integer, got float"),
            ("misses", True, "'misses' must be an integer, got bool"),
            ("misses", "1", "'misses' must be an integer, got str"),
            ("misses", -5, "misses must be >= 0, got -5"),
        ],
    )
    def test_wrongly_typed_field_is_rejected(self, field, value, message):
        obj = score_record_to_dict(sample_record())
        obj[field] = value
        with pytest.raises(SchemaError, match=message):
            score_record_from_dict(obj)

    @pytest.mark.parametrize("value", ["0.2", False, None])
    def test_wrongly_typed_triple_score_is_rejected(self, value):
        obj = score_record_to_dict(sample_record())
        obj["triple_scores"][0][1] = value
        with pytest.raises(SchemaError, match="'triple_scores' must be a number"):
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
        with pytest.raises(SchemaError, match=r"scores\.jsonl:2: field 'kg_used'"):
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


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
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
