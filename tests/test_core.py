import ast
import dataclasses
import errno
import math
import os
import random
import shutil
import stat
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hallucheck import core
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
    atomic_write,
    dedupe_triples,
    make_output_ref,
    mean_score,
    normalize_text,
)
from hallucheck.data import read_score_records

from conftest import run_cli

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

    def test_normalized_once_when_first_compared(self, monkeypatch, tmp_path, fixture_dir):
        calls = []
        normalize = core.normalize_text
        monkeypatch.setattr(core, "normalize_text", lambda raw: calls.append(raw) or normalize(raw))
        t = Triple("Alan  Turing", "born in", "London")
        assert calls == []
        KnowledgeGraph.build([t, Triple("x", "y", "z"), t], source_text="text")
        assert len(calls) == 6
        assert t.normalized == ("alan turing", "born in", "london") and len(calls) == 6
        assert [f.name for f in dataclasses.fields(t)] == ["subject", "relation", "obj"]
        assert repr(t) == "Triple(subject='Alan  Turing', relation='born in', obj='London')"
        # Reading a score stream builds a Triple per triple score and compares none.
        run = shutil.copytree(fixture_dir, tmp_path / "run")
        assert run_cli(["score", "--config", str(run / "run_config.json")]) == 0
        calls.clear()
        records = list(read_score_records(run / "out" / "scores.jsonl"))
        assert sum(len(r.triple_scores or ()) for r in records) > 0
        assert calls == []

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

    def test_negative_misses(self):
        with pytest.raises(ValueError, match="misses must be >= 0, got -1"):
            self._record(misses=-1)

    def test_triple_scores_must_average_to_score(self):
        triples = ((Triple("a", "r", "b"), 0.2), (Triple("c", "r", "d"), 0.8))
        record = self._record(score=0.5, triple_scores=triples, kg_used=True)
        assert record.score == 0.5
        with pytest.raises(ValueError):
            self._record(score=0.6, triple_scores=triples, kg_used=True)

    def test_empty_triple_scores_rejected(self):
        with pytest.raises(ValueError, match="^triple_scores must not be empty$"):
            self._record(score=0.7, triple_scores=(), kg_used=True, misses=3)

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


class TestAtomicWrite:
    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["absent", "present"])
    def test_an_error_leaves_the_old_bytes_and_no_temporary_file(self, tmp_path, old):
        target = tmp_path / "out.json"
        if old is not None:
            target.write_bytes(old)
        with pytest.raises(RuntimeError, match="stop"):
            with atomic_write(target) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("stop")
        assert (target.read_bytes() if target.exists() else None) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.json"])

    def test_success_replaces_the_old_bytes_at_the_end(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_bytes(b"old bytes\n")
        with atomic_write(target) as fh:
            fh.write("néw\n")
            fh.flush()
            assert target.read_bytes() == b"old bytes\n"
        assert target.read_bytes() == "néw\n".encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_a_new_file_has_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            with atomic_write(tmp_path / "out.json") as fh:
                fh.write("x")
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640

    def test_a_missing_directory_is_an_error_naming_the_target(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError) as exc_info:
            with atomic_write(target):
                pass
        assert exc_info.value.errno == errno.ENOENT
        assert exc_info.value.filename == str(target) and ".tmp" not in str(exc_info.value)


# The calls in the package that write a file, by function: every file written
# whole goes through core.atomic_write. The score stream is appended and
# flushed row by row so that a run resumes, and the score lock is opened for
# append. The response-cache log is appended line by line: by its load, which
# drops a torn last line and folds in the entry files of older versions, and
# by each put.
EXPECTED_FILE_WRITES = [
    ("cli._score_lock", "open"),
    ("core.atomic_write", "open"),
    ("core.atomic_write", "os.replace"),
    ("data.write_score_records", "open"),
    ("provider.cache.ResponseCache._load", "open"),
    ("provider.cache.ResponseCache.put", "open"),
]

# The calls in the package that decode JSON, by function: every JSON input file
# is read by one of core's two readers. The others decode a model reply, an
# HTTP body and a response-cache entry (a log line or an older version's entry
# file), whose failures are not input errors.
EXPECTED_JSON_DECODES = [
    ("core.json_lines", "loads"),
    ("core.read_json", "load"),
    ("kgx.parse_triples", "loads"),
    ("provider.cache._entry", "loads"),
    ("provider.remote.post_json", "loads"),
]


# The package's layers, lowest first, by a module's top-level name. A module
# may import only from a lower layer or from its own subpackage, so a layer
# loads none of the layers at or above it. prompts holds only text files.
LAYERS = [
    ["core", "prompts"],
    ["data", "provider"],
    ["kgx", "embed"],
    ["detect"],
    ["evaluation"],
    ["cli"],
    ["__init__", "__main__"],
]
LAYER_OF = {top: rank for rank, tops in enumerate(LAYERS) for top in tops}


def scoped_nodes(node, scope, kind=ast.Call):
    """(function, node) for each node of ``kind`` under ``node``, by the
    innermost function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scoped_nodes(child, f"{scope}.{child.name}", kind)
            continue
        if isinstance(child, kind):
            yield scope, child
        yield from scoped_nodes(child, scope, kind)


def package_trees():
    """(path parts, syntax tree) of each module of the package."""
    package = Path(core.__file__).parent
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        yield parts, ast.parse(path.read_text(encoding="utf-8"))


def package_calls():
    for parts, tree in package_trees():
        yield from scoped_nodes(tree, ".".join(parts))


def call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def file_writes():
    """(function, call) for each call in the package that writes a file: a
    write-mode ``open``, ``os.replace``, ``os.rename``, ``mkstemp``,
    ``write_text`` or ``write_bytes``."""
    for scope, call in package_calls():
        name = call_name(call)
        owner = getattr(getattr(call.func, "value", None), "id", "")
        if name == "open":
            # The mode of open(file, mode) or of path.open(mode); one that is
            # not a literal counts as a write.
            modes = [k.value for k in call.keywords if k.arg == "mode"]
            modes += call.args[0 if isinstance(call.func, ast.Attribute) else 1 :][:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                yield scope, "open"
        elif name in ("mkstemp", "write_text", "write_bytes"):
            yield scope, name
        elif owner == "os" and name in ("replace", "rename"):
            yield scope, f"os.{name}"


def test_every_whole_file_write_goes_through_atomic_write():
    assert sorted(file_writes()) == EXPECTED_FILE_WRITES


def test_every_json_input_file_is_decoded_in_core():
    decodes = [
        (scope, name)
        for scope, call in package_calls()
        if (name := call_name(call)) in ("load", "loads")
        and getattr(getattr(call.func, "value", None), "id", "") == "json"
    ]
    assert sorted(decodes) == EXPECTED_JSON_DECODES


def package_imports():
    """(module's path parts, function, imported module) for each import of a
    package module, at module or function level, relative or absolute. The
    imported module is named relative to the package, the package itself
    "__init__"."""
    for parts, tree in package_trees():
        for scope, node in scoped_nodes(tree, ".".join(parts), (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level:
                # A relative import starts from the module's own package.
                base = ("hallucheck", *parts[: len(parts) - node.level])
                names = [".".join(base + ((node.module,) if node.module else ()))]
            else:
                names = [node.module]
            for name in names:
                if name == "hallucheck":
                    yield parts, scope, "__init__"
                elif name.startswith("hallucheck."):
                    yield parts, scope, name.removeprefix("hallucheck.")


def test_imports_follow_the_layer_order():
    """Every package import names a lower layer or the importer's own subpackage."""
    upward = [
        (scope, target)
        for parts, scope, target in package_imports()
        if LAYER_OF[target.split(".")[0]] >= LAYER_OF[parts[0]]
        and not (len(parts) > 1 and target.split(".")[0] == parts[0])
    ]
    assert upward == []


def test_only_the_fan_out_starts_threads():
    """Every command that calls the provider fans out through cli._fan_out, so
    no other function builds a pool or a thread of its own."""
    starts = [
        (scope, name)
        for scope, call in package_calls()
        if (name := call_name(call)) in ("ThreadPoolExecutor", "Thread")
    ]
    assert starts == [("cli._fan_out", "ThreadPoolExecutor")]


def test_one_similarity_kernel():
    """Both selfcheck variants compare vectors in detect.graph_consistency_scores,
    so no other function computes a dot product of its own."""
    dots = sorted(scope for scope, call in package_calls() if call_name(call) == "vecdot")
    assert dots == ["detect._norms", "detect.graph_consistency_scores"]
