import hashlib
import itertools
import time

import numpy as np
import pytest

from hallucheck.core import Triple
from hallucheck.embed import (
    DimensionMismatch,
    HashEmbedder,
    ZeroVector,
    cosine_sim,
    triple_text,
)
from hallucheck.provider import ConfigError

from conftest import PinnedEmbedder, clamp0


def vec(*values):
    return np.array(values, dtype=np.float64)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_sim(vec(1, 0), vec(0, 1)) == 0.0

    def test_identical(self):
        assert cosine_sim(vec(1, 2, 3), vec(1, 2, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_opposite(self):
        assert cosine_sim(vec(1, 0), vec(-1, 0)) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_sim(vec(1, 0), vec(1, 0, 0))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_sim(vec(0, 0), vec(1, 0))

    def test_result_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = vec(*rng.normal(size=8))
            b = vec(*rng.normal(size=8))
            assert -1.0 <= cosine_sim(a, b) <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            base = cosine_sim(vec(*a), vec(*b))
            scaled = cosine_sim(vec(*(a * 37.5)), vec(*(b * 0.004)))
            assert abs(base - scaled) <= 1e-9


def test_clamp0():
    assert clamp0(0.4) == 0.4
    assert clamp0(-0.3) == 0.0
    assert clamp0(0.0) == 0.0


def test_triple_text():
    assert triple_text(Triple("Alan Turing", "born in", "London")) == "Alan Turing born in London"


def scalar_hash_vector(text, dim, seed):
    """The original component-by-component HashEmbedder loop."""
    values = []
    block = 0
    while len(values) < dim:
        digest = hashlib.sha256(f"{seed}:{block}:{text}".encode("utf-8")).digest()
        for i in range(0, 32, 8):
            if len(values) >= dim:
                break
            values.append(int.from_bytes(digest[i : i + 8], "big") / 2**63 - 1.0)
        block += 1
    if not any(values):
        values[0] = 1.0
    return tuple(values)


# Over 2,048 UTF-8 bytes, the size from which hashlib releases the GIL.
LONG_TEXT = "long \u00e9 " * 300


class SlowEmbedder(HashEmbedder):
    """Counts ``_embed_raw`` calls, each held long enough for threads to meet."""

    raw_calls = 0

    def _embed_raw(self, text):
        self.raw_calls += 1
        time.sleep(0.2)
        return super()._embed_raw(text)


class TestHashEmbedder:
    @pytest.mark.parametrize("dim", [1, 3, 4, 5, 384, 385])
    @pytest.mark.parametrize("seed", [0, 1, 17, -1])
    def test_bit_identical_to_scalar_loop(self, dim, seed):
        texts = [f"text {i} \u00e9" for i in range(40)] + ["abc", "x", LONG_TEXT]
        e = HashEmbedder(dim=dim, seed=seed)
        matrix = e.embed_many(texts)
        for text, row in zip(texts, matrix):
            want = scalar_hash_vector(text, dim, seed)
            assert tuple(e.embed(text).tolist()) == want
            assert tuple(row.tolist()) == want

    def test_threads_share_the_prefix_states(self, run_together):
        e = HashEmbedder(dim=384, seed=5)
        texts = [f"thread text {i} " + LONG_TEXT * (i % 2) for i in range(64)]
        next_slice = itertools.count()

        def embed_slice():
            i = next(next_slice)
            return i, e.embed_many(texts[i::8])

        for i, matrix in run_together(embed_slice, 8):
            for text, row in zip(texts[i::8], matrix):
                assert tuple(row.tolist()) == scalar_hash_vector(text, 384, 5)

    def test_built_embedder_hashes_no_prefix_again(self, monkeypatch):
        e = HashEmbedder(dim=384)
        sha256 = hashlib.sha256
        calls = []
        monkeypatch.setattr(hashlib, "sha256", lambda *a: calls.append(a) or sha256(*a))
        e.embed_many([f"new text {i}" for i in range(50)])
        assert calls == []

    def test_deterministic_and_sized(self):
        a = HashEmbedder(dim=16).embed("some text")
        b = HashEmbedder(dim=16).embed("some text")
        assert np.array_equal(a, b)
        assert a.shape == (16,) and a.dtype == np.float64

    def test_component_range(self):
        v = HashEmbedder(dim=100).embed("range check")
        assert all(-1.0 <= c < 1.0 for c in v.tolist())

    def test_known_value_matches_direct_construction(self):
        # Recompute the first block by hand; guards the exact bit layout.
        digest = hashlib.sha256("0:0:abc".encode("utf-8")).digest()
        expected = [
            int.from_bytes(digest[i : i + 8], "big") / 2**63 - 1.0 for i in range(0, 32, 8)
        ]
        got = HashEmbedder(dim=4, seed=0).embed("abc")
        assert got.tolist() == expected

    def test_seed_changes_vectors(self):
        assert not np.array_equal(
            HashEmbedder(dim=8, seed=0).embed("x"), HashEmbedder(dim=8, seed=1).embed("x")
        )

    def test_distinct_texts_distinct_vectors(self):
        e = HashEmbedder(dim=8)
        assert not np.array_equal(e.embed("one"), e.embed("two"))

    def test_memoization_returns_same_object(self):
        # ``embed`` returns a row view of one memoized matrix.
        e = HashEmbedder(dim=8)
        first = e.embed("memo")
        assert first.base is not None and first.base is e.embed("memo").base
        assert e.embed_many(["memo"]) is first.base
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_concurrent_embeds_of_one_text_compute_once(self, run_together):
        e = SlowEmbedder(dim=8)
        vectors = run_together(lambda: e.embed("shared"), 8)
        assert e.raw_calls == 1
        assert all(v.base is vectors[0].base for v in vectors)

    def test_concurrent_embed_many_of_one_tuple_computes_once(self, run_together):
        e = SlowEmbedder(dim=8)
        matrices = run_together(lambda: e.embed_many(["a", "b"]), 8)
        assert e.raw_calls == 2
        assert all(m is matrices[0] for m in matrices)

    def test_embed_many_shape_and_read_only(self):
        e = HashEmbedder(dim=8)
        matrix = e.embed_many(["one", "two", "one"])
        assert matrix.shape == (3, 8) and matrix.dtype == np.float64
        assert (matrix[0] == matrix[2]).all()
        assert e.embed_many([]).shape == (0, 8)
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_empty_tuple_is_a_read_only_empty_matrix(self):
        matrix = HashEmbedder(dim=5).embed_many(())
        assert matrix.shape == (0, 5) and matrix.dtype == np.float64
        assert not matrix.flags.writeable

    def test_blank_text_rejected_before_any_digest(self, monkeypatch):
        e = HashEmbedder(dim=8)
        calls = []
        monkeypatch.setattr(e, "_embed_raw", lambda text: calls.append(text))
        with pytest.raises(ValueError, match="cannot embed empty text"):
            e.embed_many(["fine", "also fine", " \t", "last"])
        assert calls == []

    @pytest.mark.parametrize("dim", [1, 5, 384])
    def test_all_zero_row_falls_back_per_row(self, monkeypatch, dim):
        # The word 2**63 maps to exactly 0.0, so "zero" hashes to all zeros.
        e = HashEmbedder(dim=dim, seed=3)
        raw = e._embed_raw
        zero_words = (2**63).to_bytes(8, "big") * (4 * ((dim + 3) // 4))
        monkeypatch.setattr(e, "_embed_raw", lambda t: zero_words if t == "zero" else raw(t))
        texts = ["one", "zero", "two", "zero two"]
        matrix = e.embed_many(texts)
        assert matrix[1].tolist() == [1.0] + [0.0] * (dim - 1)
        for text, row in zip(texts, matrix):
            if text != "zero":
                assert tuple(row.tolist()) == scalar_hash_vector(text, dim, 3)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=8).embed("  ")
        with pytest.raises(ValueError):
            HashEmbedder(dim=8).embed_many(["fine", "  "])

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=0)

    def test_model_id(self):
        assert HashEmbedder(dim=12).model_id == "hash-12"


class TestMemoizingEmbedder:
    def test_backend_dim_mismatch(self):
        e = PinnedEmbedder({"bad": [1.0, 2.0, 3.0]})
        with pytest.raises(DimensionMismatch):
            e.embed("bad")
        with pytest.raises(DimensionMismatch):
            e.embed_many(["bad"])


def test_sbert_backend_reports_missing_dependency():
    try:
        import sentence_transformers  # noqa: F401
    except ImportError:
        from hallucheck.embed import SbertEmbedder

        with pytest.raises(ConfigError, match="sentence-transformers is not installed"):
            SbertEmbedder()
    else:
        pytest.skip("sentence-transformers installed; error path not reachable")
