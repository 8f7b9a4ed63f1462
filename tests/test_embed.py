import hashlib
import json
import time

import numpy as np
import pytest

from hallucheck.core import Triple
from hallucheck.embed import (
    DimensionMismatch,
    EmbedBackendError,
    EmbeddingVector,
    HashEmbedder,
    SpecFileEmbedder,
    ZeroVector,
    clamp0,
    cosine_sim,
    triple_text,
)


def vec(*values, model="t"):
    return EmbeddingVector(values=tuple(float(v) for v in values), model_id=model)


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


class TestHashEmbedder:
    def test_deterministic_and_sized(self):
        a = HashEmbedder(dim=16).embed("some text")
        b = HashEmbedder(dim=16).embed("some text")
        assert a == b
        assert len(a) == 16

    def test_component_range(self):
        v = HashEmbedder(dim=100).embed("range check")
        assert all(-1.0 <= c < 1.0 for c in v.values)

    def test_known_value_matches_direct_construction(self):
        # Recompute the first block by hand; guards the exact bit layout.
        digest = hashlib.sha256("0:0:abc".encode("utf-8")).digest()
        expected = [
            int.from_bytes(digest[i : i + 8], "big") / 2**63 - 1.0 for i in range(0, 32, 8)
        ]
        got = HashEmbedder(dim=4, seed=0).embed("abc")
        assert list(got.values) == expected

    def test_seed_changes_vectors(self):
        assert HashEmbedder(dim=8, seed=0).embed("x") != HashEmbedder(dim=8, seed=1).embed("x")

    def test_distinct_texts_distinct_vectors(self):
        e = HashEmbedder(dim=8)
        assert e.embed("one") != e.embed("two")

    def test_memoization_returns_same_object(self):
        e = HashEmbedder(dim=8)
        assert e.embed("memo") is e.embed("memo")

    def test_concurrent_embeds_of_one_text_compute_once(self, run_together):
        class SlowEmbedder(HashEmbedder):
            raw_calls = 0

            def _embed_raw(self, text):
                SlowEmbedder.raw_calls += 1
                time.sleep(0.2)
                return super()._embed_raw(text)

        e = SlowEmbedder(dim=8)
        vectors = run_together(lambda: e.embed("shared"), 8)
        assert SlowEmbedder.raw_calls == 1
        assert all(v is vectors[0] for v in vectors)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=8).embed("  ")

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=0)

    def test_model_id(self):
        assert HashEmbedder(dim=12).model_id == "hash-12"


class TestSpecFileEmbedder:
    def test_pinned_vector_used(self):
        e = SpecFileEmbedder(vectors={"known": [1.0, 0.0]}, dim=2)
        assert e.embed("known").values == (1.0, 0.0)

    def test_fallback_for_unknown_text(self):
        e = SpecFileEmbedder(vectors={}, dim=4, fallback_seed=9)
        assert e.embed("other").values == HashEmbedder(dim=4, seed=9).embed("other").values

    def test_pinned_dim_mismatch(self):
        e = SpecFileEmbedder(vectors={"bad": [1.0, 2.0, 3.0]}, dim=2)
        with pytest.raises(DimensionMismatch):
            e.embed("bad")

    def test_from_file(self, tmp_path):
        spec = {"model_id": "pinned", "dim": 3, "vectors": {"t": [0.1, 0.2, 0.3]}}
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(spec))
        e = SpecFileEmbedder.from_file(path)
        assert e.model_id == "pinned"
        assert e.embed("t").values == (0.1, 0.2, 0.3)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(EmbedBackendError):
            SpecFileEmbedder.from_file(tmp_path / "nope.json")


def test_sbert_backend_reports_missing_dependency():
    try:
        import sentence_transformers  # noqa: F401
    except ImportError:
        from hallucheck.embed import SbertEmbedder

        with pytest.raises(EmbedBackendError):
            SbertEmbedder()
    else:
        pytest.skip("sentence-transformers installed; error path not reachable")
