"""Sentence and triple embeddings with cosine similarity.

The backend is pluggable: a deterministic hash-to-vector embedder for offline
runs, a spec-file embedder that pins exact vectors for chosen texts, and a
sentence-transformer wrapper for production. Every backend returns
read-only float64 arrays: ``(k, d)`` matrices memoized per tuple of texts
(``embed_many``, which the detectors use) and single rows (``embed``).
Similarities feeding detector scores are clamped at zero so a score
never leaves [0, 1].
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import HallucheckError, OnceMemo, Triple


class EmbedBackendError(HallucheckError):
    """The embedding backend is unavailable or failed to produce a vector."""


class DimensionMismatch(HallucheckError):
    """Vector length differs from the configured model dimension."""


class ZeroVector(HallucheckError):
    """Cosine similarity is undefined for an all-zero vector."""


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| * |b|) of two 1-D arrays, clamped into [-1, 1] against
    float round-off."""
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity with a zero vector")
    sim = float(np.dot(va, vb) / (norm_a * norm_b))
    return max(-1.0, min(1.0, sim))


def clamp0(sim: float) -> float:
    """Negative similarity is floored at 0 before use as a factuality score."""
    return sim if sim > 0.0 else 0.0


def triple_text(t: Triple) -> str:
    """Linearize a triple for embedding: fields joined by single spaces."""
    return f"{t.subject} {t.relation} {t.obj}"


class MemoizingEmbedder:
    """Base embedder: memoizes a matrix per tuple of texts; concurrent
    callers for one tuple share a single computation."""

    model_id: str
    dim: int

    def __init__(self) -> None:
        self._matrices: OnceMemo[np.ndarray] = OnceMemo()

    def _embed_raw(self, text: str) -> np.ndarray:
        raise NotImplementedError

    def embed(self, text: str) -> np.ndarray:
        """The read-only ``(dim,)`` vector of one text: the single row of
        ``embed_many((text,))``."""
        return self.embed_many((text,))[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """A read-only ``(len(texts), dim)`` float64 matrix, one row per text
        in order. Memoized per tuple of texts."""
        key = tuple(texts)
        return self._matrices.get(key, lambda: self._matrix(key))

    def _matrix(self, texts: tuple[str, ...]) -> np.ndarray:
        matrix = np.empty((len(texts), self.dim))
        for i, text in enumerate(texts):
            matrix[i] = self._row(text)
        matrix.flags.writeable = False
        return matrix

    def _row(self, text: str) -> np.ndarray:
        if not text.strip():
            raise ValueError("cannot embed empty text")
        values = np.asarray(self._embed_raw(text), dtype=np.float64)
        if values.shape != (self.dim,):
            raise DimensionMismatch(
                f"backend returned {values.size} components, expected {self.dim}"
            )
        return values


class HashEmbedder(MemoizingEmbedder):
    """Deterministic stand-in embedder: text hashes to a fixed vector.

    Components come from SHA-256 counter blocks mapped into [-1, 1], so the
    mapping is stable across platforms and library versions. Unrelated texts
    get near-orthogonal vectors; identical texts get identical ones.
    """

    def __init__(self, dim: int = 384, seed: int = 0, model_id: str | None = None):
        super().__init__()
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self.model_id = model_id or f"hash-{dim}"

    def _embed_raw(self, text: str) -> np.ndarray:
        blocks = (self.dim + 3) // 4
        buf = b"".join(
            hashlib.sha256(f"{self.seed}:{block}:{text}".encode("utf-8")).digest()
            for block in range(blocks)
        )
        # Each big-endian 8-byte word u maps to u / 2**63 - 1; the uint64 to
        # float64 conversion rounds exactly as Python's int / int division.
        values = np.frombuffer(buf, ">u8", count=self.dim) / 2**63 - 1.0
        if not values.any():
            values[0] = 1.0
        return values


class SpecFileEmbedder(MemoizingEmbedder):
    """Embedder with pinned vectors for exact texts and a hash fallback.

    Spec file layout (JSON): ``model_id``, ``dim``, ``vectors`` mapping exact
    text to a component list, and optional ``fallback_seed`` for texts missing
    from the map.
    """

    def __init__(
        self,
        vectors: dict[str, list[float]],
        dim: int,
        model_id: str = "specfile",
        fallback_seed: int = 0,
    ):
        super().__init__()
        self.dim = dim
        self.model_id = model_id
        self._vectors = vectors
        self._fallback = HashEmbedder(dim=dim, seed=fallback_seed, model_id=model_id)

    @classmethod
    def from_file(cls, path: str | Path) -> "SpecFileEmbedder":
        try:
            spec = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise EmbedBackendError(f"cannot load embedding spec {path}: {exc}") from exc
        return cls(
            vectors=spec.get("vectors", {}),
            dim=int(spec["dim"]),
            model_id=spec.get("model_id", "specfile"),
            fallback_seed=int(spec.get("fallback_seed", 0)),
        )

    def _embed_raw(self, text: str) -> np.ndarray:
        pinned = self._vectors.get(text)
        if pinned is not None:
            if len(pinned) != self.dim:
                raise DimensionMismatch(
                    f"pinned vector for {text!r} has {len(pinned)} components, expected {self.dim}"
                )
            return np.array(pinned, dtype=np.float64)
        return self._fallback._embed_raw(text)


class SbertEmbedder(MemoizingEmbedder):
    """Sentence-transformer backend; the default model is all-MiniLM-L6-v2."""

    def __init__(self, model_id: str = "all-MiniLM-L6-v2"):
        super().__init__()
        try:
            from sentence_transformers import SentenceTransformer
        except ImportError as exc:
            raise EmbedBackendError(
                "sentence-transformers is not installed (pip install hallucheck[sbert])"
            ) from exc
        try:
            self._model = SentenceTransformer(model_id)
        except Exception as exc:
            raise EmbedBackendError(f"cannot load embedding model {model_id!r}: {exc}") from exc
        self.model_id = model_id
        self.dim = int(self._model.get_sentence_embedding_dimension())

    def _embed_raw(self, text: str) -> np.ndarray:
        # One text per call: a batched encode pads its inputs, which changes
        # the floats.
        try:
            encoded = self._model.encode([text], convert_to_numpy=True, show_progress_bar=False)
        except Exception as exc:
            raise EmbedBackendError(f"embedding failed: {exc}") from exc
        return encoded[0]
