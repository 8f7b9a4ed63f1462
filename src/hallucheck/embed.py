"""Sentence and triple embeddings with cosine similarity.

The backend is pluggable: a deterministic hash-to-vector embedder for offline
runs and a sentence-transformer wrapper for production. Every backend returns
read-only float64 arrays: ``(k, d)`` matrices memoized per tuple of texts
(``embed_many``, which the detectors use) and single rows (``embed``).
Similarities feeding detector scores are clamped at zero so a score
never leaves [0, 1].
"""

from __future__ import annotations

import hashlib
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
        if not all(text.strip() for text in texts):
            raise ValueError("cannot embed empty text")
        matrix = self._compute(texts)
        matrix.flags.writeable = False
        return matrix

    def _compute(self, texts: tuple[str, ...]) -> np.ndarray:
        matrix = np.empty((len(texts), self.dim))
        for i, text in enumerate(texts):
            matrix[i] = self._row(text)
        return matrix

    def _row(self, text: str) -> np.ndarray:
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

    Block ``b`` is the digest of the UTF-8 message ``"{seed}:{b}:{text}"``.
    The ``"{seed}:{b}:"`` prefix states are hashed once per embedder and only
    copied afterwards, so threads share them without a lock. The digests of
    a whole tuple of texts are joined and become floats in one array pass.
    """

    def __init__(self, dim: int = 384, seed: int = 0):
        super().__init__()
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.seed = seed
        self.model_id = f"hash-{dim}"
        self._prefixes = tuple(
            hashlib.sha256(f"{seed}:{block}:".encode("utf-8")) for block in range((dim + 3) // 4)
        )

    def _compute(self, texts: tuple[str, ...]) -> np.ndarray:
        words = np.frombuffer(b"".join(map(self._embed_raw, texts)), ">u8")
        # Each big-endian 8-byte word u maps to u / 2**63 - 1; the uint64 to
        # float64 conversion rounds exactly as Python's int / int division.
        matrix = words.reshape(len(texts), 4 * len(self._prefixes))[:, : self.dim] / 2**63 - 1.0
        matrix[~matrix.any(axis=1), 0] = 1.0
        return matrix

    def _embed_raw(self, text: str) -> bytes:
        """The joined digests of one text's blocks."""
        data = text.encode("utf-8")
        digests = []
        for prefix in self._prefixes:
            h = prefix.copy()
            h.update(data)
            digests.append(h.digest())
        return b"".join(digests)


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
