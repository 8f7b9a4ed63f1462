"""Shared fixtures: a statistics-faithful synthetic dataset, CLI helpers, an
embedder with pinned vectors, a stand-in ``sentence_transformers`` module and
the per-example form of labelled scores.

The real benchmark file is not bundled. When HALLUCHECK_WIKIBIO_PATH points
at it, dataset-level tests use the real file; otherwise they run against a
synthetic replica generated here with the same shape: 501 sentences across
50 paragraphs, 241 hallucinated and 260 accurate, 20 samples per paragraph,
samples of exactly 169 words.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import types
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hallucheck.core import Label
from hallucheck.data import WikiBioRecord
from hallucheck.embed import MemoizingEmbedder
from hallucheck.evaluation import LabeledScores

FIXTURES = Path(__file__).parent / "data"

_WORDS = (
    "the a in of was born career later year award first second national team "
    "season with for music prize early work known wrote played region study "
    "school member during between city record several against final province "
    "founded group company director published family"
).split()

_GIVEN = ("Mira", "Anton", "Leila", "Viktor", "Ines", "Marek", "Sofia", "Daan", "Priya", "Oskar")
_FAMILY = ("Halvorsen", "Duarte", "Okafor", "Lindqvist", "Moravec", "Iyer", "Castellan", "Brandt")


def _sentence(rng: random.Random, words: int) -> str:
    body = " ".join(rng.choice(_WORDS) for _ in range(words))
    return body[0].upper() + body[1:] + "."


def build_synthetic_wikibio(path: Path, seed: int = 20240817) -> Path:
    """Write the synthetic replica; shape constants match the real dataset."""
    rng = random.Random(seed)
    paragraph_sizes = [10] * 49 + [11]
    total = sum(paragraph_sizes)
    assert total == 501
    hallucinated_slots = set(rng.sample(range(total), 241))

    with open(path, "w", encoding="utf-8") as fh:
        slot = 0
        for p, size in enumerate(paragraph_sizes):
            paragraph_id = f"bio-{p:03d}"
            concept = f"{rng.choice(_GIVEN)} {rng.choice(_FAMILY)}"
            samples = [_sentence(rng, 169) for _ in range(20)]
            for i in range(size):
                label = "hallucinated" if slot in hallucinated_slots else "accurate"
                record = {
                    "paragraph_id": paragraph_id,
                    "concept": concept,
                    "sentence_index": i,
                    "sentence": _sentence(rng, 14),
                    "label": label,
                    "samples": samples,
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                slot += 1
    return path


@pytest.fixture(scope="session")
def wikibio_file(tmp_path_factory: pytest.TempPathFactory) -> Path:
    override = os.environ.get("HALLUCHECK_WIKIBIO_PATH")
    if override:
        return Path(override)
    path = tmp_path_factory.mktemp("wikibio") / "wikibio_gpt4o.jsonl"
    return build_synthetic_wikibio(path)


@pytest.fixture()
def run_together():
    """``run(fn, n)`` calls ``fn`` from ``n`` threads released at once, with a
    short interpreter switch interval so that they interleave, and returns
    their results in thread order."""

    def run(fn, n):
        barrier = threading.Barrier(n)
        results = [None] * n

        def work(i):
            barrier.wait(timeout=30)
            results[i] = fn()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    return run


@pytest.fixture()
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture()
def generators_built(monkeypatch) -> list:
    """Forgets any kept bootstrap draw; the list gets the seed of every numpy
    generator built during the test."""
    from hallucheck import evaluation

    evaluation._kept_blocks.cache_clear()
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: built.append(seed) or default_rng(seed)
    )
    return built


def run_cli(argv: list[str]) -> int:
    from hallucheck.cli import main

    return main(argv)


def clamp0(sim: float) -> float:
    """The selfcheck similarity of one pair, the oracle the vectorised kernels
    are held to: a negative cosine similarity is floored at 0."""
    return sim if sim > 0.0 else 0.0


def wikibio(
    pid="p1", idx=0, sentence="She was born in 1901.", label=Label.ACCURATE, samples=("s1", "s2")
):
    """A dataset record with the given fields and the concept "Person"."""
    return WikiBioRecord(
        paragraph_id=pid,
        concept="Person",
        sentence_index=idx,
        sentence=sentence,
        label=label,
        samples=samples,
    )


class Example(NamedTuple):
    """One labelled score: the per-example form the evaluation oracles work on."""

    score: float
    label: Label
    example_ref: str = ""


def cols(examples) -> LabeledScores:
    """The examples as the columns the evaluation API takes."""
    return LabeledScores(
        [e.score for e in examples], [e.label for e in examples], [e.example_ref for e in examples]
    )


class PinnedEmbedder(MemoizingEmbedder):
    """Embeds each text as the vector pinned for it in ``vectors``."""

    model_id = "pinned"

    def __init__(self, vectors: dict[str, list[float]], dim: int = 2):
        super().__init__()
        self.dim = dim
        self._vectors = vectors

    def _embed_raw(self, text: str) -> np.ndarray:
        return np.array(self._vectors[text], dtype=np.float64)


def fake_sbert(vectors: dict[str, list[float]], dim: int = 2, fail: Exception | None = None):
    """A stand-in ``sentence_transformers`` module, so no model is downloaded.

    Its model reports ``dim`` and encodes each text as the vector ``vectors``
    pins for it, or raises ``fail`` when one is given. The module's
    ``encoded`` list gets the texts of every ``encode`` call.
    """
    module = types.ModuleType("sentence_transformers")
    module.encoded = []

    class SentenceTransformer:
        def __init__(self, model_id: str):
            self.model_id = model_id

        def get_sentence_embedding_dimension(self) -> int:
            return dim

        def encode(self, texts, convert_to_numpy, show_progress_bar):
            module.encoded.append(list(texts))
            if fail is not None:
                raise fail
            return np.array([vectors[text] for text in texts], dtype=np.float32)

    module.SentenceTransformer = SentenceTransformer
    return module
