"""Seeded replica of the WikiBio evaluation set, and the backend's loss plan.

The shape constants match ``tests/conftest.py::build_synthetic_wikibio``:
50 paragraphs (49 of 10 sentences, one of 11), 501 sentences, 241
hallucinated and 260 accurate, 20 samples of 169 words per paragraph. The
generator draws the whole replica from the seed with the same sequence of
random calls as the test fixture (seed 20240817 reproduces the fixture file
byte for byte) and keeps the first ``paragraphs`` paragraphs, so a smaller
workload is always a prefix of the full one.

Next to the dataset it writes a loss plan that only the synthetic backend
reads: which passages get an empty or a partly malformed extraction reply,
and which triple statements get an unparseable score reply.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

PARAGRAPH_SIZES = [10] * 49 + [11]
SENTENCES = 501
HALLUCINATED = 241
SAMPLES = 20
SAMPLE_WORDS = 169
SENTENCE_WORDS = 14

WORDS = (
    "the a in of was born career later year award first second national team "
    "season with for music prize early work known wrote played region study "
    "school member during between city record several against final province "
    "founded group company director published family"
).split()
GIVEN = ("Mira", "Anton", "Leila", "Viktor", "Ines", "Marek", "Sofia", "Daan", "Priya", "Oskar")
FAMILY = ("Halvorsen", "Duarte", "Okafor", "Lindqvist", "Moravec", "Iyer", "Castellan", "Brandt")

# Words per extracted triple: one subject word, two relation words and the
# rest as object. A 14-word sentence gives 3 triples and a 169-word sample 34,
# which puts a full-replica pass near 9.5 k provider calls and 1 M pair
# comparisons.
TRIPLE_WORDS = 5

_TOKEN = re.compile(r"[A-Za-z0-9]+")


def _sentence(rng: random.Random, words: int) -> str:
    body = " ".join(rng.choice(WORDS) for _ in range(words))
    return body[0].upper() + body[1:] + "."


def passage_triples(passage: str) -> list[list[str]]:
    """The triples the synthetic backend extracts from a passage: its words
    in consecutive groups of five; a trailing group of fewer than three words
    is dropped."""
    words = _TOKEN.findall(passage)
    triples = []
    for start in range(0, len(words), TRIPLE_WORDS):
        group = words[start : start + TRIPLE_WORDS]
        if len(group) < 3:
            break
        triples.append([group[0], " ".join(group[1:3]), " ".join(group[3:])])
    return triples


def triple_statement(triple: list[str]) -> str:
    """How the detectors linearize a triple (``hallucheck.embed.triple_text``)."""
    return " ".join(triple)


def build_replica(directory: Path, seed: int, paragraphs: int) -> dict:
    """Write ``dataset.jsonl`` and ``plan.json`` into ``directory``.

    Per paragraph the plan marks one sample with an empty extraction (a
    degenerate sample graph), one sample and one sentence whose extraction
    carries a malformed row (a parse loss), and one sentence whose second
    triple gets an unparseable score reply (a triple miss). The first
    sentence of every fifth paragraph also gets an empty extraction (a
    degenerate output graph). Returns the plan.
    """
    if not 1 <= paragraphs <= len(PARAGRAPH_SIZES):
        raise ValueError(f"paragraphs must be in 1..{len(PARAGRAPH_SIZES)}, got {paragraphs}")
    rng = random.Random(seed)
    hallucinated_slots = set(rng.sample(range(SENTENCES), HALLUCINATED))
    plan_rng = random.Random(f"plan:{seed}")
    plan: dict = {"seed": seed, "empty": [], "malformed": [], "miss": []}

    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "dataset.jsonl", "w", encoding="utf-8") as fh:
        slot = 0
        for p, size in enumerate(PARAGRAPH_SIZES[:paragraphs]):
            concept = f"{rng.choice(GIVEN)} {rng.choice(FAMILY)}"
            samples = [_sentence(rng, SAMPLE_WORDS) for _ in range(SAMPLES)]
            sentences = [_sentence(rng, SENTENCE_WORDS) for _ in range(size)]
            for i, sentence in enumerate(sentences):
                label = "hallucinated" if slot in hallucinated_slots else "accurate"
                record = {
                    "paragraph_id": f"bio-{p:03d}",
                    "concept": concept,
                    "sentence_index": i,
                    "sentence": sentence,
                    "label": label,
                    "samples": samples,
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                slot += 1

            empty_sample, malformed_sample = plan_rng.sample(range(SAMPLES), 2)
            malformed_sentence, miss_sentence = plan_rng.sample(range(1, size), 2)
            plan["empty"].append(samples[empty_sample])
            plan["malformed"] += [samples[malformed_sample], sentences[malformed_sentence]]
            plan["miss"].append(triple_statement(passage_triples(sentences[miss_sentence])[1]))
            if p % 5 == 0:
                plan["empty"].append(sentences[0])
    (directory / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    return plan
