"""Regenerate ``reference.json``: the sha256 digests of ``scores.jsonl`` and
``report.json`` for every input seed and replica size the benchmark checks.

Run it only when the benchmark's inputs change on purpose (replica, backend
replies or run config). A change to the program must keep the digests: they
are the byte-identity property of the end-to-end artifacts.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

from replica import build_replica
from run import REFERENCE, REFERENCE_SEEDS, SRC, WORK, WORKLOADS, Pipeline, sha256_file, write_config

# Replica sizes with stored digests, and the seeds for each: every workload's
# own size for all input seeds, and one paragraph at seed 0 for the tests.
SIZES = {name: {1: [0], w.paragraphs: range(REFERENCE_SEEDS)} for name, w in WORKLOADS.items()}


def main() -> int:
    sys.path.insert(0, str(SRC))
    table = {}
    work = WORK / "reference"
    for name, sizes in SIZES.items():
        workload = WORKLOADS[name]
        if workload.reference != name:
            continue
        for paragraphs, seeds in sizes.items():
            entries = table.setdefault(f"{name}/{paragraphs}", {})
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                plan = build_replica(work, seed, paragraphs)
                pipeline = Pipeline(write_config(work, workload, seed), plan, 0.0)
                rc_score, _ = pipeline.score()
                rc_evaluate, _ = pipeline.evaluate()
                if rc_score or rc_evaluate:
                    print(f"{name}/{paragraphs} seed {seed}: commands exited "
                          f"{rc_score}, {rc_evaluate}", file=sys.stderr)
                    return 1
                entries[str(seed)] = {
                    "scores": sha256_file(work / "out" / "scores.jsonl"),
                    "report": sha256_file(work / "out" / "report.json"),
                }
                print(f"{name}/{paragraphs} seed {seed}: {entries[str(seed)]['scores'][:12]}",
                      file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
