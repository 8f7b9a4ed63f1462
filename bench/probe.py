"""Time one set-up of the program in a fresh interpreter.

Set-up is importing ``hallucheck``, ``load_config`` and ``load_wikibio``; with
``--warm`` it also includes one cold ``score`` pass that fills the response
cache through the synthetic backend. The interpreter's own start is not
timed. Prints one JSON line: ``setup_s``, the exit code of the cold pass and
the backend calls it made.

    python3 bench/probe.py --config bench/.work/rescore-warm/config.json --warm
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    started = time.perf_counter()
    from hallucheck import cli

    cfg = cli.load_config(args.config)
    cli.load_wikibio(cfg.resolve(cfg.dataset.path), cfg.dataset.expected_samples)
    rc, calls = 0, 0
    if args.warm:
        from backend import SyntheticBackend

        plan = json.loads(cfg.resolve("plan.json").read_text(encoding="utf-8"))
        backend = SyntheticBackend(plan)
        cli.build_backend = lambda _cfg: backend
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["score", "--config", args.config, "--fresh"])
        calls = backend.total_calls
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "rc": rc, "provider_calls": calls}))


if __name__ == "__main__":
    main()
