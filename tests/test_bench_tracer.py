"""The benchmark tracer (``bench/tracing.py``) wraps program names by
attribute lookup, so a rename or deletion in the package breaks it at install
time. The benchmark's own tests are outside the default test run; this test
keeps the names it wraps under the default run."""

import importlib.util
import sys
from pathlib import Path

from hallucheck import cli, detect, embed, evaluation, kgx
from hallucheck.provider import MockChatBackend, cache, client

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

OWNERS = (
    cli,
    detect,
    embed,
    evaluation,
    kgx,
    cache.ResponseCache,
    client.ChatClient,
    kgx.KGExtractor,
    embed.MemoizingEmbedder,
    embed.HashEmbedder,
    MockChatBackend,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_on_every_name_and_restores_it():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracing().Tracer()
    try:
        tracer.install(MockChatBackend)
        wrapped = {
            f"{owner.__name__}.{name}"
            for owner, names in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if names.get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert {
        "hallucheck.cli.load_config",
        "hallucheck.cli.auc_pr",
        "hallucheck.evaluation.metrics_at",
        "hallucheck.detect.cosine_sim",
        "hallucheck.detect.graph_consistency_scores",
        "MemoizingEmbedder.embed",
        "MockChatBackend.complete_once",
    } <= wrapped
    assert [dict(vars(owner)) for owner in OWNERS] == before
