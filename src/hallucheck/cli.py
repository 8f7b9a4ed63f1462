"""Batch command-line surface.

Four subcommands cover the pipeline: ``extract`` turns sentences into
knowledge-graph files, ``samples`` draws per-paragraph regenerations into the
response cache, ``score`` runs configured detectors over a dataset with
resume support, and ``evaluate`` turns score streams plus labels into the
summary table with confidence intervals and +KG comparisons.

Everything is driven by one JSON config file (see RunConfig). Relative paths
inside the config resolve against the config file's directory. Exit codes:
0 success, 2 configuration problem, 3 provider failure, 4 data/schema
problem. Emitted artifacts embed the config digest, prompt version, model
identifiers, and seed, and never embed wall-clock data, so byte-identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .core import (
    NUMBER,
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    Label,
    SchemaError,
    atomic_write,
    drop_torn_tail,
    make_output_ref,
    open_text,
    read_json,
)
from .data import WikiBioRecord, load_wikibio, read_score_records, write_score_records
from .detect import DetectorConfig, DetectorContext, chosen_samples, run_detector
from .embed import HashEmbedder, MemoizingEmbedder, SbertEmbedder
from .evaluation import (
    DEFAULT_RESAMPLES,
    LabeledScores,
    RefMismatch,
    auc_pr,  # noqa: F401  (unused; bench/tracing.py wraps cli.auc_pr by name)
    auc_pr_metric,
    compare_methods,
    evaluate_method,
    render_report_table,
)
from .kgx import KGExtractor, fill, kg_to_record, load_prompt_resource, prompt_version
from .provider import (
    ChatClient,
    ChatRequest,
    ConfigError,
    DETECT_PROFILE,
    GeminiChatBackend,
    MockChatBackend,
    OpenAIChatBackend,
    ProviderError,
    RateLimiter,
    ResponseCache,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_SCHEMA = 4

SCORE_LOCK = ".score.lock"

_EXIT_TABLE = """\
exit codes:
  0  success
  2  configuration problem (bad config file, missing credentials, bad flags)
  3  provider failure (transport errors, refusals, exhausted retries)
  4  data problem (schema violations, missing inputs, mismatched refs)
"""


@dataclass(frozen=True)
class ProviderConfig:
    backend: str = "mock"
    model_id: str = "mock-model"
    script: str | None = None
    base_url: str | None = None
    rate_limit_per_minute: float | None = None


@dataclass(frozen=True)
class EmbeddingConfig:
    backend: str = "hash"
    model_id: str = ""
    dim: int = 384
    seed: int = 0


@dataclass(frozen=True)
class DatasetConfig:
    path: str = ""
    kind: str = "wikibio"
    expected_samples: int | None = 20


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; one file drives all subcommands."""

    provider: ProviderConfig = ProviderConfig()
    embedding: EmbeddingConfig = EmbeddingConfig()
    detectors: tuple[DetectorConfig, ...] = ()
    dataset: DatasetConfig = DatasetConfig()
    cache_dir: str | None = None
    output_dir: str = "out"
    seed: int = 0
    parallelism: int = 1
    config_digest: str = ""
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path_text: str) -> Path:
        path = Path(path_text)
        return path if path.is_absolute() else self.base_dir / path


# The most backend calls in flight: each command that calls the provider runs
# ``2 * parallelism - 1`` worker threads, and a larger value would ask for
# threads the host may not start.
MAX_PARALLELISM = 64
# The largest embedding dimension: building the hash embedder hashes one
# SHA-256 prefix state per four components.
MAX_EMBEDDING_DIM = 4096
# The largest ``evaluate --resamples``: each interval holds a float64 and a
# flag per resample, and a larger count asks for memory the host may not have.
MAX_RESAMPLES = 1_000_000
# The largest ``n_samples``, 500 times the paper's 20: the draw plan holds every
# draw request before the first call, and a larger count asks for memory the
# host may not have.
MAX_SAMPLES = 10_000

# The config's field tables, for core.check_json; defaults come from the
# dataclasses.
_PROVIDER = {
    "backend": (str, ("mock", "openai", "gemini")),
    "model_id": str,
    "script": str | None,
    "base_url": str | None,
    "rate_limit_per_minute": NUMBER | None,
}
_EMBEDDING = {"backend": (str, ("hash", "sbert")), "model_id": str, "dim": (int, 1), "seed": int}
_DATASET = {"path": str, "kind": (str, ("wikibio",)), "expected_samples": (int | None, 0)}
_DETECTOR = {
    "method": (str, tuple(m.value for m in DetectorMethod)),
    "use_kg": bool,
    "n_samples": (int, 1),
}
_CONFIG = {
    "provider": (ProviderConfig, _PROVIDER),
    "embedding": (EmbeddingConfig, _EMBEDDING),
    "dataset": (DatasetConfig, _DATASET),
    "detectors": (list, (DetectorConfig, _DETECTOR)),
    "cache_dir": str | None,
    "output_dir": str,
    "seed": (int, 0),
    "parallelism": (int, 1),
}


def load_config(path: str | os.PathLike) -> RunConfig:
    """Read and validate the JSON run config.

    The digest is computed over the parsed object in canonical form, so
    formatting-only edits do not invalidate resumable runs.
    """
    where = f"{os.fspath(path)}: "
    obj = read_json(path, (RunConfig, _CONFIG), ConfigError)
    values = {
        **obj,
        "provider": ProviderConfig(**obj.get("provider", {})),
        "embedding": EmbeddingConfig(**obj.get("embedding", {})),
        "dataset": DatasetConfig(**obj.get("dataset", {})),
        "detectors": tuple(DetectorConfig(**d) for d in obj.get("detectors", ())),
    }
    dim = values["embedding"].dim
    if dim > MAX_EMBEDDING_DIM:
        raise ConfigError(f"{where}embedding.dim must be <= {MAX_EMBEDDING_DIM}, got {dim}")
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    first_of: dict[tuple[DetectorMethod, bool], int] = {}
    for i, d in enumerate(values["detectors"]):
        if d.n_samples > MAX_SAMPLES:
            raise ConfigError(
                f"{where}detectors[{i}].n_samples must be <= {MAX_SAMPLES}, got {d.n_samples}"
            )
        first = first_of.setdefault((d.method, d.use_kg), i)
        if first != i:
            name = _method_name(d.method.value, d.use_kg)
            raise ConfigError(f"{where}detectors[{i}] repeats detectors[{first}] ({name})")
    cfg = RunConfig(
        **values,
        config_digest=digest,
        base_dir=Path(path).resolve().parent,
    )
    if cfg.parallelism > MAX_PARALLELISM:
        raise ConfigError(
            f"{where}parallelism must be <= {MAX_PARALLELISM}, got {cfg.parallelism}"
        )
    if cfg.provider.rate_limit_per_minute is not None:
        try:
            RateLimiter(cfg.provider.rate_limit_per_minute)
        except ConfigError as exc:
            raise ConfigError(f"{where}provider.{exc}") from None
    return cfg


def build_backend(cfg: RunConfig):
    p = cfg.provider
    if p.backend == "mock":
        if p.script:
            return MockChatBackend.from_script_file(cfg.resolve(p.script))
        return MockChatBackend()
    if p.backend == "openai":
        return OpenAIChatBackend(base_url=p.base_url)
    return GeminiChatBackend(base_url=p.base_url)


def build_client(cfg: RunConfig) -> ChatClient:
    cache = ResponseCache(cfg.resolve(cfg.cache_dir)) if cfg.cache_dir else None
    limiter = (
        RateLimiter(cfg.provider.rate_limit_per_minute)
        if cfg.provider.rate_limit_per_minute
        else None
    )
    return ChatClient(
        build_backend(cfg), cache=cache, rate_limiter=limiter, max_inflight=cfg.parallelism
    )


def build_embedder(cfg: RunConfig) -> MemoizingEmbedder:
    e = cfg.embedding
    if e.backend == "hash":
        return HashEmbedder(dim=e.dim, seed=e.seed)
    return SbertEmbedder(e.model_id) if e.model_id else SbertEmbedder()


def _meta_record(cfg: RunConfig, embedder: MemoizingEmbedder | None) -> dict:
    return {
        "_meta": True,
        "config_digest": cfg.config_digest,
        "prompt_version": prompt_version(),
        "model_id": cfg.provider.model_id,
        "embedding_model_id": embedder.model_id if embedder else "",
        "seed": cfg.seed,
    }


def _draw_plan(cfg: RunConfig, records: Sequence[WikiBioRecord]) -> dict[str, list[ChatRequest]]:
    """Each paragraph with a row that carries no samples, and draws 0 to n - 1 of the sample
    prompt for the concept of its first such row, n the largest selfcheck ``n_samples``: the
    draws ``samples`` makes and ``score`` looks up in the cache."""
    n = max((d.n_samples for d in cfg.detectors if d.method is DetectorMethod.SELFCHECK), default=0)
    template, model_id = load_prompt_resource("sample_generation.txt"), cfg.provider.model_id
    concepts = {r.paragraph_id: r.concept for r in reversed(records) if not r.samples}
    prompts = {paragraph_id: fill(template, CONCEPT=c) for paragraph_id, c in concepts.items()}
    return {
        paragraph_id: [ChatRequest.user(model_id, prompt, DETECT_PROFILE, draw=k) for k in range(n)]
        for paragraph_id, prompt in prompts.items()
    }


def _read_sentences(path: Path) -> list[str]:
    with open_text(path) as fh:
        lines = [line.strip() for line in fh.read().splitlines()]
    sentences = [line for line in lines if line]
    if not sentences:
        raise SchemaError(f"{path}: no sentences")
    return sentences


@contextlib.contextmanager
def _fan_out(fn: Callable, units: Sequence, parallelism: int) -> Iterator[Iterator]:
    """``fn``'s results over ``units``, in order, from ``2 * parallelism - 1`` threads that start
    when the first is asked for. After a unit fails no unit starts; the results raise there."""
    # The client caps calls in flight at ``parallelism``. Units also wait on memos other units
    # fill and embed between calls, so the extra threads keep the cap busy: fewer ran slower.
    pool = ThreadPoolExecutor(2 * parallelism - 1, thread_name_prefix="hallucheck-unit")
    failures: list[BaseException] = []

    def run(unit):
        if failures:
            raise failures[0]
        try:
            return fn(unit)
        except BaseException as exc:
            failures.append(exc)
            raise

    def results():
        yield from pool.map(run, units)

    try:
        yield results()
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    client = build_client(cfg)
    extractor = KGExtractor(client, cfg.provider.model_id)
    sentences = _read_sentences(Path(args.input))
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_path) as fh:
        fh.write(json.dumps(_meta_record(cfg, None), sort_keys=True) + "\n")
        with _fan_out(extractor.extract, sentences, cfg.parallelism) as graphs:
            for kg in graphs:
                fh.write(json.dumps(kg_to_record(kg), ensure_ascii=False, sort_keys=True) + "\n")
    print(f"wrote {len(sentences)} knowledge graphs to {out_path}")
    return EXIT_OK


def _load_dataset(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("config has no dataset.path")
    return load_wikibio(cfg.resolve(cfg.dataset.path), cfg.dataset.expected_samples)


def _scored_keys(path: Path, expected: dict) -> set[tuple[str, str, bool]]:
    """The (ref, method, kg_used) keys already present in a score stream. A
    stream that is not empty must open with a meta line of this config and
    this prompt version, as ``expected`` holds them."""
    meta: dict = {}
    done = {(r.output_ref, r.method.value, r.kg_used) for r in read_score_records(path, meta=meta)}
    for key in ("config_digest", "prompt_version"):
        if meta.get(key) != expected[key] and path.stat().st_size:
            origin = (
                f"was produced with {key} {meta.get(key)!r}, not {expected[key]!r}"
                if meta
                else "has no meta line on line 1"
            )
            raise ConfigError(f"{path} {origin}; to discard it, rerun with --fresh")
    return done


@contextlib.contextmanager
def _score_lock(out_dir: Path) -> Iterator[None]:
    """Hold an exclusive lock on the output directory for one ``score`` run.

    A second run on the same directory fails at once instead of interleaving
    rows with the first. The OS releases the lock when the process ends,
    however it ends, so a crashed run can still be resumed.
    """
    with open(out_dir / SCORE_LOCK, "a", encoding="utf-8") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise HallucheckError(f"{out_dir} is in use by another score run") from None
        yield


def cmd_score(args: argparse.Namespace) -> int:
    """Score every (record, detector) pair not already in the score stream.

    The units go through ``_fan_out``: a pair, or a ``selfcheck+kg`` sample text
    queued just before the first pair that compares against it, so a paragraph's
    sample graphs are extracted side by side. Rows are written in dataset order,
    so the stream is the same at any parallelism.
    """
    cfg = load_config(args.config)
    if not cfg.detectors:
        raise ConfigError("config has no detectors")
    records = _load_dataset(cfg)
    client = build_client(cfg)
    embedder = build_embedder(cfg)
    out_dir = cfg.resolve(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _score_lock(out_dir):
        scores_path = out_dir / "scores.jsonl"

        done: set[tuple[str, str, bool]] = set()
        resume = scores_path.exists() and not args.fresh
        if resume:
            dropped = drop_torn_tail(scores_path)
            if dropped:
                print(
                    f"dropped an unterminated last line ({dropped} bytes) of {scores_path}",
                    file=sys.stderr,
                )
            done = _scored_keys(scores_path, _meta_record(cfg, embedder))

        plan = _draw_plan(cfg, records)

        @functools.cache
        def cached_draws(paragraph_id: str) -> list[str]:
            """The paragraph's draws from the cache, up to the first miss; too few is refused."""
            if client.cache is None:
                raise ConfigError("rows without samples need a cache_dir to take them from")
            requests = plan[paragraph_id]
            found = list(takewhile(bool, map(client.cached, requests)))
            if len(found) < len(requests):
                raise ConfigError(
                    f"paragraph {paragraph_id!r} has {len(found)} of the {len(requests)} samples "
                    "selfcheck needs; draw them first with the 'samples' subcommand"
                )
            return found

        queued: set[str] = set()
        units: list[str | tuple] = []
        for record in records:
            ref = make_output_ref(record.paragraph_id, record.sentence_index)
            output = GeneratedOutput(prompt_id=ref, text=record.sentence, context=record.concept)
            for detector in cfg.detectors:
                if (ref, detector.method.value, detector.use_kg) in done:
                    continue
                samples = record.samples
                if detector.method is DetectorMethod.SELFCHECK:
                    # Own samples, else the paragraph's draws; too few is refused before any call.
                    samples = samples or cached_draws(record.paragraph_id)
                    chosen = chosen_samples(detector, samples)
                    if detector.use_kg:
                        for text in chosen:
                            if text not in queued:
                                queued.add(text)
                                units.append(text)
                units.append((detector, output, samples))
        skipped = len(records) * len(cfg.detectors) - (len(units) - len(queued))

        ctx = DetectorContext(client=client, model_id=cfg.provider.model_id, embedder=embedder)
        extractor = ctx.require_extractor()

        def run_unit(unit):
            if isinstance(unit, str):
                extractor.extract(unit)
                return None
            detector, output, samples = unit
            return run_detector(detector, output, ctx, samples=samples)

        with _fan_out(run_unit, units, cfg.parallelism) as results:
            rows = (row for row in results if row is not None)
            written = write_score_records(rows, scores_path, resume, _meta_record(cfg, embedder))
        print(
            f"scored {written} (skipped {skipped} already present) -> {scores_path}",
        )
        return EXIT_OK


def _method_name(method: str, kg_used: bool) -> str:
    return f"{method}+kg" if kg_used else method


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if not 1 <= args.resamples <= MAX_RESAMPLES:
        raise ConfigError(f"--resamples must be 1 to {MAX_RESAMPLES}, got {args.resamples}")
    out_dir = cfg.resolve(cfg.output_dir)
    scores_path = Path(args.scores) if args.scores else out_dir / "scores.jsonl"
    positive = Label(args.positive)
    labels: dict[str, Label] = {
        make_output_ref(r.paragraph_id, r.sentence_index): r.label for r in _load_dataset(cfg)
    }

    columns: dict[str, tuple[list[float], list[str]]] = {}
    origins: set[tuple[str, str]] = set()
    for score in read_score_records(scores_path):
        if score.output_ref not in labels:
            raise RefMismatch(
                f"score for {score.output_ref!r} has no matching dataset record"
            )
        origins.add((score.prompt_version, score.model_id))
        values, refs = columns.setdefault(_method_name(score.method.value, score.kg_used), ([], []))
        values.append(score.score)
        refs.append(score.output_ref)
    if not columns:
        raise SchemaError(f"{scores_path}: no score records")
    if len(origins) > 1:
        raise SchemaError(
            f"{scores_path} mixes rows of (prompt_version, model_id) {sorted(origins)}"
        )
    groups = {
        name: LabeledScores(values, map(labels.__getitem__, refs), refs)
        for name, (values, refs) in columns.items()
    }

    # Opened before the first bootstrap, so a target that cannot be written costs no work.
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = Path(args.report) if args.report else out_dir / "report.json"
    with atomic_write(report_path) as fh:
        reports = [
            evaluate_method(name, scores, positive, args.resamples, cfg.seed)
            for name, scores in sorted(groups.items())
        ]
        # (baseline, result) for each method that has a +kg variant.
        auc = auc_pr_metric(positive)
        comparisons = [
            (name, compare_methods(scores, groups[f"{name}+kg"], auc, args.resamples, cfg.seed))
            for name, scores in sorted(groups.items())
            if f"{name}+kg" in groups
        ]
        report_obj = {
            "meta": _meta_record(cfg, None),
            "positive_class": positive.value,
            "resamples": args.resamples,
            "methods": [asdict(r) for r in reports],
            "comparisons": [
                {"baseline": name, "variant": f"{name}+kg", "metric": "auc_pr", **asdict(result)}
                for name, result in comparisons
            ],
        }
        fh.write(json.dumps(report_obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n")
    print(render_report_table(reports), end="")
    if comparisons:
        print()
        print("comparisons (paired bootstrap on AUC-PR):")
        for name, result in comparisons:
            print(f"  {name}+kg vs {name}: {result}")
    print(f"\nreport written to {report_path}")
    return EXIT_OK


def cmd_samples(args: argparse.Namespace) -> int:
    """Make each distinct draw of the draw plan once, into the response cache."""
    cfg = load_config(args.config)
    if not any(d.method is DetectorMethod.SELFCHECK for d in cfg.detectors):
        raise ConfigError("config has no selfcheck detector to draw samples for")
    if not cfg.cache_dir:
        raise ConfigError("config has no cache_dir to keep the samples in")
    records = _load_dataset(cfg)
    client = build_client(cfg)

    plan = _draw_plan(cfg, records)
    draws = list(dict.fromkeys(d for p in sorted(plan) for d in plan[p]))
    with _fan_out(client.complete, draws, cfg.parallelism) as replies:
        hits = sum(reply.cached for reply in replies)
    print(
        f"made {len(draws) - hits} draws and took {hits} from the cache, for "
        f"{len(plan)} paragraphs, in {client.cache.path}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallucheck",
        description="Knowledge-graph based hallucination self-detection pipeline.",
        epilog=_EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="extract one knowledge graph per input sentence"
    )
    p_extract.add_argument("--config", required=True, help="run config JSON")
    p_extract.add_argument("--input", required=True, help="text file, one sentence per line")
    p_extract.add_argument("--output", required=True, help="output JSONL of knowledge graphs")
    p_extract.set_defaults(func=cmd_extract)

    p_score = sub.add_parser("score", help="run configured detectors over the dataset")
    p_score.add_argument("--config", required=True)
    p_score.add_argument(
        "--fresh",
        action="store_true",
        help="discard existing scores instead of resuming",
    )
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("evaluate", help="summarize scores against labels")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--scores", help="score stream (default: <output_dir>/scores.jsonl)")
    p_eval.add_argument("--report", help="report JSON path (default: <output_dir>/report.json)")
    p_eval.add_argument(
        "--positive",
        choices=[l.value for l in Label],
        default=Label.HALLUCINATED.value,
        help="positive class for precision/recall/F1/AUC-PR (default: hallucinated)",
    )
    p_eval.add_argument(
        "--resamples", type=int, default=DEFAULT_RESAMPLES, help="bootstrap resamples"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_samples = sub.add_parser(
        "samples", help="draw the regenerations selfcheck reads into the response cache"
    )
    p_samples.add_argument("--config", required=True)
    p_samples.set_defaults(func=cmd_samples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (SchemaError, RefMismatch, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HallucheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
