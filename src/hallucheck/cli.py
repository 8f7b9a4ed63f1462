"""Batch command-line surface.

Four subcommands cover the pipeline: ``extract`` turns sentences into
knowledge-graph files, ``samples`` generates and stores per-paragraph
regenerations, ``score`` runs configured detectors over a dataset with
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
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .core import (
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    Label,
    make_output_ref,
)
from .data import (
    NUMBER,
    NotFound,
    SampleStore,
    SchemaError,
    check_json,
    drop_torn_tail,
    load_wikibio,
    open_text,
    read_score_records,
    write_score_records,
)
from .detect import DetectorConfig, DetectorContext, run_detector
from .embed import HashEmbedder, MemoizingEmbedder, SbertEmbedder
from .evaluation import (
    DEFAULT_RESAMPLES,
    LabeledScore,
    RefMismatch,
    auc_pr,  # noqa: F401  (unused; bench/tracing.py wraps cli.auc_pr by name)
    auc_pr_metric,
    compare_methods,
    evaluate_method,
    render_report_table,
)
from .kgx import KGExtractor, kg_to_record, load_prompt_resource, prompt_version
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
    samples_dir: str | None = None
    seed: int = 0
    parallelism: int = 1
    config_digest: str = ""
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path_text: str) -> Path:
        path = Path(path_text)
        return path if path.is_absolute() else self.base_dir / path


# The most backend calls in flight: ``score`` runs ``2 * parallelism - 1``
# worker threads, and a larger value would ask for threads the host may not
# start.
MAX_PARALLELISM = 64
# The largest embedding dimension: building the hash embedder hashes one
# SHA-256 prefix state per four components.
MAX_EMBEDDING_DIM = 4096
# The largest ``evaluate --resamples``: each interval holds a float64 and a
# flag per resample, and a larger count asks for memory the host may not have.
MAX_RESAMPLES = 1_000_000

# The config's field tables, for data.check_json; defaults come from the
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
    "samples_dir": str | None,
    "seed": (int, 0),
    "parallelism": (int, 1),
}


def load_config(path: str | os.PathLike) -> RunConfig:
    """Read and validate the JSON run config.

    The digest is computed over the parsed object in canonical form, so
    formatting-only edits do not invalidate resumable runs.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)}: {exc}")
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {os.fspath(path)} is not valid JSON: {exc}")
    check_json(obj, (RunConfig, _CONFIG), "", ConfigError)
    values = {
        **obj,
        "provider": ProviderConfig(**obj.get("provider", {})),
        "embedding": EmbeddingConfig(**obj.get("embedding", {})),
        "dataset": DatasetConfig(**obj.get("dataset", {})),
        "detectors": tuple(
            DetectorConfig(**{**d, "method": DetectorMethod(d["method"])})
            for d in obj.get("detectors", ())
        ),
    }
    dim = values["embedding"].dim
    if dim > MAX_EMBEDDING_DIM:
        raise ConfigError(f"embedding.dim must be <= {MAX_EMBEDDING_DIM}, got {dim}")
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    first_of: dict[tuple[DetectorMethod, bool], int] = {}
    for i, d in enumerate(values["detectors"]):
        first = first_of.setdefault((d.method, d.use_kg), i)
        if first != i:
            name = _method_name(d.method.value, d.use_kg)
            raise ConfigError(f"detectors[{i}] repeats detectors[{first}] ({name})")
    cfg = RunConfig(
        **values,
        config_digest=digest,
        base_dir=Path(path).resolve().parent,
    )
    if cfg.parallelism > MAX_PARALLELISM:
        raise ConfigError(f"parallelism must be <= {MAX_PARALLELISM}, got {cfg.parallelism}")
    if cfg.provider.rate_limit_per_minute is not None:
        try:
            RateLimiter(cfg.provider.rate_limit_per_minute)
        except ConfigError as exc:
            raise ConfigError(f"provider.{exc}") from None
    return cfg


def build_backend(cfg: RunConfig):
    p = cfg.provider
    if p.backend == "mock":
        if p.script:
            return MockChatBackend.from_script_file(cfg.resolve(p.script))
        return MockChatBackend()
    if p.backend == "openai":
        return OpenAIChatBackend(base_url=p.base_url)
    if p.backend == "gemini":
        return GeminiChatBackend(base_url=p.base_url)
    raise ConfigError(f"unknown provider backend {p.backend!r}")


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
    if e.backend == "sbert":
        return SbertEmbedder(e.model_id) if e.model_id else SbertEmbedder()
    raise ConfigError(f"unknown embedding backend {e.backend!r}")


def _meta_record(cfg: RunConfig, embedder: MemoizingEmbedder | None) -> dict:
    return {
        "_meta": True,
        "config_digest": cfg.config_digest,
        "prompt_version": prompt_version(),
        "model_id": cfg.provider.model_id,
        "embedding_model_id": embedder.model_id if embedder else "",
        "seed": cfg.seed,
    }


def _read_sentences(path: Path) -> list[str]:
    with open_text(path) as fh:
        lines = [line.strip() for line in fh.read().splitlines()]
    sentences = [line for line in lines if line]
    if not sentences:
        raise SchemaError(f"{path}: no sentences")
    return sentences


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    client = build_client(cfg)
    extractor = KGExtractor(client, cfg.provider.model_id)
    sentences = _read_sentences(Path(args.input))
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_meta_record(cfg, None), sort_keys=True) + "\n")
        for sentence in sentences:
            kg = extractor.extract(sentence)
            fh.write(json.dumps(kg_to_record(kg), ensure_ascii=False, sort_keys=True) + "\n")
    print(f"wrote {len(sentences)} knowledge graphs to {out_path}")
    return EXIT_OK


def _load_dataset(cfg: RunConfig):
    if not cfg.dataset.path:
        raise ConfigError("config has no dataset.path")
    return load_wikibio(cfg.resolve(cfg.dataset.path), cfg.dataset.expected_samples)


def _scored_keys(path: Path, config_digest: str) -> set[tuple[str, str, bool]]:
    """The (ref, method, kg_used) keys already present in a score stream. A
    stream that is not empty must open with the meta line of this config."""
    meta: dict = {}
    done = {(r.output_ref, r.method.value, r.kg_used) for r in read_score_records(path, meta=meta)}
    if meta.get("config_digest") != config_digest and path.stat().st_size:
        origin = (
            f"was produced by a different config (digest {meta.get('config_digest')!r})"
            if meta
            else "has no meta line on line 1"
        )
        raise ConfigError(f"{path} {origin}; rerun with --fresh to discard it")
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

    All the work runs on one pool of ``2 * parallelism - 1`` threads, and the
    client lets at most ``parallelism`` backend calls be in flight: the extra
    workers render prompts and parse replies while calls are out, and at
    ``parallelism: 1`` a single worker makes every call in a fixed order. A
    unit of work is a pair, or a ``selfcheck+kg`` sample text queued once, just
    before the first pair that compares against it, so that a paragraph's
    sample graphs are extracted side by side. Rows are written in dataset
    order, so the stream is the same at any parallelism. Once a unit fails, no
    further unit starts, and the stream keeps the rows before the first failed
    unit.
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
            done = _scored_keys(scores_path, cfg.config_digest)

        needs_samples = any(d.method is DetectorMethod.SELFCHECK for d in cfg.detectors)
        store = SampleStore(cfg.resolve(cfg.samples_dir)) if cfg.samples_dir else None
        # Each paragraph's store file is read once and shared by its records.
        stored: dict[str, list[str]] = {}
        queued: set[str] = set()
        units: list[str | tuple] = []
        for record in records:
            ref = make_output_ref(record.paragraph_id, record.sentence_index)
            samples: Sequence[str] | None = record.samples or None
            if samples is None and needs_samples:
                if record.paragraph_id not in stored:
                    if store is None or not store.has(record.paragraph_id):
                        raise ConfigError(
                            f"paragraph {record.paragraph_id!r} has no samples; generate "
                            "them first with the 'samples' subcommand"
                        )
                    stored[record.paragraph_id] = store.get(record.paragraph_id)
                samples = stored[record.paragraph_id]
            output = GeneratedOutput(prompt_id=ref, text=record.sentence, context=record.concept)
            for detector in cfg.detectors:
                if (ref, detector.method.value, detector.use_kg) in done:
                    continue
                # run_detector refuses a pair with too few samples before any
                # call, so no sample of such a pair is queued.
                kg_selfcheck = detector.method is DetectorMethod.SELFCHECK and detector.use_kg
                if kg_selfcheck and len(samples) >= detector.n_samples:
                    for text in samples[: detector.n_samples]:
                        if text not in queued:
                            queued.add(text)
                            units.append(text)
                units.append((detector, output, samples))
        skipped = len(records) * len(cfg.detectors) - (len(units) - len(queued))

        failures: list[BaseException] = []

        ctx = DetectorContext(client=client, model_id=cfg.provider.model_id, embedder=embedder)
        extractor = ctx.require_extractor()

        def run_unit(unit):
            # Once a unit has failed, the units not yet started fail the same way
            # without running, so no provider calls are spent on them.
            if failures:
                raise failures[0]
            try:
                if isinstance(unit, str):
                    extractor.extract(unit)
                    return None
                detector, output, samples = unit
                return run_detector(detector, output, ctx, samples=samples)
            except BaseException as exc:
                failures.append(exc)
                raise

        with open(scores_path, "a" if resume else "w", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write(json.dumps(_meta_record(cfg, embedder), sort_keys=True) + "\n")
        pool = ThreadPoolExecutor(2 * cfg.parallelism - 1, thread_name_prefix="hallucheck-unit")
        try:
            rows = (row for row in pool.map(run_unit, units) if row is not None)
            written = write_score_records(rows, scores_path, append=True)
        finally:
            pool.shutdown(cancel_futures=True)
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

    groups: dict[str, list[LabeledScore]] = {}
    for score in read_score_records(scores_path):
        if score.output_ref not in labels:
            raise RefMismatch(
                f"score for {score.output_ref!r} has no matching dataset record"
            )
        name = _method_name(score.method.value, score.kg_used)
        groups.setdefault(name, []).append(
            LabeledScore(
                score=score.score,
                label=labels[score.output_ref],
                example_ref=score.output_ref,
            )
        )
    if not groups:
        raise SchemaError(f"{scores_path}: no score records")

    reports = [
        evaluate_method(name, scores, positive, args.resamples, cfg.seed)
        for name, scores in sorted(groups.items())
    ]
    table = render_report_table(reports)

    comparisons = []
    comparison_lines = []
    for name in sorted(groups):
        if name.endswith("+kg"):
            continue
        kg_name = f"{name}+kg"
        if kg_name not in groups:
            continue
        result = compare_methods(
            groups[name],
            groups[kg_name],
            auc_pr_metric(positive),
            args.resamples,
            cfg.seed,
        )
        comparisons.append(
            {"baseline": name, "variant": kg_name, "metric": "auc_pr", **asdict(result)}
        )
        comparison_lines.append(f"{kg_name} vs {name}: {result}")

    report_obj = {
        "meta": _meta_record(cfg, None),
        "positive_class": positive.value,
        "resamples": args.resamples,
        "methods": [r.as_record() for r in reports],
        "comparisons": comparisons,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = Path(args.report) if args.report else out_dir / "report.json"
    report_path.write_text(
        json.dumps(report_obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    print(table, end="")
    if comparison_lines:
        print()
        print("comparisons (paired bootstrap on AUC-PR):")
        for line in comparison_lines:
            print(f"  {line}")
    print(f"\nreport written to {report_path}")
    return EXIT_OK


def cmd_samples(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.n < 1:
        raise ConfigError(f"sample count must be >= 1, got {args.n}")
    if not cfg.samples_dir:
        raise ConfigError("config has no samples_dir to store the samples in")
    records = _load_dataset(cfg)
    client = build_client(cfg)
    store_dir = cfg.resolve(cfg.samples_dir)
    store = SampleStore(store_dir)
    template = load_prompt_resource("sample_generation.txt")

    paragraphs: dict[str, str] = {}
    for r in records:
        paragraphs.setdefault(r.paragraph_id, r.concept)

    stored = reused = 0
    for paragraph_id in sorted(paragraphs):
        if store.has(paragraph_id):
            reused += 1
            continue
        prompt = template.replace("{{CONCEPT}}", paragraphs[paragraph_id])
        draws = [
            ChatRequest.user(cfg.provider.model_id, prompt, DETECT_PROFILE, draw=k)
            for k in range(args.n)
        ]
        store.put(paragraph_id, [client.complete(request).content for request in draws])
        stored += 1
    print(
        f"stored {stored * args.n} samples for {stored} paragraphs "
        f"({reused} already present) in {store_dir}"
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
        "samples", help="generate and store n regenerations per paragraph"
    )
    p_samples.add_argument("--config", required=True)
    p_samples.add_argument("--n", type=int, default=20, help="samples per paragraph")
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
    except (SchemaError, RefMismatch, NotFound, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HallucheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
