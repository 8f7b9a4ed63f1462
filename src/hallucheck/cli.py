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
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import (
    DetectorMethod,
    GeneratedOutput,
    HallucheckError,
    Label,
    make_output_ref,
)
from .data import (
    NotFound,
    SampleStore,
    SchemaError,
    drop_torn_tail,
    load_wikibio,
    read_score_records,
    write_score_records,
)
from .detect import DetectorConfig, DetectorContext, run_detector
from .embed import HashEmbedder, MemoizingEmbedder, SbertEmbedder, SpecFileEmbedder
from .evaluation import (
    DEFAULT_RESAMPLES,
    LabeledScore,
    RefMismatch,
    auc_pr,
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
    spec_file: str | None = None


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


def _take(obj: object, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string", (int, float): "a number"}


def _typed(obj: dict, key: str, default, kind, where: str = "", minimum: int | None = None):
    """``obj[key]``, or ``default`` when the key is absent, checked to be a
    JSON value of ``kind``; JSON true and false are not numbers here. A key
    whose default is None may also be null."""
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}{key} must be >= {minimum}, got {value}")
    return value


def _detector_from_obj(obj: dict, index: int) -> DetectorConfig:
    _take(obj, {"method", "use_kg", "n_samples"}, f"detectors[{index}]")
    try:
        method = DetectorMethod(obj["method"])
    except KeyError:
        raise ConfigError(f"detectors[{index}]: missing 'method'")
    except ValueError:
        raise ConfigError(
            f"detectors[{index}]: unknown method {obj['method']!r}; expected one of "
            f"{[m.value for m in DetectorMethod]}"
        )
    where = f"detectors[{index}]."
    return DetectorConfig(
        method=method,
        use_kg=_typed(obj, "use_kg", False, bool, where),
        n_samples=_typed(obj, "n_samples", 20, int, where, minimum=1),
    )


def load_config(path: str | os.PathLike) -> RunConfig:
    """Read and validate the JSON run config.

    The digest is computed over the parsed object in canonical form, so
    formatting-only edits do not invalidate resumable runs.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)}: {exc}")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {os.fspath(path)} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _take(
        obj,
        {
            "provider",
            "embedding",
            "detectors",
            "dataset",
            "cache_dir",
            "output_dir",
            "samples_dir",
            "seed",
            "parallelism",
        },
        "config",
    )
    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()

    provider_obj = obj.get("provider", {})
    _take(
        provider_obj,
        {"backend", "model_id", "script", "base_url", "rate_limit_per_minute"},
        "provider",
    )
    provider = ProviderConfig(
        backend=provider_obj.get("backend", "mock"),
        model_id=_typed(provider_obj, "model_id", "mock-model", str, "provider."),
        script=_typed(provider_obj, "script", None, str, "provider."),
        base_url=_typed(provider_obj, "base_url", None, str, "provider."),
        rate_limit_per_minute=_typed(
            provider_obj, "rate_limit_per_minute", None, (int, float), "provider."
        ),
    )
    if provider.backend not in ("mock", "openai", "gemini"):
        raise ConfigError(f"unknown provider backend {provider.backend!r}")
    if provider.rate_limit_per_minute is not None and provider.rate_limit_per_minute <= 0:
        raise ConfigError(
            f"provider.rate_limit_per_minute must be > 0, got {provider.rate_limit_per_minute}"
        )

    embedding_obj = obj.get("embedding", {})
    _take(embedding_obj, {"backend", "model_id", "dim", "seed", "spec_file"}, "embedding")
    embedding = EmbeddingConfig(
        backend=embedding_obj.get("backend", "hash"),
        model_id=_typed(embedding_obj, "model_id", "", str, "embedding."),
        dim=_typed(embedding_obj, "dim", 384, int, "embedding.", minimum=1),
        seed=_typed(embedding_obj, "seed", 0, int, "embedding."),
        spec_file=_typed(embedding_obj, "spec_file", None, str, "embedding."),
    )
    if embedding.backend not in ("hash", "specfile", "sbert"):
        raise ConfigError(f"unknown embedding backend {embedding.backend!r}")

    detectors_obj = obj.get("detectors", [])
    if not isinstance(detectors_obj, list):
        raise ConfigError("'detectors' must be a list")
    detectors = tuple(_detector_from_obj(d, i) for i, d in enumerate(detectors_obj))
    first_of: dict[tuple[DetectorMethod, bool], int] = {}
    for i, d in enumerate(detectors):
        first = first_of.setdefault((d.method, d.use_kg), i)
        if first != i:
            name = _method_name(d.method.value, d.use_kg)
            raise ConfigError(f"detectors[{i}] repeats detectors[{first}] ({name})")

    dataset_obj = obj.get("dataset", {})
    _take(dataset_obj, {"path", "kind", "expected_samples"}, "dataset")
    expected_samples = dataset_obj.get("expected_samples", 20)
    dataset = DatasetConfig(
        path=_typed(dataset_obj, "path", "", str, "dataset."),
        kind=dataset_obj.get("kind", "wikibio"),
        expected_samples=(
            None
            if expected_samples is None
            else _typed(dataset_obj, "expected_samples", 20, int, "dataset.", minimum=0)
        ),
    )
    if dataset.kind not in ("wikibio",):
        raise ConfigError(f"unknown dataset kind {dataset.kind!r}")
    parallelism = _typed(obj, "parallelism", 1, int, minimum=1)

    return RunConfig(
        provider=provider,
        embedding=embedding,
        detectors=detectors,
        dataset=dataset,
        cache_dir=_typed(obj, "cache_dir", None, str),
        output_dir=_typed(obj, "output_dir", "out", str),
        samples_dir=_typed(obj, "samples_dir", None, str),
        seed=_typed(obj, "seed", 0, int),
        parallelism=parallelism,
        config_digest=digest,
        base_dir=Path(path).resolve().parent,
    )


def build_backend(cfg: RunConfig):
    p = cfg.provider
    if p.backend == "mock":
        if p.script:
            return MockChatBackend.from_script_file(cfg.resolve(p.script))
        return MockChatBackend()
    if p.backend == "openai":
        return OpenAIChatBackend(base_url=p.base_url) if p.base_url else OpenAIChatBackend()
    if p.backend == "gemini":
        return GeminiChatBackend(base_url=p.base_url) if p.base_url else GeminiChatBackend()
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
    if e.backend == "specfile":
        if not e.spec_file:
            raise ConfigError("embedding backend 'specfile' needs 'spec_file'")
        return SpecFileEmbedder.from_file(cfg.resolve(e.spec_file))
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
    lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
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


def _scored_keys(path: Path) -> tuple[dict | None, set[tuple[str, str, bool]]]:
    """The meta line (if the stream starts with one) and the (ref, method,
    kg_used) keys already present in a score stream."""
    done = {(r.output_ref, r.method.value, r.kg_used) for r in read_score_records(path)}
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    meta = json.loads(first) if first.strip() else None
    return (meta if isinstance(meta, dict) and meta.get("_meta") else None), done


def cmd_score(args: argparse.Namespace) -> int:
    """Score every (record, detector) pair not already in the score stream.

    The pairs run on ``parallelism`` threads; their ``+kg`` fan-out runs on a
    second pool of the same size, and the client lets at most ``parallelism``
    backend calls be in flight. Rows are written in dataset order, so the
    stream is the same at any parallelism. Once a pair fails, no further pair
    starts, and the stream keeps the rows before the first failed pair.
    """
    cfg = load_config(args.config)
    if not cfg.detectors:
        raise ConfigError("config has no detectors")
    records = _load_dataset(cfg)
    client = build_client(cfg)
    embedder = build_embedder(cfg)
    out_dir = cfg.resolve(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        meta, done = _scored_keys(scores_path)
        if meta is not None and meta.get("config_digest") != cfg.config_digest:
            raise ConfigError(
                f"{scores_path} was produced by a different config "
                f"(digest {meta.get('config_digest')!r}); rerun with --fresh to discard it"
            )

    needs_samples = any(d.method is DetectorMethod.SELFCHECK for d in cfg.detectors)
    store = SampleStore(cfg.resolve(cfg.samples_dir)) if cfg.samples_dir else None
    units = []
    for record in records:
        ref = make_output_ref(record.paragraph_id, record.sentence_index)
        samples: Sequence[str] | None = record.samples or None
        if samples is None and needs_samples:
            if store is not None and store.has(record.paragraph_id):
                samples = store.get(record.paragraph_id)
            else:
                raise ConfigError(
                    f"paragraph {record.paragraph_id!r} has no samples; generate "
                    "them first with the 'samples' subcommand"
                )
        output = GeneratedOutput(prompt_id=ref, text=record.sentence, context=record.concept)
        units.extend(
            (detector, output, samples)
            for detector in cfg.detectors
            if (ref, detector.method.value, detector.use_kg) not in done
        )
    skipped = len(records) * len(cfg.detectors) - len(units)

    failures: list[BaseException] = []

    def score_unit(unit):
        # Once a pair has failed, the pairs not yet started fail the same way
        # without running, so no provider calls are spent on them.
        if failures:
            raise failures[0]
        detector, output, samples = unit
        try:
            return run_detector(detector, output, ctx, samples=samples)
        except BaseException as exc:
            failures.append(exc)
            raise

    with open(scores_path, "a" if resume else "w", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(json.dumps(_meta_record(cfg, embedder), sort_keys=True) + "\n")
    with ThreadPoolExecutor(cfg.parallelism, thread_name_prefix="hallucheck-leaf") as leaves:
        ctx = DetectorContext(
            client=client,
            model_id=cfg.provider.model_id,
            embedder=embedder,
            extractor=KGExtractor(client, cfg.provider.model_id),
            executor=leaves,
        )
        pool = ThreadPoolExecutor(cfg.parallelism, thread_name_prefix="hallucheck-unit")
        try:
            written = write_score_records(pool.map(score_unit, units), scores_path, append=True)
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
    if args.resamples < 1:
        raise ConfigError(f"--resamples must be >= 1, got {args.resamples}")
    out_dir = cfg.resolve(cfg.output_dir)
    scores_path = Path(args.scores) if args.scores else out_dir / "scores.jsonl"
    positive = Label(args.positive)
    records = _load_dataset(cfg)
    labels: dict[str, Label] = {
        make_output_ref(r.paragraph_id, r.sentence_index): r.label for r in records
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
            lambda s: auc_pr(s, positive),
            args.resamples,
            cfg.seed,
        )
        comparisons.append(
            {
                "baseline": name,
                "variant": kg_name,
                "metric": "auc_pr",
                "difference_mean": result.difference_mean,
                "low": result.low,
                "high": result.high,
                "significant": result.significant,
                "skipped": result.skipped,
            }
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
    records = _load_dataset(cfg)
    client = build_client(cfg)
    store_dir = (
        cfg.resolve(args.store)
        if args.store
        else cfg.resolve(cfg.samples_dir or "samples")
    )
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
        request = ChatRequest.user(cfg.provider.model_id, prompt, DETECT_PROFILE)
        responses = client.sample_n(request, args.n)
        store.put(paragraph_id, [r.content for r in responses])
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
    p_samples.add_argument("--store", help="sample store directory (default from config)")
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
    except (SchemaError, RefMismatch, NotFound, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HallucheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
