"""Span and counter tracing around the program's public functions.

``Tracer.install`` replaces functions and methods of ``hallucheck`` modules
with timing wrappers; ``uninstall`` puts the originals back. Nothing inside
the package changes: every boundary is observed from outside.

Coarse boundaries (one call per record, extraction or provider request)
record spans: name, start, end, parent span, thread and record id. Hot
functions (``cosine_sim``, ``embed``, ``auc_pr``, ...) only add to a count and
a total time. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time of its children on the same
thread (spans and hot calls alike) and minus the union of the intervals of
children that ran on worker threads. Worker threads have no span of their own
to nest under, so a span opened on one takes as parent the innermost open
span of the thread that runs the command.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Frame:
    id: int
    name: str
    thread: int
    parent: "Frame | None"
    record: str | None
    root: str
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    child_names: set = field(default_factory=set)
    tag: str = ""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Frame] = []
        self.hot_n: Counter = Counter()
        self.hot_s: defaultdict = defaultdict(float)
        self.hot_root_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root_stack: list[Frame] | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, record: str | None = None) -> tuple[list[Frame], Frame]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        frame = Frame(
            id=next(self._ids),
            name=name,
            thread=threading.get_ident(),
            parent=parent,
            record=record if record is not None else (parent.record if parent else None),
            root=parent.root if parent else name,
        )
        stack.append(frame)
        frame.start = time.perf_counter()
        return stack, frame

    def _close(self, stack: list[Frame], frame: Frame) -> None:
        frame.end = time.perf_counter()
        stack.pop()
        if stack:
            stack[-1].child_s += frame.end - frame.start
        if frame.parent is not None:
            frame.parent.child_names.add(frame.name)
        with self._lock:
            self.spans.append(frame)

    @contextmanager
    def root(self, name: str):
        """Open a top-level span on this thread; worker-thread spans opened
        while it is open nest under this thread's innermost span."""
        stack, frame = self._open(name)
        self._root_stack = stack
        try:
            yield frame
        finally:
            self._close(stack, frame)
            self._root_stack = None

    def _hot(self, name: str, seconds: float) -> None:
        stack = self._stack()
        top = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        if stack:
            stack[-1].child_s += seconds
        with self._lock:
            self.hot_n[name] += 1
            self.hot_s[name] += seconds
            if top is not None:
                self.hot_root_s[top.root] += seconds

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, record_of=None, after=None):
        """Wrap ``fn`` so each call records a span. ``record_of(args)`` names
        the record; ``after(frame, args, result)`` derives counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, frame = tracer._open(name, record_of(args) if record_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, frame)
            if after is not None:
                after(frame, args, result)
            return result

        return wrapper

    def hot(self, name, fn):
        """Wrap ``fn`` so each call only adds to a count and a total time."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._hot(name, time.perf_counter() - started)

        return wrapper

    def hot_iter(self, name, fn):
        """Like ``hot`` for a generator function: times each step."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                started = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer._hot(name, time.perf_counter() - started)
                    return
                tracer._hot(name, time.perf_counter() - started)
                yield item

        return wrapper

    def add(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def count(self, name, fn):
        """Wrap ``fn`` so each call only adds to a count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: object, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, backend_cls: type) -> None:
        """Wrap the public functions of every layer, and the backend's call."""
        # Imported here so that this module loads before the package is on the path.
        from hallucheck import cli, detect, embed, evaluation, kgx
        from hallucheck.provider import cache, client

        add = self.add

        def detector_done(frame, args, record):
            frame.tag = args[0].method.value + ("_kg" if args[0].use_kg else "")
            add("detect.triple_misses", record.misses)

        def extract_done(frame, args, kg):
            if "kgx.parse" in frame.child_names:
                add("kgx.extract_misses", 1)
                add("kgx.triples", len(kg.triples))
                add("kgx.degenerate_graphs", int(kg.degenerate))

        def parse_done(frame, args, result):
            add("kgx.parse_losses", result.losses)

        def complete_done(frame, args, response):
            add("client.cache_hits", int(response.cached))

        def consistency_done(frame, args, scores):
            add("detect.pairs", len(args[0]) * sum(len(g) for g in args[1]))

        def wrap_span(owner, attr, name, **kw):
            self.patch(owner, attr, self.span(name, getattr(owner, attr), **kw))

        def wrap_hot(owners, attr, name):
            wrapper = self.hot(name, getattr(owners[0], attr))
            for owner in owners:
                self.patch(owner, attr, wrapper)

        wrap_span(cli, "load_config", "cli.load_config")
        wrap_span(cli, "build_client", "cli.build_client")
        wrap_span(cli, "build_embedder", "cli.build_embedder")
        wrap_span(cli, "load_wikibio", "data.load_wikibio")
        wrap_span(
            cli, "run_detector", "detect.run_detector",
            record_of=lambda args: args[1].prompt_id, after=detector_done,
        )
        wrap_span(kgx.KGExtractor, "extract", "kgx.extract", after=extract_done)
        wrap_span(kgx, "parse_triples", "kgx.parse", after=parse_done)
        wrap_span(client.ChatClient, "complete", "client.complete", after=complete_done)
        wrap_span(cache.ResponseCache, "get", "cache.get")
        wrap_span(cache.ResponseCache, "put", "cache.put")
        wrap_span(backend_cls, "complete_once", "provider.backend")
        wrap_span(
            detect, "graph_consistency_scores", "detect.graph_consistency",
            after=consistency_done,
        )
        wrap_span(cli, "evaluate_method", "evaluation.evaluate_method")
        wrap_span(cli, "compare_methods", "evaluation.compare_methods")
        wrap_span(evaluation, "threshold_search", "evaluation.threshold_search")
        wrap_span(evaluation, "bootstrap_ci", "evaluation.bootstrap_ci")

        wrap_hot([detect], "cosine_sim", "detect.cosine_sim")
        wrap_hot([embed.MemoizingEmbedder], "embed", "embed.embed")
        wrap_hot([evaluation, cli], "auc_pr", "evaluation.auc_pr")
        wrap_hot([evaluation], "metrics_at", "evaluation.metrics_at")
        self.patch(cli, "read_score_records", self.hot_iter("data.read", cli.read_score_records))
        self.patch(
            embed.HashEmbedder, "_embed_raw",
            self.count("embed.unique_texts", embed.HashEmbedder._embed_raw),
        )

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every recorded span, keyed by span id."""
        foreign: defaultdict = defaultdict(list)
        for frame in self.spans:
            if frame.parent is not None and frame.parent.thread != frame.thread:
                foreign[frame.parent.id].append((frame.start, frame.end))
        result = {}
        for frame in self.spans:
            covered = 0.0
            reach = float("-inf")
            for start, end in sorted(foreign.get(frame.id, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result[frame.id] = frame.end - frame.start - frame.child_s - covered
        return result

    def write_spans(self, path: Path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for f in self.spans:
                fh.write(json.dumps({
                    "id": f.id, "name": f.name, "parent": f.parent.id if f.parent else None,
                    "thread": f.thread, "record": f.record, "tag": f.tag,
                    "start": f.start, "end": f.end, "self_s": selfs[f.id],
                }) + "\n")
