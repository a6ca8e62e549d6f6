"""Spans recorded around calls into mtforge, from outside the package.

A span has a name (``<layer>.<what>``), a start, an end, a parent and a busy
duration. Spans are kept in memory and turned into metrics once the traced
pass ends. A span's self time is its duration minus the durations of its
direct children; children of one parent never overlap (one thread), so the
self times of every span in a pass add up to the root span's duration.

Plain calls are wrapped where the calling module looks the name up (for
example ``mtforge.cleaning.read_pairs``, which ``filter_corpus`` calls).
Generators get one span per (generator, parent) whose duration is the time
spent inside the generator's frames only, summed over its resumes; its start
and end bound the first and last resume. The injected tokenizer and
translator are wrapped by proxies.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import tracemalloc
from typing import Any, Callable

from mtforge import (
    augmentation,
    cleaning,
    corpus,
    evaluation,
    routing,
    sampling,
    translator as translator_mod,
)

_now = time.perf_counter
LAYERS = ("corpus", "subword", "cleaning", "sampling", "translator",
          "augmentation", "evaluation", "routing")


class Span:
    __slots__ = ("name", "parent", "start", "end", "dur", "n", "attrs")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.dur = 0.0
        self.n = 0          # items yielded, for generator spans
        self.attrs: dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Tracer:
    """Collects spans for one pass. ``root`` covers the whole pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root = Span("bench.pass", None, _now())
        self._stack = [self.root]

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1], _now())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        span.dur = span.end - span.start
        self._stack.pop()

    def finish(self) -> None:
        self.root.end = _now()
        self.root.dur = self.root.end - self.root.start

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """Time every call of ``fn``; ``note(span, args, result)`` records
        counts afterwards inside a ``trace.note`` span of its own."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                with self.span("trace.note"):
                    note(span, args, kwargs, result)
            return result
        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIter(self, name, fn(*args, **kwargs))
        return traced

    def self_times(self) -> dict[int, float]:
        child = {}
        for span in self.spans:
            key = id(span.parent)
            child[key] = child.get(key, 0.0) + span.dur
        return {id(s): s.dur - child.get(id(s), 0.0) for s in [self.root, *self.spans]}


class _TracedIter:
    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._spans: dict[int, Span] = {}

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        parent = tracer._stack[-1]
        span = self._spans.get(id(parent))
        t0 = _now()
        if span is None:
            span = Span(self._name, parent, t0)
            self._spans[id(parent)] = span
            tracer.spans.append(span)
        tracer._stack.append(span)
        try:
            item = next(self._inner)
            span.n += 1
            return item
        finally:
            tracer._stack.pop()
            span.end = _now()
            span.dur += span.end - t0


class TracedTokenizer:
    """Times ``tokenize`` and ``count``; every other attribute is the wrapped
    tokenizer's own."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def tokenize(self, text):
        span = self._tracer.open("subword.tokenize")
        try:
            return self._inner.tokenize(text)
        finally:
            self._tracer.close(span)
            span.attrs["chars"] = len(text)

    def count(self, text):
        span = self._tracer.open("subword.count")
        try:
            return self._inner.count(text)
        finally:
            self._tracer.close(span)
            span.attrs["chars"] = len(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedTranslator(translator_mod.Translator):
    """Times ``translate`` under ``name`` and counts sentences and tokens."""

    def __init__(self, inner, tracer: Tracer, name: str = "translator.translate"):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    @property
    def supported_directions(self):
        return self._inner.supported_directions

    def translate(self, sentences, direction, config=None):
        span = self._tracer.open(self._name)
        try:
            return self._inner.translate(sentences, direction, config)
        finally:
            self._tracer.close(span)
            with self._tracer.span("trace.note"):
                span.attrs["sentences"] = len(sentences)
                # Single-space-separated text: tokens are spaces plus one.
                span.attrs["tokens"] = sum(s.count(" ") + 1 for s in sentences if s)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _note_filter(span, args, kwargs, result):
    span.attrs["counts"] = dict(result[1])


def _note_return(span, args, kwargs, result):
    span.attrs["result"] = result


def _note_batch(span, args, kwargs, result):
    span.attrs["draws"] = len(result.pairs)


def _note_segments(span, args, kwargs, result):
    span.attrs["segments"] = len(args[0]) if args else len(kwargs["hyps"])


def _note_routed(span, args, kwargs, result):
    span.attrs["sentences"] = len(result)


def _note_rows(span, args, kwargs, result):
    span.attrs["rows"] = sum(e.declared_line_count for e in result.shards)


# (module, attribute, span name, kind, note). ``gen`` wraps a generator
# function. Attributes a future mtforge no longer has are skipped.
_PATCHES = [
    (corpus, "load_manifest", "corpus.load_manifest", "call", None),
    (corpus, "corpus_stats", "corpus.corpus_stats", "call", None),
    (corpus, "read_pairs", "corpus.read_pairs", "gen", None),
    (corpus, "iter_all_pairs", "corpus.iter_all_pairs", "gen", None),
    (cleaning, "read_pairs", "corpus.read_pairs", "gen", None),
    (cleaning, "write_manifest", "corpus.write_manifest", "call", None),
    (sampling, "iter_all_pairs", "corpus.iter_all_pairs", "gen", None),
    (augmentation, "write_shard", "corpus.write_shard", "call", None),
    (cleaning, "filter_corpus", "cleaning.filter_corpus", "call", _note_filter),
    (cleaning, "shuffle_dataset", "cleaning.shuffle_dataset", "call", _note_return),
    (sampling, "language_distribution", "sampling.language_distribution", "call", None),
    (sampling.BatchScheduler, "__init__", "sampling.build", "call", None),
    (sampling.BatchScheduler, "next_batch", "sampling.next_batch", "call", _note_batch),
    (augmentation, "plan_backtranslation", "augmentation.plan", "call", None),
    (augmentation, "plan_dual_pseudo", "augmentation.plan", "call", None),
    (augmentation, "plan_triangulation", "augmentation.plan", "call", None),
    (augmentation, "run_plan", "augmentation.run_plan", "call", _note_rows),
    (evaluation, "pivot_translate", "translator.pivot", "call", None),
    (routing, "pivot_translate", "translator.pivot", "call", None),
    (evaluation, "evaluate_directions", "evaluation.evaluate_directions", "call", None),
    (evaluation, "corpus_bleu", "evaluation.corpus_bleu", "call", _note_segments),
    (routing, "build_routing_table", "routing.build_routing_table", "call", None),
    (routing, "route_translate", "routing.route_translate", "call", _note_routed),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, kind, note in _PATCHES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            wrapped = tracer.wrap_gen(name, original) if kind == "gen" \
                else tracer.wrap(name, original, note)
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class MemoryProbe:
    """With tracemalloc running, records the traced peak and the retained
    growth of the scheduler build and of ``run_plan``."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.retained: dict[str, int] = {}

    def wrap(self, key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            self.peaks[key] = max(self.peaks.get(key, 0), peak - base)
            self.retained[key] = current - base
            return result
        return probed

    @contextlib.contextmanager
    def patched(self):
        targets = [(sampling.BatchScheduler, "__init__", "sampling.build"),
                   (augmentation, "run_plan", "augmentation.run_plan")]
        saved = [(o, a, k, o.__dict__[a]) for o, a, k in targets if a in o.__dict__]
        tracemalloc.start()
        try:
            for owner, attr, key, original in saved:
                setattr(owner, attr, self.wrap(key, original))
            yield
        finally:
            for owner, attr, _, original in saved:
                setattr(owner, attr, original)
            tracemalloc.stop()


def scheduler_kwargs(stats) -> dict:
    """Pass ``stats`` only while the scheduler still takes it."""
    params = inspect.signature(sampling.BatchScheduler.__init__).parameters
    return {"stats": stats} if "stats" in params else {}



def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def summarize(tracer: Tracer, probe: MemoryProbe | None, pairs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (and of the memory pass, when
    ``probe`` is given). ``pairs`` is the corpus size behind the scheduler."""
    selfs = tracer.self_times()
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(*names):
        return [s for name in names for s in by_name.get(name, [])]

    def dur(*names):
        return sum(s.dur for s in spans(*names))

    def self_of(*names):
        return sum(selfs[id(s)] for s in spans(*names))

    def attr(key, *names):
        return sum(s.attrs.get(key, 0) for s in spans(*names))

    m: dict[str, float] = {}
    tok = ("subword.tokenize", "subword.count")
    m["subword.tokenize_calls"] = len(spans(*tok))
    m["subword.chars_in"] = attr("chars", *tok)
    m["subword.tokenize_s"] = dur(*tok)

    counts: dict[str, int] = {}
    for span in spans("cleaning.filter_corpus"):
        for key, n in span.attrs["counts"].items():
            counts[key] = counts.get(key, 0) + n
    pairs_in = sum(counts.values())
    m["cleaning.filter_s"] = dur("cleaning.filter_corpus")
    m["cleaning.filter_self_s"] = self_of("cleaning.filter_corpus")
    m["cleaning.pairs_in"] = pairs_in
    m["cleaning.keep_ratio"] = counts.get("kept", 0) / pairs_in if pairs_in else 0.0
    for reason in ("Empty", "ContainsUnk", "RatioExceeded", "TooLong"):
        m[f"cleaning.rejected.{reason}"] = counts.get(f"rejected_{reason}", 0)
    m["cleaning.shuffle_s"] = dur("cleaning.shuffle_dataset")
    m["cleaning.shuffle_lines"] = attr("result", "cleaning.shuffle_dataset")

    m["corpus.read_pairs_s"] = dur("corpus.read_pairs")
    m["corpus.pairs_read"] = sum(s.n for s in spans("corpus.read_pairs"))
    m["corpus.stats_s"] = dur("corpus.corpus_stats")

    batch_us = sorted(s.dur * 1e6 for s in spans("sampling.next_batch"))
    m["sampling.build_s"] = dur("sampling.build")
    m["sampling.next_batch_p50_us"] = statistics.median(batch_us) if batch_us else 0.0
    m["sampling.next_batch_p99_us"] = (statistics.quantiles(batch_us, n=100)[98]
                                       if len(batch_us) >= 100 else max(batch_us, default=0.0))
    m["sampling.draws"] = attr("draws", "sampling.next_batch")
    peaks = probe.peaks if probe else {}
    retained = probe.retained if probe else {}
    m["sampling.build_traced_peak_mib"] = peaks.get("sampling.build", 0) / 2**20
    m["sampling.traced_bytes_per_pair"] = (retained.get("sampling.build", 0) / pairs
                                           if pairs else 0.0)

    inner = spans("translator.translate")
    m["translator.calls"] = len(inner)
    m["translator.sentences"] = attr("sentences", "translator.translate")
    m["translator.tokens"] = attr("tokens", "translator.translate")
    m["translator.translate_s"] = sum(
        s.dur for s in tracer.spans
        if s.layer == "translator" and (s.parent is None or s.parent.layer != "translator"))
    m["translator.noise_s"] = self_of("translator.noisy")

    rows = attr("rows", "augmentation.run_plan")
    planned = sum(s.attrs["sentences"] for s in inner
                  if _has_ancestor(s, "augmentation.run_plan"))
    m["augmentation.run_plan_self_s"] = self_of("augmentation.run_plan")
    m["augmentation.rows_out"] = rows
    m["augmentation.translations_per_row"] = planned / rows if rows else 0.0
    m["augmentation.traced_peak_mib"] = peaks.get("augmentation.run_plan", 0) / 2**20

    m["evaluation.bleu_calls"] = len(spans("evaluation.corpus_bleu"))
    m["evaluation.segments"] = attr("segments", "evaluation.corpus_bleu")
    m["evaluation.bleu_self_s"] = self_of("evaluation.corpus_bleu")
    m["evaluation.evaluate_s"] = dur("evaluation.evaluate_directions")

    routed = spans("routing.route_translate")
    routed_sentences = sum(s.attrs["sentences"] for s in routed)
    pivoted = {id(s.parent) for s in spans("translator.pivot")}
    hops = sum(s.attrs["sentences"] for s in inner
               if _has_ancestor(s, "routing.route_translate"))
    m["routing.build_s"] = dur("routing.build_routing_table")
    m["routing.translate_s"] = dur("routing.route_translate")
    m["routing.pivot_share"] = (sum(s.attrs["sentences"] for s in routed if id(s) in pivoted)
                                / routed_sentences if routed_sentences else 0.0)
    m["routing.hops_per_sentence"] = hops / routed_sentences if routed_sentences else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[id(s)] for s in tracer.spans if s.layer == layer)
    m["bench.self_s"] = selfs[id(tracer.root)]
    m["trace.self_s"] = sum(selfs[id(s)] for s in tracer.spans if s.layer == "trace")
    m["trace.wall_s"] = tracer.root.dur
    m["trace.spans"] = len(tracer.spans)
    return m
