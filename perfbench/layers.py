"""Per-layer tracing of the program, from outside it.

The traced run wraps the public entry point of each ``repro`` layer and
records one span per call: layer, start, end, parent span, operation id
and thread.  A wrapper replaces an entry point where its callers look it
up: a module-level function is rebound in every ``repro`` module that
holds it (``repro.frontend.parser.tokenize`` as well as
``repro.frontend.lexer.tokenize``), and a method is replaced on its
class.  The traced run therefore executes the same program code as the
untraced one, plus the wrappers.

Spans stay in memory until the run ends; :meth:`LayerTracer.chrome`
renders them as a Chrome trace.  A layer's self time is the duration of
its spans minus the part their child spans cover.  Gen-2 collector
pauses are recorded as ``gc.gen2`` child spans of whatever span was
open (through :data:`gc.callbacks`), so a pause is charged to the
runtime layer and not to the layer it interrupted.  The operation's own
root span is named ``op``; its self time is the time no layer claimed.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

clock = time.perf_counter

Counter = Callable[[dict, object], None]


def _count_tokens(counts: dict, tokens) -> None:
    counts["frontend.tokens"] += len(tokens)


def _count_instructions(counts: dict, module) -> None:
    counts["ir.instructions"] += sum(
        len(block.instructions)
        for function in module.functions.values()
        for block in function.blocks
    )


def _count_andersen(counts: dict, result) -> None:
    counts["pointer.andersen_iterations"] += result.iterations
    counts["pointer.scc_collapsed"] += result.scc_collapsed


def _count_candidates(counts: dict, candidates) -> None:
    counts["rules.candidates"] += len(candidates)


def _count_engine(counts: dict, run) -> None:
    counts["engine.cache_hits"] += run.stats.cache_hits
    counts["engine.cache_misses"] += run.stats.cache_misses


def _count_pruning(counts: dict, findings) -> None:
    counts["prune.examined"] += len(findings)
    counts["prune.survived"] += sum(1 for finding in findings if finding.pruned_by is None)


def _count_incremental(counts: dict, result) -> None:
    counts["incremental.functions_analyzed"] += len(result.analyzed_functions)


#: (defining module, function, layer, counter) — rebound in every repro
#: module that binds the function.
FUNCTIONS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.frontend.preprocessor", "preprocess", "frontend.preprocess", None),
    ("repro.frontend.lexer", "tokenize", "frontend.lex", _count_tokens),
    ("repro.ir.builder", "lower_unit", "ir.lower", _count_instructions),
    ("repro.pointer.value_flow", "build_value_flow", "pointer.vfg", None),
    ("repro.pointer.andersen", "analyze_module", "pointer.andersen", _count_andersen),
    ("repro.core.project", "build_contribution", "project.contribution", None),
    # BlameIndex computes each file's blame through this function.
    ("repro.vcs.blame", "blame", "vcs.blame", None),
    ("repro.vcs.diff", "myers_diff", "vcs.diff", None),
    ("repro.core.valuecheck", "resolve_semantic", "resolve.semantic", None),
    ("repro.core.ranking", "rank_findings", "rank.rank", None),
    ("repro.store.fingerprint", "project_sources", "store.fingerprint", None),
    ("repro.store.fingerprint", "fingerprint_findings", "store.fingerprint", None),
    ("repro.store.gate", "evaluate_gate", "store.gate", None),
)

#: (module, class, method, layer, counter) — replaced on the class.
#: ``Project.index`` is a property read once per candidate by the
#: pruners; the benchmark wraps ``_build_index``, the builder behind it,
#: so the trace holds one span per index build instead of one per read.
METHODS: tuple[tuple[str, str, str, str, Counter | None], ...] = (
    ("repro.frontend.parser", "Parser", "parse_translation_unit", "frontend.parse", None),
    ("repro.core.project", "Project", "_build_index", "project.index", None),
    ("repro.engine.scheduler", "AnalysisEngine", "run", "engine.run", _count_engine),
    ("repro.vcs.blame", "BlameIndex", "__init__", "vcs.blame", None),
    ("repro.core.cross_scope", "CrossScopeResolver", "resolve_all", "resolve.cross_scope", None),
    ("repro.core.pruning.pipeline", "PruningPipeline", "apply", "prune.apply", _count_pruning),
    ("repro.core.familiarity", "DokModel", "__init__", "rank.dok_model", None),
    ("repro.core.familiarity", "DokModel", "breakdown", "rank.dok_model", None),
    (
        "repro.core.incremental",
        "IncrementalAnalyzer",
        "analyze_changes",
        "incremental.changes",
        _count_incremental,
    ),
    ("repro.service.core", "AnalysisService", "submit", "service.submit", None),
    ("repro.service.sessions", "ProjectSession", "analyze_diff", "session.merge", None),
    ("repro.store.store", "FindingsStore", "record_snapshot", "store.snapshot", None),
    ("repro.store.store", "FindingsStore", "update_from_incremental", "store.snapshot", None),
    ("repro.store.store", "FindingsStore", "diff", "store.diff", None),
)


def rule_pack_methods() -> tuple[tuple[type, str, str, Counter | None], ...]:
    """``RulePack.detect`` of every registered pack, one layer each."""
    from repro.rules.registry import registered_packs

    return tuple(
        (type(pack), "detect", f"rules.{pack.name}.detect", _count_candidates)
        for pack in registered_packs()
    )


class Span:
    __slots__ = ("layer", "start", "end", "parent", "op", "thread")

    def __init__(self, layer: str, start: float, parent: "Span | None", op: int, thread: int):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def seconds(self) -> float:
        return self.end - self.start


class LayerTracer:
    """Spans and counts of the traced operations of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._local = threading.local()
        self._driving: list[Span] = []
        self._op = 0
        self._gc_started = 0.0
        #: Gen-2 pause seconds since :meth:`watch_gc`, traced or not.
        self.gc_seconds = 0.0
        self._patches: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original) for the installed wrappers.
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        # A service worker thread starts with an empty stack while the
        # driving thread waits inside ``submit``: its spans hang there.
        if stack:
            return stack[-1]
        return self._driving[-1] if self._driving else None

    def _wrap(self, function, layer: str, counter: Counter | None):
        spans = self.spans
        counts = self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(layer, clock(), self._parent(stack), self._op, threading.get_ident())
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        self._wrappers[id(traced)] = (traced, function)
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = clock()
            return
        ended = clock()
        self.gc_seconds += ended - self._gc_started
        if not self._op:
            return
        span = Span(
            "gc.gen2",
            self._gc_started,
            self._parent(self._stack()),
            self._op,
            threading.get_ident(),
        )
        span.end = ended
        self.spans.append(span)
        self.counts["gc.gen2_collections"] += 1

    def watch_gc(self) -> None:
        """Time gen-2 pauses from now on, in traced and untraced operations."""
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        by_original = {}
        for module_name, name, layer, counter in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            by_original[id(original)] = self._wrap(original, layer, counter)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_original.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        methods = [
            (getattr(importlib.import_module(module_name), class_name), method, layer, counter)
            for module_name, class_name, method, layer, counter in METHODS
        ]
        for owner, method, layer, counter in methods + list(rule_pack_methods()):
            self._patch(owner, method, self._wrap(vars(owner)[method], layer, counter))

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module first imported while the wrappers were installed bound
        # a wrapper under its own name: give it the original too.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
        self._wrappers.clear()

    @contextmanager
    def operation(self) -> Iterator[None]:
        """Trace one operation: install, time it under an ``op`` root
        span, uninstall."""
        self.install()
        self.ops += 1
        self._op = self.ops
        stack = self._stack()
        self._driving = stack
        root = Span("op", clock(), None, self._op, threading.get_ident())
        self.spans.append(root)
        stack.append(root)
        try:
            yield
        finally:
            root.end = clock()
            stack.pop()
            self._op = 0
            self.uninstall()

    # -- results ---------------------------------------------------------

    def traced_spans(self) -> list[Span]:
        return [span for span in self.spans if span.op]

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer, summed over the traced operations."""
        spans = self.traced_spans()
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.seconds
        totals: dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.layer] += span.seconds - covered[id(span)]
        return totals

    def inclusive_seconds(self) -> dict[str, float]:
        """Wall time per layer, counting a nested call of the same layer
        once (its outermost span)."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.traced_spans():
            parent = span.parent
            while parent is not None and parent.layer != span.layer:
                parent = parent.parent
            if parent is None:
                totals[span.layer] += span.seconds
        return totals

    def chrome(self) -> dict:
        """The spans as a Chrome ``trace_event`` document."""
        spans = self.traced_spans()
        if not spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        epoch = min(span.start for span in spans)
        ids = {id(span): index for index, span in enumerate(spans, start=1)}
        threads: dict[int, int] = {}
        events = []
        for span in spans:
            events.append(
                {
                    "name": span.layer,
                    "ph": "X",
                    "ts": round((span.start - epoch) * 1e6, 3),
                    "dur": round(span.seconds * 1e6, 3),
                    "pid": 0,
                    "tid": threads.setdefault(span.thread, len(threads)),
                    "args": {
                        "span": ids[id(span)],
                        "parent": ids.get(id(span.parent)) if span.parent else None,
                        "op": span.op,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
