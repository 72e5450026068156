"""Observability: tracing, metrics and sinks for the analysis pipeline.

The subsystem has three parts (all stdlib-only):

* :mod:`repro.obs.trace` — a span tracer (`Tracer.span("andersen",
  module=...)`) that produces a hierarchical wall-time trace exportable
  as Chrome ``trace_event`` JSON or a human-readable tree;
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  with deterministic worker-snapshot merging (supersedes the ad-hoc
  ``Report.engine_stats`` counters);
* :mod:`repro.obs.sinks` — JSONL run records, Prometheus text
  exposition, and the ``valuecheck stats`` summary table.

On top sit the *operational* modules the analysis service uses:
:mod:`repro.obs.journal` (bounded lifecycle event log),
:mod:`repro.obs.profiler` (always-on sampling profiler with per-phase
attribution), :mod:`repro.obs.slo` (sliding-window latency/error-budget
tracking behind ``health``) and :mod:`repro.obs.tracestore` (the ring of
completed per-request traces behind the ``trace`` request).

Instrumentation sites use the **ambient telemetry** established with
:func:`use`::

    telemetry = Telemetry.fresh()
    with use(telemetry):
        project = Project.from_sources(sources)   # parse/lower spans
        report = ValueCheck().analyze(project)    # engine→rank spans

Deep pipeline code calls the module-level :func:`span` /
:func:`metrics` helpers, which no-op (cheaply) when no telemetry is
active — the un-instrumented fast path stays free.  Metrics are
namespaced *per run*: each ``ValueCheck.analyze`` call records into a
fresh registry (re-entrant calls never double-count), while spans join
whatever tracer is ambient so one trace can cover parse → rank.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.clock import monotonic, wall_clock
from repro.obs.journal import Event, EventJournal
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    base_name,
    deterministic_view,
    metric_key,
    parse_key,
    summarize,
    summarize_snapshot,
)
from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    ProvenanceLog,
    ProvenanceRecord,
    PrunerVerdict,
    detection_record,
    render_record,
    render_records,
)
from repro.obs.profiler import IDLE_PHASE, SamplingProfiler, fold_frame
from repro.obs.sinks import (
    read_jsonl,
    render_stats_table,
    rule_candidates,
    rule_kills,
    to_prometheus,
    write_jsonl,
)
from repro.obs.slo import DEFAULT_SLOS, SloConfig, SloTracker, build_trackers
from repro.obs.stitch import TracePart, make_part, stitch, stitch_chrome
from repro.obs.timeseries import MetricsHistory, Sample
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.obs.tracestore import TraceRecord, TraceStore


@dataclass
class Telemetry:
    """One tracer + one metrics registry, travelling together."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def fresh(cls, trace: bool = True) -> "Telemetry":
        return cls(tracer=Tracer(enabled=trace), metrics=MetricsRegistry())


# The ambient telemetry stack, one per thread: a thread's instrumentation
# resolves to the telemetry *it* pushed, even while sibling service
# workers run other requests under their own.  A thread that never
# pushed records nothing.
class _Ambient(threading.local):
    def __init__(self):
        self.stack: list[Telemetry] = []


_ambient = _Ambient()


def current() -> Telemetry | None:
    stack = _ambient.stack
    return stack[-1] if stack else None


@contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` ambient on this thread for the duration of the block."""
    stack = _ambient.stack
    stack.append(telemetry)
    try:
        yield telemetry
    finally:
        stack.pop()


def span(name: str, **attrs):
    """A span on the ambient tracer, or a shared no-op context manager."""
    telemetry = current()
    if telemetry is None or not telemetry.tracer.enabled:
        return NULL_SPAN
    return telemetry.tracer.span(name, **attrs)


def metrics() -> MetricsRegistry | None:
    """The ambient metrics registry, if any."""
    telemetry = current()
    return telemetry.metrics if telemetry is not None else None


__all__ = [
    "DEFAULT_SLOS",
    "Event",
    "EventJournal",
    "IDLE_PHASE",
    "METRICS_SCHEMA_VERSION",
    "MetricsHistory",
    "MetricsRegistry",
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceLog",
    "ProvenanceRecord",
    "PrunerVerdict",
    "Sample",
    "SamplingProfiler",
    "SloConfig",
    "SloTracker",
    "Span",
    "Telemetry",
    "TracePart",
    "TraceRecord",
    "TraceStore",
    "Tracer",
    "base_name",
    "build_trackers",
    "current",
    "fold_frame",
    "deterministic_view",
    "detection_record",
    "make_part",
    "metric_key",
    "metrics",
    "monotonic",
    "parse_key",
    "stitch",
    "stitch_chrome",
    "read_jsonl",
    "render_record",
    "render_records",
    "render_stats_table",
    "rule_candidates",
    "rule_kills",
    "span",
    "summarize",
    "summarize_snapshot",
    "to_prometheus",
    "use",
    "wall_clock",
    "write_jsonl",
]
