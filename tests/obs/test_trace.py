"""Tracer: span nesting, thread separation, exports, ambient context."""

from __future__ import annotations

import threading

from repro import obs
from repro.obs import Telemetry, Tracer


class TestSpans:
    def test_nesting_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_durations_positive_and_nested_smaller(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].seconds <= spans["outer"].seconds

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as span:
            assert span is None
        assert tracer.spans() == []

    def test_sibling_threads_get_separate_stacks(self):
        tracer = Tracer()
        seen = {}
        # Both workers must be alive at once: a thread ident can be
        # reused after exit, which would collapse their tracer ids.
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.span(name) as span:
                barrier.wait(timeout=5)
                seen[name] = span

        with tracer.span("main"):
            threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Worker spans are roots of their own threads, not children of main.
        assert seen["w0"].parent_id is None
        assert seen["w1"].parent_id is None
        thread_ids = {span.thread_id for span in tracer.spans()}
        assert len(thread_ids) == 3

    def test_stage_totals_sum_same_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("detect"):
                pass
        totals = tracer.stage_totals()
        assert set(totals) == {"detect"}
        assert totals["detect"] >= 0


class TestExports:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("analyze", project="app"):
            with tracer.span("engine", modules=3):
                pass
        return tracer

    def test_chrome_trace_shape(self):
        chrome = self._traced().to_chrome()
        assert chrome["traceEvents"]
        for event in chrome["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["ts"], float)
        names = {event["name"] for event in chrome["traceEvents"]}
        assert names == {"analyze", "engine"}
        args = {e["name"]: e["args"] for e in chrome["traceEvents"]}
        assert args["analyze"] == {"project": "app"}

    def test_render_tree_indents_children(self):
        tree = self._traced().render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("analyze")
        assert lines[1].startswith("  engine")
        assert "ms" in lines[0]


class TestAmbientContext:
    def test_no_ambient_spans_are_noops(self):
        assert obs.current() is None
        with obs.span("whatever") as span:
            assert span is None

    def test_use_establishes_and_restores(self):
        telemetry = Telemetry.fresh()
        with obs.use(telemetry):
            assert obs.current() is telemetry
            with obs.span("stage") as span:
                assert span is not None
        assert obs.current() is None
        assert telemetry.tracer.span_names() == {"stage"}

    def test_nested_use_stacks(self):
        outer, inner = Telemetry.fresh(), Telemetry.fresh()
        with obs.use(outer):
            with obs.use(inner):
                assert obs.current() is inner
                with obs.span("s"):
                    pass
            assert obs.current() is outer
        assert inner.tracer.span_names() == {"s"}
        assert outer.tracer.span_names() == set()

    def test_thread_that_never_pushed_sees_no_telemetry(self):
        # Ambient telemetry is per thread: a sibling's push must not leak
        # into a thread that never entered obs.use.
        pushed, release = threading.Event(), threading.Event()

        def sibling():
            with obs.use(Telemetry.fresh()):
                pushed.set()
                release.wait(5)

        holder = threading.Thread(target=sibling)
        holder.start()
        seen = []
        try:
            assert pushed.wait(5)
            probe = threading.Thread(target=lambda: seen.append(obs.current()))
            probe.start()
            probe.join()
        finally:
            release.set()
            holder.join()
        assert seen == [None]

    def test_disabled_ambient_tracer_noops(self):
        telemetry = Telemetry.fresh(trace=False)
        with obs.use(telemetry):
            with obs.span("stage") as span:
                assert span is None
