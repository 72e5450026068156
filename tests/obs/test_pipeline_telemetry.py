"""End-to-end pipeline telemetry.

Acceptance criteria under test:

* a fully traced ``analyze()`` produces a Chrome trace-event JSON whose
  span names cover parse → rank;
* a cold run, an all-hits cache replay and a mixed hit/miss replay
  yield identical merged content metrics (``deterministic_view``) for
  the same project;
* re-entrant ``analyze()`` calls never double-count (fresh registry per
  run);
* the per-pruner kill counters sum consistently with the report's own
  candidate accounting.
"""

from __future__ import annotations

from repro import obs
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.engine import DEFAULT_CACHE
from repro.obs import base_name, deterministic_view
from repro.obs.sinks import STAGE_ORDER, prune_kills

SOURCES = {
    "lib.c": "int helper(int x)\n{\n    if (x) { return 1; }\n    return 0;\n}\n",
    "app.c": (
        "int helper(int x);\n"
        "void entry(void)\n"
        "{\n"
        "    int r;\n"
        "    r = helper(1);\n"
        "    if (r) { return; }\n"
        "    helper(2);\n"
        "}\n"
    ),
    "hint.c": "void g(void)\n{\n    int x __attribute__((unused)) = 1;\n}\n",
    "other.c": "void idle(void)\n{\n    int n;\n    n = 3;\n}\n",
}

CONFIG = dict(use_authorship=False, module_cache=False)

REQUIRED_SPANS = {
    "analyze",
    "parse",
    "lower",
    "vfg",
    "andersen",
    "engine",
    "detect",
    "resolve",
    "prune",
    "rank",
}


def traced_analyze(sources=SOURCES, **overrides):
    """Project construction + analysis under one ambient telemetry, so the
    parse/lower spans join the same trace as the analyze stages."""
    telemetry = obs.Telemetry.fresh()
    with obs.use(telemetry):
        project = Project.from_sources(dict(sources))
        report = ValueCheck(ValueCheckConfig(**{**CONFIG, **overrides})).analyze(
            project, telemetry=telemetry
        )
    return report, telemetry


class TestTraceCoverage:
    def test_span_tree_covers_parse_to_rank(self):
        report, telemetry = traced_analyze()
        assert REQUIRED_SPANS <= telemetry.tracer.span_names()
        chrome = telemetry.tracer.to_chrome()
        names = {event["name"] for event in chrome["traceEvents"]}
        assert REQUIRED_SPANS <= names

    def test_pipeline_stages_nest_under_analyze(self):
        report, telemetry = traced_analyze()
        spans = {span.span_id: span for span in telemetry.tracer.spans()}
        analyze = next(s for s in spans.values() if s.name == "analyze")
        for stage in ("engine", "resolve", "prune", "rank"):
            span = next(s for s in spans.values() if s.name == stage)
            assert span.parent_id == analyze.span_id

    def test_report_stage_seconds_ordered(self):
        report, _ = traced_analyze()
        stages = report.stage_seconds()
        assert {"parse", "engine", "prune", "rank"} <= set(stages)
        order = [STAGE_ORDER.index(stage) for stage in stages]
        assert order == sorted(order)
        assert all(seconds >= 0 for seconds in stages.values())


class TestCacheStateMetricDeterminism:
    # The engine's own cache accounting is the only thing allowed to
    # differ between a cold run and a replay of the same content.
    CACHE_ACCOUNTING = ("engine.cache.lookups", "engine.modules_analyzed")

    def _content_counters(self, view):
        return {
            key: value
            for key, value in view["counters"].items()
            if base_name(key) not in self.CACHE_ACCOUNTING
        }

    def _assert_content_equal(self, replay, cold):
        cold_view = deterministic_view(cold.metrics)
        replay_view = deterministic_view(replay.metrics)
        # Every content metric (counters, iteration histograms, kill
        # tallies) replays exactly from the stored module snapshots.
        assert self._content_counters(replay_view) == self._content_counters(cold_view)
        assert replay_view["histograms"] == cold_view["histograms"]
        assert replay_view["gauges"] == cold_view["gauges"]

    def test_full_replay_matches_cold(self):
        DEFAULT_CACHE.clear()
        cold, _ = traced_analyze(module_cache=True)
        replay, _ = traced_analyze(module_cache=True)
        assert cold.engine_stats.analyzed == cold.engine_stats.modules
        assert replay.engine_stats.cache_hits == replay.engine_stats.modules
        self._assert_content_equal(replay, cold)

    def test_partial_replay_matches_cold(self):
        # One edited module is recomputed while the rest replay: the merge
        # of fresh and replayed snapshots must equal a cold run.
        edited = {**SOURCES, "other.c": SOURCES["other.c"].replace("n = 3", "n = 4")}
        DEFAULT_CACHE.clear()
        traced_analyze(module_cache=True)
        mixed, _ = traced_analyze(edited, module_cache=True)
        assert mixed.engine_stats.analyzed == 1
        assert mixed.engine_stats.cache_hits == mixed.engine_stats.modules - 1
        DEFAULT_CACHE.clear()
        cold, _ = traced_analyze(edited, module_cache=True)
        assert cold.engine_stats.analyzed == cold.engine_stats.modules
        self._assert_content_equal(mixed, cold)


class TestReentrantAnalyze:
    def test_second_run_does_not_double_count(self):
        checker = ValueCheck(ValueCheckConfig(**CONFIG))
        first = checker.analyze(Project.from_sources(dict(SOURCES)))
        second = checker.analyze(Project.from_sources(dict(SOURCES)))
        assert deterministic_view(second.metrics) == deterministic_view(first.metrics)
        assert (
            second.metrics["counters"]["detect.candidates"]
            == first.metrics["counters"]["detect.candidates"]
        )

    def test_explicit_telemetry_accumulates_deliberately(self):
        telemetry = obs.Telemetry.fresh()
        checker = ValueCheck(ValueCheckConfig(**CONFIG))
        one = checker.analyze(Project.from_sources(dict(SOURCES)), telemetry=telemetry)
        per_run = one.metrics["counters"]["detect.candidates"]
        two = checker.analyze(Project.from_sources(dict(SOURCES)), telemetry=telemetry)
        assert two.metrics["counters"]["detect.candidates"] == 2 * per_run


class TestReportConsistency:
    def test_kill_counters_reconcile_with_report_counts(self):
        report, _ = traced_analyze()
        counts = report.counts()
        kills = prune_kills(report.metrics)
        counters = report.metrics["counters"]
        assert sum(kills.values()) == counts["pruned"]
        assert kills == report.prune_stats
        assert counters["prune.examined"] == counts["cross_scope"]
        assert counters["prune.survived"] == counts["cross_scope"] - counts["pruned"]
        assert counters["detect.candidates"] == counts["candidates"]

    def test_stats_record_carries_everything(self):
        report, _ = traced_analyze()
        record = report.stats_record()
        assert record["converged"] is True
        assert record["counts"] == report.counts()
        assert record["prune_stats"] == report.prune_stats
        assert set(record["stages"]) == set(report.stage_seconds())
        assert record["metrics"]["counters"] == report.metrics["counters"]
