"""Sinks: JSONL round-trips, Prometheus exposition, summary tables."""

from __future__ import annotations

from repro.obs import (
    MetricsRegistry,
    read_jsonl,
    render_stats_table,
    to_prometheus,
    write_jsonl,
)
from repro.obs.sinks import prune_kills


class TestJsonl:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "stats" / "runs.jsonl"
        write_jsonl(path, {"project": "a", "seconds": 1.5})
        write_jsonl(path, {"project": "b", "seconds": 2.5})
        records = read_jsonl(path)
        assert [record["project"] for record in records] == ["a", "b"]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"project": "a"}\n\n{"project": "b"}\n')
        assert len(read_jsonl(path)) == 2


class TestPrometheus:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.inc("engine.runs")
        registry.inc("prune.killed", 5, pruner="cursor")
        registry.set_gauge("service.queue.depth", 4)
        registry.observe("module.analyze_seconds", 0.25)
        registry.observe("module.analyze_seconds", 0.75)
        return registry.snapshot()

    def test_counters_as_totals(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE engine_runs_total counter" in text
        assert "engine_runs_total 1" in text
        assert 'prune_killed_total{pruner="cursor"} 5' in text

    def test_gauges(self):
        assert "service_queue_depth 4" in to_prometheus(self._snapshot())

    def test_histograms_as_summaries(self):
        text = to_prometheus(self._snapshot())
        assert "module_analyze_seconds_count 2" in text
        assert "module_analyze_seconds_sum 1.0" in text
        assert 'module_analyze_seconds{quantile="0.5"} 0.25' in text

    def test_accepts_summarised_histograms(self):
        from repro.obs import summarize_snapshot

        text = to_prometheus(summarize_snapshot(self._snapshot()))
        assert "module_analyze_seconds_count 2" in text


class TestPrometheusEscaping:
    """Label values must be escaped per the text exposition format:
    backslash, double-quote, newline."""

    def _text(self, **labels):
        registry = MetricsRegistry()
        registry.inc("files.analyzed", 1, **labels)
        return to_prometheus(registry.snapshot())

    def test_backslash(self):
        text = self._text(path="C:\\src\\a.c")
        assert 'path="C:\\\\src\\\\a.c"' in text

    def test_double_quote(self):
        text = self._text(label='say "hi"')
        assert 'label="say \\"hi\\""' in text

    def test_newline(self):
        text = self._text(detail="line1\nline2")
        assert 'detail="line1\\nline2"' in text
        # The exposition format is line-oriented: a raw newline inside a
        # label would corrupt every sample after it.
        for line in text.splitlines():
            assert line.startswith(("#", "files_analyzed"))

    def test_backslash_before_quote_not_double_escaped(self):
        text = self._text(mix='\\"')
        assert 'mix="\\\\\\""' in text

    def test_plain_values_untouched(self):
        assert 'pruner="cursor"' in self._text(pruner="cursor")


class TestPrometheusCacheStability:
    """The exported counter lines must not depend on whether the modules
    were analysed or replayed from the module cache; only the engine's
    own cache accounting may differ."""

    SOURCES = {
        "a.c": "int f(void) { int x = 1; x = 2; return x; }\n",
        "b.c": "int g(int *p) { int y = 3; *p = y; return 0; }\n",
    }
    CACHE_ACCOUNTING = ("engine_cache_lookups_total", "engine_modules_analyzed_total")

    @classmethod
    def _run(cls, sources=None):
        from repro.core.project import Project
        from repro.core.valuecheck import ValueCheck, ValueCheckConfig

        project = Project.from_sources(dict(sources or cls.SOURCES), name="stable")
        report = ValueCheck(ValueCheckConfig(use_authorship=False)).analyze(project)
        text = to_prometheus(report.metrics)
        # Timing histograms legitimately differ run to run; counters and
        # their label sets must not.
        lines = sorted(
            line
            for line in text.splitlines()
            if "_total" in line
            and "seconds" not in line
            and not line.startswith(cls.CACHE_ACCOUNTING)
        )
        return lines, report.engine_stats

    def test_cache_replay_matches_cold_run(self):
        from repro.engine import DEFAULT_CACHE

        DEFAULT_CACHE.clear()
        cold, cold_stats = self._run()
        replay, replay_stats = self._run()
        assert cold_stats.analyzed == cold_stats.modules
        assert replay_stats.cache_hits == replay_stats.modules  # genuinely replayed
        assert replay == cold

    def test_partial_replay_matches_cold_run(self):
        from repro.engine import DEFAULT_CACHE

        edited = {**self.SOURCES, "b.c": self.SOURCES["b.c"].replace("y = 3", "y = 4")}
        DEFAULT_CACHE.clear()
        self._run()
        mixed, mixed_stats = self._run(edited)
        assert mixed_stats.analyzed == 1  # one recomputed, the rest replayed
        assert mixed_stats.cache_hits == mixed_stats.modules - 1
        DEFAULT_CACHE.clear()
        cold, cold_stats = self._run(edited)
        assert cold_stats.analyzed == cold_stats.modules
        assert mixed == cold


class TestSummaryTable:
    RECORD = {
        "project": "openssl",
        "seconds": 1.234,
        "converged": True,
        "counts": {"candidates": 10, "cross_scope": 6, "pruned": 4, "reported": 2},
        "stages": {"parse": 0.5, "rank": 0.01, "custom_stage": 0.2},
        "prune_stats": {"cursor": 3, "unused_hints": 1},
    }

    def test_renders_stages_and_kills(self):
        table = render_stats_table([self.RECORD])
        assert "project=openssl" in table
        assert "seconds=1.234" in table
        assert "parse" in table and "rank" in table and "custom_stage" in table
        assert "cursor" in table and "   3" in table

    def test_empty(self):
        assert render_stats_table([]) == "no runs recorded"


class TestPruneKills:
    def test_extracts_labelled_counters(self):
        registry = MetricsRegistry()
        registry.inc("prune.killed", 2, pruner="cursor")
        registry.inc("prune.killed", 0, pruner="peer_definition")
        registry.inc("prune.examined", 9)
        assert prune_kills(registry.snapshot()) == {"cursor": 2, "peer_definition": 0}
