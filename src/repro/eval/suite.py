"""Shared evaluation state: corpora, projects and cached reports.

Corpus scale is taken from the ``REPRO_SCALE`` environment variable when
not given explicitly (default 0.1 — large enough that every category is
well represented, small enough for laptop runs; scale 1.0 reproduces
paper-magnitude candidate counts)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.project import Project
from repro.core.report import Report
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus.generator import SyntheticApp, generate_all
from repro.obs.clock import monotonic

DEFAULT_SCALE = 0.1
DEFAULT_SEED = 7

APP_ORDER = ("linux", "nfs-ganesha", "mysql", "openssl")


def env_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))


@dataclass
class AppRun:
    """One application's generated corpus plus its default analysis."""

    app: SyntheticApp
    project: Project
    report: Report
    parse_seconds: float = 0.0

    @property
    def ledger(self):
        return self.app.ledger


@dataclass
class EvalSuite:
    scale: float
    seed: int
    runs: dict[str, AppRun] = field(default_factory=dict)
    _ablation_cache: dict[tuple[str, str], Report] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        scale: float | None = None,
        seed: int = DEFAULT_SEED,
        config: ValueCheckConfig | None = None,
    ) -> "EvalSuite":
        """Generate all corpora and analyse each once.  ``config`` selects
        the engine caching for the default analyses (repeated
        builds at the same scale/seed hit the content-addressed module
        cache and skip per-module re-analysis entirely)."""
        scale = env_scale() if scale is None else scale
        suite = cls(scale=scale, seed=seed)
        apps = generate_all(scale=scale, seed=seed)
        for name in APP_ORDER:
            app = apps[name]
            started = monotonic()
            project = app.project()
            parse_seconds = monotonic() - started
            report = ValueCheck(config).analyze(project)
            suite.runs[name] = AppRun(
                app=app, project=project, report=report, parse_seconds=parse_seconds
            )
        return suite

    def run(self, name: str) -> AppRun:
        return self.runs[name]

    def report_with(self, name: str, config: ValueCheckConfig, cache_key: str) -> Report:
        """Analyze an app under an ablation config (cached per key)."""
        key = (name, cache_key)
        if key not in self._ablation_cache:
            self._ablation_cache[key] = ValueCheck(config).analyze(self.runs[name].project)
        return self._ablation_cache[key]
