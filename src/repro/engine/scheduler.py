"""The analysis engine: cache-aware per-module scheduling.

One :meth:`AnalysisEngine.run` call takes a project and produces every
per-module analysis artifact — detection candidates, index contributions,
solver convergence — by:

1. probing the content-addressed :class:`ResultCache` for each module
   (key: path + source text + build config, see :mod:`repro.engine.cache`),
2. analysing the misses in one in-process loop, and
3. merging results **in sorted path order**, so the output is
   bit-identical whichever modules came from the cache.

Contributions are installed into the project's per-module cache, which
means ``project.index`` afterwards assembles without recomputing anything.

Telemetry: ``run`` records into a per-run :class:`MetricsRegistry`
(supplied by the caller, or fresh) — cache lookup latency histograms,
hit/miss counters, per-module timing percentiles via the module
snapshots, and Andersen iteration/convergence stats.  Module snapshots
merge in sorted path order; cache *hits* replay only the deterministic
slice of their stored snapshot (counts, iterations), never stale
timings.  :class:`EngineStats` remains as a legacy summary view of the
same run, kept for ``Report.engine_stats`` compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.findings import Candidate
from repro.core.project import Project
from repro.engine.cache import DEFAULT_CACHE, ResultCache, module_key
from repro.engine.worker import ModuleResult, analyze_lowered
from repro.obs import MetricsRegistry
from repro.obs.clock import monotonic


@dataclass(frozen=True)
class EngineStats:
    """What one engine run did, for reports and benchmarks.

    Legacy summary view: the per-run :class:`MetricsRegistry` (see
    ``EngineRun.metrics`` / ``Report.metrics``) carries the same facts
    plus histograms; this dataclass survives for established callers.
    """

    modules: int = 0
    analyzed: int = 0  # cache misses actually computed
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    non_converged: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "modules": self.modules,
            "analyzed": self.analyzed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "non_converged": list(self.non_converged),
        }


@dataclass
class EngineRun:
    """Merged output of one scheduling round."""

    candidates: list[Candidate] = field(default_factory=list)
    by_path: dict[str, ModuleResult] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    # Per-run metrics registry (fresh per run unless the caller shares
    # one): the authoritative accounting superseding ``stats``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class AnalysisEngine:
    """Schedules per-module analysis with content-addressed result reuse.

    ``cache=None`` disables content-addressed reuse (every module is
    recomputed); modules without retained source text are likewise
    computed fresh since they cannot be content-addressed.
    """

    def __init__(
        self,
        cache: ResultCache | None = DEFAULT_CACHE,
        rules: tuple[str, ...] | None = None,
    ):
        # Imported lazily: repro.rules pulls in repro.core, whose package
        # import reaches back into the engine facade.
        from repro.rules.registry import normalize_rules

        self.cache = cache
        # Normalized through the registry so `None` and an explicit
        # all-packs selection produce identical jobs and cache keys.
        self.rules = normalize_rules(rules)

    def run(
        self,
        project: Project,
        paths: list[str] | None = None,
        metrics: MetricsRegistry | None = None,
        provenance: "obs.ProvenanceLog | None" = None,
    ) -> EngineRun:
        started = monotonic()
        registry = metrics if metrics is not None else MetricsRegistry()
        if paths is None:
            paths = sorted(project.modules)
        else:
            paths = [path for path in paths if path in project.modules]

        run = EngineRun(metrics=registry)
        hits = misses = 0
        keys: dict[str, str] = {}
        pending: list[str] = []
        with obs.span("engine", modules=len(paths)):
            for path in paths:
                module = project.modules[path]
                text = module.source.raw if module.source is not None else None
                if self.cache is not None and text is not None:
                    probe_started = monotonic()
                    key = module_key(path, text, project.build_config, rules=self.rules)
                    keys[path] = key
                    cached = self.cache.get(key)
                    probe_seconds = monotonic() - probe_started
                    outcome = "hit" if cached is not None else "miss"
                    registry.observe(
                        "engine.cache.lookup_seconds", probe_seconds, outcome=outcome
                    )
                    if cached is not None:
                        run.by_path[path] = cached
                        hits += 1
                        continue
                    misses += 1
                pending.append(path)
            if hits:
                registry.inc("engine.cache.lookups", hits, outcome="hit")
            if misses:
                registry.inc("engine.cache.lookups", misses, outcome="miss")

            fresh = set(pending)
            for path in pending:
                result = analyze_lowered(
                    path, project.modules[path], project.vfg(path), rules=self.rules
                )
                run.by_path[path] = result
                if self.cache is not None and path in keys:
                    self.cache.put(keys[path], result)

            # Deterministic merge: sorted path order, regardless of cache state.
            for path in paths:
                result = run.by_path[path]
                run.candidates.extend(result.candidates)
                project._contribs[path] = result.contribution
                if provenance is not None:
                    # Cache hits replay the stored slice; fresh results
                    # ship the one just built.  Either way the records are
                    # pure content facts, so the merged log is identical
                    # across cache states.
                    provenance.merge_detections(result.provenance)
                if result.metrics is not None:
                    # Hits replay only content facts (iteration counts,
                    # convergence) — their stored timings are stale.
                    if path in fresh:
                        registry.merge(result.metrics)
                    else:
                        registry.merge(result.replay_metrics())

        registry.inc("engine.runs")
        registry.inc("engine.modules", len(paths))
        registry.inc("engine.modules_analyzed", len(pending))
        seconds = monotonic() - started
        registry.observe("engine.run_seconds", seconds)
        run.stats = EngineStats(
            modules=len(paths),
            analyzed=len(pending),
            cache_hits=hits,
            cache_misses=len(pending),
            seconds=seconds,
            non_converged=tuple(
                path for path in paths if not run.by_path[path].converged
            ),
        )
        return run

