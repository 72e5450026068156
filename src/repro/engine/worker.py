"""Per-module analysis unit of work.

:func:`analyze_lowered` is a pure function of its arguments: one lowered
module and its value-flow graph in, one :class:`ModuleResult` out.  The
scheduler calls it once per cache miss, on the calling thread.

Telemetry: each call records into a **module-local**
:class:`~repro.obs.MetricsRegistry` and ships the snapshot back inside
the :class:`ModuleResult` (a plain dict, so the cache can keep it).  The
scheduler merges those snapshots in sorted path order; cache hits replay
only their deterministic slice, so the merged registry's content metrics
are identical whether a module was computed or replayed.  Spans go to
the ambient tracer directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.findings import Candidate
from repro.core.project import ModuleContribution, build_contribution
from repro.ir.module import Module
from repro.obs import MetricsRegistry, deterministic_view
from repro.pointer.value_flow import ValueFlowGraph


@dataclass
class ModuleResult:
    """One module's full per-module analysis output."""

    path: str
    candidates: list[Candidate] = field(default_factory=list)
    contribution: ModuleContribution = field(default_factory=ModuleContribution)
    converged: bool = True
    # Module-local metrics snapshot (repro.obs schema): stage timings,
    # Andersen iteration counts, convergence counters for this module.
    metrics: dict | None = None
    # Deterministic detection-provenance slice: one plain dict per
    # candidate (repro.obs.provenance.detection_record).  Stored here —
    # not rebuilt by the scheduler — so content-cache hits replay the
    # exact records the original analysis produced.
    provenance: list[dict] = field(default_factory=list)
    # ``deterministic_view(metrics)``, kept from its first computation: a
    # cached result is replayed on every hit and its snapshot never
    # changes.
    _replay_metrics: dict | None = field(default=None, init=False, repr=False, compare=False)

    def replay_metrics(self) -> dict | None:
        """The timing-free slice of ``metrics`` that a cache hit replays."""
        if self._replay_metrics is None and self.metrics is not None:
            self._replay_metrics = deterministic_view(self.metrics)
        return self._replay_metrics


def analyze_lowered(
    path: str,
    module: Module,
    vfg: ValueFlowGraph,
    rules: tuple[str, ...] | None = None,
) -> ModuleResult:
    """Analyse an already-lowered module and its value-flow graph."""
    # Imported lazily: repro.rules pulls in repro.core, whose package
    # import reaches back here through the engine facade.
    from repro.rules.registry import resolve_rules

    local = MetricsRegistry()
    packs = resolve_rules(rules)
    with local.time("module.analyze_seconds"):
        with local.time("module.detect_seconds"), obs.span("detect", module=path):
            candidates = []
            for pack in packs:
                with local.time("rules.detect_seconds", rule=pack.name):
                    found = pack.detect(path, module, vfg)
                local.inc("rules.candidates", len(found), rule=pack.name)
                candidates.extend(found)
        with local.time("module.contribution_seconds"):
            contribution = build_contribution(path, module, vfg)
    converged = vfg.andersen.converged
    local.inc("andersen.modules")
    local.observe("andersen.iterations", vfg.andersen.iterations)
    local.observe("andersen.bitset_nodes", vfg.andersen.nodes)
    local.inc("andersen.scc_collapsed", vfg.andersen.scc_collapsed)
    if not converged:
        local.inc("andersen.non_converged")
    return ModuleResult(
        path=path,
        candidates=candidates,
        contribution=contribution,
        converged=converged,
        metrics=local.snapshot(),
        provenance=[obs.detection_record(candidate) for candidate in candidates],
    )

