"""Ordered pruning pipeline with per-strategy accounting (Table 4)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.findings import Finding
from repro.core.pruning.base import PruneContext, Pruner
from repro.core.pruning.config_dependency import ConfigDependencyPruner
from repro.core.pruning.cursor import CursorPruner
from repro.core.pruning.history import HistoryPruner
from repro.core.pruning.unused_hints import UnusedHintsPruner
from repro.core.pruning.peer_definition import PeerDefinitionPruner


@dataclass
class PruningPipeline:
    """Applies pruners in order; the first match claims the candidate."""

    pruners: list[Pruner] = field(default_factory=list)

    def apply(
        self,
        findings: list[Finding],
        context: PruneContext,
        rules: tuple[str, ...] | None = None,
    ) -> list[Finding]:
        """Return findings with ``pruned_by`` stamped (survivors keep None).

        Each finding is only shown to the pruners its rule pack's
        ``pruner_policy`` allows (the unused-definitions pack allows all,
        preserving the paper's behaviour; semantic packs restrict the
        list).  ``rules`` names the enabled packs, for per-rule kill
        accounting.

        Accounting (when ``context.metrics`` is set): every pruner gets a
        ``prune.killed{pruner=...}`` counter — zero-initialised so stage
        sums stay comparable across runs — plus ``prune.examined`` and
        ``prune.survived`` totals that reconcile with the report's
        candidate counts.  Kills are additionally attributed to the
        finding's rule pack under ``prune.killed{rule=...}``.

        Kill counters and provenance verdicts are both derived from the
        *same* :class:`~repro.obs.PrunerVerdict` objects each pruner's
        ``decide`` returns: a short-circuiting pruner cannot make the
        counter and the audit trail disagree.  Pruners after the first
        kill are never consulted (pipeline order claims the candidate),
        so the trail ends at the claiming verdict.
        """
        # Imported lazily: repro.rules pulls in repro.core, whose package
        # import reaches back into this module.
        from repro.rules.registry import pack_for_kind

        provenance = context.provenance
        # Tallied locally and flushed once below; each pruner and each
        # enabled rule is zero-initialised.
        examined = survived = 0
        killed_by_pruner = {pruner.name: 0 for pruner in self.pruners}
        killed_by_rule = {rule: 0 for rule in rules or ()}
        # kind -> (rule pack name, the pruners that pack allows, in order).
        routes: dict = {}
        out: list[Finding] = []
        for finding in findings:
            candidate = finding.candidate
            route = routes.get(candidate.kind)
            if route is None:
                pack = pack_for_kind(candidate.kind)
                allowed = [p for p in self.pruners if pack.allows_pruner(p.name)]
                route = routes[candidate.kind] = (pack.name, allowed)
            rule, allowed = route
            pruned_by: str | None = None
            verdicts = []
            for pruner in allowed:
                verdict = pruner.decide(candidate, context)
                verdicts.append(verdict)
                if verdict.pruned:
                    pruned_by = verdict.pruner
                    break
            if provenance is not None:
                provenance.add_verdicts(finding.key, verdicts)
            examined += 1
            if pruned_by is not None:
                killed_by_pruner[pruned_by] = killed_by_pruner.get(pruned_by, 0) + 1
                killed_by_rule[rule] = killed_by_rule.get(rule, 0) + 1
            else:
                survived += 1
            if finding.pruned_by != pruned_by:
                finding = replace(finding, pruned_by=pruned_by)
            out.append(finding)
        for name, kills in killed_by_pruner.items():
            context.count("prune.killed", kills, pruner=name)
        for rule, kills in killed_by_rule.items():
            context.count("prune.killed", kills, rule=rule)
        if examined:
            context.count("prune.examined", examined)
        if survived:
            context.count("prune.survived", survived)
        return out

    def stats(self, findings: list[Finding]) -> dict[str, int]:
        """Prune counts per strategy (over already-stamped findings)."""
        counts = {pruner.name: 0 for pruner in self.pruners}
        for finding in findings:
            if finding.pruned_by is not None:
                counts[finding.pruned_by] = counts.get(finding.pruned_by, 0) + 1
        return counts


def default_pipeline(
    enable: set[str] | None = None,
    min_increments: int = 2,
    peer_min_occurrences: int = 10,
    peer_unused_fraction: float = 0.5,
    include_history: bool = False,
) -> PruningPipeline:
    """The paper's pipeline, in the paper's order.  ``enable`` restricts to
    a subset of strategy names (for ablations); ``include_history`` adds
    the §9.1 future-work pruner after the four published strategies."""
    pruners: list[Pruner] = [
        ConfigDependencyPruner(),
        CursorPruner(min_increments=min_increments),
        UnusedHintsPruner(),
        PeerDefinitionPruner(
            min_occurrences=peer_min_occurrences, unused_fraction=peer_unused_fraction
        ),
    ]
    if include_history:
        pruners.append(HistoryPruner())
    if enable is not None:
        pruners = [pruner for pruner in pruners if pruner.name in enable]
    return PruningPipeline(pruners=pruners)
