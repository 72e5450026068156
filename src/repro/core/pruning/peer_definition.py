"""Peer-definition pruning (paper §5.4).

How much do developers *care* about using this definition?  Look at its
peers:

* for a function return value, the peers are the return values at every
  other call site of the same function (``printf`` results are ignored
  everywhere — ignoring one more is no bug);
* for the n-th parameter of a function, the peers are the n-th parameters
  of all functions with the same signature.

"If the occurrences are over ten and over half of the peer definitions
are not used, we will not report it." Both thresholds are constructor
parameters (defaults match the paper)."""

from __future__ import annotations

from repro.core.findings import Candidate, CandidateKind
from repro.core.pruning.base import BasePruner, PruneContext
from repro.obs import PrunerVerdict


class PeerDefinitionPruner(BasePruner):
    name = "peer_definition"

    def __init__(self, min_occurrences: int = 10, unused_fraction: float = 0.5):
        self.min_occurrences = min_occurrences
        self.unused_fraction = unused_fraction

    def _mostly_unused(self, sites: int, unused: int) -> bool:
        if sites <= self.min_occurrences:
            return False
        return unused > self.unused_fraction * sites

    def _examine(self, context: PruneContext, counts: tuple[int, int], shape: str) -> dict:
        """Decide one peer set from its index tallies, recording its site
        statistics: how many peer definition sites were consulted and
        what fraction ignored the value (the §5.4 thresholds act on
        exactly these numbers).  The returned evidence carries the same
        counted sites the histograms observe, so the audit trail and the
        metrics agree by construction."""
        sites, unused = counts
        context.observe("prune.peer_sites", sites, shape=shape)
        if sites:
            context.observe("prune.peer_unused_fraction", unused / sites, shape=shape)
        return {
            "shape": shape,
            "sites": sites,
            "unused": unused,
            "fraction": unused / sites if sites else 0.0,
            "min_occurrences": self.min_occurrences,
            "unused_threshold": self.unused_fraction,
            "pruned": self._mostly_unused(sites, unused),
        }

    def _verdict(self, evidence: dict) -> PrunerVerdict:
        pruned = evidence.pop("pruned")
        return PrunerVerdict(self.name, pruned, evidence)

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        index = context.project.index
        if candidate.kind is CandidateKind.IGNORED_RETURN:
            callees = [
                callee
                for callee in (
                    candidate.resolved_callees
                    or ((candidate.callee,) if candidate.callee else ())
                )
                if callee
            ]
            last: dict | None = None
            for callee in callees:
                evidence = self._examine(
                    context, index.return_peer_counts(callee), shape="return"
                )
                evidence["callee"] = callee
                if evidence["pruned"]:
                    return self._verdict(evidence)
                last = evidence
            if last is None:
                return PrunerVerdict(self.name, False, {"reason": "no resolvable callee"})
            return self._verdict(last)
        if candidate.kind.is_param_shape:
            location = index.location(candidate.function)
            if location is None or candidate.param_index < 0:
                return PrunerVerdict(self.name, False, {"reason": "parameter not indexed"})
            counts = index.param_peer_counts(location.signature, candidate.param_index)
            evidence = self._examine(context, counts, shape="param")
            evidence["signature"] = location.signature
            evidence["param_index"] = candidate.param_index
            return self._verdict(evidence)
        return PrunerVerdict(self.name, False, {"reason": "not a peer-comparable shape"})
