"""Pruner interface and shared context."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Protocol

from repro.core.findings import Candidate
from repro.core.project import Project
from repro.ir.module import Function, Module
from repro.obs import MetricsRegistry, ProvenanceLog, PrunerVerdict


@dataclass
class PruneContext:
    """Everything a pruner may consult about a candidate's surroundings."""

    project: Project
    # Per-run metrics registry; pruners record through the helpers below
    # (no-ops when the pipeline runs without telemetry).
    metrics: MetricsRegistry | None = None
    # Per-run provenance log; the pipeline records one verdict per
    # pruner consulted (None when the run keeps no audit trail).
    provenance: ProvenanceLog | None = None
    # Per-run memos (the context lives for one pipeline run): each
    # module's raw text split into lines, and one compiled whole-word
    # pattern per variable name.  Pruners consult both per candidate.
    _lines: dict[str, list[str]] = field(default_factory=dict, init=False, repr=False)
    _word_patterns: dict[str, re.Pattern[str]] = field(
        default_factory=dict, init=False, repr=False
    )

    def count(self, name: str, value: float = 1, **labels) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.metrics is not None:
            self.metrics.observe(name, value, **labels)

    def module_of(self, candidate: Candidate) -> Module | None:
        return self.project.modules.get(candidate.file)

    def function_of(self, candidate: Candidate) -> Function | None:
        module = self.module_of(candidate)
        if module is None:
            return None
        return module.functions.get(candidate.function)

    def source_lines(self, path: str) -> list[str]:
        """The raw (pre-preprocessing) lines of module ``path``, split
        once per run; shared between callers, so read-only."""
        lines = self._lines.get(path)
        if lines is None:
            module = self.project.modules.get(path)
            source = module.source if module is not None else None
            lines = source.raw.split("\n") if source is not None else []
            self._lines[path] = lines
        return lines

    def raw_line(self, candidate: Candidate, line: int) -> str:
        lines = self.source_lines(candidate.file)
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def word_pattern(self, word: str) -> re.Pattern[str]:
        """``\\bword\\b``, compiled once per run."""
        pattern = self._word_patterns.get(word)
        if pattern is None:
            pattern = re.compile(rf"\b{re.escape(word)}\b")
            self._word_patterns[word] = pattern
        return pattern


class Pruner(Protocol):
    """A pruning strategy; ``name`` keys the Table 4 breakdown.

    ``decide`` is the one decision entry point: it returns the verdict
    *and* the concrete evidence it rests on, and both the kill counters
    and the provenance audit trail are derived from that single return
    value (so the two can never disagree).  ``should_prune`` survives as
    the boolean convenience view over ``decide``.
    """

    name: str

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        """The verdict for this candidate, with its evidence."""
        ...

    def should_prune(self, candidate: Candidate, context: PruneContext) -> bool:
        """True if this candidate is an intentional unused definition."""
        ...


class BasePruner:
    """Shared ``should_prune`` → ``decide`` delegation."""

    name = "base"

    def decide(self, candidate: Candidate, context: PruneContext) -> PrunerVerdict:
        raise NotImplementedError

    def should_prune(self, candidate: Candidate, context: PruneContext) -> bool:
        return self.decide(candidate, context).pruned
