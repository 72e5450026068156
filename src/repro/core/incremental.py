"""Incremental per-commit analysis (paper §8.6).

"This overhead could be reduced by running the analysis incrementally,
i.e., only on the changed functions and the affected files in a commit."

The analyzer keeps a warm :class:`~repro.core.project.Project`; replaying
a commit re-parses only the touched files, determines which functions the
diff actually reached, and runs detection + authorship + pruning on those
functions alone (pruning and authorship still see the full project index,
which stays cached for untouched modules)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.findings import AuthorshipInfo, Candidate, Finding
from repro.core.project import Project
from repro.core.pruning import PruneContext, default_pipeline
from repro.core.valuecheck import ValueCheckConfig
from repro.engine import DEFAULT_CACHE, AnalysisEngine
from repro.engine.scheduler import EngineStats
from repro.errors import AnalysisError
from repro.obs.clock import monotonic
from repro.ir.builder import lower_source
from repro.vcs.diff import myers_diff
from repro.vcs.objects import Commit
from repro.vcs.repository import Repository


@dataclass
class IncrementalResult:
    commit_id: str
    changed_files: list[str] = field(default_factory=list)
    changed_functions: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    # Monotonic-clock duration of this incremental step (see
    # repro.obs.clock — never wall-clock, daemons run across NTP slews).
    seconds: float = 0.0
    # Every (file, function) the step actually re-analysed: the changed
    # functions plus widened callers (and, under ``full_modules``, the
    # untouched siblings in changed files).
    analyzed_functions: list[tuple[str, str]] = field(default_factory=list)
    deleted_files: list[str] = field(default_factory=list)
    # What the engine pass did — warm-state consumers (the analysis
    # service, benchmarks) assert cache hits/misses from this.
    engine_stats: EngineStats | None = None

    def reported(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.is_reported]

    def touched_scope(self) -> tuple[set[str], set[tuple[str, str]]]:
        """What this step invalidated: (deleted files, re-analysed
        (file, function) pairs).  The findings store folds an incremental
        step in by updating exactly this scope — stored fingerprints
        outside it are carried forward untouched."""
        return set(self.deleted_files), set(self.analyzed_functions)


def changed_line_ranges(old_text: str, new_text: str) -> list[tuple[int, int]]:
    """1-based inclusive line ranges of ``new_text`` touched by the edit."""
    old_lines = old_text.split("\n")
    new_lines = new_text.split("\n")
    ranges: list[tuple[int, int]] = []
    for op in myers_diff(old_lines, new_lines):
        if op.tag == "equal":
            continue
        if op.tag == "delete":
            # Deletion touches the seam: attribute to the following line.
            anchor = min(op.j1 + 1, len(new_lines)) or 1
            ranges.append((anchor, anchor))
        else:
            ranges.append((op.j1 + 1, op.j2))
    return ranges


class IncrementalAnalyzer:
    """Replay commits one by one, analysing only what changed."""

    def __init__(
        self,
        repo: Repository,
        start_rev: int | str,
        build_config: set[str] | None = None,
        config: ValueCheckConfig | None = None,
        suffixes: tuple[str, ...] = (".c",),
        widen_callers: bool = True,
    ):
        rev = repo.rev_index(start_rev)
        project = Project.from_repository(repo, rev=rev, build_config=build_config)
        self._bind(project, rev, config, suffixes, widen_callers)

    @classmethod
    def from_project(
        cls,
        project: Project,
        config: ValueCheckConfig | None = None,
        suffixes: tuple[str, ...] = (".c",),
        widen_callers: bool = True,
        rev: int | str | None = None,
    ) -> "IncrementalAnalyzer":
        """Warm incremental state over an already-built project.

        ``rev`` is the revision the project was materialised at (HEAD
        when omitted).  The analysis service opens projects from loose
        source trees as well as repositories; without a repository only
        :meth:`analyze_changes` is usable (no commit replay, no
        authorship)."""
        analyzer = cls.__new__(cls)
        start = project.repo.rev_index(rev) if project.repo is not None else -1
        analyzer._bind(project, start, config, suffixes, widen_callers)
        return analyzer

    def _bind(
        self,
        project: Project,
        rev: int,
        config: ValueCheckConfig | None,
        suffixes: tuple[str, ...],
        widen_callers: bool,
    ) -> None:
        self.repo = project.repo
        self.config = config or ValueCheckConfig()
        self.suffixes = suffixes
        # Call-site candidates (ignored returns) and parameter candidates
        # span the call boundary: changing a callee can create findings in
        # its callers, so those are re-analysed too when enabled.
        self.widen_callers = widen_callers
        self.current_rev = rev
        self.project = project
        # Per-module work (detection + index contributions) goes through
        # the engine so replaying a commit that reverts a file — or
        # re-replaying a commit — hits the content-addressed cache.
        self.engine = AnalysisEngine(
            cache=DEFAULT_CACHE if self.config.module_cache else None,
            rules=self.config.rules,
        )
        # Warm the caches so replay timing measures incremental work only.
        self.engine.run(self.project)
        _ = self.project.index

    def replay_next(self) -> IncrementalResult:
        """Advance one commit and analyse its changes."""
        if self.repo is None:
            raise AnalysisError("project has no repository to replay")
        next_rev = self.current_rev + 1
        if next_rev >= len(self.repo.commits):
            raise AnalysisError("no more commits to replay")
        commit = self.repo.commits[next_rev]
        result = self.analyze_commit(commit)
        self.current_rev = next_rev
        return result

    def analyze_commit(self, commit: Commit) -> IncrementalResult:
        """Analyse the changes one commit introduces (paper §8.6)."""
        changes = {
            path: commit.snapshot.get(path)
            for path in commit.touched
            if path.endswith(self.suffixes)
        }
        return self.analyze_changes(
            changes, label=commit.commit_id, rev=commit.commit_id
        )

    def analyze_changes(
        self,
        changes: Mapping[str, str | None],
        label: str = "edit",
        rev: int | str | None = None,
        full_modules: bool = False,
    ) -> IncrementalResult:
        """Analyse an explicit change set (path → new text, None = delete).

        This is the transport-agnostic core ``analyze_commit`` routes
        through; the analysis service feeds it uncommitted edits.  With
        ``full_modules`` the analysis set widens from the diff-touched
        functions to *every* function of each changed module — the engine
        re-analyses whole modules anyway, so this costs only resolution
        and pruning, and it lets a warm session splice the result over
        its previous full report without stale per-file findings.
        """
        started = monotonic()
        result = IncrementalResult(commit_id=label, changed_files=sorted(changes))

        changed_functions: list[tuple[str, str]] = []  # (path, function name)
        analysis_set: list[tuple[str, str]] = []
        for path in sorted(changes):
            old_text = ""
            if path in self.project.modules and self.project.modules[path].source is not None:
                old_text = self.project.modules[path].source.raw
            new_text = changes[path]
            if new_text is None:
                if path in self.project.modules:
                    del self.project.modules[path]
                self.project.invalidate({path})
                result.deleted_files.append(path)
                continue
            module = lower_source(new_text, filename=path, config=self.project.build_config)
            self.project.modules[path] = module
            self.project.invalidate({path})
            ranges = changed_line_ranges(old_text, new_text)
            for function in module.functions.values():
                touched_by_diff = any(
                    start <= function.end_line and end >= function.line
                    for start, end in ranges
                )
                if touched_by_diff:
                    changed_functions.append((path, function.name))
                if touched_by_diff or full_modules:
                    analysis_set.append((path, function.name))
        result.changed_functions = [name for _, name in changed_functions]

        if not analysis_set:
            result.seconds = monotonic() - started
            return result

        if self.widen_callers and changed_functions:
            from repro.core.callgraph import build_call_graph

            graph = build_call_graph(self.project)
            changed_names = {name for _, name in changed_functions}
            widened: set[str] = set()
            for name in changed_names:
                widened |= graph.callers_of(name)
            widened -= {name for _, name in analysis_set}
            locations = self.project.index.functions
            for name in sorted(widened):
                location = locations.get(name)
                if location is not None and location.file in self.project.modules:
                    analysis_set.append((location.file, name))
        result.analyzed_functions = list(analysis_set)

        # One engine pass over every module the analysis set touches:
        # changed modules are re-analysed (a content-cache miss unless the
        # commit reverted them), widened callers' modules are warm hits.
        needed_paths: list[str] = []
        for path, _ in analysis_set:
            if path not in needed_paths:
                needed_paths.append(path)
        engine_run = self.engine.run(self.project, paths=needed_paths)
        result.engine_stats = engine_run.stats

        candidates: list[Candidate] = []
        for path, name in analysis_set:
            module = self.project.modules[path]
            if module.functions.get(name) is None:
                continue
            candidates.extend(
                candidate
                for candidate in engine_run.by_path[path].candidates
                if candidate.function == name
            )

        # Semantic-rule candidates (evidence-carrying kinds) resolve the
        # same way cold runs do; only the classic unused-definition kinds
        # go through the cross-scope scenario dispatch.  Imported lazily:
        # repro.rules pulls in repro.core, whose package import reaches
        # back into this module.
        from repro.core.valuecheck import resolve_semantic
        from repro.rules.registry import resolve_rules, semantic_kinds

        packs = resolve_rules(self.config.rules)
        evidence_kinds = semantic_kinds(packs)
        classic = [c for c in candidates if c.kind not in evidence_kinds]
        semantic = [c for c in candidates if c.kind in evidence_kinds]

        if self.config.use_authorship and self.repo is not None:
            findings = self.project.resolver(rev).resolve_all(classic)
        else:
            # Mirror ValueCheck's ablation semantics: without authorship
            # every candidate is treated as reportable (synthetic
            # cross-scope), so warm sessions over plain source trees
            # report the same findings a cold run would.
            blame = self.project.blame_index(rev) if self.repo is not None else None
            findings = []
            for candidate in classic:
                author_name = ""
                introduced_day = -1
                if blame is not None:
                    info = blame.line_info(candidate.file, candidate.line)
                    if info is not None:
                        author_name = info.author.name
                        introduced_day = info.day
                findings.append(
                    Finding(
                        candidate=candidate,
                        authorship=AuthorshipInfo(
                            cross_scope=True,
                            def_author=author_name,
                            introducing_author=author_name,
                            blamed_file=candidate.file,
                            introduced_day=introduced_day,
                            reason="authorship filtering disabled",
                        ),
                    )
                )

        findings += resolve_semantic(self.project, semantic, rev)

        pipeline = default_pipeline(
            enable=set(self.config.pruners) if self.config.pruners is not None else None,
            min_increments=self.config.cursor_min_increments,
            peer_min_occurrences=self.config.peer_min_occurrences,
            peer_unused_fraction=self.config.peer_unused_fraction,
            include_history=self.config.history_pruning,
        )
        result.findings = pipeline.apply(
            findings,
            PruneContext(project=self.project),
            rules=tuple(pack.name for pack in packs),
        )
        result.seconds = monotonic() - started
        return result
