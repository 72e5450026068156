"""Authorship lookup: decide which candidates are *cross-scope* (§4.2).

The three scenarios, quoting the paper:

1. **Unused return value** — author D of the call site vs the authors
   B₁,B₂,… of every ``return`` statement in the callee.  Cross-scope iff
   all Bᵢ differ from D.  A callee not defined in the project (a library
   call) counts as a different author.
2. **Unused/overwritten function argument** — author C of each call site
   vs the author B of the parameter's definition line, or, when the
   parameter is overwritten inside the callee by developer D, C vs D.
   Cross-scope iff some call site's author differs.
3. **Overwritten definition** — author A of the definition vs the authors
   of the stores that overwrite it on all successor paths.  Cross-scope
   iff the overwriter set is non-empty and every overwriter differs
   from A.

The resolver also picks the *introducing author* — the developer whose
edit created the inconsistency — and the file to measure their
familiarity against; the DOK ranking consumes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.findings import AuthorshipInfo, Candidate, CandidateKind, Finding
from repro.core.project import Project, ProjectIndex
from repro.vcs.blame import BlameIndex
from repro.vcs.objects import Author

_EXTERNAL = "<external>"


@dataclass
class _LineAuthor:
    name: str
    day: int


class _ReturnAuthors(NamedTuple):
    names: tuple[str, ...]  # one per blamed return line, in line order
    name_set: frozenset[str]


class CrossScopeResolver:
    """Resolves candidates against blame data for one project revision."""

    def __init__(self, project: Project, rev: int | str | None = None):
        if project.repo is None:
            raise ValueError("cross-scope resolution needs a project with a repository")
        self.project = project
        self.index: ProjectIndex = project.index
        # Revision-keyed cache on the project: repeated analyses at the
        # same rev reuse one BlameIndex instead of re-blaming every file.
        self.blame: BlameIndex = project.blame_index(rev)
        # callee -> names of its blamed return authors, as a tuple (in
        # return-line order) and a set; a hot callee (e.g. a logging
        # helper called everywhere) is probed once per candidate without
        # this, and each probe re-blames every return line.
        self._return_author_cache: dict[str, _ReturnAuthors | None] = {}
        # candidate -> its resolution.  Resolvers are cached per revision
        # and dropped whenever the index changes, so a rescan of unchanged
        # modules (the same cached candidates) resolves by lookup.
        self._resolved: dict[Candidate, AuthorshipInfo] = {}

    # -- blame helpers --------------------------------------------------

    def _line_author(self, file: str, line: int) -> _LineAuthor | None:
        info = self.blame.line_info(file, line)
        if info is None:
            return None
        return _LineAuthor(name=info.author.name, day=info.day)

    def _return_authors(self, callee: str | None) -> _ReturnAuthors | None:
        """Authors of every return statement of ``callee``; None when the
        callee is external to the project (treated as cross-scope)."""
        if callee is None:
            return None
        if callee not in self._return_author_cache:
            names = self._return_author_names(callee)
            self._return_author_cache[callee] = (
                _ReturnAuthors(names, frozenset(names)) if names is not None else None
            )
        return self._return_author_cache[callee]

    def _return_author_names(self, callee: str) -> tuple[str, ...] | None:
        location = self.index.location(callee)
        if location is None:
            return None
        names = tuple(
            author.name
            for line in location.return_lines
            if (author := self._line_author(location.file, line)) is not None
        )
        if not names:
            # Defined but with no return lines blamed (e.g. void callee
            # reached through a stale pointer set) — use the definition line.
            author = self._line_author(location.file, location.line)
            return (author.name,) if author is not None else None
        return names

    # -- per-scenario checks ------------------------------------------------

    def _check_ignored_return(self, candidate: Candidate) -> AuthorshipInfo:
        site_author = self._line_author(candidate.file, candidate.line)
        if site_author is None:
            return AuthorshipInfo(cross_scope=False, reason="call site not blamed")
        callees = candidate.resolved_callees or (
            (candidate.callee,) if candidate.callee else ()
        )
        counterparts: list[str] = []
        cross = True
        any_internal = False
        for callee in callees or (candidate.callee,):
            return_authors = self._return_authors(callee)
            if return_authors is None:
                counterparts.append(_EXTERNAL)
                continue  # library call: different author by definition
            any_internal = True
            counterparts.extend(return_authors.names)
            if site_author.name in return_authors.name_set:
                cross = False
        if not callees and candidate.callee is None:
            # Unresolvable indirect call: conservative, not cross-scope.
            return AuthorshipInfo(cross_scope=False, reason="unresolved indirect call")
        return AuthorshipInfo(
            cross_scope=cross,
            def_author=site_author.name,
            counterpart_authors=tuple(counterparts),
            introducing_author=site_author.name,
            blamed_file=candidate.file,
            introduced_day=site_author.day,
            reason="ignored return value" + ("" if any_internal else " (external callee)"),
            peer_sites=len(counterparts),
        )

    def _check_param(self, candidate: Candidate) -> AuthorshipInfo:
        location = self.index.location(candidate.function)
        if location is None:
            return AuthorshipInfo(cross_scope=False, reason="function not indexed")
        sites = self.index.sites_of(candidate.function)
        if not sites:
            return AuthorshipInfo(cross_scope=False, reason="no call sites in project")
        # The in-function side: the overwriting author if the param is
        # overwritten, otherwise the author of the parameter definition.
        if candidate.overwrite_lines:
            inside_lines = candidate.overwrite_lines
        else:
            inside_lines = (candidate.line,)
        inside_authors = [
            author
            for line in inside_lines
            if (author := self._line_author(candidate.file, line)) is not None
        ]
        if not inside_authors:
            return AuthorshipInfo(cross_scope=False, reason="parameter not blamed")
        site_authors = [
            author
            for site in sites
            if (author := self._line_author(site.file, site.line)) is not None
        ]
        inside_names = {author.name for author in inside_authors}
        mismatched = [a for a in site_authors if a.name not in inside_names]
        cross = bool(mismatched)
        introducing = max(inside_authors, key=lambda author: author.day)
        return AuthorshipInfo(
            cross_scope=cross,
            def_author=introducing.name,
            counterpart_authors=tuple(author.name for author in site_authors),
            introducing_author=introducing.name,
            blamed_file=candidate.file,
            introduced_day=introducing.day,
            reason=(
                "argument overwritten inside callee"
                if candidate.kind is CandidateKind.OVERWRITTEN_ARG
                else "parameter value unused"
            ),
            peer_sites=len(site_authors),
        )

    def _check_overwritten(self, candidate: Candidate) -> AuthorshipInfo:
        def_author = self._line_author(candidate.file, candidate.line)
        if def_author is None:
            return AuthorshipInfo(cross_scope=False, reason="definition not blamed")
        overwriters = [
            author
            for line in candidate.overwrite_lines
            if (author := self._line_author(candidate.file, line)) is not None
        ]
        cross = bool(overwriters) and all(
            author.name != def_author.name for author in overwriters
        )
        result: AuthorshipInfo | None = None
        if cross:
            introducing = max(overwriters, key=lambda author: author.day)
            result = AuthorshipInfo(
                cross_scope=True,
                def_author=def_author.name,
                counterpart_authors=tuple(author.name for author in overwriters),
                introducing_author=introducing.name,
                blamed_file=candidate.file,
                introduced_day=introducing.day,
                reason="definition overwritten by other authors",
                peer_sites=len(overwriters),
            )
        # Scenario 1 piggy-back (Fig. 4 lines 6-8): a stored value that came
        # from a call is also checked against the callee's return authors.
        if result is None and candidate.callee is not None:
            return_check = self._check_value_from_call(candidate, def_author)
            if return_check is not None:
                return return_check
        if result is not None:
            return result
        return AuthorshipInfo(
            cross_scope=False,
            def_author=def_author.name,
            counterpart_authors=tuple(author.name for author in overwriters),
            reason="overwriters share the definition's author"
            if overwriters
            else "no overwriter on all paths",
            peer_sites=len(overwriters),
        )

    def _check_value_from_call(
        self, candidate: Candidate, def_author: _LineAuthor
    ) -> AuthorshipInfo | None:
        return_authors = self._return_authors(candidate.callee)
        if return_authors is None:
            counterparts: tuple[str, ...] = (_EXTERNAL,)
            cross = True
        else:
            counterparts = return_authors.names
            cross = def_author.name not in return_authors.name_set
        if not cross:
            return None
        return AuthorshipInfo(
            cross_scope=True,
            def_author=def_author.name,
            counterpart_authors=counterparts,
            introducing_author=def_author.name,
            blamed_file=candidate.file,
            introduced_day=def_author.day,
            reason="unused return value (assigned form)",
            peer_sites=len(counterparts),
        )

    # -- public API ------------------------------------------------------------

    def resolve(self, candidate: Candidate) -> AuthorshipInfo:
        info = self._resolved.get(candidate)
        if info is None:
            info = self._resolved[candidate] = self._resolve(candidate)
        return info

    def _resolve(self, candidate: Candidate) -> AuthorshipInfo:
        if candidate.kind is CandidateKind.IGNORED_RETURN and candidate.store_kind is None:
            return self._check_ignored_return(candidate)
        if candidate.kind.is_param_shape:
            return self._check_param(candidate)
        if candidate.kind is CandidateKind.IGNORED_RETURN:
            # Assigned-but-unused return value with no overwriter.
            def_author = self._line_author(candidate.file, candidate.line)
            if def_author is None:
                return AuthorshipInfo(cross_scope=False, reason="definition not blamed")
            checked = self._check_value_from_call(candidate, def_author)
            if checked is not None:
                return checked
            return AuthorshipInfo(
                cross_scope=False,
                def_author=def_author.name,
                reason="return authors include the definition's author",
            )
        if candidate.kind is CandidateKind.OVERWRITTEN_DEF:
            return self._check_overwritten(candidate)
        return self._check_dead_store(candidate)

    def _check_dead_store(self, candidate: Candidate) -> AuthorshipInfo:
        """Dead stores with no overwriter and no call provenance.

        The paper's Fig. 4 only ever compares against overwriters or
        return/call-site authors, yet its Table 4 pruning statistics count
        cursors — trailing dead increments with neither — among the
        *cross-scope* candidates.  We interpret the boundary for these as
        the function itself: the definition was added into a function
        another developer owns (author of the definition line differs from
        the author of the function's signature line).  DESIGN.md records
        this interpretation.
        """
        def_author = self._line_author(candidate.file, candidate.line)
        if def_author is None:
            return AuthorshipInfo(cross_scope=False, reason="definition not blamed")
        location = self.index.location(candidate.function)
        owner = (
            self._line_author(location.file, location.line) if location is not None else None
        )
        if owner is None:
            return AuthorshipInfo(cross_scope=False, reason="function owner not blamed")
        cross = owner.name != def_author.name
        return AuthorshipInfo(
            cross_scope=cross,
            def_author=def_author.name,
            counterpart_authors=(owner.name,),
            peer_sites=1,
            introducing_author=def_author.name if cross else "",
            blamed_file=candidate.file if cross else "",
            introduced_day=def_author.day if cross else -1,
            reason="dead store in another author's function"
            if cross
            else "dead store by the function's own author",
        )

    def resolve_all(self, candidates: list[Candidate]) -> list[Finding]:
        return [Finding(candidate=c, authorship=self.resolve(c)) for c in candidates]
