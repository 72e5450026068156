"""Project model: parsed modules + version history + cross-file index.

The paper analyses each bitcode file separately (§7, §8.1.2) but the
authorship lookup and peer-definition pruning need *project-wide* facts:
where every function is defined, where its ``return`` statements are, who
calls it from where, and how peers treat the same return value/parameter.
:class:`ProjectIndex` aggregates those facts across modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.dataflow.liveness import live_variables
from repro.errors import ReproError
from repro.ir.builder import lower_source
from repro.ir.instructions import Call, CastOp
from repro.ir.module import Function, Module
from repro.pointer.value_flow import ValueFlowGraph, build_value_flow
from repro.vcs.repository import Repository

# Most callers alternate between at most a couple of revisions (HEAD and a
# replay cursor); a tiny FIFO keeps memory bounded during long replays.
_REV_CACHE_LIMIT = 4


@dataclass(frozen=True)
class FunctionLocation:
    """Where a function lives, for authorship lookup."""

    name: str
    file: str
    line: int
    end_line: int
    return_lines: tuple[int, ...]
    param_lines: tuple[int, ...]  # decl line per parameter index
    signature: tuple[str, ...]  # (return type, param type names...)


@dataclass(frozen=True)
class CallSite:
    callee: str
    file: str
    line: int
    caller: str
    result_used: bool


@dataclass
class ProjectIndex:
    """Cross-file facts: definitions, call sites, peer usage.

    Once built the per-callee collections are frozen tuples: the accessors
    below are hot paths (every candidate probes them during authorship and
    pruning) and handing out the internal lists would let a caller corrupt
    the index shared across analyses.
    """

    functions: dict[str, FunctionLocation] = field(default_factory=dict)
    call_sites: dict[str, tuple[CallSite, ...]] = field(default_factory=dict)
    # (signature, param index) -> usage flags of that parameter across all
    # functions sharing the signature (peer-definition pruning, shape 2).
    param_usage: dict[tuple[tuple[str, ...], int], tuple[bool, ...]] = field(default_factory=dict)
    # (sites, unused) tallies of the two peer sets above, counted once at
    # build time: peer-definition pruning decides every candidate from
    # these two numbers alone.
    return_counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    param_counts: dict[tuple[tuple[str, ...], int], tuple[int, int]] = field(
        default_factory=dict
    )

    def location(self, name: str) -> FunctionLocation | None:
        return self.functions.get(name)

    def sites_of(self, callee: str) -> tuple[CallSite, ...]:
        return self.call_sites.get(callee, ())

    def return_usage(self, callee: str) -> list[bool]:
        """result_used flags across all call sites of ``callee`` (peer
        definitions of a return value, §5.4)."""
        return [site.result_used for site in self.sites_of(callee)]

    def peer_params(self, signature: tuple[str, ...], index: int) -> tuple[bool, ...]:
        return self.param_usage.get((signature, index), ())

    def return_peer_counts(self, callee: str) -> tuple[int, int]:
        """(sites, unused) over :meth:`return_usage`."""
        return self.return_counts.get(callee, (0, 0))

    def param_peer_counts(self, signature: tuple[str, ...], index: int) -> tuple[int, int]:
        """(sites, unused) over :meth:`peer_params`."""
        return self.param_counts.get((signature, index), (0, 0))


@dataclass
class ModuleContribution:
    """One module's slice of the project index.

    Built per module (and cached per module by the analysis engine), then
    merged deterministically by :meth:`Project._build_index`.
    """

    functions: dict[str, FunctionLocation] = field(default_factory=dict)
    call_sites: list[CallSite] = field(default_factory=list)
    param_usage: list[tuple[tuple[str, ...], int, bool]] = field(default_factory=list)


# Backwards-compatible alias (pre-engine name).
_ModuleContribution = ModuleContribution


def _call_result_used(function: Function, call: Call, use_map) -> bool:
    if call.dest is None:
        return True  # void calls have no discardable result
    uses = [u for u in use_map.get(call.dest, []) if not (isinstance(u, CastOp) and u.to_void)]
    return bool(uses)


def build_contribution(path: str, module: Module, vfg: ValueFlowGraph) -> ModuleContribution:
    """Compute one module's index contribution (pure function of the
    module + its value-flow graph, so the engine can cache it per module)."""
    contribution = ModuleContribution()
    for function in module.functions.values():
        ast_fn = module.unit.function(function.name) if module.unit else None
        signature: tuple[str, ...] = (function.return_type,)
        if ast_fn is not None:
            signature = (str(ast_fn.return_type), *(str(p.type) for p in ast_fn.params))
        contribution.functions[function.name] = FunctionLocation(
            name=function.name,
            file=path,
            line=function.line,
            end_line=function.end_line,
            return_lines=tuple(function.return_lines),
            param_lines=tuple(p.decl_line for p in function.params),
            signature=signature,
        )
        use_map = function.temp_use_map()
        for instruction in function.instructions():
            if not isinstance(instruction, Call):
                continue
            used = _call_result_used(function, instruction, use_map)
            for callee in vfg.resolve_call(instruction):
                contribution.call_sites.append(
                    CallSite(
                        callee=callee,
                        file=path,
                        line=instruction.line,
                        caller=function.name,
                        result_used=used,
                    )
                )
        live_entry = live_variables(function).live_at_entry()
        for param in function.params:
            contribution.param_usage.append(
                (signature, param.param_index, param.name in live_entry)
            )
    return contribution


class Project:
    """A set of parsed modules, optionally backed by a MiniGit repository.

    ``build_config`` is the set of preprocessor macros the "build" enables
    — it determines which ``#if`` arms reach the IR, exactly like the
    compilation configuration in the paper's §5.1.
    """

    def __init__(
        self,
        name: str,
        modules: dict[str, Module],
        repo: Repository | None = None,
        build_config: set[str] | None = None,
    ):
        self.name = name
        self.modules = modules
        self.repo = repo
        self.build_config = set(build_config or ())
        self._vfgs: dict[str, ValueFlowGraph] = {}
        self._contribs: dict[str, ModuleContribution] = {}
        self._index: ProjectIndex | None = None
        # Revision-keyed caches for analysis helpers (BlameIndex and the
        # cross-scope resolver) — rebuilt only when the keyed rev changes
        # or the project is invalidated, not on every analyze() call.
        self._blame_cache: dict[object, object] = {}
        self._resolver_cache: dict[object, object] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_sources(
        cls,
        sources: dict[str, str],
        name: str = "project",
        repo: Repository | None = None,
        build_config: set[str] | None = None,
    ) -> "Project":
        modules = {
            path: lower_source(text, filename=path, config=build_config)
            for path, text in sorted(sources.items())
        }
        return cls(name=name, modules=modules, repo=repo, build_config=build_config)

    @classmethod
    def from_repository(
        cls,
        repo: Repository,
        rev: int | str | None = None,
        name: str | None = None,
        build_config: set[str] | None = None,
        suffixes: tuple[str, ...] = (".c",),
    ) -> "Project":
        snapshot = repo.snapshot_at(rev)
        sources = {
            path: text for path, text in snapshot.items() if path.endswith(suffixes)
        }
        return cls.from_sources(
            sources, name=name or repo.name, repo=repo, build_config=build_config
        )

    # -- derived state ------------------------------------------------------

    def vfg(self, path: str) -> ValueFlowGraph:
        """Value-flow graph for one module (built lazily, cached)."""
        if path not in self._vfgs:
            if path not in self.modules:
                raise ReproError(f"unknown module {path}")
            self._vfgs[path] = build_value_flow(self.modules[path])
        return self._vfgs[path]

    @property
    def index(self) -> ProjectIndex:
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def invalidate(self, paths: set[str] | None = None) -> None:
        """Drop cached per-module analyses (after incremental updates)."""
        if paths is None:
            self._vfgs.clear()
            self._contribs.clear()
        else:
            for path in paths:
                self._vfgs.pop(path, None)
                self._contribs.pop(path, None)
        self._index = None
        # Resolvers capture the index, so they are stale now; blame data
        # depends only on (repo, rev) and stays valid.
        self._resolver_cache.clear()

    def blame_index(self, rev: int | str | None = None):
        """Blame data at ``rev``, cached per revision."""
        if self.repo is None:
            raise ReproError(f"project {self.name} has no repository to blame")
        if rev not in self._blame_cache:
            from repro.vcs.blame import BlameIndex

            if len(self._blame_cache) >= _REV_CACHE_LIMIT:
                self._blame_cache.pop(next(iter(self._blame_cache)))
            with obs.span("blame_index", project=self.name):
                self._blame_cache[rev] = BlameIndex(self.repo, rev=rev)
        return self._blame_cache[rev]

    def resolver(self, rev: int | str | None = None):
        """Cross-scope resolver at ``rev``, cached per revision (cleared on
        :meth:`invalidate` because resolvers capture the index)."""
        if rev not in self._resolver_cache:
            from repro.core.cross_scope import CrossScopeResolver

            if len(self._resolver_cache) >= _REV_CACHE_LIMIT:
                self._resolver_cache.pop(next(iter(self._resolver_cache)))
            self._resolver_cache[rev] = CrossScopeResolver(self, rev=rev)
        return self._resolver_cache[rev]

    def _contribution(self, path: str) -> ModuleContribution:
        """Per-module index contribution, cached so incremental analysis
        only recomputes touched files."""
        if path not in self._contribs:
            self._contribs[path] = build_contribution(
                path, self.modules[path], self.vfg(path)
            )
        return self._contribs[path]

    def analyzed_paths(self) -> frozenset[str]:
        """Paths whose per-module results are currently warm (used by the
        engine tests to assert eviction granularity)."""
        return frozenset(self._contribs)

    def _build_index(self) -> ProjectIndex:
        with obs.span("project_index", project=self.name):
            return self._build_index_inner()

    def _build_index_inner(self) -> ProjectIndex:
        index = ProjectIndex()
        call_sites: dict[str, list[CallSite]] = {}
        param_usage: dict[tuple[tuple[str, ...], int], list[bool]] = {}
        for path in sorted(self.modules):
            contribution = self._contribution(path)
            index.functions.update(contribution.functions)
            for site in contribution.call_sites:
                call_sites.setdefault(site.callee, []).append(site)
            for signature, param_index, used in contribution.param_usage:
                param_usage.setdefault((signature, param_index), []).append(used)
        for callee, sites in call_sites.items():
            sites.sort(key=lambda site: (site.file, site.line))
            index.call_sites[callee] = tuple(sites)
            unused = sum(1 for site in sites if not site.result_used)
            index.return_counts[callee] = (len(sites), unused)
        for key, flags in param_usage.items():
            index.param_usage[key] = tuple(flags)
            index.param_counts[key] = (len(flags), flags.count(False))
        return index

    # -- conveniences -------------------------------------------------------

    def functions(self):
        for path in sorted(self.modules):
            module = self.modules[path]
            for name in sorted(module.functions):
                yield path, module, module.functions[name]

    def loc(self) -> int:
        return sum(module.loc() for module in self.modules.values())
