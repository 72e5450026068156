"""Unit tests for the authorship lookup (three cross-scope scenarios)."""

from repro.core.cross_scope import CrossScopeResolver
from repro.core.findings import CandidateKind
from repro.core.valuecheck import ValueCheck

from tests.core.helpers import (
    AUTHOR1,
    AUTHOR2,
    AUTHOR3,
    build_history,
    build_multifile_history,
    project_from_repo,
)


def resolve(repo, config=None):
    project = project_from_repo(repo, config=config)
    candidates = ValueCheck().detect_candidates(project)
    resolver = CrossScopeResolver(project)
    return {c.key: (c, resolver.resolve(c)) for c in candidates}


def single(results, kind):
    matches = [(c, a) for c, a in results.values() if c.kind is kind]
    assert len(matches) == 1, f"expected one {kind}, got {matches}"
    return matches[0]


class TestScenario3OverwrittenDef:
    # Callees defined in-project so the scenario-1 piggyback compares real
    # authors (an external callee would force cross-scope per the paper).
    PRELUDE = "int g1(void)\n{\n    return 1;\n}\nint g2(void)\n{\n    return 2;\n}\n"
    V1 = PRELUDE + "int f(void)\n{\n    int ret;\n    ret = g1();\n    if (ret) { return 1; }\n    return 0;\n}\n"
    # author2 inserts an overwriting call between def and use (Figure 8).
    V2 = PRELUDE + "int f(void)\n{\n    int ret;\n    ret = g1();\n    ret = g2();\n    if (ret) { return 1; }\n    return 0;\n}\n"

    def test_cross_scope_when_other_author_overwrites(self):
        repo = build_history([(AUTHOR1, self.V1), (AUTHOR2, self.V2)])
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.OVERWRITTEN_DEF)
        assert candidate.var == "ret"
        assert authorship.cross_scope
        assert authorship.def_author == "author1"
        assert authorship.introducing_author == "author2"

    def test_same_author_not_cross_scope(self):
        repo = build_history([(AUTHOR1, self.V2)])
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.OVERWRITTEN_DEF)
        assert not authorship.cross_scope

    def test_introduced_day_is_overwriters_day(self):
        repo = build_history([(AUTHOR1, self.V1), (AUTHOR2, self.V2)])
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.OVERWRITTEN_DEF)
        assert authorship.introduced_day == repo.commits[1].day


class TestScenario1IgnoredReturn:
    def test_cross_scope_internal_callee(self):
        callee_v1 = "int helper(void)\n{\n    return 42;\n}\n"
        caller = "int helper(void);\nvoid entry(void)\n{\n    helper();\n}\n"
        repo = build_multifile_history(
            [
                (AUTHOR1, {"callee.c": callee_v1}),
                (AUTHOR2, {"caller.c": caller}),
            ]
        )
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.IGNORED_RETURN)
        assert candidate.callee == "helper"
        assert authorship.cross_scope
        assert authorship.introducing_author == "author2"  # the ignoring caller

    def test_same_author_call_not_cross_scope(self):
        src = "int helper(void)\n{\n    return 42;\n}\nvoid entry(void)\n{\n    helper();\n}\n"
        repo = build_history([(AUTHOR1, src)])
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.IGNORED_RETURN)
        assert not authorship.cross_scope

    def test_external_callee_counts_as_cross_scope(self):
        repo = build_history([(AUTHOR1, "int printf(char *fmt, ...);\nvoid f(void)\n{\n    printf(\"x\");\n}\n")])
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.IGNORED_RETURN)
        assert authorship.cross_scope
        assert "<external>" in authorship.counterpart_authors

    def test_multiple_return_sites_any_same_author_blocks(self):
        # author1 wrote one of the callee's returns AND the call site: the
        # call-site author matches one return author -> not cross-scope.
        callee_v1 = "int helper(int c)\n{\n    if (c) { return 1; }\n    return 0;\n}\n"
        callee_v2 = "int helper(int c)\n{\n    if (c) { return 2; }\n    if (c > 1) { return 1; }\n    return 0;\n}\n"
        caller = "int helper(int c);\nvoid entry(void)\n{\n    helper(3);\n}\n"
        repo = build_multifile_history(
            [
                (AUTHOR1, {"callee.c": callee_v1}),
                (AUTHOR2, {"callee.c": callee_v2}),
                (AUTHOR1, {"caller.c": caller}),
            ]
        )
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.IGNORED_RETURN)
        assert not authorship.cross_scope

    def test_assigned_unused_return_checks_callee(self):
        callee = "int helper(void)\n{\n    return 42;\n}\n"
        caller = "int helper(void);\nvoid entry(void)\n{\n    int r;\n    r = helper();\n}\n"
        repo = build_multifile_history(
            [
                (AUTHOR1, {"callee.c": callee}),
                (AUTHOR2, {"caller.c": caller}),
            ]
        )
        results = resolve(repo)
        matches = [
            (c, a)
            for c, a in results.values()
            if c.kind is CandidateKind.IGNORED_RETURN and c.var == "r"
        ]
        assert matches
        _, authorship = matches[0]
        assert authorship.cross_scope


class TestScenario2Params:
    CALLEE_V1 = (
        "int logfile_mod_open(char *path, int bufsz)\n"
        "{\n"
        "    if (bufsz > 0) { return 1; }\n"
        "    return 0;\n"
        "}\n"
    )
    CALLEE_V2 = (
        "int logfile_mod_open(char *path, int bufsz)\n"
        "{\n"
        "    bufsz = 1400;\n"
        "    if (bufsz > 0) { return 1; }\n"
        "    return 0;\n"
        "}\n"
    )
    CALLER = (
        'int logfile_mod_open(char *path, int bufsz);\n'
        "void setup(void)\n"
        "{\n"
        '    logfile_mod_open("headers.log", 0);\n'
        "}\n"
    )

    def test_overwritten_arg_cross_scope(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, {"log.c": self.CALLEE_V1}),
                (AUTHOR3, {"caller.c": self.CALLER}),
                (AUTHOR2, {"log.c": self.CALLEE_V2}),
            ]
        )
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.OVERWRITTEN_ARG)
        assert candidate.var == "bufsz"
        assert authorship.cross_scope
        assert authorship.introducing_author == "author2"  # the overwriter

    def test_same_author_everywhere_not_cross(self):
        repo = build_multifile_history(
            [
                (AUTHOR1, {"log.c": self.CALLEE_V2}),
                (AUTHOR1, {"caller.c": self.CALLER}),
            ]
        )
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.OVERWRITTEN_ARG)
        assert not authorship.cross_scope

    def test_unused_param_without_call_sites_not_cross(self):
        repo = build_history([(AUTHOR1, "int f(int unused_thing)\n{\n    return 0;\n}\n")])
        results = resolve(repo)
        _, authorship = single(results, CandidateKind.UNUSED_PARAM)
        assert not authorship.cross_scope
        assert "no call sites" in authorship.reason

    def test_unused_param_cross_scope_with_foreign_caller(self):
        callee = "int f(int flags)\n{\n    return 0;\n}\n"
        caller = "int f(int flags);\nvoid entry(void)\n{\n    int r;\n    r = f(7);\n    if (r) { return; }\n}\n"
        repo = build_multifile_history(
            [
                (AUTHOR1, {"callee.c": callee}),
                (AUTHOR2, {"caller.c": caller}),
            ]
        )
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.UNUSED_PARAM)
        assert authorship.cross_scope
        assert authorship.introducing_author == "author1"  # callee side


class TestDeadStores:
    def test_plain_dead_store_never_cross_scope(self):
        repo = build_history([(AUTHOR1, "void f(void)\n{\n    int a;\n    a = 5;\n}\n")])
        results = resolve(repo)
        candidate, authorship = single(results, CandidateKind.DEAD_STORE)
        assert not authorship.cross_scope


class TestResolverMemo:
    """A resolver answers each candidate once; repeats are lookups that
    equal a fresh resolution."""

    def _project(self):
        versions = TestScenario3OverwrittenDef
        return project_from_repo(
            build_history([(AUTHOR1, versions.V1), (AUTHOR2, versions.V2)])
        )

    def test_repeat_resolution_is_a_lookup(self):
        project = self._project()
        candidates = ValueCheck().detect_candidates(project)
        resolver = project.resolver()
        first = [resolver.resolve(c) for c in candidates]
        again = [resolver.resolve(c) for c in candidates]
        assert all(a is b for a, b in zip(first, again))
        fresh = CrossScopeResolver(project)
        assert [fresh.resolve(c) for c in candidates] == first

    def test_index_change_drops_memoised_resolutions(self):
        project = self._project()
        resolver = project.resolver()
        candidates = ValueCheck().detect_candidates(project)
        resolver.resolve_all(candidates)
        project.invalidate({"t.c"})
        assert project.resolver() is not resolver
