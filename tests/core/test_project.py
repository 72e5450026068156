"""Unit tests for the Project model and cross-file index."""

import pytest

from repro.core.project import Project
from repro.errors import ReproError

from tests.core.helpers import AUTHOR1, build_multifile_history

SOURCES = {
    "lib.c": "int helper(int x)\n{\n    if (x) { return 1; }\n    return 0;\n}\n",
    "app.c": (
        "int helper(int x);\n"
        "void entry(void)\n"
        "{\n"
        "    int r;\n"
        "    r = helper(1);\n"
        "    if (r) { return; }\n"
        "    helper(2);\n"
        "}\n"
    ),
}


class TestConstruction:
    def test_from_sources(self):
        project = Project.from_sources(SOURCES)
        assert set(project.modules) == {"app.c", "lib.c"}

    def test_from_repository(self):
        repo = build_multifile_history([(AUTHOR1, dict(SOURCES))])
        project = Project.from_repository(repo)
        assert set(project.modules) == {"app.c", "lib.c"}
        assert project.repo is repo

    def test_non_c_files_skipped(self):
        repo = build_multifile_history([(AUTHOR1, {**SOURCES, "README.md": "docs"})])
        project = Project.from_repository(repo)
        assert "README.md" not in project.modules

    def test_loc(self):
        project = Project.from_sources(SOURCES)
        assert project.loc() == sum(len(t.split("\n")) for t in SOURCES.values())

    def test_unknown_module_vfg_raises(self):
        project = Project.from_sources(SOURCES)
        with pytest.raises(ReproError):
            project.vfg("missing.c")


class TestIndex:
    def test_function_locations(self):
        project = Project.from_sources(SOURCES)
        location = project.index.location("helper")
        assert location is not None
        assert location.file == "lib.c"
        assert location.return_lines == (3, 4)

    def test_signatures(self):
        project = Project.from_sources(SOURCES)
        assert project.index.location("helper").signature == ("int", "int")

    def test_call_sites_collected(self):
        project = Project.from_sources(SOURCES)
        sites = project.index.sites_of("helper")
        assert len(sites) == 2
        assert {site.caller for site in sites} == {"entry"}

    def test_return_usage_flags(self):
        project = Project.from_sources(SOURCES)
        usage = project.index.return_usage("helper")
        assert sorted(usage) == [False, True]

    def test_param_usage_by_signature(self):
        project = Project.from_sources(SOURCES)
        location = project.index.location("helper")
        peers = project.index.peer_params(location.signature, 0)
        assert peers == (True,)

    def test_index_cached(self):
        project = Project.from_sources(SOURCES)
        assert project.index is project.index

    def test_invalidate_rebuilds(self):
        project = Project.from_sources(SOURCES)
        _ = project.index
        project.invalidate({"app.c"})
        assert project.index.location("helper") is not None

    def test_functions_iterator_ordered(self):
        project = Project.from_sources(SOURCES)
        names = [fn.name for _, _, fn in project.functions()]
        assert names == ["entry", "helper"]


def assert_peer_counts_consistent(index):
    """The stored (sites, unused) tallies equal a recount of the flags."""
    assert set(index.return_counts) == set(index.call_sites)
    for callee in index.call_sites:
        flags = index.return_usage(callee)
        assert index.return_peer_counts(callee) == (len(flags), flags.count(False))
    assert set(index.param_counts) == set(index.param_usage)
    for signature, position in index.param_usage:
        flags = index.peer_params(signature, position)
        assert index.param_peer_counts(signature, position) == (
            len(flags),
            flags.count(False),
        )


class TestPeerCounts:
    def test_small_project_counts(self):
        index = Project.from_sources(SOURCES).index
        assert index.return_peer_counts("helper") == (2, 1)
        location = index.location("helper")
        assert index.param_peer_counts(location.signature, 0) == (1, 0)
        assert index.return_peer_counts("no_such_function") == (0, 0)
        assert index.param_peer_counts(("void",), 3) == (0, 0)
        assert_peer_counts_consistent(index)

    def test_incremental_counts_match_fresh_build(self):
        from repro.core.incremental import IncrementalAnalyzer
        from repro.corpus.generator import generate_app

        app = generate_app("mysql", scale=0.1, seed=7)
        repo = app.repo
        head = len(repo.commits) - 1
        config = set(app.build_config)
        analyzer = IncrementalAnalyzer(repo, start_rev=head - 6, build_config=config)
        assert_peer_counts_consistent(analyzer.project.index)
        changed = [analyzer.replay_next().changed_files for _ in range(6)]
        assert any(changed)  # the replay really edited modules
        incremental = analyzer.project.index
        fresh = Project.from_repository(repo, rev=head, build_config=config).index
        assert_peer_counts_consistent(incremental)
        assert_peer_counts_consistent(fresh)
        assert incremental.return_counts == fresh.return_counts
        assert incremental.param_counts == fresh.param_counts
        assert any(sites > 10 for sites, _ in fresh.return_counts.values())
