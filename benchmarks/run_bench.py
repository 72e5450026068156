#!/usr/bin/env python
"""Perf trajectory runner: one command, one normalized BENCH_<n>.json.

Runs (1) the pytest-benchmark engine suite with ``--benchmark-json`` and
(2) direct stage timings — detection, authorship, the full pipeline,
warm-cache replay, and table7 full-vs-incremental seconds —
then writes everything into a single ``BENCH_<n>.json`` at the repo root
so future PRs can regress-check performance against the trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py [--scale 0.1] [--index 1]
    PYTHONPATH=src python benchmarks/run_bench.py --skip-pytest   # fast path

The schema is stable: timings in seconds, counters as integers; compare
fields across BENCH_*.json files rather than across hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core import ValueCheck, ValueCheckConfig  # noqa: E402
from repro.engine import AnalysisEngine, ResultCache  # noqa: E402
from repro.engine.cache import ANALYSIS_VERSION  # noqa: E402
from repro.eval import table7  # noqa: E402
from repro.eval.suite import EvalSuite  # noqa: E402
from repro.obs import METRICS_SCHEMA_VERSION, summarize_snapshot  # noqa: E402
from repro.obs.clock import monotonic  # noqa: E402

# BENCH_<n>.json payload schema: bump together with the validator in
# benchmarks/check_bench_schema.py.  v3 adds the ``stages.service``
# section (analysis-service cold vs warm request latency).  v4 adds
# ``analysis_version`` plus the ``stages.provenance`` decision counts
# (candidates / pruned-by-pruner / explained) consumed by
# check_bench_trajectory.py.  v5 adds ``stages.store`` — findings-store
# snapshot-write and gate latency, which check_bench_trajectory.py caps
# at a fraction of the cold analyze time.  v6 adds ``stages.solver`` —
# the scale-1.0 Andersen stress benchmark (interned-bitset solver vs the
# retained reference solver), whose ≥10× speedup the trajectory check
# holds the build to.  v7 adds ``stages.obs_overhead`` — the cost of the
# always-on observability layer (span tracing + the sampling profiler)
# measured as telemetry-on vs telemetry-off cold-analyze windows, which
# check_bench_trajectory.py caps at a small fraction.  v8 adds
# ``stages.router`` — the sharded multi-worker comparison from
# benchmarks/loadgen.py (single daemon vs consistent-hash router over a
# worker pool under concurrent mixed load), whose ≥2× routed throughput
# and fingerprint-identity verdict check_bench_trajectory.py enforces.
# v9 adds ``stages.cluster_obs`` — the cluster observability plane's
# cost on the routed topology (router spans + span_ctx propagation +
# the metrics scrape loop, on vs off, over warm forwarded requests)
# plus the trace-stitch completeness counts (processes/spans in one
# stitched cross-process trace); check_bench_trajectory.py caps the
# overhead and requires the stitch to span at least two processes.
# v10 adds ``stages.rules`` — the RulePack subsystem measured on the
# rules-eval corpus (the one with planted use-after-free and
# resource-leak bugs): per-pack detect wall-time plus per-rule
# candidate / kill / reported decision counts, whose drift without an
# ANALYSIS_VERSION bump check_bench_trajectory.py flags.
BENCH_SCHEMA_VERSION = 10

# The solver stress corpus always runs at this scale regardless of
# --scale: the stress shape is what makes propagation dominate, and the
# trajectory comparison needs a fixed size across BENCH files.
SOLVER_STRESS_SCALE = 1.0


def _next_index() -> int:
    taken = set()
    for path in ROOT.glob("BENCH_*.json"):
        stem = path.stem.split("_", 1)[-1]
        if stem.isdigit():
            taken.add(int(stem))
    return max(taken) + 1 if taken else 1


def _run_pytest_benchmarks(scale: float, seed: int) -> list[dict]:
    """Run the engine pytest-benchmark suite, return normalized rows."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pytest_bench.json"
        env = dict(os.environ)
        env["REPRO_SCALE"] = str(scale)
        env["REPRO_SEED"] = str(seed)
        env["PYTHONPATH"] = f"{ROOT / 'src'}:{env.get('PYTHONPATH', '')}".rstrip(":")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-q",
                str(ROOT / "benchmarks" / "test_engine_parallel.py"),
                f"--benchmark-json={out}",
            ],
            cwd=ROOT / "benchmarks",
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0 or not out.exists():
            print(proc.stdout[-2000:], file=sys.stderr)
            print(proc.stderr[-2000:], file=sys.stderr)
            raise SystemExit("pytest-benchmark run failed")
        data = json.loads(out.read_text())
    rows = []
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        rows.append(
            {
                "name": bench.get("name"),
                "mean_seconds": stats.get("mean"),
                "stddev_seconds": stats.get("stddev"),
                "min_seconds": stats.get("min"),
                "rounds": stats.get("rounds"),
            }
        )
    return rows


def _stage_timings(scale: float, seed: int) -> dict:
    """Direct timings of the pipeline stages."""
    from repro.corpus import generate_app

    app = generate_app("nfs-ganesha", scale=scale, seed=seed)

    # Detection (engine, no cache) and authorship on one project.
    project = app.project()
    engine = AnalysisEngine(cache=None)
    started = monotonic()
    run = engine.run(project)
    detection_seconds = monotonic() - started
    started = monotonic()
    project.resolver(None).resolve_all(run.candidates)
    authorship_seconds = monotonic() - started

    # Full pipeline, cache off.  The telemetry wraps project construction
    # too, so the exported stage wall-times include parse/lower, not just
    # analyze.
    telemetry = obs.Telemetry.fresh()
    with obs.use(telemetry):
        fresh = app.project()
        started = monotonic()
        report = ValueCheck(ValueCheckConfig(module_cache=False)).analyze(
            fresh, telemetry=telemetry
        )
        full_pipeline_seconds = monotonic() - started

    # Warm-cache replay: second run over identical content (projects are
    # parsed outside the timed window; we time the engine pass alone).
    cache = ResultCache()
    cached_engine = AnalysisEngine(cache=cache)
    cached_engine.run(app.project())
    replay_project = app.project()
    started = monotonic()
    warm = cached_engine.run(replay_project)
    warm_seconds = monotonic() - started

    non_converged = sorted(
        set(run.stats.non_converged) | set(report.engine_stats.non_converged)
    )
    if non_converged:
        # Unconverged points-to results under-approximate: the timings
        # (and candidate counts) of this run are not comparable with a
        # converged trajectory, so refuse to emit a BENCH file.
        raise SystemExit(
            f"[run_bench] FATAL: Andersen solver did not converge on "
            f"{len(non_converged)} module(s): {', '.join(non_converged[:10])}"
        )

    # Observability payload: stage wall-times from the full run's span
    # trace plus its full metrics snapshot (histograms summarised).
    observability = {
        "stages_seconds": report.stage_seconds(),
        "prune_kills": dict(report.prune_stats),
        "counts": report.counts(),
        "metrics": summarize_snapshot(report.metrics),
    }

    # Decision-count trajectory: how many candidates each stage saw and
    # what each pruner killed — drift here without an ANALYSIS_VERSION
    # bump is what check_bench_trajectory.py flags.
    provenance = report.provenance.aggregates() if report.provenance is not None else {}

    return {
        "detection_seconds": detection_seconds,
        "authorship_seconds": authorship_seconds,
        # Keyed by engine ("serial", the only one) so the field keeps
        # the shape the BENCH trajectory reads.
        "executors_full_pipeline_seconds": {"serial": full_pipeline_seconds},
        "cache": {
            "cold_seconds": detection_seconds,
            "warm_seconds": warm_seconds,
            "hits": warm.stats.cache_hits,
            "misses": warm.stats.cache_misses,
        },
        "candidates": len(run.candidates),
        "non_converged_modules": non_converged,
        "observability": observability,
        "provenance": provenance,
    }


def _table7_timings(scale: float, seed: int, replay_commits: int) -> dict:
    suite = EvalSuite.build(scale=scale, seed=seed)
    result = table7.run(suite, replay_commits=replay_commits)
    return {
        "replay_commits": replay_commits,
        "rows": [
            {
                "app": row.app,
                "loc": row.loc,
                "full_seconds": row.full_seconds,
                "incremental_seconds_per_commit": row.incremental_seconds,
            }
            for row in result.rows
        ],
        "total_full_seconds": sum(row.full_seconds for row in result.rows),
        "total_incremental_seconds": sum(row.incremental_seconds for row in result.rows),
    }


def _service_timings(scale: float, seed: int) -> dict:
    """Analysis-service latency: cold start vs warm incremental requests.

    Drives the daemon core in-process (no sockets — the protocol and
    queue are exercised, network jitter is not measured).  The project
    opens one commit behind HEAD so ``analyze_diff`` replays a real
    commit against warm state.
    """
    from repro.corpus import generate_app
    from repro.engine import DEFAULT_CACHE
    from repro.service import AnalysisService, ServiceConfig

    app = generate_app("nfs-ganesha", scale=scale, seed=seed)
    DEFAULT_CACHE.clear()  # the daemon must start genuinely cold

    with tempfile.TemporaryDirectory() as tmp:
        repo_path = Path(tmp) / "repo.json"
        app.repo.save(repo_path)
        open_rev = len(app.repo.commits) - 2
        service = AnalysisService(ServiceConfig(workers=1)).start()
        try:
            def request(kind: str, params: dict) -> tuple[dict, float]:
                started = monotonic()
                response = service.submit({"id": kind, "type": kind, "params": params})
                seconds = monotonic() - started
                if not response.get("ok"):
                    raise SystemExit(f"[run_bench] service {kind} failed: {response}")
                return response["result"], seconds

            _, open_seconds = request(
                "open_project",
                {"repo": str(repo_path), "rev": open_rev, "project_id": "bench"},
            )
            cold, cold_seconds = request("analyze", {"project_id": "bench"})
            warm_diff, warm_diff_seconds = request(
                "analyze_diff", {"project_id": "bench", "commit": "next"}
            )
            warm, warm_seconds = request("analyze", {"project_id": "bench"})
            counts = service.request_counts()
        finally:
            service.shutdown()

    return {
        "open_rev": open_rev,
        "open_seconds": open_seconds,
        "cold_analyze_seconds": cold_seconds,
        "warm_analyze_diff_seconds": warm_diff_seconds,
        "warm_analyze_seconds": warm_seconds,
        "speedup_warm_diff": (
            cold_seconds / warm_diff_seconds if warm_diff_seconds else None
        ),
        "diff_changed_files": len(warm_diff["changed_files"]),
        "diff_modules_analyzed": (warm_diff["engine"] or {}).get("analyzed"),
        "warm_cache_hits": (warm["engine"] or {}).get("cache_hits"),
        "requests": counts,
    }


def _router_timings(seed: int) -> dict:
    """The sharded-service comparison: single daemon vs routed pool.

    Runs benchmarks/loadgen.py's default mixed workload (concurrent
    clients, project pool larger than one process's session cap) against
    both topologies over real TCP and worker processes.  The routed
    topology's throughput must hold the ≥2× floor enforced by
    check_bench_trajectory.py, with fingerprint-identical findings.
    """
    from loadgen import LoadgenConfig, run_comparison

    return run_comparison(LoadgenConfig(seed=seed))


def _solver_timings(seed: int) -> dict:
    """Andersen stress benchmark: interned-bitset solver vs the reference.

    Both solvers run over the same scale-1.0 stress corpus (long copy
    chains, cycles, pointer-to-pointer derefs, function-pointer fans —
    shapes where propagation, not constraint construction, dominates).
    GC is disabled inside each timed window, pyperf-style: the reference
    allocates millions of set entries and collector pauses otherwise
    dominate whichever solver runs second.  The results must agree
    exactly — a fixpoint mismatch aborts the bench rather than emitting
    a number for a wrong analysis.
    """
    import gc

    from repro.corpus.solver_stress import stress_modules
    from repro.pointer.andersen import analyze_module
    from repro.pointer.andersen_reference import analyze_module_reference

    started = monotonic()
    modules = stress_modules(scale=SOLVER_STRESS_SCALE, seed=seed)
    lower_seconds = monotonic() - started

    def timed(analyze):
        gc.collect()
        gc.disable()
        try:
            started = monotonic()
            results = [analyze(module) for _, module in modules]
            return results, monotonic() - started
        finally:
            gc.enable()

    new_results, solve_seconds = timed(analyze_module)
    ref_results, reference_solve_seconds = timed(analyze_module_reference)

    for (path, _), new, ref in zip(modules, new_results, ref_results):
        if (
            dict(new.points_to) != dict(ref.points_to)
            or new.indirect_callees != ref.indirect_callees
            or new.converged != ref.converged
        ):
            raise SystemExit(
                f"[run_bench] FATAL: bitset and reference solvers diverged on {path}"
            )

    return {
        "stress_scale": SOLVER_STRESS_SCALE,
        "modules": len(modules),
        "lower_seconds": lower_seconds,
        "solve_seconds": solve_seconds,
        "reference_solve_seconds": reference_solve_seconds,
        "speedup_vs_reference": (
            reference_solve_seconds / solve_seconds if solve_seconds else None
        ),
        "nodes": sum(result.nodes for result in new_results),
        "scc_collapsed": sum(result.scc_collapsed for result in new_results),
        "iterations": sum(result.iterations for result in new_results),
    }


def _store_timings(scale: float, seed: int) -> dict:
    """Findings-store latency: snapshot write and gate evaluation.

    The gate is meant to run on every CI push on top of an analysis that
    already happened, so its own cost (fingerprinting + lifecycle
    classification + baseline matching) must stay a small fraction of
    the cold analyze it annotates.  ``cold_analyze_seconds`` is measured
    here on the same project so the ratio is host-independent.
    """
    from repro.corpus import generate_app
    from repro.store import FindingsStore, evaluate_gate
    from repro.store.fingerprint import project_sources

    app = generate_app("nfs-ganesha", scale=scale, seed=seed)

    project = app.project()
    started = monotonic()
    report = ValueCheck(ValueCheckConfig()).analyze(project)
    cold_analyze_seconds = monotonic() - started
    sources = project_sources(project)

    with tempfile.TemporaryDirectory() as tmp:
        store = FindingsStore.open(Path(tmp) / "findings.db")
        started = monotonic()
        diff = store.record_snapshot(report.findings, sources, rev="bench-A")
        snapshot_write_seconds = monotonic() - started

        # Gate a second, identical analysis against that snapshot — the
        # steady-state CI path (all findings persistent, exit 0).
        gate_project = app.project()
        gate_report = ValueCheck(ValueCheckConfig()).analyze(gate_project)
        gate_sources = project_sources(gate_project)
        started = monotonic()
        gate_diff = store.diff(
            gate_report.findings, gate_sources, rev="bench-B"
        )
        verdict = evaluate_gate(gate_diff)
        gate_seconds = monotonic() - started
        store.backend.close()

    if verdict.exit_code != 0:
        raise SystemExit(
            "[run_bench] FATAL: gate over an unchanged project blocked on "
            f"{[row.var for row in verdict.blocking]}"
        )
    return {
        "cold_analyze_seconds": cold_analyze_seconds,
        "snapshot_write_seconds": snapshot_write_seconds,
        "gate_seconds": gate_seconds,
        "gate_fraction_of_cold": (
            gate_seconds / cold_analyze_seconds if cold_analyze_seconds else None
        ),
        "findings": len(diff.rows),
        "counts": gate_diff.counts(),
    }


def _obs_overhead_timings(
    scale: float, seed: int, runs: int = 5, repeats: int = 5
) -> dict:
    """Cost of the always-on observability layer on a cold analyze.

    Times windows of ``runs`` cold analyzes (module cache off, project
    re-parsed each run) twice per repeat: once with tracing enabled and
    the sampling profiler attached, once with the tracer disabled and no
    profiler.  The modes are interleaved and the minimum window per mode
    is kept, pyperf-style: a single cold analyze is tens of milliseconds
    at the default scale, so one-shot deltas are scheduling noise.  The
    trajectory check holds ``overhead_fraction`` under its budget — the
    profiler is meant to run in production, so it must be nearly free.
    """
    import gc

    from repro.corpus import generate_app

    app = generate_app("nfs-ganesha", scale=scale, seed=seed)
    config = ValueCheckConfig(module_cache=False)
    profile_interval = 0.01

    def window(instrumented: bool) -> tuple[float, dict | None]:
        telemetry = obs.Telemetry.fresh(trace=instrumented)
        gc.collect()
        if instrumented:
            profiler = obs.SamplingProfiler(
                interval=profile_interval,
                phase_resolver=telemetry.tracer.active_name,
            )
            with obs.use(telemetry), profiler:
                started = monotonic()
                for _ in range(runs):
                    ValueCheck(config).analyze(app.project(), telemetry=telemetry)
                seconds = monotonic() - started
            return seconds, profiler.stats()
        with obs.use(telemetry):
            started = monotonic()
            for _ in range(runs):
                ValueCheck(config).analyze(app.project(), telemetry=telemetry)
            return monotonic() - started, None

    # One untimed pass first: the very first analyze pays parser warmup
    # and lazy imports, which would otherwise land entirely on whichever
    # mode runs first and swamp the few-percent signal being measured.
    ValueCheck(config).analyze(app.project())

    on_windows: list[float] = []
    off_windows: list[float] = []
    profiler_stats: dict | None = None
    for repeat in range(repeats):
        # Alternate which mode goes first so slow drift (thermal, page
        # cache) cancels instead of biasing one mode.
        order = (False, True) if repeat % 2 == 0 else (True, False)
        for instrumented in order:
            seconds, stats = window(instrumented=instrumented)
            if instrumented:
                on_windows.append(seconds)
                profiler_stats = stats
            else:
                off_windows.append(seconds)

    on_best = min(on_windows)
    off_best = min(off_windows)
    return {
        "runs_per_window": runs,
        "repeats": repeats,
        "telemetry_on_seconds": on_best,
        "telemetry_off_seconds": off_best,
        "overhead_fraction": (
            (on_best - off_best) / off_best if off_best else None
        ),
        "telemetry_on_windows": on_windows,
        "telemetry_off_windows": off_windows,
        "profiler": {
            "interval_seconds": profile_interval,
            "samples": (profiler_stats or {}).get("samples", 0),
            "ticks": (profiler_stats or {}).get("ticks", 0),
        },
    }


def _rules_timings(seed: int) -> dict:
    """The RulePack subsystem on the rules-eval corpus.

    Analyses the corpus that plants use-after-free and resource-leak
    bugs (plus benign look-alikes) with every registered pack enabled,
    then splits the run per pack: detect wall-time from the
    ``rules.detect_seconds{rule=...}`` histograms, and the decision
    counts — candidates detected, candidates the pruners killed,
    findings reported — that must not drift between BENCH files sharing
    an ``analysis_version`` (check_bench_trajectory.py enforces this
    per rule, so a pack cannot silently change what it reports).
    """
    from repro.corpus.generator import generate_rules_corpus
    from repro.obs.metrics import base_name, parse_key
    from repro.obs.sinks import rule_candidates, rule_kills
    from repro.rules.registry import pack_for_kind, registered_packs

    app = generate_rules_corpus(seed=seed)
    telemetry = obs.Telemetry.fresh()
    with obs.use(telemetry):
        project = app.project()
        started = monotonic()
        report = ValueCheck(ValueCheckConfig()).analyze(project, telemetry=telemetry)
        analyze_seconds = monotonic() - started

    snapshot = report.metrics
    detect_seconds: dict[str, float] = {}
    for key, values in snapshot.get("histograms", {}).items():
        if base_name(key) == "rules.detect_seconds":
            _, labels = parse_key(key)
            detect_seconds[labels.get("rule", "?")] = sum(values)
    candidates = rule_candidates(snapshot)
    killed = rule_kills(snapshot)
    reported: dict[str, int] = {}
    for finding in report.reported():
        rule = pack_for_kind(finding.candidate.kind).name
        reported[rule] = reported.get(rule, 0) + 1

    packs = {
        pack.name: {
            "detect_seconds": detect_seconds.get(pack.name, 0.0),
            "candidates": int(candidates.get(pack.name, 0)),
            "killed": int(killed.get(pack.name, 0)),
            "reported": reported.get(pack.name, 0),
        }
        for pack in registered_packs()
    }
    if not any(entry["candidates"] for entry in packs.values()):
        # The corpus plants bugs for every pack: an empty run means the
        # detectors (or the corpus) broke, not that the code got clean.
        raise SystemExit(
            "[run_bench] FATAL: the rules-eval corpus produced no candidates "
            "for any registered pack"
        )
    return {
        "corpus": "rules-eval",
        "seed": seed,
        "analyze_seconds": analyze_seconds,
        "packs": packs,
    }


def _cluster_obs_timings(
    scale: float, seed: int, runs: int = 20, repeats: int = 3
) -> dict:
    """Cost of the cluster observability plane on the routed topology.

    Brings up two 2-worker routers over real TCP — one with the full
    plane on (per-request router spans, span_ctx propagation, the
    metrics scrape loop), one with telemetry off and the scrape loop
    disabled — and times windows of ``runs`` warm forwarded analyzes
    against each, alternating which topology goes first per repeat and
    keeping the minimum window per mode (same discipline as
    ``_obs_overhead_timings``).  The workers trace in both modes; the
    delta isolates what the *router's* plane adds per forwarded request.

    Also records trace-stitch completeness: one traced request's
    stitched timeline must span the router and the owning worker —
    ``check_bench_trajectory.py`` holds ``stitch.processes`` at ≥ 2 and
    the overhead fraction under its budget (beyond a 10 ms floor).
    """
    from repro.corpus import generate_app
    from repro.service import (
        Router,
        RouterConfig,
        ServiceClient,
        ServiceServer,
        WorkerSpec,
    )

    app = generate_app("nfs-ganesha", scale=scale, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        repo_path = Path(tmp) / "repo.json"
        app.repo.save(repo_path)
        open_rev = len(app.repo.commits) - 1

        def topology(telemetry: bool) -> tuple[Router, ServiceServer, ServiceClient]:
            router = Router(
                RouterConfig(
                    workers=2,
                    spec=WorkerSpec(threads=1, max_sessions=4),
                    probe_interval=1.0,
                    telemetry=telemetry,
                    scrape_interval=0.5 if telemetry else 0.0,
                )
            ).start()
            server = ServiceServer(router, port=0)
            server.serve_background()
            client = ServiceClient(port=server.address[1])
            client.open_project(
                repo=str(repo_path), rev=open_rev, project_id="bench-obs"
            )
            client.analyze("bench-obs")  # warm the owning worker's cache
            return router, server, client

        on_router, on_server, on_client = topology(telemetry=True)
        off_router, off_server, off_client = topology(telemetry=False)
        try:
            def window(client: ServiceClient) -> float:
                started = monotonic()
                for _ in range(runs):
                    client.analyze("bench-obs")
                return monotonic() - started

            on_windows: list[float] = []
            off_windows: list[float] = []
            for repeat in range(repeats):
                # Alternate which topology goes first so slow drift
                # cancels instead of biasing one mode.
                order = (False, True) if repeat % 2 == 0 else (True, False)
                for instrumented in order:
                    if instrumented:
                        on_windows.append(window(on_client))
                    else:
                        off_windows.append(window(off_client))

            # Completeness: one traced request, one stitched timeline.
            on_client.analyze("bench-obs", trace_id="bench-stitch")
            stitched = on_client.trace(trace_id="bench-stitch")
            scrape_sources = on_router.scrape_once()
            history = on_router.history.stats()
        finally:
            for client in (on_client, off_client):
                client.close()
            for router in (on_router, off_router):
                if not router.stopped:
                    router.shutdown()
            for server in (on_server, off_server):
                server.server_close()

    on_best = min(on_windows)
    off_best = min(off_windows)
    if len(stitched["processes"]) < 2:
        raise SystemExit(
            "[run_bench] FATAL: stitched trace covers only "
            f"{[row['process'] for row in stitched['processes']]} — the "
            "router and worker fragments were not merged"
        )
    return {
        "workers": 2,
        "requests_per_window": runs,
        "repeats": repeats,
        "telemetry_on_seconds": on_best,
        "telemetry_off_seconds": off_best,
        "overhead_fraction": (
            (on_best - off_best) / off_best if off_best else None
        ),
        "telemetry_on_windows": on_windows,
        "telemetry_off_windows": off_windows,
        "stitch": {
            "stitched": bool(stitched.get("stitched")),
            "processes": len(stitched["processes"]),
            "spans": stitched["span_count"],
        },
        "scrape": {
            "sources_sampled": scrape_sources,
            "history_sources": history["sources"],
            "history_recorded": history["recorded"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", type=float, default=float(os.environ.get("REPRO_SCALE", 0.1)))
    parser.add_argument("--seed", type=int, default=int(os.environ.get("REPRO_SEED", 7)))
    parser.add_argument("--replay-commits", type=int, default=10)
    parser.add_argument("--index", type=int, default=None, help="n in BENCH_<n>.json")
    parser.add_argument("--out", default=None, help="explicit output path")
    parser.add_argument(
        "--skip-pytest",
        action="store_true",
        help="skip the pytest-benchmark suite (direct timings only)",
    )
    args = parser.parse_args(argv)

    index = args.index if args.index is not None else _next_index()
    out_path = Path(args.out) if args.out else ROOT / f"BENCH_{index}.json"

    print(f"[run_bench] scale={args.scale} seed={args.seed}")
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "metrics_schema": METRICS_SCHEMA_VERSION,
        "analysis_version": ANALYSIS_VERSION,
        "bench_index": index,
        "scale": args.scale,
        "seed": args.seed,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "stages": _stage_timings(args.scale, args.seed),
        "table7": _table7_timings(args.scale, args.seed, args.replay_commits),
    }
    payload["stages"]["service"] = _service_timings(args.scale, args.seed)
    payload["stages"]["store"] = _store_timings(args.scale, args.seed)
    payload["stages"]["solver"] = _solver_timings(args.seed)
    payload["stages"]["obs_overhead"] = _obs_overhead_timings(args.scale, args.seed)
    payload["stages"]["rules"] = _rules_timings(args.seed)
    print("[run_bench] measuring the cluster observability plane …")
    payload["stages"]["cluster_obs"] = _cluster_obs_timings(args.scale, args.seed)
    print("[run_bench] running the router load-generation comparison …")
    payload["stages"]["router"] = _router_timings(args.seed)
    if not args.skip_pytest:
        print("[run_bench] running pytest-benchmark suite …")
        payload["pytest_benchmark"] = _run_pytest_benchmarks(args.scale, args.seed)

    from check_bench_schema import validate_payload

    problems = validate_payload(payload, str(out_path))
    if problems:
        raise SystemExit("[run_bench] schema self-check failed:\n  " + "\n  ".join(problems))

    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    stages = payload["stages"]
    print(f"[run_bench] detection {stages['detection_seconds']:.2f}s, "
          f"authorship {stages['authorship_seconds']:.2f}s")
    print(f"[run_bench] full pipeline "
          f"{stages['executors_full_pipeline_seconds']['serial']:.2f}s")
    cache = stages["cache"]
    print(f"[run_bench] warm cache replay {cache['warm_seconds']:.3f}s "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    service = stages["service"]
    print(f"[run_bench] service: cold analyze {service['cold_analyze_seconds']:.3f}s, "
          f"warm analyze_diff {service['warm_analyze_diff_seconds']:.3f}s "
          f"({service['speedup_warm_diff']:.1f}x)")
    store = stages["store"]
    print(f"[run_bench] store: snapshot write {store['snapshot_write_seconds']:.3f}s, "
          f"gate {store['gate_seconds']:.3f}s "
          f"({store['gate_fraction_of_cold']:.1%} of cold analyze, "
          f"{store['findings']} findings)")
    solver = stages["solver"]
    print(f"[run_bench] solver: bitset {solver['solve_seconds']:.3f}s vs "
          f"reference {solver['reference_solve_seconds']:.3f}s "
          f"({solver['speedup_vs_reference']:.1f}x, {solver['nodes']} nodes, "
          f"{solver['scc_collapsed']} collapsed)")
    router = stages["router"]
    print(f"[run_bench] router: single {router['single']['throughput_rps']} rps vs "
          f"routed({router['workers']}) {router['routed']['throughput_rps']} rps "
          f"({router['speedup_routed']}x, fingerprints identical: "
          f"{router['fingerprints_identical']})")
    cluster = stages["cluster_obs"]
    print(f"[run_bench] cluster obs: routed telemetry on "
          f"{cluster['telemetry_on_seconds']:.3f}s vs off "
          f"{cluster['telemetry_off_seconds']:.3f}s per "
          f"{cluster['requests_per_window']}-request window "
          f"({cluster['overhead_fraction']:+.1%}); stitched trace spans "
          f"{cluster['stitch']['processes']} processes / "
          f"{cluster['stitch']['spans']} spans")
    rules_stage = stages["rules"]
    rules_summary = ", ".join(
        f"{name} {entry['detect_seconds']*1000:.1f}ms/"
        f"{entry['candidates']}c/{entry['reported']}r"
        for name, entry in sorted(rules_stage["packs"].items())
    )
    print(f"[run_bench] rules ({rules_stage['corpus']}): {rules_summary}")
    overhead = stages["obs_overhead"]
    print(f"[run_bench] obs overhead: telemetry+profiler "
          f"{overhead['telemetry_on_seconds']:.3f}s vs bare "
          f"{overhead['telemetry_off_seconds']:.3f}s per "
          f"{overhead['runs_per_window']}-run window "
          f"({overhead['overhead_fraction']:+.1%}, "
          f"{overhead['profiler']['samples']} profiler samples)")
    print(f"[run_bench] wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
