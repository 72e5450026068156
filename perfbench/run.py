"""The repository benchmark: cold scan, commit stream and warm rescan of
the generated scale-1.0 mysql corpus.

    python3 perfbench/run.py --workload cold_scan --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run, which mixes untraced and traced operations and
reports per-layer self time per traced operation, the tracing overhead,
and the program's own stage spans beside the benchmark's.
``--workload all`` runs each workload in its own process, one after the
other.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"

WORKLOAD_NAMES = ("cold_scan", "commit_stream", "rescan_warm")

#: name -> unit, measured with tracing off and declared in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Measured and printed, but not declared: a gen-2 collection lands in
#: every other rescan_warm request, so that workload's median falls
#: between the two modes and jumps from run to run.  ``ops_per_s`` is
#: the declared central measure.
PRINTED_ONLY = {"op_p50_ms": "ms"}

#: What the operations are called, and the name, scale and unit each end-to-end
#: metric goes by on that workload (printed beside the generic name).
OPERATION = {
    "cold_scan": ("scans", {"op_p50_ms": ("scan_s", 1e-3, "s")}),
    "commit_stream": (
        "pushes",
        {
            "op_p50_ms": ("push_p50_ms", 1.0, "ms"),
            "op_p95_ms": ("push_p95_ms", 1.0, "ms"),
            "ops_per_s": ("push_per_s", 1.0, "1/s"),
        },
    ),
    "rescan_warm": (
        "rescans",
        {"op_p50_ms": ("rescan_s", 1e-3, "s"), "ops_per_s": ("rescan_per_s", 1.0, "1/s")},
    ),
}

#: Layer span -> per-layer self-time metric.
LAYER_TIMES = {
    "frontend.preprocess": "frontend.preprocess_s",
    "frontend.lex": "frontend.lex_s",
    "frontend.parse": "frontend.parse_s",
    "ir.lower": "ir.lower_s",
    "pointer.vfg": "pointer.vfg_s",
    "pointer.andersen": "pointer.andersen_s",
    "rules.unused_definitions.detect": "rules.unused_definitions.detect_s",
    "rules.use_after_free.detect": "rules.use_after_free.detect_s",
    "rules.resource_leak.detect": "rules.resource_leak.detect_s",
    "project.contribution": "project.contribution_s",
    "project.index": "project.index_s",
    "engine.run": "engine.run_s",
    "vcs.blame": "vcs.blame_s",
    "vcs.diff": "vcs.diff_s",
    "resolve.cross_scope": "resolve.cross_scope_s",
    "resolve.semantic": "resolve.semantic_s",
    "prune.apply": "prune.apply_s",
    "rank.rank": "rank.rank_s",
    "rank.dok_model": "rank.dok_model_s",
    "incremental.changes": "incremental.changes_s",
    "service.submit": "service.submit_s",
    "session.merge": "session.merge_s",
    "store.fingerprint": "store.fingerprint_s",
    "store.snapshot": "store.snapshot_s",
    "store.diff": "store.diff_s",
    "store.gate": "store.gate_s",
    "gc.gen2": "gc.pause_s",
    "op": "trace.unattributed_s",
}

#: Counts per traced operation.
LAYER_COUNTS = (
    "frontend.tokens",
    "ir.instructions",
    "pointer.andersen_iterations",
    "pointer.scc_collapsed",
    "rules.candidates",
    "engine.cache_hits",
    "engine.cache_misses",
    "prune.examined",
    "incremental.functions_analyzed",
    "gc.gen2_collections",
)

#: Program stage (its own span name) -> the benchmark layers whose
#: outermost spans cover the same calls.
STAGES = {
    "parse": ("frontend.preprocess", "frontend.lex", "frontend.parse"),
    "lower": ("ir.lower",),
    "vfg": ("pointer.vfg",),
    "andersen": ("pointer.andersen",),
    "detect": (
        "rules.unused_definitions.detect",
        "rules.use_after_free.detect",
        "rules.resource_leak.detect",
    ),
    "resolve": ("resolve.cross_scope", "resolve.semantic"),
    "prune": ("prune.apply",),
    "rank": ("rank.rank",),
}


def per_layer_units() -> dict[str, str]:
    units = {metric: "s" for metric in LAYER_TIMES.values()}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(
        {
            "frontend.tokens_per_s": "1/s",
            "engine.hit_ratio": "ratio",
            "prune.survived_ratio": "ratio",
            "trace.overhead_ratio": "ratio",
        }
    )
    for stage in STAGES:
        units[f"stage.{stage}.program_s"] = "s"
        units[f"stage.{stage}.bench_s"] = "s"
    return units


def percentile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One workload run: setup, the closed loop, the checks."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        # Which operations the traced run traces: the second, then a coin
        # flip each.  A strict alternation would fall in step with the
        # gen-2 collector, which on rescan_warm runs in every other
        # request, and keep every pause out of the traced operations.
        self.coin = random.Random(workload.seed)
        self.seconds = seconds
        self.tracer = tracer
        # Untraced operations' latencies.
        self.latencies: list[float] = []
        # Traced run only: operation latency minus its gen-2 pauses, by
        # whether the operation was traced.
        self.net_latencies: dict[bool, list[float]] = {False: [], True: []}
        self.stages: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self) -> None:
        from layers import clock

        started = clock()
        self.workload.setup()
        self.setup_seconds = clock() - started
        loop_started = clock()
        deadline = loop_started + self.seconds
        if self.tracer is not None:
            self.tracer.watch_gc()
        while True:
            traced = self.tracer is not None and self.attempted > 0 and (
                self.attempted == 1 or self.coin.random() < 0.5
            )
            self.workload.before_op()
            self.attempted += 1
            paused = self.tracer.gc_seconds if self.tracer is not None else 0.0
            try:
                if traced:
                    with self.tracer.operation():
                        op_started = clock()
                        output = self.workload.op()
                        elapsed = clock() - op_started
                else:
                    op_started = clock()
                    output = self.workload.op()
                    elapsed = clock() - op_started
                    self.latencies.append(elapsed)
                if self.tracer is not None:
                    paused = self.tracer.gc_seconds - paused
                    self.net_latencies[traced].append(elapsed - paused)
                problems = self.workload.check(output)
                if traced:
                    for stage, seconds in self.workload.stages(output).items():
                        self.stages[stage] = self.stages.get(stage, 0.0) + seconds
            except Exception:  # noqa: BLE001 — a failed operation is counted, not fatal
                problems = [traceback.format_exc(limit=3)]
            if problems:
                self.failed += 1
                self.problems.extend(f"op {self.attempted}: {p}" for p in problems)
            both = self.tracer is None or (self.latencies and self.net_latencies[True])
            if clock() >= deadline and both:
                break
        self.loop_seconds = clock() - loop_started
        if self.tracer is not None:
            self.tracer.unwatch_gc()
        self.peak_rss_mb = peak_rss_mb()
        run_problems = self.workload.finish()
        if run_problems:
            # A run-level check inspects the last operation's output.
            self.failed += 0 if problems else 1
            self.problems.extend(f"run: {p}" for p in run_problems)
        self.workload.close()

    @property
    def correct(self) -> bool:
        return not self.problems

    def end_to_end(self) -> dict[str, float]:
        """The declared end-to-end metrics and the printed-only ones."""
        latencies = self.latencies
        return {
            "setup_s": self.setup_seconds,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p95_ms": percentile(latencies, 0.95) * 1e3,
            # Operations per second of operation time: the benchmark's
            # own preparation and checks between operations are excluded.
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        ops = tracer.ops
        self_seconds = tracer.self_seconds()
        inclusive = tracer.inclusive_seconds()
        counts = tracer.counts
        metrics = {
            metric: self_seconds.get(layer, 0.0) / ops for layer, metric in LAYER_TIMES.items()
        }
        metrics.update({name: counts.get(name, 0.0) / ops for name in LAYER_COUNTS})
        lex_seconds = self_seconds.get("frontend.lex", 0.0)
        metrics["frontend.tokens_per_s"] = (
            counts.get("frontend.tokens", 0.0) / lex_seconds if lex_seconds else 0.0
        )
        lookups = counts.get("engine.cache_hits", 0.0) + counts.get("engine.cache_misses", 0.0)
        metrics["engine.hit_ratio"] = counts.get("engine.cache_hits", 0.0) / lookups if lookups else 0.0
        examined = counts.get("prune.examined", 0.0)
        metrics["prune.survived_ratio"] = counts.get("prune.survived", 0.0) / examined if examined else 0.0
        # Gen-2 pauses are taken out first: one lands in some operations
        # of either kind and would swamp the wrappers' cost.
        net = self.net_latencies
        metrics["trace.overhead_ratio"] = statistics.median(net[True]) / statistics.median(net[False]) - 1.0
        for stage, layers in STAGES.items():
            metrics[f"stage.{stage}.program_s"] = self.stages.get(stage, 0.0) / ops
            metrics[f"stage.{stage}.bench_s"] = sum(inclusive.get(layer, 0.0) for layer in layers) / ops
        return metrics


def header(args) -> str:
    return (
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} host.cpus={os.cpu_count()} python={platform.python_version()}"
    )


def print_end_to_end(run: Run, name: str) -> None:
    operation, aliases = OPERATION[name]
    samples = len(run.latencies)
    print(f"{operation} completed: {samples} in {run.loop_seconds:.2f} s (closed loop, one client)")
    for metric, value in run.end_to_end().items():
        count = 1 if metric in ("setup_s", "peak_rss_mb") else samples
        unit = END_TO_END.get(metric) or PRINTED_ONLY[metric]
        line = f"  {metric:<12} {value:>12.4f} {unit:<4} n={count}"
        if metric in aliases:
            alias, scale, unit = aliases[metric]
            line += f"  = {alias} {value * scale:.4f} {unit}"
        if metric in PRINTED_ONLY:
            line += "  (printed only)"
        print(line)
    if samples < 200:
        print(
            f"  note: {int(samples * 0.05)} sample(s) lie beyond op_p95_ms;"
            f" ten need 200 {operation}"
        )
    print(f"  fail_ratio   {run.failed / run.attempted:>12.4f} ratio n={run.attempted}")


def print_per_layer(run: Run, metrics: dict[str, float]) -> None:
    print(f"traced operations: {run.tracer.ops}, untraced: {len(run.latencies)} (self time per traced op)")
    units = per_layer_units()
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6f} {units[name]}")
    print("stage seconds per op: program's own spans vs the benchmark's wrappers")
    for stage in STAGES:
        program = metrics[f"stage.{stage}.program_s"]
        bench = metrics[f"stage.{stage}.bench_s"]
        print(f"  {stage:<10} program {program:>10.4f}  bench {bench:>10.4f}  diff {bench - program:>+10.4f}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from layers import LayerTracer
    from workloads import WORKLOADS

    print(header(args), flush=True)
    tracer = LayerTracer() if args.trace else None
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds, tracer)
    run.execute()
    if tracer is None:
        print_end_to_end(run, args.workload)
        metrics = {name: value for name, value in run.end_to_end().items() if name in END_TO_END}
        units = END_TO_END
    else:
        metrics = run.per_layer()
        units = per_layer_units()
        print_per_layer(run, metrics)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}.trace.json"
        path.write_text(json.dumps(tracer.chrome()))
        print(f"chrome trace: {path.relative_to(HERE.parent)}")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
