"""The benchmark's three workloads on the generated scale-1.0 mysql corpus.

Each workload is a closed loop with one client, driven from this
process: the next operation starts when the previous one has returned.
The program runs its defaults (serial executor; one service worker
thread where the service is used) and receives only the generated
repository — the ground-truth ledger stays with the benchmark, which
uses it to check the outputs.

* ``cold_scan`` — one full CI scan per operation: clear the module
  cache, build the project at HEAD, analyse, and gate against a
  baseline recorded in setup.
* ``commit_stream`` — the warm per-push path: a session opened at
  HEAD-500 replays the next commit per push (``analyze_diff``, then
  ``gate``, then ``baseline``), all through ``AnalysisService.submit``.
* ``rescan_warm`` — full ``analyze`` requests on an unchanged warm
  session, where every module is a cache hit.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

from repro import obs
from repro import store as findings_store
from repro.core.project import Project
from repro.core.valuecheck import ValueCheck, ValueCheckConfig
from repro.corpus.generator import SyntheticApp, generate_app
from repro.engine import DEFAULT_CACHE
from repro.obs.sinks import STAGE_ORDER
from repro.service.core import AnalysisService, ServiceConfig

PROFILE = "mysql"
SCALE = 1.0
#: cold_scan's gate baseline is the snapshot this many commits before HEAD.
BASELINE_BACK = 200
#: commit_stream opens its session this many commits before HEAD; more
#: than any run replays.
STREAM_BACK = 500
PROJECT_ID = "mysql"
#: ``top`` large enough that a response lists every reported finding.
ALL_ROWS = 1_000_000

ANSWERS = json.loads((Path(__file__).parent / "answers.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_digest(rows: list[dict]) -> str:
    """Digest of reported-finding rows in rank order (the service's
    response rows, or ``Finding.to_row`` of ``Report.reported()``)."""
    return sha256(json.dumps(rows, sort_keys=True))


def fingerprint_digest(diff) -> str:
    """Digest of the sorted primary fingerprints of the reported findings."""
    return sha256("\n".join(sorted(fp.primary for fp in diff.fingerprints.values())))


def row_key(row: dict) -> str:
    """``Candidate.key`` rebuilt from a response row."""
    return f"{row['file']}:{row['function']}:{row['variable']}:{row['line']}:{row['kind']}"


def ledger_join(rows: list[dict], ledger) -> dict[str, int]:
    """Join reported rows to the generator's planted constructs, the way
    ``GroundTruthLedger.match_finding`` joins findings."""
    found: set[tuple[str, str, str]] = set()
    unmatched = 0
    for row in rows:
        entry = ledger.lookup(row["file"], row["function"], row["variable"])
        if entry is None and row["callee"]:
            entry = ledger.lookup(row["file"], row["function"], row["callee"])
        if entry is None:
            unmatched += 1
        elif entry.is_bug:
            found.add(entry.join_key)
    return {
        "reported": len(rows),
        "planted_bugs": len(ledger.bugs()),
        "bugs_found": len(found),
        "unmatched": unmatched,
    }


def check_equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_head_answer(
    problems: list[str], seed: int, counts: dict, rows: list[dict], ledger
) -> None:
    """Checks every HEAD report must pass: the seed-independent counts
    and ground-truth join, and the recorded digest for a recorded seed."""
    check_equal(problems, "counts", counts, ANSWERS["any_seed"]["counts"])
    check_equal(problems, "ground truth", ledger_join(rows, ledger), ANSWERS["any_seed"]["ground_truth"])
    recorded = ANSWERS["seeds"].get(str(seed))
    if recorded is not None:
        check_equal(problems, "rows digest", rows_digest(rows), recorded["rows_digest"])


def program_stages(spans) -> dict[str, float]:
    """Seconds per pipeline stage from the program's own spans."""
    totals = dict.fromkeys(STAGE_ORDER, 0.0)
    for span in spans:
        if span.name in totals:
            totals[span.name] += span.seconds
    return totals


class Workload:
    """Setup, one operation, its output check, run-level checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.app: SyntheticApp | None = None

    def generate(self) -> None:
        self.app = generate_app(PROFILE, scale=SCALE, seed=self.seed)

    def build(self, rev: int | str | None = None) -> Project:
        app = self.app
        return Project.from_repository(
            app.repo, rev=rev, name=app.name, build_config=set(app.build_config)
        )

    def head_minus(self, back: int) -> int:
        return len(self.app.repo.commits) - 1 - back

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        """One timed operation; returns what :meth:`check` inspects."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems with one operation's output (untimed)."""
        raise NotImplementedError

    def stages(self, output) -> dict[str, float]:
        """The program's own stage seconds for one operation."""
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed preparation of the next operation."""

    def finish(self) -> list[str]:
        """Run-level checks after the timed loop (untimed)."""
        return []

    def close(self) -> None:
        """Release what setup started."""


class ColdScan(Workload):
    name = "cold_scan"

    def setup(self) -> None:
        self.generate()
        base = self.head_minus(BASELINE_BACK)
        project = self.build(base)
        report = ValueCheck().analyze(project, rev=base)
        self.baseline = findings_store.FindingsStore.in_memory()
        self.baseline.record_snapshot(
            report.findings, findings_store.project_sources(project), rev="base"
        )
        self.reference: tuple | None = None

    def before_op(self) -> None:
        # A CI scan runs in a fresh process: no cached module results and
        # no collector debt from the previous scan.
        DEFAULT_CACHE.clear()
        gc.collect()

    def op(self):
        telemetry = obs.Telemetry.fresh()
        with obs.use(telemetry):
            project = self.build()
            report = ValueCheck().analyze(project)
            sources = findings_store.project_sources(project)
            diff = self.baseline.diff(report.findings, sources, rev="head", baseline_rev="base")
            verdict = findings_store.evaluate_gate(diff)
            findings_store.FindingsStore.in_memory().record_snapshot(
                report.findings, sources, rev="head"
            )
        return report, diff, verdict

    def check(self, output) -> list[str]:
        report, diff, verdict = output
        problems: list[str] = []
        if not report.converged:
            problems.append(
                f"Andersen did not converge on {list(report.engine_stats.non_converged)}"
            )
        rows = [finding.to_row() for finding in report.reported()]
        check_head_answer(problems, self.seed, report.counts(), rows, self.app.ledger)
        result = (fingerprint_digest(diff), rows_digest(rows), verdict.counts(), diff.counts())
        recorded = ANSWERS["seeds"].get(str(self.seed))
        if recorded is not None:
            check_equal(problems, "fingerprint digest", result[0], recorded["fingerprint_digest"])
            check_equal(problems, "gate", {"verdict": result[2], "diff": result[3]}, recorded["gate"])
        if self.reference is None:
            self.reference = result
        check_equal(problems, "scan differs from the first scan", result, self.reference)
        return problems

    def stages(self, output) -> dict[str, float]:
        return output[0].stage_seconds()


class ServiceWorkload(Workload):
    """A workload that drives one warm session through ``submit``."""

    def open_session(self, rev: int | None) -> None:
        project = self.build(rev)
        self.service = AnalysisService(ServiceConfig(workers=1)).start()
        self.service.sessions.open(PROJECT_ID, project, ValueCheckConfig(), rev=rev)
        self.requests = 0

    def submit(self, kind: str, **params) -> dict:
        self.requests += 1
        params["project_id"] = PROJECT_ID
        return self.service.submit({"type": kind, "id": self.requests, "params": params})

    def request_stages(self, responses: list[dict]) -> dict[str, float]:
        spans = []
        for response in responses:
            record = self.service.traces.get_by_trace_id(response.get("trace_id", ""))
            if record is not None:
                spans.extend(record.spans)
        return program_stages(spans)

    def close(self) -> None:
        self.service.shutdown()


def response_problems(response: dict) -> list[str]:
    if not response.get("ok"):
        return [f"{response.get('error', response)}"]
    result = response["result"]
    if result.get("converged") is False:
        return ["Andersen did not converge"]
    return []


class CommitStream(ServiceWorkload):
    name = "commit_stream"

    def setup(self) -> None:
        self.generate()
        self.open_session(self.head_minus(STREAM_BACK))
        self.last_rows: list[dict] = []
        self.last_counts: dict = {}
        self.last_label = ""
        problems = response_problems(self.submit("analyze"))
        problems += response_problems(self.submit("baseline"))
        if problems:
            raise RuntimeError(f"session warm fill failed: {problems}")

    def op(self):
        return [
            self.submit("analyze_diff", commit="next", top=ALL_ROWS),
            self.submit("gate"),
            self.submit("baseline"),
        ]

    def check(self, output) -> list[str]:
        problems = [problem for response in output for problem in response_problems(response)]
        if not problems:
            diff_result = output[0]["result"]
            self.last_rows = diff_result["findings"]
            self.last_counts = diff_result["counts"]
            self.last_label = diff_result["label"]
            if "blocking" not in output[1]["result"]:
                problems.append("gate response carries no verdict")
        return problems

    def stages(self, output) -> dict[str, float]:
        return self.request_stages(output)

    def finish(self) -> list[str]:
        """The merged session state must equal a cold analysis at the
        same revision."""
        if not self.last_label:
            return ["no push completed"]
        DEFAULT_CACHE.clear()
        project = self.build(self.last_label)
        report = ValueCheck().analyze(project, rev=self.last_label)
        problems: list[str] = []
        check_equal(
            problems,
            f"merged reported keys at {self.last_label} vs a cold analysis",
            sorted(row_key(row) for row in self.last_rows),
            sorted(finding.key for finding in report.reported()),
        )
        check_equal(
            problems,
            f"merged counts at {self.last_label} vs a cold analysis",
            self.last_counts,
            report.counts(),
        )
        return problems


class RescanWarm(ServiceWorkload):
    name = "rescan_warm"

    def setup(self) -> None:
        self.generate()
        DEFAULT_CACHE.clear()
        self.open_session(None)
        fill = self.submit("analyze", top=ALL_ROWS)
        problems = response_problems(fill)
        if problems:
            raise RuntimeError(f"session warm fill failed: {problems}")
        # The warm fill is a cold analysis: the reference every rescan
        # must reproduce.
        self.reference_counts = fill["result"]["counts"]
        self.reference_rows = fill["result"]["findings"]
        self.reference_problems: list[str] = []
        check_head_answer(
            self.reference_problems,
            self.seed,
            self.reference_counts,
            self.reference_rows,
            self.app.ledger,
        )

    def op(self):
        return self.submit("analyze", top=ALL_ROWS)

    def check(self, output) -> list[str]:
        problems = response_problems(output)
        if problems:
            return problems
        result = output["result"]
        check_equal(problems, "counts", result["counts"], self.reference_counts)
        check_equal(
            problems,
            "rows digest",
            rows_digest(result["findings"]),
            rows_digest(self.reference_rows),
        )
        check_equal(problems, "cache misses", result["engine"]["cache_misses"], 0)
        return problems

    def stages(self, output) -> dict[str, float]:
        return self.request_stages([output])

    def finish(self) -> list[str]:
        return list(self.reference_problems)


WORKLOADS = {cls.name: cls for cls in (ColdScan, CommitStream, RescanWarm)}
