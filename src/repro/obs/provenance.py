"""Finding provenance: the per-candidate decision audit trail.

Timing observability (spans, metrics) says how long each stage took;
provenance says what each stage *decided* about every candidate and on
what evidence.  One :class:`ProvenanceRecord` accumulates the full
story of one candidate through the pipeline:

* **detection** — where and as what shape the candidate was found
  (file, function, variable, line, kind, callee, overwriters);
* **resolution** — the cross-scope verdict with the authors, blamed
  commits-days and peer-site counts it compared;
* **verdicts** — one entry per pruner consulted, each carrying the
  concrete evidence it acted on (peer ratio 7/10, matched unused-hint
  token, ``#ifdef`` guard location, cursor delta, ...).  Pruners
  short-circuit: the entry that pruned is the last entry;
* **ranking** — the DOK term breakdown (FA/DL/AC, the alpha weights,
  the final score) and the candidate's rank position.

Identity rules match the metrics registry: a record is keyed by the
candidate's stable ``key`` (``file:function:var:line:kind``), per-module
detection slices merge in sorted path order, and serialisation sorts by
key — so the JSONL export is byte-identical across cache states.
Detection slices are plain dicts stored inside ``ModuleResult`` so
content-cache hits replay them deterministically.

Everything here duck-types over candidates/findings (no repro.core
imports): obs stays a leaf the core pipeline can depend on.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

#: Bump when the record shape below changes incompatibly; exported
#: JSONL and BENCH ``stages.provenance`` sections carry it.
PROVENANCE_SCHEMA_VERSION = 1

#: Terminal statuses a record can end a run with.
STATUSES = ("detected", "not_cross_scope", "pruned", "reported")


def detection_record(candidate) -> dict:
    """The deterministic detection slice of one candidate (picklable,
    cache-replayable — no timings, no object references)."""
    record = {
        "key": candidate.key,
        "file": candidate.file,
        "function": candidate.function,
        "var": candidate.var,
        "line": candidate.line,
        "kind": candidate.kind.value,
        "store_kind": candidate.store_kind.value if candidate.store_kind else None,
        "callee": candidate.callee,
        "resolved_callees": list(candidate.resolved_callees),
        "overwrite_lines": list(candidate.overwrite_lines),
        "param_index": candidate.param_index,
        "decl_line": candidate.decl_line,
        "is_field": candidate.is_field,
        "void_cast": candidate.void_cast,
        "increment_delta": candidate.increment_delta,
    }
    # Semantic rules (use-after-free, resource-leak) carry their evidence
    # sites; the key is present only for them so classic unused-definition
    # records stay byte-identical to pre-rule-pack logs.
    if candidate.evidence_lines:
        record["evidence_lines"] = list(candidate.evidence_lines)
    return record


@dataclass
class PrunerVerdict:
    """One pruner's decision about one candidate, with its evidence."""

    pruner: str
    pruned: bool
    evidence: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pruner": self.pruner,
            "pruned": self.pruned,
            "evidence": dict(self.evidence),
        }


@dataclass
class ProvenanceRecord:
    """Everything the pipeline decided about one candidate."""

    key: str
    detection: dict = field(default_factory=dict)
    resolution: dict | None = None
    verdicts: list[PrunerVerdict] = field(default_factory=list)
    ranking: dict | None = None
    status: str = "detected"
    pruned_by: str | None = None
    rank: int | None = None

    def as_dict(self) -> dict:
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "key": self.key,
            "status": self.status,
            "rank": self.rank,
            "pruned_by": self.pruned_by,
            "detection": dict(self.detection),
            "resolution": dict(self.resolution) if self.resolution is not None else None,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "ranking": dict(self.ranking) if self.ranking is not None else None,
        }


def _cross_scope(resolution) -> bool:
    if isinstance(resolution, dict):
        return bool(resolution.get("cross_scope", False))
    return bool(resolution.cross_scope)


class ProvenanceLog:
    """Thread-safe collection of provenance records for one run.

    Per-module analysis never writes here directly — it ships
    detection-slice dicts back inside ``ModuleResult`` and the scheduler
    folds them in via :meth:`merge_detections` in sorted path order,
    mirroring how module metrics snapshots merge.  Resolution, verdicts and ranking are
    recorded by the (single-threaded) tail of the pipeline.

    Storage is one map per record part, keyed by candidate key, and
    :class:`ProvenanceRecord` objects are built only when read.  A run
    records every candidate but is rarely explained, and every container
    object a record holds lives as long as the report, so each one is
    work for the cyclic collector's oldest generation.  Writes therefore
    keep no per-verdict objects the collector tracks: detection slices
    and resolution objects are kept by reference, verdict evidence dicts
    go into one run-wide list, and each key keeps a tuple of
    ``(pruner, pruned, evidence index)`` entries — plain tuples of
    atoms, which the collector stops tracking.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> status; holds every key with a record.
        self._status: dict[str, str] = {}
        self._detections: dict[str, dict] = {}
        # A resolution dict, or the object whose ``provenance()`` builds it.
        self._resolutions: dict[str, object] = {}
        self._evidence: list[dict] = []
        self._verdicts: dict[str, tuple[tuple[str, bool, int], ...]] = {}
        self._rankings: dict[str, dict] = {}
        self._pruned_by: dict[str, str | None] = {}
        self._ranks: dict[str, int | None] = {}

    # -- recording -------------------------------------------------------

    def add_detection(self, detection: dict) -> None:
        with self._lock:
            key = detection["key"]
            self._status.setdefault(key, "detected")
            self._detections[key] = dict(detection)

    def merge_detections(self, detections: list[dict]) -> None:
        """Fold one module's detection slice in (scheduler merge path).

        The slices are stored as given, not copied: they are the
        immutable records a cached module result replays, and reads hand
        out copies."""
        with self._lock:
            for detection in detections:
                key = detection["key"]
                self._status.setdefault(key, "detected")
                self._detections[key] = detection

    def set_resolution(self, key: str, resolution) -> None:
        """Record the resolution slice: a dict, or an immutable object
        with a ``cross_scope`` flag whose ``provenance()`` builds the
        dict (kept by reference, rendered when read)."""
        if isinstance(resolution, dict):
            resolution = dict(resolution)
        with self._lock:
            self._status.setdefault(key, "detected")
            self._resolutions[key] = resolution
            if not _cross_scope(resolution):
                self._status[key] = "not_cross_scope"

    def add_verdict(self, key: str, verdict: PrunerVerdict) -> None:
        self.add_verdicts(key, (verdict,))

    def add_verdicts(self, key: str, verdicts) -> None:
        """Append one candidate's verdicts, in consultation order."""
        if not verdicts:
            return
        with self._lock:
            self._status.setdefault(key, "detected")
            evidence = self._evidence
            entries = []
            for verdict in verdicts:
                entries.append((verdict.pruner, verdict.pruned, len(evidence)))
                evidence.append(verdict.evidence)
                if verdict.pruned:
                    self._status[key] = "pruned"
                    self._pruned_by[key] = verdict.pruner
            self._verdicts[key] = self._verdicts.get(key, ()) + tuple(entries)

    def set_ranking(self, key: str, ranking: dict) -> None:
        with self._lock:
            self._status.setdefault(key, "detected")
            self._rankings[key] = dict(ranking)

    def finalize(self, findings) -> None:
        """Stamp each finding's terminal status and rank position."""
        with self._lock:
            for finding in findings:
                key = finding.key
                if key not in self._status:
                    continue
                self._ranks[key] = finding.rank
                self._pruned_by[key] = finding.pruned_by
                if finding.is_reported:
                    self._status[key] = "reported"
                elif finding.pruned_by is not None:
                    self._status[key] = "pruned"
                else:
                    resolution = self._resolutions.get(key)
                    if resolution is not None and not _cross_scope(resolution):
                        self._status[key] = "not_cross_scope"

    # -- reading ---------------------------------------------------------

    def _build(self, key: str) -> ProvenanceRecord:
        """One record from its stored parts (caller holds the lock)."""
        resolution = self._resolutions.get(key)
        if resolution is not None:
            resolution = (
                dict(resolution) if isinstance(resolution, dict) else resolution.provenance()
            )
        ranking = self._rankings.get(key)
        return ProvenanceRecord(
            key=key,
            detection=dict(self._detections.get(key, {})),
            resolution=resolution,
            verdicts=[
                PrunerVerdict(pruner, pruned, self._evidence[index])
                for pruner, pruned, index in self._verdicts.get(key, ())
            ],
            ranking=dict(ranking) if ranking is not None else None,
            status=self._status[key],
            pruned_by=self._pruned_by.get(key),
            rank=self._ranks.get(key),
        )

    def get(self, key: str) -> ProvenanceRecord | None:
        with self._lock:
            return self._build(key) if key in self._status else None

    def records(self) -> list[ProvenanceRecord]:
        """All records, sorted by candidate key (the canonical order)."""
        with self._lock:
            return [self._build(key) for key in sorted(self._status)]

    def find(self, fragment: str) -> list[ProvenanceRecord]:
        """Records whose key contains ``fragment`` (explain lookups)."""
        with self._lock:
            return [
                self._build(key) for key in sorted(self._status) if fragment in key
            ]

    def snapshot(self) -> list[dict]:
        """Plain dicts, sorted by key — the JSONL/SARIF payload."""
        return [record.as_dict() for record in self.records()]

    def to_jsonl(self) -> str:
        """One record per line, keys sorted: byte-identical across
        cache states for the same analysis inputs."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.snapshot()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._status)

    # -- aggregates ------------------------------------------------------

    def aggregates(self) -> dict:
        """The roll-up the stats table and BENCH trajectory consume.

        ``pruned_by`` is derived from the per-record verdicts — the same
        objects the pruning pipeline counted its kill metrics from — so
        the two views cannot diverge.
        """
        with self._lock:
            statuses_by_key = dict(self._status)
            pruned_by_key = dict(self._pruned_by)
            explained = len(self._resolutions)
        pruned_by: dict[str, int] = {}
        statuses: dict[str, int] = {status: 0 for status in STATUSES}
        for status in statuses_by_key.values():
            statuses[status] = statuses.get(status, 0) + 1
        for pruner in pruned_by_key.values():
            if pruner is not None:
                pruned_by[pruner] = pruned_by.get(pruner, 0) + 1
        return {
            "schema": PROVENANCE_SCHEMA_VERSION,
            "candidates": len(statuses_by_key),
            "explained": explained,
            "pruned_by": dict(sorted(pruned_by.items())),
            "statuses": statuses,
        }


# -- rendering -----------------------------------------------------------


def format_evidence(evidence: dict) -> str:
    if not evidence:
        return ""
    parts = []
    for key in sorted(evidence):
        value = evidence[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return " (" + ", ".join(parts) + ")"


def _render_ranking(ranking: dict) -> list[str]:
    lines = []
    score = ranking.get("familiarity")
    rank = ranking.get("rank")
    head = "ranking:"
    if rank is not None:
        head += f" rank #{rank}"
    if score is not None:
        head += f", familiarity {score:.3f}"
    lines.append(head)
    breakdown = ranking.get("breakdown")
    if breakdown and breakdown.get("model") == "dok":
        lines.append(
            f"  DOK = {breakdown['alpha0']:.2f}"
            f" + FA {breakdown['term_fa']:.2f} (first_author={breakdown['fa']})"
            f" + DL {breakdown['term_dl']:.2f} (deliveries={breakdown['dl']})"
            f" - AC {breakdown['term_ac']:.2f} (acceptances={breakdown['ac']})"
            f" = {breakdown['score']:.3f}"
        )
    elif breakdown:
        lines.append(f"  model={breakdown.get('model')} score={breakdown.get('score')}")
    return lines


def render_record(record: ProvenanceRecord) -> str:
    """One candidate's decision trail as a readable tree."""
    detection = record.detection
    head = f"{record.key} — {record.status}"
    if record.rank is not None:
        head += f" (rank #{record.rank})"
    if record.pruned_by is not None:
        head += f" (pruned by {record.pruned_by})"
    sections: list[list[str]] = []

    det_lines = [
        f"detection: {detection.get('kind', '?')} of `{detection.get('var', '?')}`"
        f" in `{detection.get('function', '?')}`"
        f" at {detection.get('file', '?')}:{detection.get('line', '?')}"
    ]
    if detection.get("callee"):
        det_lines.append(f"  value from call to `{detection['callee']}`")
    if detection.get("overwrite_lines"):
        lines_list = ", ".join(str(line) for line in detection["overwrite_lines"])
        det_lines.append(f"  overwritten on all paths at line(s) {lines_list}")
    sections.append(det_lines)

    if record.resolution is not None:
        resolution = record.resolution
        res_lines = [
            f"resolution: cross_scope={resolution.get('cross_scope')}"
            f" — {resolution.get('reason', '')}"
        ]
        if resolution.get("def_author"):
            res_lines.append(f"  def author: {resolution['def_author']}")
        counterparts = resolution.get("counterpart_authors") or []
        if counterparts:
            res_lines.append(
                f"  counterpart authors ({resolution.get('peer_sites', len(counterparts))}"
                f" site(s)): {', '.join(counterparts)}"
            )
        if resolution.get("introducing_author"):
            res_lines.append(
                f"  introduced by {resolution['introducing_author']}"
                f" (day {resolution.get('introduced_day')})"
            )
        sections.append(res_lines)

    if record.verdicts:
        verdict_lines = ["pruning:"]
        for verdict in record.verdicts:
            mark = "KILL" if verdict.pruned else "pass"
            verdict_lines.append(
                f"  {verdict.pruner:<20}{mark}{format_evidence(verdict.evidence)}"
            )
        sections.append(verdict_lines)

    if record.ranking is not None:
        sections.append(_render_ranking(record.ranking))

    out = [head]
    for index, section in enumerate(sections):
        last = index == len(sections) - 1
        branch, cont = ("└─ ", "   ") if last else ("├─ ", "│  ")
        out.append(branch + section[0])
        out.extend(cont + line for line in section[1:])
    return "\n".join(out)


def render_records(records: list[ProvenanceRecord]) -> str:
    return "\n\n".join(render_record(record) for record in records)
