"""Tests for the provenance log core (repro.obs.provenance)."""

from __future__ import annotations

import json

from repro.obs.provenance import (
    PROVENANCE_SCHEMA_VERSION,
    ProvenanceLog,
    PrunerVerdict,
    format_evidence,
    render_record,
)


def _detection(key="a.c:f:x:3:dead_store", **overrides):
    base = {
        "key": key,
        "file": "a.c",
        "function": "f",
        "var": "x",
        "line": 3,
        "kind": "dead_store",
        "store_kind": None,
        "callee": None,
        "resolved_callees": [],
        "overwrite_lines": [],
        "param_index": -1,
        "decl_line": 0,
        "is_field": False,
        "void_cast": False,
        "increment_delta": None,
    }
    base.update(overrides)
    return base


class TestRecordLifecycle:
    def test_detection_starts_detected(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        (record,) = log.records()
        assert record.status == "detected"
        assert record.detection["file"] == "a.c"

    def test_non_cross_scope_resolution_sets_status(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        log.set_resolution("a.c:f:x:3:dead_store", {"cross_scope": False, "reason": "r"})
        assert log.get("a.c:f:x:3:dead_store").status == "not_cross_scope"

    def test_killing_verdict_sets_pruned(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        key = "a.c:f:x:3:dead_store"
        log.add_verdict(key, PrunerVerdict(pruner="cursor", pruned=False, evidence={}))
        assert log.get(key).status == "detected"
        log.add_verdict(key, PrunerVerdict(pruner="unused_hints", pruned=True, evidence={}))
        record = log.get(key)
        assert record.status == "pruned"
        assert record.pruned_by == "unused_hints"
        assert [v.pruner for v in record.verdicts] == ["cursor", "unused_hints"]

    def test_as_dict_carries_schema(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        assert log.snapshot()[0]["schema"] == PROVENANCE_SCHEMA_VERSION


class TestMergeAndOrdering:
    def test_records_sorted_by_key(self):
        log = ProvenanceLog()
        log.merge_detections(
            [_detection(key="z.c:f:x:1:dead_store"), _detection(key="a.c:f:x:1:dead_store")]
        )
        assert [r.key for r in log.records()] == [
            "a.c:f:x:1:dead_store",
            "z.c:f:x:1:dead_store",
        ]

    def test_merge_order_does_not_change_jsonl(self):
        first, second = ProvenanceLog(), ProvenanceLog()
        slices = [
            _detection(key="b.c:g:y:2:dead_store", file="b.c"),
            _detection(key="a.c:f:x:3:dead_store"),
        ]
        first.merge_detections(slices)
        second.merge_detections(list(reversed(slices)))
        assert first.to_jsonl() == second.to_jsonl()

    def test_jsonl_lines_parse_and_sort_keys(self):
        log = ProvenanceLog()
        log.add_detection(_detection())
        (line,) = log.to_jsonl().splitlines()
        payload = json.loads(line)
        assert payload["key"] == "a.c:f:x:3:dead_store"
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_find_matches_key_fragment(self):
        log = ProvenanceLog()
        log.merge_detections(
            [_detection(key="a.c:f:x:1:dead_store"), _detection(key="b.c:g:y:2:dead_store")]
        )
        assert [r.key for r in log.find("a.c")] == ["a.c:f:x:1:dead_store"]
        assert log.find("nope") == []


class TestAggregates:
    def test_pruned_by_counts_come_from_verdicts(self):
        log = ProvenanceLog()
        for index in range(3):
            key = f"a.c:f:v{index}:{index}:dead_store"
            log.add_detection(_detection(key=key))
            log.set_resolution(key, {"cross_scope": True})
        log.add_verdict(
            "a.c:f:v0:0:dead_store", PrunerVerdict(pruner="cursor", pruned=True)
        )
        log.add_verdict(
            "a.c:f:v1:1:dead_store", PrunerVerdict(pruner="cursor", pruned=True)
        )
        aggregates = log.aggregates()
        assert aggregates["candidates"] == 3
        assert aggregates["explained"] == 3
        assert aggregates["pruned_by"] == {"cursor": 2}
        assert aggregates["statuses"]["pruned"] == 2


class TestRendering:
    def test_render_shows_all_sections(self):
        log = ProvenanceLog()
        key = "a.c:f:x:3:dead_store"
        log.add_detection(_detection(callee="status", overwrite_lines=[4]))
        log.set_resolution(
            key,
            {
                "cross_scope": True,
                "reason": "definition overwritten by other authors",
                "def_author": "alice",
                "counterpart_authors": ["bob"],
                "peer_sites": 1,
                "introducing_author": "bob",
                "introduced_day": 9,
            },
        )
        log.add_verdict(
            key, PrunerVerdict(pruner="cursor", pruned=False, evidence={"reason": "no"})
        )
        log.set_ranking(
            key,
            {
                "rank": 1,
                "familiarity": 2.951,
                "breakdown": {
                    "model": "dok",
                    "fa": 0,
                    "dl": 2,
                    "ac": 2,
                    "alpha0": 3.1,
                    "term_fa": 0.0,
                    "term_dl": 0.4,
                    "term_ac": 0.549,
                    "score": 2.951,
                },
            },
        )
        text = render_record(log.get(key))
        assert "detection: dead_store of `x`" in text
        assert "value from call to `status`" in text
        assert "cross_scope=True" in text
        assert "counterpart authors (1 site(s)): bob" in text
        assert "cursor" in text and "pass" in text
        assert "rank #1" in text
        assert "DOK = 3.10" in text and "acceptances=2" in text

    def test_format_evidence_sorts_and_rounds(self):
        assert format_evidence({"b": 0.5, "a": 1}) == " (a=1, b=0.500)"
        assert format_evidence({}) == ""


class TestStorage:
    """Records are stored as parts and built on read."""

    def test_batched_verdicts_equal_one_by_one(self):
        verdicts = [
            PrunerVerdict(pruner="cursor", pruned=False, evidence={"delta": 1}),
            PrunerVerdict(pruner="unused_hints", pruned=True, evidence={"hint": "void_cast"}),
        ]
        batched, single = ProvenanceLog(), ProvenanceLog()
        for log in (batched, single):
            log.add_detection(_detection())
        key = "a.c:f:x:3:dead_store"
        batched.add_verdicts(key, verdicts)
        for verdict in verdicts:
            single.add_verdict(key, verdict)
        assert batched.to_jsonl() == single.to_jsonl()
        assert batched.get(key).verdicts == verdicts
        assert batched.get(key).pruned_by == "unused_hints"
        batched.add_verdicts("b.c:g:y:1:dead_store", [])
        assert batched.get("b.c:g:y:1:dead_store") is None

    def test_reads_do_not_alias_stored_slices(self):
        log = ProvenanceLog()
        detection = _detection()
        log.merge_detections([detection])
        record = log.get(detection["key"])
        record.detection["file"] = "changed.c"
        record.verdicts.append(PrunerVerdict(pruner="cursor", pruned=True))
        assert detection["file"] == "a.c"
        assert log.get(detection["key"]).detection["file"] == "a.c"
        assert log.get(detection["key"]).verdicts == []

    def test_resolution_object_renders_like_its_dict(self):
        from repro.core.findings import AuthorshipInfo

        info = AuthorshipInfo(
            cross_scope=False,
            def_author="alice",
            counterpart_authors=("bob",),
            reason="overwriters share the definition's author",
            peer_sites=1,
        )
        by_object, by_dict = ProvenanceLog(), ProvenanceLog()
        key = "a.c:f:x:3:dead_store"
        for log in (by_object, by_dict):
            log.add_detection(_detection())
        by_object.set_resolution(key, info)
        by_dict.set_resolution(key, info.provenance())
        assert by_object.to_jsonl() == by_dict.to_jsonl()
        assert by_object.get(key).status == "not_cross_scope"
        assert by_object.aggregates() == by_dict.aggregates()
