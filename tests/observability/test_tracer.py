"""Tracer: span hierarchy, time offsets, span exporters."""

import json

import pytest

from repro.observability import (
    Tracer,
    export_chrome_trace,
    export_spans_jsonl,
)


class TestSpans:
    def test_begin_end_records_interval(self):
        tracer = Tracer()
        span = tracer.begin("work", start=1.0, kind="instance")
        span.end(4.0)
        assert span.finished
        assert span.duration == pytest.approx(3.0)
        assert span.status == "ok"

    def test_stack_parenting(self):
        tracer = Tracer()
        outer = tracer.begin("outer", start=0.0)
        inner = tracer.begin("inner", start=1.0)
        assert inner.parent_id == outer.span_id
        inner.end(2.0)
        assert tracer.current is outer
        outer.end(3.0)
        assert tracer.current is None

    def test_record_does_not_activate(self):
        tracer = Tracer()
        outer = tracer.begin("outer", start=0.0)
        child = tracer.record("child", 0.5, 1.0)
        assert child.parent_id == outer.span_id
        assert tracer.current is outer

    def test_use_parent_reparents(self):
        tracer = Tracer()
        a = tracer.begin("a", start=0.0, activate=False)
        with tracer.use_parent(a):
            child = tracer.record("c", 0.0, 1.0)
        assert child.parent_id == a.span_id
        assert tracer.current is None

    def test_time_offset_shifts_both_ends(self):
        tracer = Tracer()
        tracer.time_offset = 100.0
        span = tracer.record("x", 1.0, 2.0)
        assert span.start_time == pytest.approx(101.0)
        assert span.end_time == pytest.approx(102.0)

    def test_error_status(self):
        tracer = Tracer()
        span = tracer.begin("x", start=0.0)
        span.end(1.0, status="error", error="boom")
        assert span.status == "error"
        assert span.error == "boom"

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        span = tracer.record("x", 5.0, 4.0)
        assert span.duration == 0.0

    def test_finished_spans_sorted_by_start(self):
        tracer = Tracer()
        tracer.record("late", 5.0, 6.0)
        tracer.record("early", 1.0, 2.0)
        rows = [json.loads(line) for line in export_spans_jsonl(tracer).split()]
        assert [row["name"] for row in rows] == ["early", "late"]


class TestJsonlExport:
    def test_one_object_per_line(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 1.0, kind="instance")
        tracer.record("b", 1.0, 2.0, kind="operator")
        lines = export_spans_jsonl(tracer).strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert [r["name"] for r in rows] == ["a", "b"]
        assert rows[0]["kind"] == "instance"

    def test_unfinished_spans_excluded(self):
        tracer = Tracer()
        tracer.begin("open", start=0.0)
        assert export_spans_jsonl(tracer) == ""


class TestChromeExport:
    def test_valid_json_with_monotone_ts(self):
        tracer = Tracer()
        run = tracer.begin("run", start=0.0, kind="run")
        tracer.record("i1", 0.0, 2.0, kind="instance",
                      attributes={"stream": "A"})
        tracer.record("i2", 1.0, 3.0, kind="instance",
                      attributes={"stream": "B"})
        run.end(3.0)
        doc = json.loads(export_chrome_trace(tracer))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 3
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(e["dur"] >= 0 for e in events)

    def test_stream_lanes_are_stable_tids(self):
        tracer = Tracer()
        tracer.record("i1", 0.0, 1.0, kind="instance",
                      attributes={"stream": "A"})
        tracer.record("i2", 0.0, 1.0, kind="instance",
                      attributes={"stream": "D"})
        doc = json.loads(export_chrome_trace(tracer))
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert events["i1"]["tid"] != events["i2"]["tid"]

    def test_children_inherit_stream_lane(self):
        tracer = Tracer()
        parent = tracer.record("inst", 0.0, 2.0, kind="instance",
                               attributes={"stream": "B"})
        tracer.record("op", 0.0, 1.0, kind="operator", parent=parent)
        doc = json.loads(export_chrome_trace(tracer))
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert events["op"]["tid"] == events["inst"]["tid"]

    def test_status_and_error_exported_in_args(self):
        tracer = Tracer()
        tracer.record("bad", 0.0, 1.0, status="error", error="boom")
        doc = json.loads(export_chrome_trace(tracer))
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["args"]["status"] == "error"
        assert event["args"]["error"] == "boom"
