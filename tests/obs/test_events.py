"""Flight-recorder mechanics: sinks, gating, JSONL crash recovery."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import events


class TestSinkState:
    def test_no_sink_by_default(self):
        assert not events.recording()

    def test_set_sink_returns_previous(self):
        ring = events.RingBufferSink()
        assert events.set_sink(ring) is None
        assert events.recording()
        assert events.set_sink(None) is ring
        assert not events.recording()

    def test_recorded_restores_previous_sink(self):
        outer = events.RingBufferSink()
        events.set_sink(outer)
        with events.recorded() as inner:
            assert inner is not outer
            events.emit_event("counter", name="a.b", n=1)
        assert events.set_sink(None) is outer
        assert [e["name"] for e in inner.events()] == ["a.b"]
        assert outer.events() == []

    def test_emit_without_sink_is_noop(self):
        events.emit_event("counter", name="a.b", n=1)  # must not raise

    def test_events_carry_type_time_pid(self):
        import os

        with events.recorded() as ring:
            events.emit_event("counter", name="a.b", n=2)
        (event,) = ring.events()
        assert event["type"] == "counter"
        assert event["pid"] == os.getpid()
        assert isinstance(event["t"], float)
        assert event["n"] == 2

    def test_ring_buffer_is_bounded(self):
        ring = events.RingBufferSink(capacity=4)
        with events.recorded(ring):
            for i in range(10):
                events.emit_event("counter", name="a.b", n=i)
        kept = [e["n"] for e in ring.events()]
        assert kept == [6, 7, 8, 9]

    def test_tee_fans_out(self):
        a, b = events.RingBufferSink(), events.RingBufferSink()
        with events.recorded(events.TeeSink(a, b)):
            events.emit_event("gauge", name="x.y", value=1.0)
        assert len(a.events()) == len(b.events()) == 1


class TestCollectorHooks:
    def test_disabled_collection_emits_nothing(self):
        with events.recorded() as ring:
            with obs.span("kernel.run"):
                obs.count("kernel.runs")
                obs.gauge_max("kernel.peak", 1.0)
                obs.add_duration("draw", 0.1)
        assert ring.events() == []

    def test_enabled_without_sink_records_nothing_extra(self):
        obs.enable()
        with obs.span("kernel.run"):
            obs.count("kernel.runs")
        assert obs.collector().counters == {"kernel.runs": 1.0}

    def test_span_lifecycle_events(self):
        obs.enable()
        with events.recorded() as ring:
            with obs.span("sweep.grid", cells=2):
                with obs.span("kernel.run"):
                    pass
        kinds = [(e["type"], e["path"]) for e in ring.events()]
        assert kinds == [
            ("span_start", "sweep.grid"),
            ("span_start", "sweep.grid/kernel.run"),
            ("span_end", "sweep.grid/kernel.run"),
            ("span_end", "sweep.grid"),
        ]
        outer_end = ring.events()[-1]
        assert outer_end["attrs"] == {"cells": 2}
        assert outer_end["seconds"] >= 0.0

    def test_counter_gauge_duration_events(self):
        obs.enable()
        with events.recorded() as ring:
            obs.count("kernel.queries", 7)
            obs.gauge_max("worker.peak_rss_bytes", 123.0)
            with obs.span("kernel.run"):
                obs.add_duration("draw", 0.25, n=3)
        by_type = {e["type"]: e for e in ring.events() if e["type"] != "span_start"}
        assert by_type["counter"]["name"] == "kernel.queries"
        assert by_type["counter"]["n"] == 7
        assert by_type["gauge"]["value"] == 123.0
        assert by_type["duration"]["path"] == "kernel.run/draw"
        assert by_type["duration"]["n"] == 3

    def test_merge_worker_marks_events_remote(self):
        obs.enable()
        shipped = [
            {"type": "counter", "t": 1.0, "pid": 42, "name": "a.b", "n": 1}
        ]
        with events.recorded() as ring:
            obs.merge_worker(shipped)
            obs.merge_worker([])
        (event,) = ring.events()
        assert event["remote"] is True
        assert event["pid"] == 42
        assert "remote" not in shipped[0]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        with events.recorded(sink):
            events.emit_event("counter", name="a.b", n=1)
            events.emit_event("gauge", name="c.d", value=2.0)
        sink.close()
        loaded = events.read_events(path)
        assert [e["type"] for e in loaded] == ["counter", "gauge"]
        assert loaded[0]["n"] == 1

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for n in (1, 2):
            sink = events.JsonlSink(path)
            with events.recorded(sink):
                events.emit_event("counter", name="a.b", n=n)
            sink.close()
        assert [e["n"] for e in events.read_events(path)] == [1, 2]

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        with events.recorded(sink):
            for n in range(3):
                events.emit_event("counter", name="a.b", n=n)
        sink.close()
        # Simulate a kill mid-write: chop the file inside the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        loaded = events.read_events(path)
        assert [e["n"] for e in loaded] == [0, 1]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"type": "counter", "t": 1.0, "pid": 1, "name": "a", "n": 1})
            + "\n{broken\n"
            + json.dumps({"type": "counter", "t": 2.0, "pid": 1, "name": "a", "n": 2})
            + "\n"
        )
        with pytest.raises(ValueError, match="malformed event on line 2"):
            events.read_events(path)

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert events.read_events(path) == []
