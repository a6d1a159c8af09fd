"""Unit tests for the repro.obs collection primitives."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.obs import events


class TestSpans:
    def test_span_records_path_count_and_seconds(self):
        obs.enable()
        with obs.span("outer"):
            time.sleep(0.01)
        spans = obs.collector().spans
        assert spans["outer"]["count"] == 1
        assert spans["outer"]["seconds"] >= 0.01

    def test_spans_nest_into_slash_joined_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = obs.collector().spans
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_span_attrs_last_writer_wins(self):
        obs.enable()
        with obs.span("calibrate.churn", peers=500, seed=0):
            pass
        with obs.span("calibrate.churn", peers=5000):
            pass
        attrs = obs.collector().spans["calibrate.churn"]["attrs"]
        assert attrs == {"peers": 5000, "seed": 0}

    def test_inner_seconds_bounded_by_outer(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.01)
        spans = obs.collector().spans
        assert spans["outer"]["seconds"] >= spans["outer/inner"]["seconds"]

    def test_add_duration_appends_to_current_stack(self):
        obs.enable()
        with obs.span("kernel.run"):
            obs.add_duration("round.queries", 1.5, n=300)
        spans = obs.collector().spans
        assert spans["kernel.run/round.queries"]["count"] == 300
        assert spans["kernel.run/round.queries"]["seconds"] == 1.5

    def test_exception_inside_span_still_recorded(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert obs.collector().spans["boom"]["count"] == 1
        # the stack unwound: a follow-up span is not nested under "boom"
        with obs.span("after"):
            pass
        assert "after" in obs.collector().spans

    def test_reset_span_stack_reroots_paths(self):
        obs.enable()
        span = obs.span("stuck")
        span.__enter__()
        obs.reset_span_stack()
        with obs.span("fresh"):
            pass
        assert "fresh" in obs.collector().spans


class TestDisabled:
    def test_disabled_records_nothing(self):
        with obs.span("outer", peers=1):
            pass
        obs.count("hits")
        obs.gauge_max("peak", 10.0)
        obs.add_duration("phase", 1.0)
        collected = obs.collector()
        assert not collected
        assert collected.spans == {}
        assert collected.counters == {}
        assert collected.gauges == {}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("a") is obs.span("b")

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()

    def test_repro_obs_env_enables_at_import(self):
        code = "from repro import obs; print(obs.enabled())"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_OBS": "1"},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
        )
        assert out.stdout.strip() == "True", out.stderr


class TestCountersAndGauges:
    def test_counters_sum(self):
        obs.enable()
        obs.count("cache.hit")
        obs.count("cache.hit", 2)
        assert obs.collector().counters["cache.hit"] == 3

    def test_gauges_keep_maximum(self):
        obs.enable()
        obs.gauge_max("peak", 10.0)
        obs.gauge_max("peak", 5.0)
        obs.gauge_max("peak", 12.0)
        assert obs.collector().gauges["peak"] == 12.0

    def test_peak_rss_positive_and_sampled(self):
        assert obs.peak_rss_bytes() > 0
        obs.enable()
        sampled = obs.sample_peak_rss("worker")
        assert sampled == obs.collector().gauges["worker.peak_rss_bytes"]

    def test_sample_peak_rss_disabled_returns_without_recording(self):
        assert obs.sample_peak_rss() > 0
        assert obs.collector().gauges == {}


class TestSnapshotMerge:
    def _loaded(self, spans=(), counters=(), gauges=()):
        child = obs.Collector()
        for path, seconds in spans:
            child.record_span(path, seconds)
        for name, n in counters:
            child.count(name, n)
        for name, value in gauges:
            child.gauge_max(name, value)
        return child

    def test_snapshot_is_json_roundtrippable(self):
        child = self._loaded(
            spans=[("a", 1.0)], counters=[("c", 2)], gauges=[("g", 3.0)]
        )
        snapshot = json.loads(json.dumps(child.snapshot()))
        assert snapshot["schema"] == obs.SNAPSHOT_SCHEMA
        assert snapshot["spans"]["a"]["seconds"] == 1.0

    def test_merge_sums_spans_and_counters_maxes_gauges(self):
        parent = self._loaded(
            spans=[("a", 1.0)], counters=[("c", 1)], gauges=[("g", 5.0)]
        )
        child = self._loaded(
            spans=[("a", 2.0), ("b", 0.5)],
            counters=[("c", 2)],
            gauges=[("g", 3.0)],
        )
        parent.merge(child.snapshot())
        assert parent.spans["a"]["seconds"] == 3.0
        assert parent.spans["a"]["count"] == 2
        assert parent.spans["b"]["count"] == 1
        assert parent.counters["c"] == 3
        assert parent.gauges["g"] == 5.0

    def test_merge_is_order_independent(self):
        one = self._loaded(spans=[("a", 1.0)], counters=[("c", 1)])
        two = self._loaded(spans=[("a", 2.0)], counters=[("c", 2)])
        forward, backward = obs.Collector(), obs.Collector()
        forward.merge(one.snapshot())
        forward.merge(two.snapshot())
        backward.merge(two.snapshot())
        backward.merge(one.snapshot())
        assert forward.spans == backward.spans
        assert forward.counters == backward.counters

    def test_merge_worker_reroots_under_open_span(self):
        obs.enable()
        worker = [
            {"type": "span_end", "t": 1.0, "pid": 42,
             "path": "kernel.run", "seconds": 1.0, "attrs": {}},
            {"type": "counter", "t": 1.0, "pid": 42,
             "name": "kernel.runs", "n": 1},
            {"type": "gauge", "t": 1.0, "pid": 42,
             "name": "worker.peak_rss_bytes", "value": 5.0},
        ]
        with obs.span("parallel.run_many"):
            obs.merge_worker(worker)
        collected = obs.collector()
        assert collected.spans["parallel.run_many/kernel.run"]["count"] == 1
        assert "kernel.run" not in collected.spans
        # Counters and gauges are process-wide names: never re-rooted.
        assert collected.counters["kernel.runs"] == 1
        assert collected.gauges["worker.peak_rss_bytes"] == 5.0
        # The worker's own list is not mutated by the re-rooting.
        assert worker[0]["path"] == "kernel.run"

    def test_merge_worker_disabled_is_noop(self):
        worker = [
            {"type": "counter", "t": 1.0, "pid": 42,
             "name": "kernel.runs", "n": 1},
        ]
        with events.recorded() as ring:
            obs.merge_worker(worker)
        assert not obs.collector()
        assert ring.events() == []

    def test_clear_forgets_data_and_merge_memory(self):
        parent = obs.Collector()
        child = self._loaded(counters=[("c", 1)])
        snapshot = child.snapshot()
        parent.merge(snapshot)
        parent.clear()
        assert not parent
        parent.merge(snapshot)
        assert parent.counters["c"] == 1


class TestApply:
    def test_apply_folds_each_aggregate_event_type(self):
        folded = obs.Collector()
        for event in (
            {"type": "span_start", "path": "a", "attrs": {}},
            {"type": "span_end", "path": "a", "seconds": 1.5,
             "attrs": {"peers": 5}},
            {"type": "duration", "path": "a/phase", "seconds": 0.5, "n": 3},
            {"type": "counter", "name": "c", "n": 2},
            {"type": "counter", "name": "c", "n": 1},
            {"type": "gauge", "name": "g", "value": 4.0},
            {"type": "gauge", "name": "g", "value": 2.0},
            {"type": "progress", "name": "p", "done": 1, "total": 2},
        ):
            folded.apply(event)
        assert folded.spans == {
            "a": {"count": 1, "seconds": 1.5, "attrs": {"peers": 5}},
            "a/phase": {"count": 3, "seconds": 0.5, "attrs": {}},
        }
        assert folded.counters == {"c": 3.0}
        assert folded.gauges == {"g": 4.0}

    def test_worker_events_past_the_ring_capacity_fold_exactly(self):
        # A worker's events are its only telemetry channel: 70,000
        # counter events (more than a default ring holds) must all reach
        # the parent's aggregate.
        obs.enable()
        result, shipped = obs.run_in_worker(_count_many, (70_000, True))
        assert result == 70_000
        assert len(shipped) > 1 << 16
        with obs.span("parallel.run_many"):
            obs.merge_worker(shipped)
        assert obs.collector().counters["kernel.queries"] == 70_000.0

    def test_run_in_worker_without_collect_ships_nothing(self):
        result, shipped = obs.run_in_worker(_count_many, (10, False))
        assert result == 10
        assert shipped == []


def _count_many(n: int) -> int:
    for _ in range(n):
        obs.count("kernel.queries")
    return n


class TestScoped:
    def test_scoped_merges_back_into_parent(self):
        obs.enable()
        parent = obs.collector()
        with obs.scoped() as local:
            obs.count("c")
            assert obs.collector() is local
        assert obs.collector() is parent
        assert parent.counters["c"] == 1
        assert local.counters["c"] == 1

    def test_scoped_without_merge_keeps_parent_clean(self):
        obs.enable()
        parent = obs.collector()
        with obs.scoped(merge_into_parent=False):
            obs.count("c")
        assert parent.counters == {}


class TestProfileRendering:
    def _sample(self):
        child = obs.Collector()
        child.record_span("experiment.run", 2.0)
        child.record_span("experiment.run/kernel.run", 1.5)
        child.record_span("experiment.run/kernel.run/round.queries", 1.0)
        child.count("kernel.rounds", 300)
        child.gauge_max("worker.peak_rss_bytes", 512 * 2**20)
        return child

    def test_profile_text_renders_nested_tree(self):
        text = obs.profile_text(self._sample(), title="profile: test")
        assert "profile: test" in text
        assert "experiment.run" in text
        assert "kernel.run" in text
        assert "round.queries" in text
        assert "kernel.rounds" in text
        # RSS gauges render as MiB, not raw bytes
        assert "512" in text and "MiB" in text

    def test_profile_text_accepts_snapshot_dict(self):
        from_dict = obs.profile_text(self._sample().snapshot())
        from_collector = obs.profile_text(self._sample())
        assert from_dict == from_collector

    def test_profile_json_parses(self):
        data = json.loads(obs.profile_json(self._sample()))
        assert data["counters"]["kernel.rounds"] == 300

    def test_profile_text_indents_children_under_parents(self):
        lines = obs.profile_text(self._sample()).splitlines()
        by_name = {
            line.strip().split()[0]: len(line) - len(line.lstrip())
            for line in lines[2:5]
        }
        assert (
            by_name["experiment.run"]
            < by_name["kernel.run"]
            < by_name["round.queries"]
        )
