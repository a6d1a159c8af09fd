"""Event-stream replay fidelity: the recorded stream IS the profile.

The flight recorder's core contract: a collector snapshot rebuilt from
the event stream alone (:func:`repro.obs.export.replay`) equals the
end-of-run ``Collector.snapshot()`` — for sequential runs, for pooled
runs (whose workers ship their events by value, the one channel their
aggregates travel on), and through a JSONL file that lost its final line
to a kill.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import events
from repro.experiments.scenario import simulation_scenario
from repro.fastsim.parallel import FastSimJob, run_many

SCALE = 0.02
DURATION = 40.0


@pytest.fixture(scope="module")
def strategy_jobs():
    params = simulation_scenario(scale=SCALE)
    return [
        FastSimJob(params=params, strategy=name, seed=3, duration=DURATION)
        for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
    ]


def _profile(snapshot_like) -> dict:
    """The comparable profile content (spans/counters/gauges only)."""
    data = obs.profile_data(snapshot_like)
    return {
        "spans": data["spans"],
        "counters": data["counters"],
        "gauges": data["gauges"],
    }


class TestSequentialFidelity:
    def test_synthetic_stream_matches_snapshot(self):
        obs.enable()
        with events.recorded() as ring:
            with obs.span("sweep.grid", cells=2):
                obs.count("sweep.cells", 2)
                obs.add_duration("sweep.cell", 1.5, n=2)
                obs.gauge_max("kernel.peak_rss_bytes", 77.0)
        snapshot = obs.collector().snapshot()
        assert _profile(obs.replay(ring.events())) == _profile(snapshot)

    def test_sequential_run_many_matches_snapshot(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring:
            run_many(strategy_jobs, workers=1, store=None)
        snapshot = obs.collector().snapshot()
        rebuilt = obs.replay(ring.events())
        assert _profile(rebuilt) == _profile(snapshot)
        assert rebuilt["counters"]["kernel.runs"] == 4.0


class TestPooledFidelity:
    def test_jobs4_run_many_matches_snapshot(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring:
            pooled = run_many(strategy_jobs, workers=4, store=None)
        snapshot = obs.collector().snapshot()
        rebuilt = obs.replay(ring.events())
        assert _profile(rebuilt) == _profile(snapshot)
        # The pooled profile carries worker-folded kernel data...
        assert rebuilt["counters"]["kernel.runs"] == 4.0
        # ...and the stream carries the workers' own events, remote-marked,
        # with per-worker pids distinct from the parent's and span paths
        # re-rooted under the fan-out span.
        import os

        remote = [e for e in ring.events() if e.get("remote")]
        assert remote
        worker_pids = {e["pid"] for e in remote}
        assert os.getpid() not in worker_pids
        assert all(
            e["path"].startswith("parallel.run_many/")
            for e in remote
            if "path" in e
        )
        # Sanity: pooled reports exist for all four strategies.
        assert len(pooled) == 4

    def test_pooled_and_sequential_profiles_share_shape(self, strategy_jobs):
        obs.enable()
        with events.recorded() as ring_seq:
            run_many(strategy_jobs, workers=1, store=None)
        sequential = obs.replay(ring_seq.events())
        obs.set_collector(obs.Collector())
        with events.recorded() as ring_pool:
            run_many(strategy_jobs, workers=4, store=None)
        pooled = obs.replay(ring_pool.events())
        span_paths = lambda snap: {  # noqa: E731
            path for path in snap["spans"] if not path.startswith("calibrate.")
        }
        assert span_paths(pooled) == span_paths(sequential)


class TestKilledRunRecovery:
    def test_truncated_jsonl_still_replays(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        obs.enable()
        with events.recorded(sink):
            with obs.span("sweep.grid"):
                obs.count("sweep.cells", 3)
        sink.close()
        # Simulate a SIGKILL mid-write: append half an event line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "counter", "t": 12.5, "pid"')
        recovered = events.read_events(path)
        rebuilt = obs.replay(recovered)
        assert rebuilt["counters"]["sweep.cells"] == 3.0
        assert "sweep.grid" in rebuilt["spans"]

    def test_recovered_prefix_matches_full_stream_prefix(self, tmp_path):
        # What survives the kill replays identically to the same prefix
        # of the in-memory stream: the file adds nothing and loses only
        # the torn tail.
        path = tmp_path / "events.jsonl"
        sink = events.JsonlSink(path)
        obs.enable()
        with events.recorded(events.TeeSink(sink, ring := events.RingBufferSink())):
            obs.count("kernel.queries", 4)
            obs.count("kernel.runs")
        sink.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])  # tear the final line
        recovered = events.read_events(path)
        assert recovered == ring.events()[: len(recovered)]
        assert len(recovered) == len(ring.events()) - 1
