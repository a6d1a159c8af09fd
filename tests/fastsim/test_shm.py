"""Shared-memory job staging (repro.fastsim.shm + pack_jobs).

The contract under test: staging is invisible to results (pooled shared
runs reproduce the sequential reports bit-for-bit), dramatic for payload
size (large arrays travel as tiny handles), and leak-free (every
``/dev/shm`` segment is unlinked when ``run_many`` returns — worker
crashes included).
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.experiments.scenario import simulation_scenario
from repro.fastsim.parallel import (
    FastSimJob,
    pack_jobs,
    resolve_jobs,
    run_many,
)
from repro.fastsim.shm import (
    MIN_SHARE_BYTES,
    SHM_PREFIX,
    SharedArrayRef,
    ShmArena,
    attach,
    extract_arrays,
    leaked_segments,
    restore_arrays,
)
from repro.fastsim.workload import ModelWorkload
from repro.pdht.config import PdhtConfig
from repro.workloads import StationaryZipf

# Large enough that the Zipf tables and rank->key mapping clear
# MIN_SHARE_BYTES (20k keys * 8 bytes = 160 KB per table); structural
# costs apply (num_peers > CALIBRATION_LIMIT) so resolution stays fast.
SCALE = 0.5
DURATION = 20.0


@pytest.fixture(scope="module")
def params():
    return simulation_scenario(scale=SCALE)


@pytest.fixture(scope="module")
def config(params):
    return PdhtConfig.from_scenario(params)


def build_jobs(params, config):
    # Fresh specs per call: jobs with workload=None are reusable (the
    # kernel derives the default workload per run), and fresh lists keep
    # the tests independent of each other's pack_jobs side effects.
    return [
        FastSimJob(
            params=params, strategy=name, seed=3, duration=DURATION,
            config=config, window=10.0,
        )
        for name in ("noIndex", "indexAll", "partialIdeal", "partialSelection")
    ]


class CrashingWorkload(ModelWorkload):
    """Module-level (hence picklable) workload that dies mid-run, with a
    payload big enough to guarantee a shared segment exists to clean."""

    def __init__(self, zipf, rng):
        super().__init__(StationaryZipf(), zipf, rng)
        self.ballast = np.zeros(2 * MIN_SHARE_BYTES, dtype=np.uint8)

    def draw_rounds(self, start, counts, out=None):
        raise RuntimeError("worker crash (intentional, from the test)")


class KilledWorkload(CrashingWorkload):
    """Kills its worker process outright — no exception, no cleanup."""

    def draw_rounds(self, start, counts, out=None):
        os._exit(1)


class TestShmArena:
    def test_share_attach_roundtrip(self):
        array = np.arange(100.0)
        with ShmArena() as arena:
            ref = arena.share(array)
            assert isinstance(ref, SharedArrayRef)
            assert ref.name.startswith(SHM_PREFIX)
            view = attach(ref)
            np.testing.assert_array_equal(view, array)
            assert view.dtype == array.dtype

    def test_attached_views_are_read_only(self):
        with ShmArena() as arena:
            view = attach(arena.share(np.arange(10)))
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 99

    def test_same_array_shares_one_segment(self):
        array = np.arange(50.0)
        with ShmArena() as arena:
            first = arena.share(array)
            second = arena.share(array)
            assert first is second
            assert len(arena.segment_names) == 1
            # A distinct array gets its own segment, equal values or not.
            arena.share(np.arange(50.0))
            assert len(arena.segment_names) == 2

    def test_total_bytes_tracks_payload(self):
        array = np.arange(1000, dtype=np.int64)
        with ShmArena() as arena:
            arena.share(array)
            assert arena.total_bytes >= array.nbytes

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        name = arena.share(np.arange(32.0)).name
        assert name in leaked_segments()
        arena.close()
        assert name not in leaked_segments()
        arena.close()  # second close is a no-op, not an error


class TestExtractRestore:
    def test_small_arrays_ride_the_pickle(self):
        small = {"a": np.arange(8)}
        with ShmArena() as arena:
            swapped = extract_arrays(small, arena)
            assert swapped["a"] is small["a"]
            assert arena.segment_names == []

    def test_large_arrays_become_refs(self):
        big = np.zeros(MIN_SHARE_BYTES, dtype=np.uint8)
        graph = {"big": big, "tag": "x"}
        with ShmArena() as arena:
            swapped = extract_arrays(graph, arena)
            assert isinstance(swapped["big"], SharedArrayRef)
            assert swapped["tag"] == "x"
            # The original graph is never touched.
            assert graph["big"] is big

    def test_workload_graph_roundtrip(self, params):
        from repro.fastsim.kernel import default_batch_workload

        workload = default_batch_workload(params, 3)
        with ShmArena() as arena:
            packed = extract_arrays(workload, arena)
            assert packed is not workload
            assert isinstance(packed.rank_to_key, SharedArrayRef)
            # Originals untouched: the source workload still holds real
            # arrays and keeps working.
            assert isinstance(workload.rank_to_key, np.ndarray)
            restored = restore_arrays(packed)
            np.testing.assert_array_equal(
                restored.rank_to_key, workload.rank_to_key
            )
            np.testing.assert_array_equal(
                restored.zipf._cumulative, workload.zipf._cumulative
            )

    def test_min_bytes_override_forces_sharing(self):
        tiny = [np.arange(4.0)]
        with ShmArena() as arena:
            swapped = extract_arrays(tiny, arena, min_bytes=0)
            assert isinstance(swapped[0], SharedArrayRef)


class TestPackJobs:
    def test_payload_shrinks(self, params, config):
        from dataclasses import replace

        from repro.fastsim.kernel import default_batch_workload

        # Give every job its explicit workload so the pickle-copy
        # baseline actually carries the arrays (a workload=None spec
        # pickles tiny and materialises in the kernel instead).
        resolved = [
            replace(job, workload=default_batch_workload(params, job.seed))
            for job in resolve_jobs(build_jobs(params, config))
        ]
        full = sum(len(pickle.dumps(job)) for job in resolved)
        with ShmArena() as arena:
            packed = pack_jobs(resolved, arena)
            staged = sum(len(pickle.dumps(job)) for job in packed)
            assert arena.total_bytes > 0
            assert staged < full / 10

    def test_default_workloads_deduplicate(self, params, config):
        resolved = resolve_jobs(build_jobs(params, config))
        with ShmArena() as arena:
            pack_jobs(resolved, arena)
            # Four jobs share one scenario: one probs table, one
            # cumulative table, one identity rank->key mapping.
            assert len(arena.segment_names) == 3

    def test_originals_keep_their_workloads(self, params, config):
        resolved = resolve_jobs(build_jobs(params, config))
        with ShmArena() as arena:
            pack_jobs(resolved, arena)
            assert all(job.workload is None for job in resolved)


class TestRunManyShared:
    def test_shared_pool_matches_sequential_exactly(self, params, config):
        sequential = run_many(build_jobs(params, config), workers=1)
        shared = run_many(
            build_jobs(params, config), workers=2, shared_memory=True
        )
        for a, b in zip(sequential, shared):
            left, right = a.to_dict(), b.to_dict()
            left.pop("elapsed_seconds")
            right.pop("elapsed_seconds")
            assert left == right

    def test_no_segments_survive_the_call(self, params, config):
        run_many(build_jobs(params, config), workers=2, shared_memory=True)
        assert leaked_segments() == []

    def test_worker_crash_still_cleans_up(self, params):
        from repro.analysis.zipf import ZipfDistribution

        zipf = ZipfDistribution(params.n_keys, params.alpha)
        jobs = [
            FastSimJob(
                params=params,
                seed=seed,
                duration=DURATION,
                workload=CrashingWorkload(
                    zipf, np.random.default_rng(seed)
                ),
            )
            for seed in (0, 1)  # >= 2 jobs so the pool engages
        ]
        with pytest.raises(RuntimeError, match="worker crash"):
            run_many(jobs, workers=2, shared_memory=True)
        assert leaked_segments() == []

    def test_killed_worker_leaves_store_and_shm_consistent(
        self, params, config, tmp_path
    ):
        from repro.analysis.zipf import ZipfDistribution
        from repro.store import Store

        zipf = ZipfDistribution(params.n_keys, params.alpha)
        killed = FastSimJob(
            params=params,
            seed=9,
            duration=DURATION,
            workload=KilledWorkload(zipf, np.random.default_rng(9)),
        )
        with Store(tmp_path / "artifacts.sqlite") as store:
            with pytest.raises(BrokenProcessPool):
                run_many(
                    build_jobs(params, config) + [killed],
                    workers=2,
                    shared_memory=True,
                    store=store,
                )
            assert leaked_segments() == []
            # Whatever landed before the kill is served from the store;
            # the rest recomputes — either way the same reports.
            resumed = run_many(
                build_jobs(params, config), workers=1, store=store
            )
        fresh = run_many(build_jobs(params, config), store=None)
        for a, b in zip(resumed, fresh):
            left, right = a.to_dict(), b.to_dict()
            left.pop("elapsed_seconds")
            right.pop("elapsed_seconds")
            assert left == right
