"""Tests for query streams seen as events (stationary and shifting)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.workloads import FlashCrowd, RankSwap, StationaryZipf


@pytest.fixture
def zipf():
    return ZipfDistribution(100, 1.2)


class TestStationary:
    def test_draw_returns_requested_count(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        assert len(workload.draw(0.0, 25)) == 25

    def test_events_carry_time_and_rank(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        for event in workload.draw(3.5, 10):
            assert event.time == 3.5
            assert 1 <= event.rank <= 100
            assert type(event.rank) is int
            assert type(event.key_index) is int

    def test_identity_mapping_initially(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        for event in workload.draw(0.0, 50):
            assert event.key_index == event.rank - 1

    def test_zipf_shape(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        events = workload.draw(0.0, 10_000)
        top10 = sum(1 for e in events if e.rank <= 10) / len(events)
        assert top10 == pytest.approx(zipf.head_mass(10), abs=0.03)

    def test_negative_count_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            StationaryZipf().build(zipf, rng).draw(0.0, -1)

    def test_rank_lookup_bounds(self, zipf, rng):
        workload = StationaryZipf().build(zipf, rng)
        with pytest.raises(ParameterError):
            workload.key_for_rank(0)
        with pytest.raises(ParameterError):
            workload.key_for_rank(101)


class TestShuffled:
    def test_no_shift_before_time(self, zipf, rng):
        workload = RankSwap(shift_time=100.0).build(zipf, rng)
        workload.draw(50.0, 10)
        assert workload.shift_pending(100.0)  # still scheduled
        assert np.array_equal(workload.rank_to_key, np.arange(100))

    def test_shift_applies_once(self, zipf, rng):
        workload = RankSwap(shift_time=100.0).build(zipf, rng)
        assert workload.maybe_shift(100.0) is True
        assert workload.maybe_shift(200.0) is False
        assert workload.next_boundary(200.0) == math.inf

    def test_mapping_changes_after_shift(self, zipf, rng):
        workload = RankSwap(shift_time=10.0).build(zipf, rng)
        before = [workload.key_for_rank(r) for r in range(1, 101)]
        workload.draw(10.0, 1)
        after = [workload.key_for_rank(r) for r in range(1, 101)]
        assert before != after
        assert sorted(after) == sorted(before)  # still a permutation

    def test_negative_shift_time_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            RankSwap(shift_time=-1.0)


class TestFlashCrowd:
    def test_cold_key_becomes_rank_one(self, zipf, rng):
        workload = FlashCrowd(at=5.0, cold_rank=100).build(zipf, rng)
        cold_key = workload.key_for_rank(100)
        workload.draw(5.0, 1)
        assert workload.key_for_rank(1) == cold_key

    def test_other_keys_shift_down(self, zipf, rng):
        workload = FlashCrowd(at=5.0, cold_rank=100).build(zipf, rng)
        old_rank1 = workload.key_for_rank(1)
        workload.draw(5.0, 1)
        assert workload.key_for_rank(2) == old_rank1

    def test_mapping_stays_permutation(self, zipf, rng):
        workload = FlashCrowd(at=0.0, cold_rank=42).build(zipf, rng)
        workload.draw(0.0, 1)
        mapping = [workload.key_for_rank(r) for r in range(1, 101)]
        assert sorted(mapping) == list(range(100))

    def test_default_cold_rank_is_tail(self, zipf, rng):
        workload = FlashCrowd(at=1.0).build(zipf, rng)
        tail_key = workload.key_for_rank(100)
        workload.draw(1.0, 1)
        assert workload.key_for_rank(1) == tail_key

    def test_invalid_cold_rank_rejected(self, zipf, rng):
        with pytest.raises(ParameterError):
            FlashCrowd(at=1.0, cold_rank=0)
