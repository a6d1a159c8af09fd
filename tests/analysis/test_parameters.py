"""Tests for scenario parameters (Table 1)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError


class TestDefaults:
    def test_defaults_match_table1(self):
        p = ScenarioParameters.paper_scenario()
        assert p.num_peers == 20_000
        assert p.n_keys == 40_000
        assert p.storage_per_peer == 100
        assert p.replication == 50
        assert p.alpha == 1.2
        assert p.query_freq == pytest.approx(1.0 / 30.0)
        assert p.update_freq == pytest.approx(1.0 / 86_400.0)
        assert p.env == pytest.approx(1.0 / 14.0)
        assert p.dup == 1.8
        assert p.dup2 == 1.8

    def test_iter_fields_covers_table1(self):
        names = [name for name, _ in ScenarioParameters().iter_fields()]
        assert names == [
            "numPeers", "keys", "stor", "repl", "alpha",
            "fQry", "fUpd", "env", "dup", "dup2",
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_peers", 0),
            ("n_keys", 0),
            ("storage_per_peer", 0),
            ("replication", 0),
            ("alpha", -1.0),
            ("query_freq", -0.1),
            ("update_freq", -0.1),
            ("env", -0.1),
            ("dup", 0.5),
            ("dup2", 0.9),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ParameterError):
            ScenarioParameters(**kwargs)

    def test_replication_cannot_exceed_peers(self):
        with pytest.raises(ParameterError):
            ScenarioParameters(num_peers=10, replication=20)

    def test_non_integer_peers_rejected(self):
        with pytest.raises(ParameterError):
            ScenarioParameters(num_peers=10.5)  # type: ignore[arg-type]


class TestDerived:
    def test_network_query_rate(self):
        p = ScenarioParameters.paper_scenario()
        assert p.network_query_rate == pytest.approx(20_000 / 30.0)

    def test_full_index_needs_20000_peers(self):
        # Paper Section 4: 40,000 keys x 50 replicas / 100 slots = 20,000.
        assert ScenarioParameters.paper_scenario().full_index_peers == 20_000

    def test_active_peers_scales_with_index(self):
        p = ScenarioParameters.paper_scenario()
        assert p.active_peers_for(20_000) == 10_000
        assert p.active_peers_for(100) == 50

    def test_active_peers_capped_at_population(self):
        p = ScenarioParameters.paper_scenario()
        assert p.active_peers_for(10**9) == p.num_peers

    def test_active_peers_floor_of_two(self):
        p = ScenarioParameters.paper_scenario()
        assert p.active_peers_for(1) == 2

    def test_active_peers_zero_for_empty_index(self):
        assert ScenarioParameters.paper_scenario().active_peers_for(0) == 0

    def test_query_update_ratio_busy(self):
        # Paper: "the average key query/update ratio varies between 1440/1
        # and 6/1".
        busy = ScenarioParameters.paper_scenario()
        assert busy.query_update_ratio == pytest.approx(1440.0)

    def test_query_update_ratio_calm(self):
        calm = ScenarioParameters.paper_scenario().with_query_freq(1 / 7200)
        assert calm.query_update_ratio == pytest.approx(6.0)

    def test_query_update_ratio_no_updates(self):
        p = ScenarioParameters(update_freq=0.0)
        assert math.isinf(p.query_update_ratio)


class TestTransforms:
    def test_with_query_freq_only_changes_freq(self):
        p = ScenarioParameters.paper_scenario()
        q = p.with_query_freq(1 / 600)
        assert q.query_freq == pytest.approx(1 / 600)
        assert q.num_peers == p.num_peers
        assert q.replication == p.replication

    def test_scaled_preserves_ratios(self):
        p = ScenarioParameters.paper_scenario()
        s = p.scaled(0.1)
        assert s.num_peers == 2_000
        assert s.n_keys == 4_000
        assert s.n_keys / s.num_peers == pytest.approx(p.n_keys / p.num_peers)

    def test_scaled_keeps_replication_feasible(self):
        p = ScenarioParameters.paper_scenario()
        with pytest.raises(ParameterError, match="0.0025"):
            p.scaled(0.001)  # would be 20 peers < repl 50
        smallest = p.scaled(0.0025)
        assert smallest.num_peers == smallest.replication == 50

    def test_scale_must_be_positive(self):
        with pytest.raises(ParameterError):
            ScenarioParameters.paper_scenario().scaled(0.0)

    def test_frozen(self):
        p = ScenarioParameters.paper_scenario()
        with pytest.raises(AttributeError):
            p.num_peers = 5  # type: ignore[misc]
