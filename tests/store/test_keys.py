"""Content-key composition: canonical forms and invalidation semantics."""

from __future__ import annotations

import enum

import numpy as np
import pytest

import repro
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.store import canonical, canonical_json, content_key


class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(None) is None
        assert canonical(True) is True
        assert canonical(3) == 3
        assert canonical(0.25) == 0.25
        assert canonical("x") == "x"

    def test_nonfinite_floats_are_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical(float("nan"))
        with pytest.raises(ValueError, match="non-finite"):
            canonical(float("inf"))

    def test_numpy_scalars_and_arrays(self):
        assert canonical(np.float64(0.5)) == 0.5
        assert canonical(np.int32(7)) == 7
        assert canonical(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert canonical(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_rng_identity_is_its_state(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        c = np.random.default_rng(43)
        assert canonical_json(a) == canonical_json(b)
        assert canonical_json(a) != canonical_json(c)
        # Consuming draws changes the state, and therefore the identity.
        a.random(4)
        assert canonical_json(a) != canonical_json(b)

    def test_dataclass_carries_qualified_name_and_fields(self):
        record = canonical(ScenarioParameters())
        assert record["__dataclass__"].endswith("ScenarioParameters")
        assert record["num_peers"] == ScenarioParameters().num_peers

    def test_dict_key_order_is_canonicalised(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_sets_are_sorted(self):
        assert canonical({3, 1, 2}) == [1, 2, 3]

    def test_enum_reduces_to_value(self):
        assert canonical(Colour.RED) == "red"

    def test_store_key_hook_wins_over_dict_state(self):
        zipf = ZipfDistribution(100, 1.2)
        record = canonical(zipf)
        assert record["state"] == {"n_keys": 100, "alpha": 1.2}

    def test_unrepresentable_objects_raise(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())


class TestContentKey:
    INPUTS = {
        "params": ScenarioParameters(),
        "config": None,
        "seed": 0,
    }

    def test_key_is_sha256_hex_and_deterministic(self):
        key = content_key("costs", self.INPUTS)
        assert len(key) == 64
        assert key == content_key("costs", self.INPUTS)

    def test_key_changes_with_each_envelope_component(self):
        base = content_key("costs", self.INPUTS)
        assert content_key("churn_costs", self.INPUTS) != base
        assert (
            content_key("costs", {**self.INPUTS, "seed": 1}) != base
        )
        assert content_key("costs", self.INPUTS, version="0.0.0") != base
        assert content_key("costs", self.INPUTS, schema_rev=2) != base

    def test_key_defaults_to_package_version(self):
        explicit = content_key(
            "costs", self.INPUTS, version=repro.__version__
        )
        assert content_key("costs", self.INPUTS) == explicit

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            content_key("nonsense", self.INPUTS)

    def test_equal_dataclasses_key_equal(self):
        a = {"churn": ChurnConfig(1800.0, 600.0), "config": PdhtConfig(3600.0)}
        b = {"churn": ChurnConfig(1800.0, 600.0), "config": PdhtConfig(3600.0)}
        assert content_key("churn_costs", a) == content_key("churn_costs", b)

    def test_scenario_field_change_changes_key(self):
        base = content_key("costs", {"params": ScenarioParameters()})
        bumped = content_key(
            "costs",
            {
                "params": ScenarioParameters(
                    num_peers=ScenarioParameters().num_peers + 1
                )
            },
        )
        assert base != bumped


class TestModelWorkloadKeys:
    """A model stream keys by its state; a boundary that never comes
    (``inf``) keys as ``None`` instead of failing the key."""

    @pytest.fixture
    def params(self):
        from repro.experiments.scenario import simulation_scenario

        return simulation_scenario(scale=0.02)

    def _stream(self, model, params):
        zipf = ZipfDistribution(params.n_keys, params.alpha)
        return model.build(zipf, np.random.default_rng(5))

    def test_finite_boundary_keys_as_plain_state(self, params):
        from repro.workloads import GradualDrift

        stream = self._stream(GradualDrift(), params)
        cls = type(stream)
        assert canonical(stream) == {
            "__object__": f"{cls.__module__}.{cls.__qualname__}",
            "state": {
                name: canonical(value)
                for name, value in sorted(vars(stream).items())
            },
        }

    def test_gradual_drift_job_key_is_byte_stable(self, params):
        # Pinned before ModelWorkload gained __store_key__: a finite
        # boundary must not re-key stored sweep cells.
        from repro.fastsim.parallel import FastSimJob
        from repro.workloads import GradualDrift

        job = FastSimJob(
            params=params,
            seed=1,
            duration=60.0,
            workload=self._stream(GradualDrift(), params),
        )
        assert content_key(
            "sweep_cell", {"job": job}, version="0", schema_rev=1
        ) == "2f6edeecfa237c4a455ff3f1e2ec6180ae02ba3e31226e9fb47c444e412d0727"

    def test_no_pending_boundary_keys_as_none(self, params):
        from repro.workloads import DiurnalCycle

        stream = self._stream(DiurnalCycle(), params)
        assert stream.next_boundary(0.0) == float("inf")
        assert canonical(stream)["state"]["_next"] is None
        assert stream.next_boundary(0.0) == float("inf")  # not mutated
        content_key("sweep_cell", {"workload": stream})
