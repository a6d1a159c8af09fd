"""The benchmark's four workloads.

Each workload call is cold: the in-process calibration and grid caches
are emptied first, and any store is a fresh temporary file. A call has
three timed phases, run back to back in this process:

* ``setup`` — what the call prepares before simulating (kernel state,
  store creation, cache reset);
* ``cold`` — the user-visible job on empty caches (``run_s``);
* ``resume`` — the same inputs again, reusing what the cold pass left:
  the artifact store on ``sweep-grid`` (in-process caches emptied again,
  as in a fresh CLI process), the in-process calibration caches on the
  others (``resume_s``).

Each pass's output is checked; a failed check marks the pass's units
(kernel runs, sweep cells, experiment calls) as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

from repro.experiments import api
from repro.experiments import figures, sweeps
from repro.experiments.scenario import fastsim_scenario, simulation_scenario
from repro.fastsim import FastSimKernel, compare_engines
from repro.obs import cache as obs_cache
from repro.store import Store, using_store

#: The repo's own cross-engine agreement tolerance (5% on seed-averaged
#: hit rate and total cost).
AGREEMENT_TOLERANCE = 0.05


def reset_caches() -> None:
    """Empty every in-process cache a CLI invocation starts without:
    the counted calibration/Zipf caches and the sweep grid cache."""
    for cached in obs_cache._CACHES.values():
        cached.cache_clear()
    sweeps._GRID_CACHE.clear()


class Workload:
    """One benchmark workload; subclasses fill in the three phases."""

    name = ""
    why = ""
    #: Units (kernel runs, sweep cells, experiment calls) in one pass.
    units = 1
    #: Resumed passes per call; cheap ones repeat so their median holds.
    resume_repeats = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def setup(self, call: int) -> Any:
        reset_caches()
        return None

    def cold(self, state: Any) -> Any:
        return self.job()

    def resume(self, state: Any) -> Any:
        return self.job()

    def job(self) -> Any:
        """The whole user job, for workloads whose passes both rerun it."""
        raise NotImplementedError

    def check_cold(self, output: Any, probes: Any) -> set[str]:
        """Labels of the units whose cold output is wrong."""
        return set()

    def check_resume(self, state: Any, cold: Any, output: Any) -> set[str]:
        """Labels of the units whose resumed output is wrong."""
        return set() if self.outputs(cold) == self.outputs(output) else {"all"}

    def outputs(self, output: Any) -> Any:
        """The seeded result, JSON-able (digested and compared)."""
        return json.loads(output.to_json())

    def digest(self, output: Any) -> str:
        """Short stable hash of the seeded result."""
        text = json.dumps(self.outputs(output), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def close(self, state: Any) -> None:
        pass


class KernelZipf(Workload):
    name = "kernel-zipf"
    why = (
        "10^6-peer kernel, stationary Zipf 1.2: draw and hit-test on a state "
        "larger than L2; the event substrate, store and churn sit idle"
    )

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        self.params = fastsim_scenario(scale=1.0 if tiny else 50.0)
        self.rounds = 20.0 if tiny else 300.0

    def _kernel(self) -> FastSimKernel:
        return FastSimKernel(self.params, strategy="partialSelection", seed=self.seed)

    def setup(self, call: int) -> Any:
        reset_caches()
        return {"kernel": self._kernel()}

    def cold(self, state: dict) -> Any:
        # Popped so the cold kernel's state is freed before the resumed
        # pass builds its own.
        return state.pop("kernel").run(self.rounds)

    def resume(self, state: dict) -> Any:
        return self._kernel().run(self.rounds)

    def outputs(self, report: Any) -> Any:
        return {
            "queries": report.queries,
            "answered": report.answered,
            "index_hits": report.index_hits,
            "insertions": report.insertions,
            "reinsertions": report.reinsertions,
            "final_index_size": report.final_index_size,
            "messages": {
                category.name: value
                for category, value in sorted(
                    report.messages_by_category.items(), key=lambda kv: kv[0].name
                )
            },
        }

    def check_cold(self, report: Any, probes: Any) -> set[str]:
        values = (report.hit_rate, report.total_messages, report.messages_per_second)
        ok = (
            report.queries > 0
            and all(math.isfinite(v) for v in values)
            and 0.0 < report.hit_rate <= 1.0
        )
        return set() if ok else {"kernel"}


#: The sweep grid: TTL factor x alpha x availability x workload, at the
#: paper's query frequency.
SWEEP_AXES = sweeps.GridAxes(
    ttl_factors=(0.5, 2.0),
    alphas=(0.8, 1.2),
    query_freqs=(1.0 / 30.0,),
    availabilities=(1.0, 0.9),
    workloads=("stationary", "gradual-drift"),
)
#: Smoke-test grid: one TTL factor and one alpha.
TINY_AXES = replace(SWEEP_AXES, ttl_factors=(0.5,), alphas=(1.2,))


class SweepGrid(Workload):
    name = "sweep-grid"
    why = (
        "16-cell sweep (churn, drift, alpha 0.8) into a fresh store, then "
        "resumed from it: segmented draws, churn steps, structural costs, store"
    )

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        self.axes = TINY_AXES if tiny else SWEEP_AXES
        self.units = self.axes.size
        # Tiny still sits above the calibration limit (6,000 peers), so
        # it takes the same structural-cost path.
        self.params = (
            simulation_scenario(scale=0.3) if tiny else fastsim_scenario(scale=1.0)
        )
        self.duration = 20.0 if tiny else 240.0

    def setup(self, call: int) -> Any:
        reset_caches()
        path = self.work_dir / f"sweep-{call}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return Store(path / "store.sqlite")

    def _grid(self, store: Store) -> Any:
        with using_store(store):
            return sweeps.sweep_grid(
                self.axes, scenario=self.params, duration=self.duration,
                seed=self.seed, jobs=1,
            )

    def cold(self, store: Store) -> Any:
        return self._grid(store)

    def resume(self, store: Store) -> Any:
        reset_caches()
        before = _store_counts(store)
        grid = self._grid(store)
        after = _store_counts(store)
        self.resume_store = (after[0] - before[0], after[1] - before[1])
        return grid

    def check_cold(self, grid: Any, probes: Any) -> set[str]:
        bad = set()
        for index, label in enumerate(grid.x_values):
            hit = grid.series["hit rate"][index]
            cost = grid.series["msg/s"][index]
            if not (0.0 < hit <= 1.0 and math.isfinite(cost) and cost > 0):
                bad.add(label)
        return bad

    def check_resume(self, store: Store, cold: Any, grid: Any) -> set[str]:
        hits, misses = self.resume_store
        if misses or hits < len(cold.x_values):
            return set(cold.x_values)
        bad = set()
        for index, label in enumerate(cold.x_values):
            for name, values in cold.series.items():
                if grid.series[name][index] != values[index]:
                    bad.add(label)
        return bad

    def close(self, store: Optional[Store]) -> None:
        if store is not None:
            store.close()
            shutil.rmtree(Path(store.path).parent, ignore_errors=True)


def _store_counts(store: Store) -> tuple[int, int]:
    """(hits, misses) over every kind the store has served."""
    hits = sum(entry["hits"] for entry in store.stats.values())
    misses = sum(entry["misses"] for entry in store.stats.values())
    return hits, misses


class ChurnCalibrate(Workload):
    """The vectorized ``churn`` experiment with the store off."""

    name = "churn-calibrate"
    why = (
        "vectorized churn experiment at 1,000 peers below the calibration "
        "limit: the churned event-substrate calibration (walks, overlay, "
        "message log) dominates"
    )
    #: The ``churn`` experiment's availability axis without its 0.5 cell:
    #: there the walk cost is heavy-tailed across seeds (see NOTES.md).
    availabilities = (1.0, 0.9)
    resume_repeats = 5

    def job(self) -> Any:
        # What ``api.run("churn", engine="vectorized", store="none")``
        # runs, on this availability axis.
        with using_store(None):
            return figures.churn_experiment(
                params=simulation_scenario(scale=0.01 if self.tiny else 0.05),
                duration=240.0, seed=self.seed,
                availabilities=self.availabilities, engine="vectorized",
            )

    def check_cold(self, figure: Any, probes: Any) -> set[str]:
        success = figure.series["success rate"]
        monotone = all(success[i + 1] <= success[i] for i in range(len(success) - 1))
        ok = monotone and probes.calibrate_churn_calls > 0
        return set() if ok else {"churn"}


class SimCalibrate(Workload):
    """``api.run("sim", engine="vectorized", store="none")``."""

    name = "sim-calibrate"
    why = (
        "vectorized four-strategy comparison below the calibration limit: "
        "P-Grid routing construction in calibrate_costs dominates"
    )
    resume_repeats = 5

    def job(self) -> Any:
        return api.run(
            "sim", engine="vectorized", store="none",
            scale=0.01 if self.tiny else 0.075, seed=self.seed,
        ).figure

    def check_cold(self, figure: Any, probes: Any) -> set[str]:
        hit = dict(zip(figure.x_values, figure.series["hit rate"]))
        ok = (
            hit.get("noIndex") == 0.0
            and hit.get("indexAll") == 1.0
            and len(probes.cost_sources) == len(figure.x_values)
            and all(source == "calibrated" for source in probes.cost_sources)
            and probes.calibrate_costs_calls > 0
        )
        return set() if ok else {"sim"}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (KernelZipf, SweepGrid, ChurnCalibrate, SimCalibrate)
}


def engine_agreement(tiny: bool = False) -> tuple[float, float]:
    """Relative hit-rate and total-cost gaps between the two engines on
    the repo's standard quick comparison (fixed seeds 0-2; seed 0 only
    at tiny size)."""
    agreement = compare_engines(
        simulation_scenario(scale=0.02), duration=150,
        seeds=(0,) if tiny else (0, 1, 2),
    )
    return agreement.hit_rate_rel_diff, agreement.cost_rel_diff
