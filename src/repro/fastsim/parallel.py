"""Multi-process execution of independent fastsim jobs.

One kernel run is already vectorized; a *figure* is many kernel runs —
sweep cells, replicate seeds, one run per strategy — and those are
embarrassingly parallel. This module fans a list of picklable
:class:`FastSimJob` specs over a :class:`concurrent.futures.ProcessPoolExecutor`:

* per-op costs are resolved **once in the parent** (:func:`resolve_jobs`)
  at exactly the DHT size the kernel would derive
  (:func:`~repro.fastsim.kernel.strategy_setup`), then shipped inside the
  job spec — N workers never rebuild the calibration substrate, and the
  parent's ``lru_cache``'d calibrations stay warm across repeated calls;
* workers execute nothing but :func:`~repro.fastsim.kernel.run_fastsim`
  on the fully-resolved spec, so the per-job pickle payload is a handful
  of frozen dataclasses plus the report coming back;
* ``jobs=1`` bypasses the pool entirely (same results, no fork cost) and
  ``jobs=0`` means one worker per CPU.

Everything in a job spec must pickle: :class:`ScenarioParameters`,
:class:`PdhtConfig`, :class:`PerOpCosts`, :class:`ChurnOpCosts` and
:class:`ChurnConfig` are frozen dataclasses and
:class:`~repro.fastsim.workload.BatchWorkload` instances (numpy
``Generator`` included) pickle by value — but a workload with an open
file handle or a lambda hook would not. Results come back in job order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Optional, Sequence

from repro import obs
from repro.obs import events as obs_events
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim import shm
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.kernel import (
    PerOpCosts,
    default_batch_workload,
    run_fastsim,
    strategy_setup,
)
from repro.fastsim.metrics import FastSimReport
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig

__all__ = [
    "FastSimJob",
    "job_key",
    "pack_jobs",
    "resolve_jobs",
    "resolve_worker_count",
    "run_many",
]


#: FastSimJob fields that are execution details rather than identity
#: (lint rule RL104). Empty on purpose: the job *is* the artifact key —
#: :func:`job_key` hashes the whole dataclass, so every field must
#: affect the result. Parallelism knobs (worker counts, shared-memory
#: toggles) live outside the job, in :func:`run_many`'s arguments.
EXECUTION_ONLY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FastSimJob:
    """One picklable kernel run: the arguments of
    :func:`~repro.fastsim.kernel.run_fastsim`, as data."""

    params: ScenarioParameters
    strategy: str = "partialSelection"
    seed: int = 0
    duration: float = 240.0
    config: Optional[PdhtConfig] = None
    workload: Optional[BatchWorkload] = None
    churn: Optional[ChurnConfig] = None
    costs: Optional[PerOpCosts] = None
    churn_costs: Optional[ChurnOpCosts] = None
    content_refresh_period: Optional[float] = None
    window: float = 0.0
    #: State-array dtype policy name ("wide"/"slim"); part of the job's
    #: artifact identity — slim reports are keyed apart from wide ones.
    precision: str = "wide"

    def run(self) -> FastSimReport:
        """Execute this job in the current process."""
        return run_fastsim(
            self.params,
            config=self.config,
            duration=self.duration,
            strategy=self.strategy,
            seed=self.seed,
            workload=self.workload,
            churn=self.churn,
            costs=self.costs,
            churn_costs=self.churn_costs,
            content_refresh_period=self.content_refresh_period,
            window=self.window,
            precision=self.precision,
        )


def resolve_worker_count(jobs: int) -> int:
    """Normalise a ``--jobs`` value: 0 = one worker per CPU."""
    if jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def resolve_jobs(jobs: Sequence[FastSimJob]) -> list[FastSimJob]:
    """Fill in every job's per-op costs in the calling process.

    This is the design decision that makes the pool worthwhile: cost
    resolution is the expensive, cacheable part (below the calibration
    limit it builds and probes a real event-engine substrate), so it runs
    once here — where ``costs_for``/``churn_costs_for``'s ``lru_cache``
    deduplicates identical scenarios across jobs — and the resolved
    frozen dataclasses ride along in the spec. Workers just simulate.
    """
    from repro.fastsim.compare import churn_costs_for, costs_for

    resolved: list[FastSimJob] = []
    for job in jobs:
        config = job.config or PdhtConfig.from_scenario(job.params)
        _, _, num_members = strategy_setup(job.params, config, job.strategy)
        costs = job.costs or costs_for(job.params, config, num_members)
        churn_costs = job.churn_costs
        if (
            churn_costs is None
            and job.churn is not None
            and job.churn.enabled
        ):
            # Model-driven workloads thread their model into the churn
            # calibration (rank-permutation awareness), exactly like the
            # kernel's own resolution path.
            model = getattr(job.workload, "model", None)
            churn_costs = churn_costs_for(
                job.params,
                config,
                num_members,
                job.churn,
                base=costs,
                seed=job.seed,
                model=model.calibration_model if model is not None else None,
            )
        resolved.append(
            replace(
                job, config=config, costs=costs, churn_costs=churn_costs
            )
        )
    return resolved


def job_key(job: FastSimJob) -> str:
    """The artifact-store content key of a fully-resolved job.

    Key a job only after :func:`resolve_jobs`: the resolved spec is
    self-contained — scenario, config, strategy, seed, duration, frozen
    workload (rng state included), churn, and the *resolved* per-op
    costs all land in the hash, so a cost change (recalibration, new
    cost model) re-keys exactly the cells it affects. The envelope adds
    ``repro.__version__`` and the ``sweep_cell`` schema rev on top.
    """
    from repro.store.keys import content_key

    return content_key("sweep_cell", {"job": job})


def pack_jobs(
    jobs: Sequence[FastSimJob], arena: "shm.ShmArena"
) -> list[FastSimJob]:
    """Stage every job's large workload arrays into shared memory.

    Returns job copies whose workloads carry
    :class:`~repro.fastsim.shm.SharedArrayRef` handles instead of the
    big arrays (Zipf probability/cumulative tables, rank→key mappings,
    trace streams); the originals are untouched. Jobs with no explicit
    workload get the kernel's default stationary workload materialised
    here — bit-identically, from the kernel's own seed derivation
    (:func:`~repro.fastsim.kernel.default_batch_workload`) — so its
    tables ship by handle too; the Zipf distribution and the identity
    rank→key mapping are deduplicated across jobs sharing
    ``(n_keys, alpha)``, one segment per distinct table.

    Call only on *resolved* jobs, after :func:`job_key` has been taken:
    packing is an execution detail and must never enter a job's artifact
    identity.
    """
    zipfs: dict[tuple[int, float], ZipfDistribution] = {}
    identities: dict[int, Any] = {}
    packed: list[FastSimJob] = []
    for job in jobs:
        workload = job.workload
        if workload is None:
            cell = (job.params.n_keys, job.params.alpha)
            zipf = zipfs.get(cell)
            if zipf is None:
                zipf = zipfs[cell] = ZipfDistribution(*cell)
            workload = default_batch_workload(job.params, job.seed, zipf=zipf)
            identity = identities.get(job.params.n_keys)
            if identity is None:
                identities[job.params.n_keys] = workload.rank_to_key
            else:
                # Same identity mapping for every stationary default
                # workload of this key count -> one shared segment.
                workload.rank_to_key = identity
        packed.append(
            replace(job, workload=shm.extract_arrays(workload, arena))
        )
    return packed


def _run_job(job: FastSimJob) -> FastSimReport:
    """Worker entry point (module-level so it pickles under spawn)."""
    return job.run()


def _run_shared_job(job: FastSimJob) -> FastSimReport:
    """Worker entry for shared-memory payloads: attach, then run.

    The job arrives with :class:`~repro.fastsim.shm.SharedArrayRef`
    placeholders where :func:`pack_jobs` staged arrays;
    :func:`~repro.fastsim.shm.restore_arrays` maps the segments back in
    as read-only views (cached per worker process, so a reused pool
    worker attaches each segment once).
    """
    return replace(job, workload=shm.restore_arrays(job.workload)).run()


def run_many(
    jobs: Sequence[FastSimJob],
    workers: int = 1,
    store: Optional[Any] = None,
    shared_memory: bool = False,
) -> list[FastSimReport]:
    """Run every job; reports return in job order.

    ``workers`` follows the CLI ``--jobs`` convention: ``1`` runs
    sequentially in-process (no pool, caches stay warm for the caller),
    ``0`` uses one worker per CPU, ``N > 1`` uses a process pool of N.
    Costs are resolved in the parent first (:func:`resolve_jobs`) either
    way, so sequential and parallel execution charge identical costs and
    produce identical seeded reports.

    ``shared_memory=True`` stages each pending job's large workload
    arrays into ``multiprocessing.shared_memory`` segments
    (:func:`pack_jobs`) that workers map read-only instead of receiving
    by pickle — the per-job payload stays a handful of scalars at any
    key count, and per-worker incremental memory drops to page-cache
    mappings of one shared copy. Results are bit-identical to the
    pickle path (gated by tests and the ``bench_fastsim`` shm record).
    The segments live exactly as long as the pool: they are unlinked in
    a ``finally`` even when a worker crashes. Purely an execution
    detail — job artifact keys are computed before packing and do not
    change. Ignored on the sequential path (nothing to ship).

    ``store`` (default: the process-wide active store, see
    :mod:`repro.store`) makes the fan-out *resumable*: each resolved
    job is content-keyed (:func:`job_key`), jobs whose report is
    already on disk are loaded instead of run, only the misses execute,
    and every fresh report is saved before the merged, job-ordered list
    returns. An interrupted sweep rerun therefore recomputes zero
    completed cells, and any input change (params, seed, costs,
    workload state, code version) re-keys — and thus recomputes —
    exactly the affected cells. ``cache.store.sweep_cell.hit/.miss``
    counters make resumption observable.

    When telemetry is enabled (:func:`repro.obs.enable`), every pool
    worker's collector snapshot rides back with its report and is merged
    into the parent's collector — one profile for the whole fan-out,
    including per-worker peak-RSS gauges. Merging is duplicate-safe, so
    the fold is insensitive to delivery order.

    When a flight-recorder sink is also installed
    (:func:`repro.obs.events.set_sink`), the fan-out reports
    ``parallel.jobs`` progress per completed job and each worker ships
    its own event ring back with the result; the parent re-emits those
    events marked ``remote`` so trace exports get per-worker lanes while
    replay still counts each measurement exactly once (via the snapshot
    merge).
    """
    workers = resolve_worker_count(workers)
    resolved = resolve_jobs(jobs)
    telemetry = obs.enabled()
    if store is None:
        from repro.store.store import active_store

        store = active_store()

    reports: list[Optional[FastSimReport]] = [None] * len(resolved)
    keys: list[Optional[str]] = [None] * len(resolved)
    if store is not None:
        for index, job in enumerate(resolved):
            keys[index] = job_key(job)
            reports[index] = store.load_report(keys[index])
    pending = [i for i, report in enumerate(reports) if report is None]

    def _finish(index: int, report: FastSimReport) -> None:
        reports[index] = report
        if store is not None:
            store.save_report(keys[index] or job_key(resolved[index]), report)

    done = len(resolved) - len(pending)
    if workers == 1 or len(pending) <= 1:
        with obs.span(
            "parallel.run_many",
            jobs=len(resolved),
            cached=len(resolved) - len(pending),
            workers=1,
        ):
            obs.progress("parallel.jobs", done, total=len(resolved))
            for index in pending:
                _finish(index, resolved[index].run())
                done += 1
                obs.progress("parallel.jobs", done, total=len(resolved))
        if telemetry:
            obs.sample_peak_rss("worker")
        return reports  # type: ignore[return-value]
    entry = _run_job
    record = telemetry and obs_events.recording()
    shipped: list[FastSimJob] = [resolved[i] for i in pending]
    arena: Optional[shm.ShmArena] = None
    if shared_memory:
        arena = shm.ShmArena()
        shipped = pack_jobs(shipped, arena)
        entry = _run_shared_job
    try:
        with obs.span(
            "parallel.run_many",
            jobs=len(resolved),
            cached=len(resolved) - len(pending),
            workers=min(workers, len(pending)),
            shared_memory=bool(shared_memory),
        ):
            obs.progress("parallel.jobs", done, total=len(resolved))
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))
            ) as pool:
                # ``pool.map`` yields each result as it lands (submission
                # order), so progress/merge/remote-event handling happens
                # per completion — a live renderer ticks per job instead
                # of jumping 0 -> all at pool shutdown. Merging inside
                # the span re-roots worker spans under it: the pooled
                # profile nests exactly like the sequential one.
                for index, (report, snapshot, worker_events) in zip(
                    pending,
                    pool.map(
                        partial(obs.run_in_worker, entry),
                        [(job, telemetry, record) for job in shipped],
                    ),
                ):
                    _finish(index, report)
                    obs.merge_worker(snapshot, worker_events)
                    done += 1
                    obs.progress(
                        "parallel.jobs", done, total=len(resolved)
                    )
    finally:
        if arena is not None:
            arena.close()
    return reports  # type: ignore[return-value]
