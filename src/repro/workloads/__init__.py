"""repro.workloads — composable non-stationary workload models.

The paper's central claim is *query-adaptivity*: the Section 5 selection
strategy tracks the query distribution as it changes. Exercising that
claim needs more than one hard-coded Zipf stream with a single shift, so
this subsystem provides a family of composable, seedable workload models
behind one :class:`~repro.workloads.models.WorkloadModel` protocol:

====================  ==================================================
model                 what changes
====================  ==================================================
``StationaryZipf``    nothing — the paper's baseline stream
``RankSwap``          the whole rank -> key mapping, once (the
                      historical adaptivity shift as a special case)
``GradualDrift``      head-biased transposition walk on the mapping
                      every ``period`` rounds — popularity drifts
``FlashCrowd``        a tail key is promoted above rank 1 and demoted
                      ``hot_for`` rounds later — a transient hot key
``DiurnalCycle``      the query *rate* (sinusoidal day/night cycle)
``TraceReplay``       nothing is sampled — a recorded
                      :class:`~repro.workload.trace.QueryTrace` replays
                      verbatim (JSON or JSONL)
``Composite``         several of the above overlaid
====================  ==================================================

A model builds one stream for both engines with
:meth:`~repro.workloads.models.WorkloadModel.build` (a
:class:`~repro.fastsim.workload.BatchWorkload`: ``draw`` feeds the
discrete-event engine, ``draw_rounds`` the vectorized kernel, keeping
the segment-batched fast path via ``next_boundary``). Under churn, the kernel's per-op cost calibration is
rank-permutation aware: it drives its probe workload with the same model
(see :func:`repro.fastsim.compare.calibrate_churn_costs`).

Experiment integration: every model has a preset name
(:data:`~repro.workloads.models.WORKLOAD_MODEL_NAMES`,
:func:`~repro.workloads.models.model_from_name`) usable as
``run("adaptivity-tracking", workload="gradual-drift")``, the sweep
grid's ``GridAxes.workloads`` axis, and the runner's ``--workload`` flag
(``trace:<path>`` replays a saved trace).
"""

from repro.workloads.models import (
    WORKLOAD_MODEL_NAMES,
    Composite,
    DiurnalCycle,
    FlashCrowd,
    GradualDrift,
    RankSwap,
    StationaryZipf,
    TraceReplay,
    WorkloadModel,
    model_from_name,
    validate_workload_name,
)

__all__ = [
    "WorkloadModel",
    "StationaryZipf",
    "RankSwap",
    "GradualDrift",
    "FlashCrowd",
    "DiurnalCycle",
    "TraceReplay",
    "Composite",
    "WORKLOAD_MODEL_NAMES",
    "model_from_name",
    "validate_workload_name",
]
