"""Data generators for every figure of the paper (plus extensions).

Each function returns a :class:`FigureSeries` — x values plus named y
series — matching exactly what the corresponding figure plots. The
benchmark harness prints them; tests assert on their shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.selection_model import SelectionModel
from repro.analysis.sensitivity import sweep_keyttl_error
from repro.analysis.strategies import evaluate_strategies
from repro.analysis.sweep import PAPER_FREQUENCIES, sweep_frequencies
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.experiments.reporting import format_period, format_series
from repro.experiments.scenario import (
    paper_scenario,
    resolve_engine,
    simulation_scenario,
)
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import (
    STRATEGY_CLASSES,
    PartialSelectionStrategy,
    StrategyReport,
)
from repro.workloads.models import RankSwap


def _run_strategy(
    name: str,
    params: ScenarioParameters,
    config: PdhtConfig,
    duration: float,
    seed: int = 0,
    churn: Optional[ChurnConfig] = None,
    window: float = 0.0,
    engine: str = "event",
    precision: Optional[str] = None,
) -> StrategyReport:
    """Run one strategy on the selected engine; reports are interchangeable.

    Churn runs on either engine: the kernel charges the availability-
    dependent per-op model of :mod:`repro.fastsim.churncosts` (calibrated
    against a churned event substrate below the calibration limit,
    structural Monte-Carlo beyond), validated within 5% on hit rate and
    total cost by ``tests/properties/test_property_fastsim.py``.
    """
    engine = resolve_engine(engine)
    if engine == "vectorized":
        from repro.fastsim import run_fastsim

        return run_fastsim(
            params,
            config=config,
            duration=duration,
            strategy=name,
            seed=seed,
            churn=churn,
            window=window,
            precision=precision,
        ).to_strategy_report()
    _require_wide(precision)
    strategy = STRATEGY_CLASSES[name](
        params, config=config, seed=seed, churn=churn
    )
    return strategy.run(duration, window=window)


def _require_wide(precision: Optional[str]) -> None:
    """Reject non-wide dtype policies on paths with no kernel state.

    The event engine has no batch arrays to narrow, so a ``slim`` request
    there would silently run at full precision — surface the mismatch
    instead of letting engine choice change what ``precision`` means.
    """
    from repro.fastsim.precision import resolve_precision

    if resolve_precision(precision).name != "wide":
        raise ParameterError(
            "precision policies other than 'wide' require the vectorized "
            "engine (the event engine has no kernel state arrays to slim)"
        )

__all__ = [
    "FigureSeries",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "keyttl_sensitivity",
    "heuristic_vs_optimal",
    "simulation_comparison",
    "simulated_figure1",
    "adaptivity_experiment",
    "adaptivity_tracking",
    "adaptivity_lag_table",
    "churn_experiment",
    "staleness_experiment",
]


@dataclass
class FigureSeries:
    """One reproduced figure: x axis plus named y series."""

    name: str
    x_label: str
    x_values: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        text = format_series(self.x_label, self.x_values, self.series, title=self.name)
        if self.notes:
            text += f"\n({self.notes})"
        return text

    def series_of(self, name: str) -> list[float]:
        if name not in self.series:
            raise ParameterError(
                f"figure {self.name!r} has no series {name!r}; "
                f"available: {sorted(self.series)}"
            )
        return self.series[name]

    # Export conveniences (late imports: repro.experiments.export imports
    # this module for the FigureSeries type).
    def to_csv(self) -> str:
        from repro.experiments.export import figure_to_csv

        return figure_to_csv(self)

    def to_json(self) -> str:
        from repro.experiments.export import figure_to_json

        return figure_to_json(self)

    def save(self, path) -> "Path":
        from repro.experiments.export import save_figure

        return save_figure(self, path)


def _frequency_labels(frequencies: Sequence[float]) -> list[str]:
    return [format_period(f) for f in frequencies]


# ----------------------------------------------------------------------
# Analytical figures (paper scale)
# ----------------------------------------------------------------------
def figure1(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Fig. 1: total msg/s of indexAll, noIndex and ideal partial indexing."""
    params = params or paper_scenario()
    sweep = sweep_frequencies(params, frequencies)
    return FigureSeries(
        name="Fig. 1 - total cost [msg/s] vs per-peer query frequency",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "indexAll": sweep.index_all_costs,
            "noIndex": sweep.no_index_costs,
            "partial": sweep.partial_costs,
        },
        notes="partial is ideal partial indexing (Eq. 13, lower bound)",
    )


def figure2(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Fig. 2: savings of ideal partial indexing vs both baselines."""
    params = params or paper_scenario()
    sweep = sweep_frequencies(params, frequencies)
    return FigureSeries(
        name="Fig. 2 - savings of ideal partial indexing",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "vs indexAll": sweep.ideal_savings_vs_index_all,
            "vs noIndex": sweep.ideal_savings_vs_no_index,
        },
    )


def figure3(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Fig. 3: index-size fraction and pIndxd of ideal partial indexing."""
    params = params or paper_scenario()
    sweep = sweep_frequencies(params, frequencies)
    return FigureSeries(
        name="Fig. 3 - indexed fraction and index hit probability",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "index size": sweep.index_fractions,
            "pIndxd": sweep.p_indexed_values,
        },
    )


def figure4(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Fig. 4: savings of the TTL selection algorithm vs both baselines."""
    params = params or paper_scenario()
    sweep = sweep_frequencies(params, frequencies)
    return FigureSeries(
        name="Fig. 4 - savings with the selection algorithm (keyTtl = 1/fMin)",
        x_label="queryFreq",
        x_values=_frequency_labels(sweep.frequencies),
        series={
            "vs indexAll": sweep.selection_savings_vs_index_all,
            "vs noIndex": sweep.selection_savings_vs_no_index,
        },
        notes="negative values = selection algorithm loses to indexAll "
        "(paper: 'except for very high query frequencies')",
    )


def keyttl_sensitivity(
    params: Optional[ScenarioParameters] = None,
    query_freq: float = 1.0 / 600.0,
    error_factors: Sequence[float] = (0.5, 0.75, 1.0, 1.25, 1.5),
) -> FigureSeries:
    """Section 5.1.1: cost penalty of mis-estimating keyTtl by +/-50%."""
    params = (params or paper_scenario()).with_query_freq(query_freq)
    results = sweep_keyttl_error(params, error_factors)
    return FigureSeries(
        name=(
            "Sec. 5.1.1 - keyTtl estimation-error sensitivity "
            f"(fQry = {format_period(query_freq)})"
        ),
        x_label="keyTtl factor",
        x_values=[f"{r.error_factor:.2f}x" for r in results],
        series={
            "total cost [msg/s]": [r.outcome.total_cost for r in results],
            "cost penalty": [r.cost_penalty for r in results],
            "savings vs noIndex": [
                r.outcome.savings_vs_no_index for r in results
            ],
        },
        notes="penalty = cost / cost at the ideal keyTtl",
    )


def heuristic_vs_optimal(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = PAPER_FREQUENCIES,
) -> FigureSeries:
    """Extension: the paper's heuristics against exact optimisation.

    Section 6 concedes the scheme "does not make the system theoretically
    optimal"; this figure quantifies the concession. Two gaps per swept
    frequency:

    * ``maxRank gap`` — Eq. 13 cost at the probT/fMin rank over the cost
      at the exactly optimal rank;
    * ``keyTtl gap`` — Eq. 17 cost at keyTtl = 1/fMin over the cost at the
      golden-section optimal TTL.
    """
    from repro.analysis.optimal import optimal_key_ttl, optimal_max_rank
    from repro.analysis.strategies import cost_partial_ideal
    from repro.analysis.selection_model import SelectionModel as _SelectionModel
    from repro.analysis.threshold import solve_threshold

    params = params or paper_scenario()
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    rank_gaps, ttl_gaps = [], []
    for freq in frequencies:
        scenario = params.with_query_freq(freq)
        threshold = solve_threshold(scenario, zipf)
        heuristic_rank_cost = cost_partial_ideal(scenario, threshold)
        optimal_rank_cost = optimal_max_rank(scenario, zipf).cost
        rank_gaps.append(heuristic_rank_cost / optimal_rank_cost - 1.0)
        heuristic_ttl_cost = _SelectionModel(
            scenario, key_ttl=threshold.key_ttl, zipf=zipf
        ).total_cost()
        _, optimal_ttl_cost = optimal_key_ttl(scenario, zipf)
        ttl_gaps.append(heuristic_ttl_cost / optimal_ttl_cost - 1.0)
    return FigureSeries(
        name="Extension - cost gap of the paper's heuristics vs exact optima",
        x_label="queryFreq",
        x_values=_frequency_labels(list(frequencies)),
        series={"maxRank gap": rank_gaps, "keyTtl gap": ttl_gaps},
        notes="gap = heuristic cost / optimal cost - 1",
    )


# ----------------------------------------------------------------------
# Simulated experiments (reduced scale)
# ----------------------------------------------------------------------
def simulation_comparison(
    params: Optional[ScenarioParameters] = None,
    duration: float = 600.0,
    seed: int = 0,
    churn: Optional[ChurnConfig] = None,
    dht_kind: str = "pgrid",
    engine: str = "event",
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> FigureSeries:
    """Section 5.2: simulated strategies vs the analytical model.

    Runs all four strategies on the same reduced-scale substrate and
    reports measured msg/s next to the model's prediction at the same
    scale. The claim under test is *ordering and rough factors*, not
    absolute equality. ``engine="vectorized"`` swaps in the batch kernel,
    which also unlocks paper-scale (and larger) parameter sets — and
    ``jobs > 1`` fans the four independent strategy runs over a process
    pool (vectorized engine only; per-op costs resolve in the parent).
    """
    params = params or simulation_scenario()
    config = PdhtConfig.from_scenario(params, dht_kind=dht_kind)
    measured: dict[str, float] = {}
    hit_rates: dict[str, float] = {}
    if resolve_engine(engine) == "vectorized" and jobs != 1:
        from repro.fastsim.parallel import FastSimJob, run_many
        from repro.fastsim.precision import resolve_precision

        specs = [
            FastSimJob(
                params=params, strategy=name, seed=seed,
                duration=duration, config=config, churn=churn,
                precision=resolve_precision(precision).name,
            )
            for name in STRATEGY_CLASSES
        ]
        for name, report in zip(
            STRATEGY_CLASSES,
            run_many(specs, workers=jobs, shared_memory=shared_memory),
        ):
            measured[name] = report.messages_per_second
            hit_rates[name] = report.hit_rate
    else:
        for name in STRATEGY_CLASSES:
            report = _run_strategy(
                name, params, config, duration, seed=seed, churn=churn,
                engine=engine, precision=precision,
            )
            measured[name] = report.messages_per_second
            hit_rates[name] = report.hit_rate

    analytic = evaluate_strategies(params)
    selection = SelectionModel(params, key_ttl=config.key_ttl).outcome()
    model = {
        "noIndex": analytic.no_index,
        "indexAll": analytic.index_all,
        "partialIdeal": analytic.partial,
        "partialSelection": selection.total_cost,
    }
    names = ["noIndex", "indexAll", "partialIdeal", "partialSelection"]
    return FigureSeries(
        name=(
            f"Sec. 5.2 - simulation vs model "
            f"({params.num_peers} peers, {params.n_keys} keys, "
            f"fQry = {format_period(params.query_freq)}, {dht_kind})"
        ),
        x_label="strategy",
        x_values=names,
        series={
            "simulated [msg/s]": [measured[n] for n in names],
            "model [msg/s]": [model[n] for n in names],
            "sim/model": [
                measured[n] / model[n] if model[n] > 0 else float("nan")
                for n in names
            ],
            "hit rate": [hit_rates[n] for n in names],
        },
    )


def churn_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 300.0,
    seed: int = 0,
    availabilities: Sequence[float] = (1.0, 0.75, 0.5),
    engine: str = "event",
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> FigureSeries:
    """Extension: the selection algorithm under increasing churn.

    P2P clients are "extremely transient" [ChRa03] — churn is the whole
    reason Eq. 8's maintenance cost exists. This experiment runs the
    selection algorithm at several peer availabilities (mean session
    30 min; offline time set to hit the target availability) and reports
    query success, index hit rate, and total message rate. Expected: the
    success rate tracks the replica-availability bound ``1-(1-a)^repl``
    (essentially 1 for repl = 50) while hit rate degrades gracefully and
    cost rises with re-fetching — under low availability the cost is
    dominated by broadcast walks lengthening (and exhausting their TTL)
    through the fragmented online overlay.

    Runs on either engine: ``engine="vectorized"`` charges the
    availability-dependent per-op model (calibrated below the
    calibration limit, structural Monte-Carlo beyond), which unlocks
    availability sweeps at 10^5-10^6 peers — and ``jobs > 1`` fans the
    independent availability cells over a process pool there.
    """
    from repro.fastsim.compare import churn_config_for_availability

    params = params or simulation_scenario()
    config = PdhtConfig.from_scenario(params)
    reports = []
    if resolve_engine(engine) == "vectorized" and jobs != 1:
        from repro.fastsim.parallel import FastSimJob, run_many
        from repro.fastsim.precision import resolve_precision

        # One mean-session convention for figures, sweeps and the
        # cross-engine agreement checks alike.
        specs = [
            FastSimJob(
                params=params, seed=seed, duration=duration, config=config,
                churn=churn_config_for_availability(availability),
                precision=resolve_precision(precision).name,
            )
            for availability in availabilities
        ]
        reports = run_many(specs, workers=jobs, shared_memory=shared_memory)
    else:
        for availability in availabilities:
            churn = churn_config_for_availability(availability)
            reports.append(
                _run_strategy(
                    "partialSelection", params, config, duration, seed=seed,
                    churn=churn, engine=engine, precision=precision,
                )
            )
    rows_success = [report.success_rate for report in reports]
    rows_hit = [report.hit_rate for report in reports]
    rows_cost = [report.messages_per_second for report in reports]
    return FigureSeries(
        name=(
            f"Extension - selection algorithm under churn "
            f"({params.num_peers} peers, repl {params.replication})"
        ),
        x_label="availability",
        x_values=[f"{a:.2f}" for a in availabilities],
        series={
            "success rate": rows_success,
            "hit rate": rows_hit,
            "msg/s": rows_cost,
        },
        notes="mean session 30 min; offline time tuned per availability",
    )


def simulated_figure1(
    params: Optional[ScenarioParameters] = None,
    frequencies: Sequence[float] = (1 / 30, 1 / 120, 1 / 600, 1 / 1800),
    duration: float = 120.0,
    seed: int = 0,
    engine: str = "event",
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> FigureSeries:
    """Fig. 1 regenerated *in simulation* (reduced scale).

    Runs all four strategies at each swept frequency on the simulation
    substrate and reports measured msg/s — the end-to-end counterpart of
    the analytical :func:`figure1`. The shape claim under test: simulated
    ``partialIdeal`` stays below both all-or-nothing baselines at every
    frequency, and ``noIndex`` falls linearly while ``indexAll`` stays
    flat. ``jobs > 1`` fans the strategy x frequency cells over a
    process pool (vectorized engine only).
    """
    params = params or simulation_scenario(scale=0.02)
    series: dict[str, list[float]] = {
        "indexAll": [],
        "noIndex": [],
        "partialIdeal": [],
        "partialSelection": [],
    }
    if resolve_engine(engine) == "vectorized" and jobs != 1:
        from repro.fastsim.parallel import FastSimJob, run_many
        from repro.fastsim.precision import resolve_precision

        cells = [
            (freq, name) for freq in frequencies for name in series
        ]
        specs = [
            FastSimJob(
                params=params.with_query_freq(freq),
                strategy=name,
                seed=seed,
                duration=duration,
                config=PdhtConfig.from_scenario(params.with_query_freq(freq)),
                precision=resolve_precision(precision).name,
            )
            for freq, name in cells
        ]
        for (freq, name), report in zip(
            cells, run_many(specs, workers=jobs, shared_memory=shared_memory)
        ):
            series[name].append(report.messages_per_second)
    else:
        for freq in frequencies:
            scenario = params.with_query_freq(freq)
            config = PdhtConfig.from_scenario(scenario)
            for name in series:
                report = _run_strategy(
                    name, scenario, config, duration, seed=seed,
                    engine=engine, precision=precision,
                )
                series[name].append(report.messages_per_second)
    return FigureSeries(
        name=(
            f"Fig. 1 (simulated) - msg/s at {params.num_peers} peers, "
            f"{params.n_keys} keys"
        ),
        x_label="queryFreq",
        x_values=_frequency_labels(list(frequencies)),
        series=series,
    )


def staleness_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 400.0,
    refresh_period: float = 100.0,
    seed: int = 0,
    ttl_factors: Sequence[float] = (0.25, 1.0, 4.0),
    refresh_periods: Optional[Sequence[float]] = None,
    engine: str = "event",
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> FigureSeries:
    """Extension: answer staleness without proactive updates.

    The Section 5 selection algorithm drops Eq. 9's proactive update path:
    a refreshed article keeps being answered from its *old* index entry
    until the entry expires or a miss re-fetches it. This experiment
    publishes versioned payloads, refreshes all content every
    ``refresh_period`` rounds, and measures the fraction of index hits
    returning an outdated version, across TTL settings. Expected: staleness
    grows with the TTL (longer-lived entries survive more refreshes) —
    the freshness/cost trade-off hiding inside the keyTtl choice.

    ``refresh_periods`` adds the update-rate sweep axis: one stale/hit
    series pair per period, over the same TTL factors.
    ``engine="vectorized"`` measures the same distribution from the
    kernel's per-key payload/indexed version counters (within 5% of the
    event engine; ``tests/properties/test_property_fastsim.py``) and
    scales to 10^5-10^6 peers; ``jobs > 1`` fans the independent
    (period, TTL factor) cells over a process pool there.
    """
    from repro.fastsim.compare import (
        staleness_probe_event,
        staleness_probe_fast,
    )

    params = params or simulation_scenario(scale=0.02)
    if refresh_period <= 0 or duration <= 0:
        raise ParameterError("duration and refresh_period must be > 0")
    periods = tuple(refresh_periods) if refresh_periods else (refresh_period,)
    if any(p <= 0 for p in periods):
        raise ParameterError(f"refresh_periods must be > 0, got {periods}")
    vectorized = resolve_engine(engine) == "vectorized"
    probe = staleness_probe_fast if vectorized else staleness_probe_event
    base_ttl = PdhtConfig.from_scenario(params).key_ttl

    labels: list[str] = []
    series: dict[str, list[float]] = {}
    sweeping_periods = len(periods) > 1
    for factor in ttl_factors:
        if factor <= 0:
            raise ParameterError(f"ttl_factors must be > 0, got {factor}")
        labels.append(f"{factor:g}x")
    cells = [(period, factor) for period in periods for factor in ttl_factors]
    measured: dict[tuple[float, float], tuple[float, float]] = {}
    if vectorized and jobs != 1:
        from repro.fastsim.parallel import FastSimJob, run_many
        from repro.fastsim.precision import resolve_precision

        specs = [
            FastSimJob(
                params=params,
                seed=seed,
                duration=duration,
                config=PdhtConfig.from_scenario(params).with_ttl(
                    base_ttl * factor
                ),
                content_refresh_period=period,
                precision=resolve_precision(precision).name,
            )
            for period, factor in cells
        ]
        for cell, report in zip(
            cells, run_many(specs, workers=jobs, shared_memory=shared_memory)
        ):
            measured[cell] = (report.stale_hit_fraction, report.hit_rate)
    else:
        if not vectorized:
            _require_wide(precision)
        for period, factor in cells:
            config = PdhtConfig.from_scenario(params).with_ttl(
                base_ttl * factor
            )
            if vectorized:
                measured[(period, factor)] = probe(
                    params, config, duration, period, seed,
                    precision=precision,
                )
            else:
                measured[(period, factor)] = probe(
                    params, config, duration, period, seed
                )
    for period in periods:
        suffix = f" @ refresh {period:g}s" if sweeping_periods else ""
        series[f"stale hit fraction{suffix}"] = [
            measured[(period, factor)][0] for factor in ttl_factors
        ]
        series[f"hit rate{suffix}"] = [
            measured[(period, factor)][1] for factor in ttl_factors
        ]

    period_note = (
        ", ".join(f"{p:g}" for p in periods)
        if sweeping_periods
        else f"{periods[0]:.0f}"
    )
    return FigureSeries(
        name=(
            "Extension - index staleness without proactive updates "
            f"(content refreshed every {period_note}s, {engine})"
        ),
        x_label="keyTtl factor",
        x_values=labels,
        series=series,
        notes="stale = index hit whose payload predates the last refresh",
    )


def adaptivity_experiment(
    params: Optional[ScenarioParameters] = None,
    duration: float = 2400.0,
    shift_at: float = 1200.0,
    window: float = 200.0,
    seed: int = 0,
    engine: str = "event",
    precision: Optional[str] = None,
) -> FigureSeries:
    """Section 5.2 adaptivity: hit rate under a query-distribution shift.

    Runs the selection algorithm with a
    :class:`~repro.workloads.models.RankSwap` workload that re-draws the
    rank->key mapping at ``shift_at``. The hit rate collapses
    at the shift and recovers as the TTL index re-learns the new hot set —
    the paper's "adapts to changing query distributions" claim.
    """
    params = params or simulation_scenario()
    if not 0 < shift_at < duration:
        raise ParameterError(
            f"shift_at must be inside (0, {duration}), got {shift_at}"
        )
    config = PdhtConfig.from_scenario(params)
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    model = RankSwap(shift_time=shift_at)
    if resolve_engine(engine) == "vectorized":
        import numpy as np

        from repro.fastsim import run_fastsim

        # A dedicated stream for the shifted workload, derived stably from
        # the run seed (the event path uses the "queries-shifted" stream).
        workload = model.build(
            zipf,
            np.random.default_rng(np.random.SeedSequence([seed, 0x5217F])),
        )
        report = run_fastsim(
            params,
            config=config,
            duration=duration,
            seed=seed,
            workload=workload,
            window=window,
            precision=precision,
        ).to_strategy_report()
    else:
        _require_wide(precision)
        strategy = PartialSelectionStrategy(params, config=config, seed=seed)
        strategy.workload = model.build(
            zipf, strategy.network.streams.get("queries-shifted")
        )
        report = strategy.run(duration, window=window)
    times = [f"{t:.0f}" for t, _ in report.hit_rate_series]
    return FigureSeries(
        name=(
            f"Sec. 5.2 - adaptivity under a distribution shift at "
            f"t={shift_at:.0f}s"
        ),
        x_label="time [s]",
        x_values=times,
        series={
            "hit rate": [v for _, v in report.hit_rate_series],
            "index size": [float(v) for _, v in report.index_size_series],
        },
        notes="rank->key mapping reshuffled at the marked time",
    )


#: Non-stationary models the tracking experiment sweeps by default.
TRACKING_WORKLOADS = (
    "rank-swap",
    "gradual-drift",
    "flash-crowd",
    "diurnal",
)

#: A model "converged" when the windowed hit rate recovers to this
#: fraction of its pre-shift level.
TRACKING_RECOVERY = 0.9


def _convergence_lag(
    series: Sequence[tuple[float, float]], first_shift: float
) -> float:
    """Rounds from the first shift until the windowed hit rate recovers.

    The pre-shift baseline is the mean over the second half of the
    pre-shift windows (skipping the index warm-up); when the model shifts
    before the first window even closes (a short-period drift), the mean
    of the run's final quarter stands in — the steady tracking level the
    strategy eventually reaches. Recovery is the first post-shift window
    at or above ``TRACKING_RECOVERY`` times the baseline. ``0.0`` when
    the model never shifts (nothing to recover from), ``inf`` when the
    run ends unrecovered.
    """
    if first_shift == float("inf"):
        return 0.0
    if not series:
        return float("inf")
    pre = [value for t, value in series if t <= first_shift]
    if pre:
        baseline = sum(pre[len(pre) // 2 :]) / max(
            len(pre) - len(pre) // 2, 1
        )
    else:
        tail = [value for _, value in series]
        tail = tail[-max(1, len(tail) // 4) :]
        baseline = sum(tail) / len(tail)
    for t, value in series:
        if t > first_shift and value >= TRACKING_RECOVERY * baseline:
            return t - first_shift
    return float("inf")


def _tracking_reports(
    params: Optional[ScenarioParameters],
    duration: float,
    window: Optional[float],
    shift_at: Optional[float],
    seed: int,
    engine: str,
    workload: Optional[str],
    jobs: int,
    precision: Optional[str] = None,
    shared_memory: bool = False,
):
    """Run selection + oracle across workload models; shared plumbing of
    :func:`adaptivity_tracking` and :func:`adaptivity_lag_table`.

    Returns ``(params, names, models, reports)`` where ``reports`` maps
    ``(model_name, strategy)`` to the windowed run report.
    """
    import numpy as np

    from repro.workloads import model_from_name

    params = params or simulation_scenario()
    if duration <= 0:
        raise ParameterError(f"duration must be > 0, got {duration}")
    window = duration / 12.0 if window is None else window
    if window <= 0:
        raise ParameterError(f"window must be > 0, got {window}")
    names = TRACKING_WORKLOADS if workload is None else (workload,)
    models = {
        name: model_from_name(name, duration, shift_at) for name in names
    }
    config = PdhtConfig.from_scenario(params)
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    strategies = ("partialSelection", "partialIdeal")
    cells = [(name, strategy) for name in names for strategy in strategies]

    def batch_workload(name: str):
        # Seeded per *model*, not per cell: the selection and oracle
        # runs of one model must see the identical realized workload
        # (same post-shift permutations, same query sequence) or their
        # gap compares runs of different workloads. The event branch
        # gets this for free by sharing the "queries-model" stream.
        return models[name].build(
            zipf,
            np.random.default_rng(
                np.random.SeedSequence([seed, 0x7AC4, names.index(name)])
            ),
        )

    reports: dict[tuple[str, str], StrategyReport] = {}
    if resolve_engine(engine) == "vectorized":
        from repro.fastsim.parallel import FastSimJob, run_many
        from repro.fastsim.precision import resolve_precision

        specs = [
            FastSimJob(
                params=params,
                strategy=strategy,
                seed=seed,
                duration=duration,
                config=config,
                workload=batch_workload(name),
                window=window,
                precision=resolve_precision(precision).name,
            )
            for name, strategy in cells
        ]
        for cell, report in zip(
            cells, run_many(specs, workers=jobs, shared_memory=shared_memory)
        ):
            reports[cell] = report
    else:
        _require_wide(precision)
        for name, strategy in cells:
            runner = STRATEGY_CLASSES[strategy](
                params, config=config, seed=seed
            )
            runner.workload = models[name].build(
                zipf, runner.network.streams.get("queries-model")
            )
            reports[(name, strategy)] = runner.run(duration, window=window)
    return params, names, models, reports


def adaptivity_tracking(
    params: Optional[ScenarioParameters] = None,
    duration: float = 1200.0,
    window: Optional[float] = None,
    shift_at: Optional[float] = None,
    seed: int = 0,
    engine: str = "vectorized",
    workload: Optional[str] = None,
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> FigureSeries:
    """Extension: how fast the selection strategy tracks each workload model.

    For every workload model (the :data:`TRACKING_WORKLOADS` presets, or
    the single model named by ``workload``) this runs the Section 5
    selection strategy next to the ``partialIdeal`` oracle — which knows
    the *current* popularity ranks and therefore adapts instantly — and
    reports both windowed hit-rate curves plus the selection strategy's
    convergence lag after the model's first shift (rounds until the hit
    rate recovers to 90% of its pre-shift level). The oracle curve is the
    upper envelope; the gap after each boundary *is* the price of
    decentralized adaptation the paper's Section 5.2 claim is about.

    Runs on either engine; ``engine="vectorized"`` is the default (the
    tracking curves want long durations) and ``jobs > 1`` fans the
    2 x models independent kernel runs over a process pool there.
    The structured per-model lag table is
    :func:`adaptivity_lag_table` (experiment ``adaptivity-lag``).
    """
    params, names, models, reports = _tracking_reports(
        params, duration, window, shift_at, seed, engine, workload, jobs,
        precision=precision, shared_memory=shared_memory,
    )
    reference = reports[(names[0], "partialSelection")].hit_rate_series
    times = [f"{t:.0f}" for t, _ in reference]
    series: dict[str, list[float]] = {}
    lags: list[str] = []
    for name in names:
        selection = reports[(name, "partialSelection")]
        oracle = reports[(name, "partialIdeal")]
        series[f"selection [{name}]"] = [
            v for _, v in selection.hit_rate_series
        ]
        series[f"oracle [{name}]"] = [v for _, v in oracle.hit_rate_series]
        first_shift = models[name].next_boundary(-float("inf"))
        lag = _convergence_lag(selection.hit_rate_series, first_shift)
        lags.append(f"{name}={lag:g}")
    return FigureSeries(
        name=(
            f"Extension - adaptivity tracking across workload models "
            f"({params.num_peers} peers, {engine})"
        ),
        x_label="time [s]",
        x_values=times,
        series=series,
        notes=(
            "oracle = partialIdeal (knows the current ranks, adapts "
            "instantly); convergence lag [rounds] "
            f"(hit rate back to {TRACKING_RECOVERY:.0%} of pre-shift): "
            + ", ".join(lags)
        ),
    )


def adaptivity_lag_table(
    params: Optional[ScenarioParameters] = None,
    duration: float = 1200.0,
    window: Optional[float] = None,
    shift_at: Optional[float] = None,
    seed: int = 0,
    engine: str = "vectorized",
    workload: Optional[str] = None,
    jobs: int = 1,
    precision: Optional[str] = None,
    shared_memory: bool = False,
) -> "TableSeries":
    """The per-model convergence-lag table, as structured data.

    Same runs as :func:`adaptivity_tracking` (selection next to the
    ``partialIdeal`` oracle per workload model), but instead of the
    hit-rate curves it tabulates, per model: the model's first shift
    time, the selection strategy's convergence lag (rounds until the
    windowed hit rate recovers to :data:`TRACKING_RECOVERY` of its
    pre-shift level; ``inf`` if the run ends unrecovered, ``0`` for a
    shift-free model), both strategies' whole-run hit rates, and the
    oracle gap (oracle minus selection). Exports like any figure
    (CSV/JSON), with the row layout preserved.
    """
    from repro.experiments.tables import TableSeries

    params, names, models, reports = _tracking_reports(
        params, duration, window, shift_at, seed, engine, workload, jobs,
        precision=precision, shared_memory=shared_memory,
    )
    shifts: list[float] = []
    lags: list[float] = []
    selection_hits: list[float] = []
    oracle_hits: list[float] = []
    gaps: list[float] = []
    rows: list[tuple] = []
    for name in names:
        selection = reports[(name, "partialSelection")]
        oracle = reports[(name, "partialIdeal")]
        first_shift = models[name].next_boundary(-float("inf"))
        lag = _convergence_lag(selection.hit_rate_series, first_shift)
        gap = oracle.hit_rate - selection.hit_rate
        shifts.append(first_shift)
        lags.append(lag)
        selection_hits.append(selection.hit_rate)
        oracle_hits.append(oracle.hit_rate)
        gaps.append(gap)
        rows.append(
            (
                name,
                f"{first_shift:g}",
                f"{lag:g}",
                f"{selection.hit_rate:.4f}",
                f"{oracle.hit_rate:.4f}",
                f"{gap:+.4f}",
            )
        )
    return TableSeries(
        name=(
            f"Extension - convergence lag per workload model "
            f"({params.num_peers} peers, {engine})"
        ),
        x_label="model",
        x_values=list(names),
        series={
            "first shift [r]": shifts,
            "convergence lag [r]": lags,
            "selection hit rate": selection_hits,
            "oracle hit rate": oracle_hits,
            "oracle gap": gaps,
        },
        notes=(
            f"lag = rounds until the windowed hit rate recovers to "
            f"{TRACKING_RECOVERY:.0%} of its pre-shift level "
            f"(inf = unrecovered at run end, 0 = shift-free model); "
            f"gap = oracle - selection whole-run hit rate"
        ),
        rows=rows,
        headers=(
            "Model",
            "First shift [r]",
            "Lag [r]",
            "Selection hit",
            "Oracle hit",
            "Gap",
        ),
    )
