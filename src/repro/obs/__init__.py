"""Zero-dependency observability: spans, counters, and merged profiles.

``repro.obs`` is the standing instrumentation layer both engines report
into. It is **off by default** — enable it per process
(:func:`enable` / ``REPRO_OBS=1``) and every instrumented hot path
(calibration probes, kernel round phases, event-engine dispatch, sweep
cells) starts accumulating into one process-global :class:`Collector`::

    from repro import obs

    obs.enable()
    with obs.span("calibrate.churn", peers=5000):
        ...
    obs.count("cache.churn_costs.hit")
    print(obs.profile_text(obs.collector()))

Worker processes (``fastsim.parallel.fan_out``: ``run_many`` and
experiment replicates) run each task through :func:`run_in_worker`,
which ships the events the task recorded back with its result; the
parent folds them in with :func:`merge_worker`, so a parallel sweep
reports a single profile. The event stream is the one worker channel.
``ExperimentResult.telemetry`` and the runner's ``--profile`` flag
surface the same data; ``benchmarks/record.py`` persists the trajectory.

The *live* half is the flight recorder (:mod:`repro.obs.events`): install
a sink (``events.set_sink`` / ``REPRO_OBS_EVENTS=path``) and every
recording above is also streamed as a structured event the moment it
happens, plus :func:`progress` / :func:`heartbeat` reports with totals
and ETA. :mod:`repro.obs.export` turns a recorded stream back into a
snapshot (:func:`replay`), a Perfetto-loadable Chrome trace
(:func:`chrome_trace`), or OpenMetrics text (:func:`openmetrics_text`).
"""

from repro.obs.collector import (
    Collector,
    SNAPSHOT_SCHEMA,
    add_duration,
    collector,
    count,
    disable,
    enable,
    enabled,
    gauge_max,
    merge_worker,
    peak_rss_bytes,
    reset_span_stack,
    run_in_worker,
    sample_peak_rss,
    scoped,
    set_collector,
    span,
)
from repro.obs.cache import cache_stats, counted_cache
from repro.obs.export import (
    chrome_trace,
    openmetrics_text,
    parse_openmetrics,
    replay,
)
from repro.obs.profile import profile_data, profile_json, profile_text
from repro.obs.progress import ProgressRenderer, heartbeat, progress
from repro.obs import events

__all__ = [
    "cache_stats",
    "counted_cache",
    "Collector",
    "SNAPSHOT_SCHEMA",
    "enabled",
    "enable",
    "disable",
    "collector",
    "set_collector",
    "scoped",
    "span",
    "count",
    "gauge_max",
    "add_duration",
    "run_in_worker",
    "merge_worker",
    "peak_rss_bytes",
    "reset_span_stack",
    "sample_peak_rss",
    "profile_data",
    "profile_text",
    "profile_json",
    "events",
    "progress",
    "heartbeat",
    "ProgressRenderer",
    "replay",
    "chrome_trace",
    "openmetrics_text",
    "parse_openmetrics",
]
