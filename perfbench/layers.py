"""Per-layer measurement from outside the program.

Every layer metric comes from timing calls into a module's public
functions. :class:`Tracer` swaps each listed function or method for a
wrapper that opens a :func:`repro.obs.span` around the original call,
then puts the original back on exit. Nothing inside ``src/`` changes;
the program's own ``repro.obs`` spans and counters (``kernel.run/*``
phases, ``engine.events``, ``cache.store.*``) are read as they are.

:class:`Probes` is the always-on part: a handful of counting shims on
functions that run a few times per call (kernel runs, calibrations),
which the output checks and ``sim_qps`` need even with tracing off.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Any, Callable, Optional

from repro import obs
from repro.dht.base import DistributedHashTable
from repro.fastsim import churn as fs_churn
from repro.fastsim import compare, parallel
from repro.fastsim import workload as fs_workload
from repro.fastsim.churncosts import ChurnOpCosts
from repro.fastsim.kernel import FastSimKernel
from repro.obs import events
from repro.pdht.network import PdhtNetwork
from repro.replication.replica_network import ReplicaNetwork
from repro.sim.metrics import MessageMetrics
from repro.store.store import Store
from repro.unstructured.random_walk import RandomWalkSearch

#: Per-layer metric -> the end-to-end metrics (and workloads) it should
#: move. The traced run reports every one on every workload, 0 where idle.
LAYER_MAP: dict[str, str] = {
    "kernel.setup_s": "setup_s, resume_s on kernel-zipf; run_s on sweep-grid",
    "kernel.run_s": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.draw_s": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.queries_s": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.maintain_s": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.post_s": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.queries": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "kernel.hit_ratio": "sim_qps, run_s on kernel-zipf; run_s on sweep-grid",
    "workload.draw_rounds_s": "run_s on sweep-grid; sim_qps on kernel-zipf",
    "workload.draw_calls": "run_s on sweep-grid; sim_qps on kernel-zipf",
    "churn.step_s": "run_s on sweep-grid",
    "churn.transitions": "run_s on sweep-grid",
    "parallel.resolve_jobs_s": "run_s, resume_s on sweep-grid",
    "churncosts.structural_s": "run_s, resume_s on sweep-grid",
    "churncosts.structural_calls": "run_s, resume_s on sweep-grid",
    "store.key_s": "run_s, resume_s on sweep-grid",
    "store.load_s": "resume_s on sweep-grid",
    "store.loads": "resume_s on sweep-grid",
    "store.hit_ratio": "resume_s on sweep-grid",
    "store.save_s": "run_s on sweep-grid",
    "store.saves": "run_s on sweep-grid",
    "compare.calibrate_costs_s": "run_s on sim-calibrate, churn-calibrate",
    "compare.calibrate_costs_calls": "run_s on sim-calibrate, churn-calibrate",
    "dht.routing_build_s": "run_s on sim-calibrate, churn-calibrate",
    "dht.lookup_s": "run_s on sim-calibrate, churn-calibrate",
    "dht.lookups": "run_s on sim-calibrate, churn-calibrate",
    "dht.hops_mean": "run_s on sim-calibrate, churn-calibrate",
    "compare.calibrate_churn_s": "run_s on churn-calibrate",
    "walk.search_s": "run_s on churn-calibrate",
    "walk.searches": "run_s on churn-calibrate",
    "walk.hops": "run_s on churn-calibrate",
    "walk.found_ratio": "run_s on churn-calibrate",
    "replication.flood_s": "run_s on churn-calibrate",
    "replication.floods": "run_s on churn-calibrate",
    "pdht.query_s": "run_s on churn-calibrate",
    "pdht.queries": "run_s on churn-calibrate",
    "pdht.publish_s": "run_s on churn-calibrate",
    "sim.events": "run_s on churn-calibrate",
    "sim.messages": "run_s on churn-calibrate",
}

def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mean"):
        return "hops"
    return "count"


#: Kernel phase durations the kernel itself records under ``kernel.run``.
KERNEL_PHASES = {
    "draw": "kernel.draw_s",
    "round.queries": "kernel.queries_s",
    "round.maintain": "kernel.maintain_s",
    "round.post": "kernel.post_s",
}

#: Methods through which a DHT first builds its routing state.
_ROUTING_ENTRY = ("lookup", "insert", "delete", "responsible_for")


class _Patches:
    """Attribute swaps that can all be undone, newest first."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def _swap(self, owner: Any, name: str, replacement: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Probes(_Patches):
    """Counting shims that stay installed for the whole benchmark run.

    They see a few calls per workload call, so they cost nothing
    measurable, and they let every output check run with tracing off.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self.kernel_queries = 0
        self.kernel_hits = 0
        self.cost_sources = []
        self.calibrate_costs_calls = 0
        self.calibrate_churn_calls = 0

    def install(self) -> None:
        probes = self

        original_run = FastSimKernel.run

        def run(kernel, *args, **kwargs):
            report = original_run(kernel, *args, **kwargs)
            probes.kernel_queries += report.queries
            probes.kernel_hits += report.index_hits
            probes.cost_sources.append(kernel.costs.source)
            return report

        self._swap(FastSimKernel, "run", run)

        def counting(name: str, attr: str) -> None:
            original = getattr(compare, name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                setattr(probes, attr, getattr(probes, attr) + 1)
                return original(*args, **kwargs)

            self._swap(compare, name, wrapper)

        counting("calibrate_costs", "calibrate_costs_calls")
        counting("calibrate_churn_costs", "calibrate_churn_calls")

    def uninstall(self) -> None:
        self._restore()


class Tracer(_Patches):
    """Span wrappers around the public calls of every measured layer.

    Use as a context manager around one workload call: on entry it
    enables ``repro.obs`` into a fresh collector, installs an in-memory
    event ring (for the Chrome trace) and the wrappers; on exit it
    restores everything. ``snapshot`` and ``events`` hold what the call
    recorded, ``layer_values`` its per-layer metrics.
    """

    #: Events kept for the Chrome trace; a traced call of the largest
    #: workload emits well under this many.
    RING_CAPACITY = 1 << 18

    def __init__(self, probes: Probes) -> None:
        super().__init__()
        self.probes = probes
        self.layer_values: dict[str, float] = {}
        self.collector = obs.Collector()
        self.snapshot: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._active = threading.local()
        self._routed: "weakref.WeakSet[DistributedHashTable]" = weakref.WeakSet()
        self._message_logs: list[MessageMetrics] = []
        self._message_resets = 0.0

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.counts = {
            "walk.hops": 0, "walk.found": 0, "dht.hops": 0,
            "churn.transitions": 0,
        }
        self._install()
        self._previous_collector = obs.set_collector(self.collector)
        self._previous_sink = events.set_sink(
            events.RingBufferSink(self.RING_CAPACITY)
        )
        self._was_enabled = obs.enabled()
        obs.reset_span_stack()
        obs.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._was_enabled:
            obs.disable()
        sink = events.set_sink(self._previous_sink)
        obs.set_collector(self._previous_collector)
        self._restore()
        self.snapshot = self.collector.snapshot()
        self.events = sink.events() if sink is not None else []
        self.counts["sim.messages"] = self._message_resets + sum(
            metrics.total() for metrics in self._message_logs
        )
        self._message_logs = []
        self.layer_values = layer_metrics(self, self.probes)

    # -- wrappers ------------------------------------------------------
    def _spanned(
        self,
        span_name: str,
        original: Callable,
        after: Optional[Callable[[Any], None]] = None,
        inside: str = "",
    ) -> Callable:
        """``original`` inside ``obs.span(span_name)``.

        A call nested in a span of the same name (``insert`` ->
        ``lookup``), or in the span named ``inside``, runs unspanned and
        uncounted.
        """
        active = self._active

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            names = getattr(active, "names", None)
            if names is None:
                names = active.names = set()
            if span_name in names or inside in names:
                return original(*args, **kwargs)
            names.add(span_name)
            try:
                with obs.span(span_name):
                    result = original(*args, **kwargs)
            finally:
                names.discard(span_name)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_method(
        self, cls: type, name: str, span_name: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self._swap(cls, name, self._spanned(span_name, cls.__dict__[name], after))

    def _wrap_function(self, module: Any, name: str, span_name: str) -> None:
        self._swap(module, name, self._spanned(span_name, getattr(module, name)))

    def _install(self) -> None:
        counts = self.counts

        # fastsim kernel and its inputs
        self._wrap_method(FastSimKernel, "__init__", "kernel.setup")
        self._wrap_method(FastSimKernel, "run", "kernel.run")
        for cls in _with_own(fs_workload.BatchWorkload, "draw_rounds"):
            self._wrap_method(cls, "draw_rounds", "workload.draw_rounds")

        def transitions(flipped: int) -> None:
            counts["churn.transitions"] += flipped

        self._wrap_method(
            fs_churn.BatchChurnProcess, "step", "churn.step", transitions
        )
        self._wrap_function(parallel, "resolve_jobs", "parallel.resolve_jobs")
        structural = ChurnOpCosts.__dict__["structural"]
        self._swap(
            ChurnOpCosts, "structural",
            classmethod(self._spanned("churncosts.structural", structural.__func__)),
        )

        # artifact store
        self._wrap_function(parallel, "job_key", "store.key")
        self._wrap_method(Store, "key_for", "store.key")
        for name in [n for n in vars(Store) if n.startswith("load_")]:
            self._wrap_method(Store, name, "store.load")
        for name in [n for n in vars(Store) if n.startswith("save_")]:
            self._wrap_method(Store, name, "store.save")

        # event-engine substrate (calibration)
        self._wrap_function(compare, "calibrate_costs", "compare.calibrate_costs")
        self._wrap_function(
            compare, "calibrate_churn_costs", "compare.calibrate_churn"
        )
        self._install_dht()

        def walked(result) -> None:
            counts["walk.hops"] += result.messages
            counts["walk.found"] += int(result.found)

        self._wrap_method(RandomWalkSearch, "search", "walk.search", walked)
        self._wrap_method(ReplicaNetwork, "flood", "replication.flood")
        self._wrap_method(PdhtNetwork, "query", "pdht.query")
        self._wrap_method(PdhtNetwork, "publish", "pdht.publish")
        self._install_message_totals()

    def _install_dht(self) -> None:
        counts = self.counts
        routed = self._routed
        for cls in [DistributedHashTable, *_subclasses(DistributedHashTable)]:
            names = [n for n in (*_ROUTING_ENTRY, "routing_table")
                     if n in cls.__dict__ and not _is_abstract(cls.__dict__[n])]
            for name in names:
                original = cls.__dict__[name]
                plain = (
                    self._spanned(
                        "dht.lookup", original, _hops(counts),
                        inside="dht.routing_build",
                    )
                    if name == "lookup" else original
                )
                # The first call builds the routing state; the lookups it
                # makes on the way count as building, not as lookups.
                first = self._spanned("dht.routing_build", plain)
                self._swap(cls, name, _first_call(routed, first, plain))

    def _install_message_totals(self) -> None:
        """``sim.messages``: every message-metrics object built during the
        call, summed at exit, plus totals dropped by ``reset``."""
        tracer = self
        original_init = MessageMetrics.__init__
        original_reset = MessageMetrics.reset

        def init(metrics, *args, **kwargs):
            original_init(metrics, *args, **kwargs)
            tracer._message_logs.append(metrics)

        def reset(metrics, *args, **kwargs):
            tracer._message_resets += metrics.total()
            return original_reset(metrics, *args, **kwargs)

        self._swap(MessageMetrics, "__init__", init)
        self._swap(MessageMetrics, "reset", reset)


def _hops(counts: dict[str, float]) -> Callable[[Any], None]:
    def record(result) -> None:
        counts["dht.hops"] += result.hops

    return record


def _first_call(
    seen: "weakref.WeakSet", first: Callable, plain: Callable
) -> Callable:
    """Route a DHT's first routing call through ``first``, later ones
    through ``plain``."""

    @functools.wraps(plain)
    def wrapper(dht, *args, **kwargs):
        if dht in seen:
            return plain(dht, *args, **kwargs)
        seen.add(dht)
        return first(dht, *args, **kwargs)

    return wrapper


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _with_own(cls: type, name: str) -> list[type]:
    """``cls`` and its subclasses that define ``name`` themselves."""
    return [c for c in [cls, *_subclasses(cls)] if name in c.__dict__]


def _is_abstract(member: Any) -> bool:
    return getattr(member, "__isabstractmethod__", False)


# ---------------------------------------------------------------------
# Turning one traced call into per-layer numbers
# ---------------------------------------------------------------------
def span_totals(snapshot: dict[str, Any]) -> dict[str, tuple[int, float]]:
    """``(count, seconds)`` per leaf span name, outermost entries only.

    A leaf name nested under itself (the kernel's own ``kernel.run``
    duration under the benchmark's ``kernel.run`` span) is counted once,
    at its outermost path.
    """
    totals: dict[str, list] = {}
    for path, data in snapshot["spans"].items():
        parts = path.split("/")
        leaf = parts[-1]
        if leaf in parts[:-1]:
            continue
        entry = totals.setdefault(leaf, [0, 0.0])
        entry[0] += data["count"]
        entry[1] += data["seconds"]
    return {leaf: (c, s) for leaf, (c, s) in totals.items()}


#: Durations the program itself reports with ``obs.add_duration`` once
#: the interval is over, under whatever span is open then: the kernel's
#: round phases, event-engine dispatch, and the per-cell kernel time a
#: sweep re-reports after the grid. They do not nest in time with the
#: live spans, so they never enter a self time; the table lists them
#: apart. (The kernel also reports its whole run as ``kernel.run``, which
#: lands under the benchmark's own ``kernel.run`` span.)
PROGRAM_DURATIONS = frozenset(
    {"draw", "round.queries", "round.maintain", "round.post", "engine.run",
     "sweep.cell"}
)


def _is_duration(path: str) -> bool:
    parts = path.split("/")
    return parts[-1] in PROGRAM_DURATIONS or parts[-2:] == ["kernel.run"] * 2


def self_times(snapshot: dict[str, Any], under: str = "") -> dict[str, float]:
    """Self seconds per live span name: each path's time minus the time
    of its direct live children, summed over every path with that leaf.
    ``under`` keeps only the subtree of that top-level span. The self
    times of a subtree add up to its root's time."""
    spans = {
        path: data for path, data in snapshot["spans"].items()
        if not _is_duration(path) and path.startswith(under)
    }
    child_time: dict[str, float] = {}
    for path, data in spans.items():
        parent = path.rpartition("/")[0]
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + data["seconds"]
    result: dict[str, float] = {}
    for path, data in spans.items():
        leaf = path.rpartition("/")[2]
        own = data["seconds"] - child_time.get(path, 0.0)
        result[leaf] = result.get(leaf, 0.0) + own
    return result


#: The benchmark's own top-level spans, one per timed phase of a call.
TOP_LEVEL = ("bench.setup", "bench.cold", "bench.resume")


def self_time_table(
    label: str, snapshots: list[dict[str, Any]], timed: list[float]
) -> tuple[str, dict[str, Any]]:
    """Per-call mean calls, total and self time of every live span, and
    each span's self time in the cold pass as a share of ``run_s``.

    ``timed`` holds each call's measured setup + cold + resume seconds,
    which the top-level spans should cover.
    """
    n = len(snapshots)
    self_s: dict[str, float] = {}
    cold_s: dict[str, float] = {}
    totals: dict[str, list[float]] = {}
    durations: dict[str, list[float]] = {}
    for snapshot in snapshots:
        for leaf, seconds in self_times(snapshot).items():
            self_s[leaf] = self_s.get(leaf, 0.0) + seconds / n
        for leaf, seconds in self_times(snapshot, under="bench.cold").items():
            cold_s[leaf] = cold_s.get(leaf, 0.0) + seconds / n
        for path, data in snapshot["spans"].items():
            leaf = path.rpartition("/")[2]
            table = durations if _is_duration(path) else totals
            entry = table.setdefault(leaf, [0.0, 0.0])
            entry[0] += data["count"] / n
            entry[1] += data["seconds"] / n
    timed_s = sum(timed) / n
    top = sum(totals.get(name, [0.0, 0.0])[1] for name in TOP_LEVEL)
    run_s = totals.get("bench.cold", [0.0, 0.0])[1]
    lines = [
        f"# {label}: mean per traced call over {n}; timed phases {timed_s:.3f} s, "
        f"top-level spans {top:.3f} s ({top / timed_s:.1%}); cold pass {run_s:.3f} s",
        f"{'span':28} {'calls':>9} {'total_s':>9} {'self_s':>9} "
        f"{'cold_self_s':>11} {'of run_s':>8}",
    ]
    for leaf, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        count, total = totals[leaf]
        cold = cold_s.get(leaf, 0.0)
        lines.append(
            f"{leaf:28} {count:9.0f} {total:9.4f} {seconds:9.4f} "
            f"{cold:11.4f} {cold / run_s:8.1%}"
        )
    lines.append("# program-reported durations (not in self times)")
    for leaf, (count, total) in sorted(durations.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{leaf:28} {count:9.0f} {total:9.4f}")
    data = {
        "calls": n, "timed_s": timed_s, "top_level_s": top, "run_s": run_s,
        "self_s": self_s, "cold_self_s": cold_s, "total": totals,
        "program_durations": durations,
    }
    return "\n".join(lines), data


def kernel_phase_totals(snapshot: dict[str, Any]) -> dict[str, float]:
    """The kernel's own ``kernel.run/<phase>`` durations, by metric name."""
    totals = {metric: 0.0 for metric in KERNEL_PHASES.values()}
    for path, data in snapshot["spans"].items():
        head, _, phase = path.rpartition("/")
        if head.endswith("kernel.run") and phase in KERNEL_PHASES:
            totals[KERNEL_PHASES[phase]] += data["seconds"]
    return totals


def layer_metrics(tracer: Tracer, probes: Probes) -> dict[str, float]:
    """Every per-layer metric of one traced call (zero where idle)."""
    snapshot = tracer.snapshot
    counts = tracer.counts
    spans = span_totals(snapshot)
    counters = snapshot["counters"]

    def seconds(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def calls(name: str) -> float:
        return float(spans.get(name, (0, 0.0))[0])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    store_hits = counters.get("cache.store.hit", 0.0)
    store_loads = store_hits + counters.get("cache.store.miss", 0.0)
    metrics = {
        "kernel.setup_s": seconds("kernel.setup"),
        "kernel.run_s": seconds("kernel.run"),
        **kernel_phase_totals(snapshot),
        "kernel.queries": float(probes.kernel_queries),
        "kernel.hit_ratio": ratio(probes.kernel_hits, probes.kernel_queries),
        "workload.draw_rounds_s": seconds("workload.draw_rounds"),
        "workload.draw_calls": calls("workload.draw_rounds"),
        "churn.step_s": seconds("churn.step"),
        "churn.transitions": float(counts["churn.transitions"]),
        "parallel.resolve_jobs_s": seconds("parallel.resolve_jobs"),
        "churncosts.structural_s": seconds("churncosts.structural"),
        "churncosts.structural_calls": calls("churncosts.structural"),
        "store.key_s": seconds("store.key"),
        "store.load_s": seconds("store.load"),
        "store.loads": store_loads,
        "store.hit_ratio": ratio(store_hits, store_loads),
        "store.save_s": seconds("store.save"),
        "store.saves": calls("store.save"),
        "compare.calibrate_costs_s": seconds("compare.calibrate_costs"),
        "compare.calibrate_costs_calls": calls("compare.calibrate_costs"),
        "dht.routing_build_s": seconds("dht.routing_build"),
        "dht.lookup_s": seconds("dht.lookup"),
        "dht.lookups": calls("dht.lookup"),
        "dht.hops_mean": ratio(counts["dht.hops"], calls("dht.lookup")),
        "compare.calibrate_churn_s": seconds("compare.calibrate_churn"),
        "walk.search_s": seconds("walk.search"),
        "walk.searches": calls("walk.search"),
        "walk.hops": float(counts["walk.hops"]),
        "walk.found_ratio": ratio(counts["walk.found"], calls("walk.search")),
        "replication.flood_s": seconds("replication.flood"),
        "replication.floods": calls("replication.flood"),
        "pdht.query_s": seconds("pdht.query"),
        "pdht.queries": calls("pdht.query"),
        "pdht.publish_s": seconds("pdht.publish"),
        "sim.events": counters.get("engine.events", 0.0),
        "sim.messages": float(counts["sim.messages"]),
    }
    return metrics

