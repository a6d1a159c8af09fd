"""The repo benchmark: one command, four cold-path workloads.

Run from the repository root::

    python3 perfbench/run.py --workload kernel-zipf --seed 1 --seconds 20 --trace 0

Each run is one process (jobs = 1). It repeats cold workload calls
(setup, cold pass, resumed pass; see ``workloads.py``) for about
``--seconds`` seconds, checks every output, and prints, as its last
stdout line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics (medians over
calls). ``--trace 1`` alternates untraced and traced calls, reports the
per-layer metrics of the traced ones, and writes a Chrome trace and a
self-time table under ``.perfbench/out/``. ``NOTES.md`` explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

WORKLOAD_NAMES = ("kernel-zipf", "sweep-grid", "churn-calibrate", "sim-calibrate")

#: Median seconds of :func:`reference_seconds` on the 2-CPU box the
#: benchmark was defined on. Timings are scaled by this over the
#: reference measured around each call (see NOTES.md, "Noise").
REFERENCE_SECONDS = 0.19

#: Fresh interpreters timed per run for the import share of ``setup_s``.
IMPORT_PROBES = 5
IMPORT_PROBE_CODE = (
    "import repro, repro.experiments.api, repro.experiments.sweeps, "
    "repro.fastsim.compare, repro.store"
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload (smoke tests only)",
    )
    return parser.parse_args(argv)


def _clean_environment() -> dict[str, str]:
    """Drop settings that could warm a cold run or turn telemetry on,
    and pin numeric libraries to one thread."""
    for name in list(os.environ):
        if name == "REPRO_STORE" or name.startswith("REPRO_OBS"):
            del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    return dict(os.environ)


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` directly, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Hash of the program's Python sources: names the code measured
    where the checkout has no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _host_facts(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter and numpy work that shares
    no code with the program: how fast the box runs right now."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(30):
        values = np.sqrt(values + 1.0)
        values.sort()
    return time.perf_counter() - started


def _import_seconds(env: dict[str, str], probes: int) -> float:
    """Median wall time of fresh interpreters importing the program."""
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE_CODE],
            env=env, cwd=ROOT, check=True,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


class Runner:
    """Runs workload calls, checks them, and keeps their measurements."""

    def __init__(self, workload, probes) -> None:
        self.workload = workload
        self.probes = probes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.calls = 0

    def call(self, traced: bool = False) -> dict | None:
        """One cold call: setup, cold pass, resumed passes, checks.

        Returns the call's timings, or None if a pass raised.
        """
        from repro import obs

        workload = self.workload
        units = workload.units
        index = self.calls
        self.calls += 1
        self.probes.reset()
        gc.collect()
        state = None
        record: dict = {}
        top = obs.span if traced else (lambda name: nullcontext())
        try:
            started = time.perf_counter()
            with top("bench.setup"):
                state = workload.setup(index)
            record["setup_s"] = time.perf_counter() - started

            cpu = time.process_time()
            started = time.perf_counter()
            with top("bench.cold"):
                cold = workload.cold(state)
            record["run_s"] = time.perf_counter() - started
            record["cpu_s"] = time.process_time() - cpu
            record["queries"] = self.probes.kernel_queries
            self._count(units, workload.check_cold(cold, self.probes), "cold")

            record["resume_s"] = []
            for _ in range(workload.resume_repeats):
                gc.collect()
                started = time.perf_counter()
                with top("bench.resume"):
                    resumed = workload.resume(state)
                record["resume_s"].append(time.perf_counter() - started)
                self._count(
                    units, workload.check_resume(state, cold, resumed), "resume"
                )
            self.digests.append(workload.digest(cold))
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc()
            # The pass that raised; the call's later passes never ran.
            self.attempted += units
            self.failed += units
            self.problems.append(f"call {index} raised")
            return None
        finally:
            workload.close(state)
        return record

    def _count(self, units: int, bad: set[str], phase: str) -> None:
        failed = units if "all" in bad else min(units, len(bad))
        self.attempted += units
        self.failed += failed
        if failed:
            self.problems.append(f"{phase}: {sorted(bad)}")

    def repeat(self, seconds: float, make_tracer=None) -> list[tuple]:
        """Calls until ``seconds`` are used up.

        With ``make_tracer`` (trace mode) calls alternate untraced and
        traced, at least one of each. Returns ``(record, tracer)`` pairs;
        ``tracer`` is None for untraced calls. Each record carries the
        box ``speed`` around its call.
        """
        started = time.perf_counter()
        done: list[tuple] = []
        durations: list[float] = []
        before = reference_seconds()
        while True:
            call_started = time.perf_counter()
            tracer = None
            if make_tracer is not None and len(done) % 2 == 1:
                tracer = make_tracer()
            with tracer or nullcontext():
                record = self.call(traced=tracer is not None)
            after = reference_seconds()
            if record is not None:
                # The box's speed while the call ran, from the reference
                # measured on both sides of it.
                record["speed"] = REFERENCE_SECONDS / ((before + after) / 2)
            before = after
            done.append((record, tracer))
            durations.append(time.perf_counter() - call_started)
            elapsed = time.perf_counter() - started
            enough = make_tracer is None or len(done) >= 2
            # Start another call only if it would end nearer the target.
            if enough and elapsed + statistics.median(durations) / 2 >= seconds:
                return done


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _end_to_end(records: list[dict], import_s: float,
                agreement: tuple[float, float]) -> dict[str, dict]:
    """Medians over calls of each timing scaled to the reference box
    speed (``speed`` of the call; the run's median for the imports)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = _median([r["speed"] for r in records])

    def scaled(key: str) -> float:
        return _median([r[key] * r["speed"] for r in records])

    values = {
        "run_s": (scaled("run_s"), "s"),
        "cpu_s": (scaled("cpu_s"), "s"),
        "setup_s": (import_s * speed + scaled("setup_s"), "s"),
        "sim_qps": (
            _median([r["queries"] / (r["run_s"] * r["speed"]) for r in records]),
            "1/s",
        ),
        "resume_s": (
            _median([t * r["speed"] for r in records for t in r["resume_s"]]), "s"
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "engine_hit_agreement": (1.0 - agreement[0], "ratio"),
        "engine_cost_agreement": (1.0 - agreement[1], "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _per_layer(traced: list[tuple], plain: list[dict],
               peak_mb: float) -> dict[str, dict]:
    import layers

    metrics = {
        name: {
            "value": statistics.fmean(t.layer_values[name] for _, t in traced),
            "unit": layers.layer_unit(name),
        }
        for name in layers.LAYER_MAP
    }
    overhead = _median([r["run_s"] * r["speed"] for r, _ in traced]) / _median(
        [r["run_s"] * r["speed"] for r in plain]
    )
    metrics["obs.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["tracemalloc_peak_mb"] = {"value": peak_mb, "unit": "MB"}
    return metrics


def _write_trace_outputs(traced: list[tuple], label: str) -> None:
    """Chrome trace of the first traced call, plus the self-time table
    averaged over all traced calls."""
    import layers
    from repro.obs import chrome_trace

    out = STATE_DIR / "out"
    out.mkdir(parents=True, exist_ok=True)
    first = traced[0][1]
    (out / f"{label}.trace.json").write_text(json.dumps(chrome_trace(first.events)))
    table, data = layers.self_time_table(
        label, [t.snapshot for _, t in traced],
        [r["setup_s"] + r["run_s"] + sum(r["resume_s"]) for r, _ in traced],
    )
    (out / f"{label}.selftime.txt").write_text(table + "\n")
    (out / f"{label}.selftime.json").write_text(json.dumps(data, indent=2))
    print(table)


def _tracemalloc_call(runner: Runner) -> float:
    """Peak traced Python allocation of one extra call, in MB."""
    tracemalloc.start()
    try:
        runner.call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC.name}/", file=sys.stderr)
        return 2
    env = _clean_environment()
    sys.path.insert(0, str(SRC))

    import numpy

    import layers
    from workloads import AGREEMENT_TOLERANCE, WORKLOADS, engine_agreement

    work_dir = STATE_DIR / "work" / str(os.getpid())
    workload = WORKLOADS[args.workload](args.seed, args.size == "tiny", work_dir)
    probes = layers.Probes()
    probes.install()
    runner = Runner(workload, probes)
    try:
        if args.trace:
            done = runner.repeat(args.seconds, lambda: layers.Tracer(probes))
            peak_mb = _tracemalloc_call(runner)
        else:
            probes_n = 1 if args.size == "tiny" else IMPORT_PROBES
            import_s = _import_seconds(env, probes_n)
            done = runner.repeat(args.seconds)
        agreement = engine_agreement(args.size == "tiny")
    finally:
        probes.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    runner.attempted += 1
    if max(agreement) > AGREEMENT_TOLERANCE:
        runner.failed += 1
        runner.problems.append(f"engine agreement gaps {agreement}")
    if len(set(runner.digests)) > 1:
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append("calls with the same seed gave different outputs")

    plain = [r for r, t in done if r is not None and t is None]
    traced = [(r, t) for r, t in done if r is not None and t is not None]
    if not plain or (args.trace and not traced):
        print("perfbench: no call completed", file=sys.stderr)
        return 1
    if args.trace:
        _write_trace_outputs(traced, f"{args.workload}-seed{args.seed}")
        metrics = _per_layer(traced, plain, peak_mb)
    else:
        metrics = _end_to_end(plain, import_s, agreement)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "calls": runner.calls,
        "call_run_s": [r["run_s"] for r in plain],
        "call_speed": [r["speed"] for r in plain],
        "digest": runner.digests[0] if runner.digests else None,
        "engine_hit_gap": agreement[0],
        "engine_cost_gap": agreement[1],
        "problems": runner.problems,
        "host": _host_facts(numpy.__version__),
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
