"""One triggering and one passing fixture per lint rule RL101-RL108.

Fixtures are in-memory source strings handed to ``lint_sources`` under
synthetic ``src/repro/...`` paths, so the rule scoping behaves exactly
as it does on disk while the fixture code never exists as a real file
(and therefore never trips the lint gate that runs over ``tests/``).
"""

from __future__ import annotations

import textwrap

from repro.lintkit import lint_sources


def rule_hits(code, path, rule):
    findings = lint_sources({path: textwrap.dedent(code)})
    assert all(f.rule.startswith("RL") for f in findings)
    return [f for f in findings if f.rule == rule]


class TestNoWallClockInKernel:
    def test_time_module_read_in_sim_code_triggers(self):
        hits = rule_hits(
            """
            import time

            def elapsed():
                return time.perf_counter()
            """,
            "src/repro/sim/example.py",
            "RL101",
        )
        assert len(hits) == 1
        assert "repro.obs" in hits[0].message

    def test_from_time_import_triggers(self):
        hits = rule_hits(
            """
            from time import perf_counter
            """,
            "src/repro/fastsim/example.py",
            "RL101",
        )
        assert len(hits) == 1

    def test_datetime_now_triggers_in_both_import_styles(self):
        via_module = rule_hits(
            """
            import datetime

            def stamp():
                return datetime.datetime.now().isoformat()
            """,
            "src/repro/store/example.py",
            "RL101",
        )
        from_import = rule_hits(
            """
            from datetime import datetime

            def stamp():
                return datetime.now().isoformat()
            """,
            "src/repro/store/example.py",
            "RL101",
        )
        assert len(via_module) == 1
        assert len(from_import) == 1

    def test_obs_clock_import_passes(self):
        hits = rule_hits(
            """
            from repro.obs.clock import perf_counter

            def elapsed():
                return perf_counter()
            """,
            "src/repro/sim/example.py",
            "RL101",
        )
        assert hits == []

    def test_obs_package_is_out_of_scope(self):
        hits = rule_hits(
            """
            import time

            def now():
                return time.time()
            """,
            "src/repro/obs/example.py",
            "RL101",
        )
        assert hits == []

    def test_benchmarks_are_out_of_scope(self):
        hits = rule_hits(
            """
            import time

            def now():
                return time.time()
            """,
            "benchmarks/example.py",
            "RL101",
        )
        assert hits == []


class TestNoGlobalRng:
    def test_numpy_global_draw_triggers(self):
        hits = rule_hits(
            """
            import numpy as np

            def noise():
                return np.random.normal(size=8)
            """,
            "src/repro/analysis/example.py",
            "RL102",
        )
        assert len(hits) == 1
        assert "global RNG" in hits[0].message

    def test_numpy_global_seed_triggers(self):
        hits = rule_hits(
            """
            import numpy as np

            np.random.seed(0)
            """,
            "src/repro/analysis/example.py",
            "RL102",
        )
        assert len(hits) == 1

    def test_stdlib_global_shuffle_triggers(self):
        hits = rule_hits(
            """
            import random

            def mix(items):
                random.shuffle(items)
            """,
            "src/repro/net/example.py",
            "RL102",
        )
        assert len(hits) == 1

    def test_generator_construction_and_draws_pass(self):
        hits = rule_hits(
            """
            import numpy as np
            import random

            def noise(seed):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return rng.normal(size=8), local.random()
            """,
            "src/repro/analysis/example.py",
            "RL102",
        )
        assert hits == []


class TestDtypeLiteralInHotPath:
    def test_numpy_dtype_attribute_triggers(self):
        hits = rule_hits(
            """
            import numpy as np

            def ranks(total):
                return np.empty(total, dtype=np.int64)
            """,
            "src/repro/fastsim/example.py",
            "RL103",
        )
        assert len(hits) == 1
        assert "precision" in hits[0].message

    def test_dtype_string_literal_triggers(self):
        hits = rule_hits(
            """
            import numpy as np

            def draws(total):
                return np.zeros(total, dtype="float64")
            """,
            "src/repro/fastsim/example.py",
            "RL103",
        )
        assert len(hits) == 1

    def test_precision_constants_pass(self):
        hits = rule_hits(
            """
            import numpy as np

            from repro.fastsim.precision import INDEX_DTYPE

            def ranks(total):
                return np.empty(total, dtype=INDEX_DTYPE)
            """,
            "src/repro/fastsim/example.py",
            "RL103",
        )
        assert hits == []

    def test_precision_module_itself_is_exempt(self):
        hits = rule_hits(
            """
            import numpy as np

            INDEX_DTYPE = np.dtype(np.int64)
            """,
            "src/repro/fastsim/precision.py",
            "RL103",
        )
        assert hits == []

    def test_outside_fastsim_is_out_of_scope(self):
        hits = rule_hits(
            """
            import numpy as np

            def histogram(n):
                return np.zeros(n, dtype=np.int64)
            """,
            "src/repro/analysis/example.py",
            "RL103",
        )
        assert hits == []


IDENTITY_MODULE_OK = """
from dataclasses import dataclass

EXECUTION_ONLY = frozenset({"jobs"})


@dataclass(frozen=True)
class ExperimentParams:
    seed: int = 0
    jobs: int = 1


def _replicate_inputs(ctx):
    params = dict(ctx.params)
    params.pop("jobs", None)
    return params
"""


class TestIdentityLeak:
    def test_undeclared_pop_triggers(self):
        hits = rule_hits(
            IDENTITY_MODULE_OK.replace(
                'EXECUTION_ONLY = frozenset({"jobs"})',
                "EXECUTION_ONLY = frozenset()",
            ),
            "src/repro/experiments/example.py",
            "RL104",
        )
        assert len(hits) == 1
        assert "identity leak" in hits[0].message

    def test_missing_allowlist_triggers(self):
        code = IDENTITY_MODULE_OK.replace(
            'EXECUTION_ONLY = frozenset({"jobs"})\n', ""
        )
        hits = rule_hits(code, "src/repro/experiments/example.py", "RL104")
        assert len(hits) == 1
        assert "EXECUTION_ONLY" in hits[0].message

    def test_missing_key_function_triggers(self):
        code = IDENTITY_MODULE_OK.split("def _replicate_inputs")[0]
        hits = rule_hits(code, "src/repro/experiments/example.py", "RL104")
        assert len(hits) == 1
        assert "key function" in hits[0].message

    def test_stale_allowlist_entry_triggers(self):
        code = IDENTITY_MODULE_OK.replace(
            'frozenset({"jobs"})', 'frozenset({"jobs", "ghost"})'
        )
        hits = rule_hits(code, "src/repro/experiments/example.py", "RL104")
        assert len(hits) == 1
        assert "ghost" in hits[0].message

    def test_allowlisted_field_that_is_keyed_after_all_triggers(self):
        code = IDENTITY_MODULE_OK.replace('params.pop("jobs", None)\n    ', "")
        hits = rule_hits(code, "src/repro/experiments/example.py", "RL104")
        assert len(hits) == 1
        assert "keys it after all" in hits[0].message

    def test_declared_execution_only_passes(self):
        hits = rule_hits(
            IDENTITY_MODULE_OK, "src/repro/experiments/example.py", "RL104"
        )
        assert hits == []


class TestShmUnlinkInFinally:
    def test_unguarded_create_triggers(self):
        hits = rule_hits(
            """
            from multiprocessing.shared_memory import SharedMemory

            def share(n):
                return SharedMemory(create=True, size=n)
            """,
            "src/repro/fastsim/example.py",
            "RL105",
        )
        assert len(hits) == 1
        assert "unlink" in hits[0].message

    def test_try_finally_unlink_passes(self):
        hits = rule_hits(
            """
            from multiprocessing.shared_memory import SharedMemory

            def share(n):
                segment = None
                try:
                    segment = SharedMemory(create=True, size=n)
                    return bytes(segment.buf)
                finally:
                    if segment is not None:
                        segment.close()
                        segment.unlink()
            """,
            "src/repro/fastsim/example.py",
            "RL105",
        )
        assert hits == []

    def test_owner_class_with_unlinking_close_passes(self):
        hits = rule_hits(
            """
            from multiprocessing import shared_memory

            class Arena:
                def share(self, n):
                    self.segment = shared_memory.SharedMemory(
                        create=True, size=n
                    )

                def close(self):
                    self.segment.close()
                    self.segment.unlink()
            """,
            "src/repro/fastsim/example.py",
            "RL105",
        )
        assert hits == []

    def test_attach_without_create_passes(self):
        hits = rule_hits(
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
            """,
            "src/repro/fastsim/example.py",
            "RL105",
        )
        assert hits == []


class TestUncountedLruCache:
    def test_functools_import_triggers(self):
        hits = rule_hits(
            """
            from functools import lru_cache

            @lru_cache(maxsize=64)
            def weights(alpha, n):
                return alpha * n
            """,
            "src/repro/analysis/example.py",
            "RL106",
        )
        assert len(hits) == 1
        assert "counted_cache" in hits[0].message

    def test_functools_attribute_triggers(self):
        hits = rule_hits(
            """
            import functools

            @functools.lru_cache(maxsize=64)
            def weights(alpha, n):
                return alpha * n
            """,
            "src/repro/analysis/example.py",
            "RL106",
        )
        assert len(hits) == 1

    def test_counted_cache_passes(self):
        hits = rule_hits(
            """
            from repro.obs.cache import counted_cache

            @counted_cache("zipf_weights", maxsize=64)
            def weights(alpha, n):
                return alpha * n
            """,
            "src/repro/analysis/example.py",
            "RL106",
        )
        assert hits == []

    def test_obs_cache_module_is_exempt(self):
        hits = rule_hits(
            """
            from functools import lru_cache
            """,
            "src/repro/obs/cache.py",
            "RL106",
        )
        assert hits == []


class TestSpanNaming:
    def test_bad_span_literal_triggers(self):
        hits = rule_hits(
            """
            from repro import obs

            def run():
                with obs.span("Calibrate Churn!"):
                    pass
            """,
            "src/repro/analysis/example.py",
            "RL107",
        )
        assert len(hits) == 1
        assert "segment(.segment)*" in hits[0].message

    def test_bad_counter_via_from_import_triggers(self):
        hits = rule_hits(
            """
            from repro.obs import count

            def record():
                count("cache-miss")
            """,
            "src/repro/store/example.py",
            "RL107",
        )
        assert len(hits) == 1

    def test_slash_in_counted_cache_name_triggers(self):
        hits = rule_hits(
            """
            from repro.obs.cache import counted_cache

            @counted_cache("zipf/weights", maxsize=8)
            def weights(alpha):
                return alpha
            """,
            "src/repro/analysis/example.py",
            "RL107",
        )
        assert len(hits) == 1

    def test_conventional_names_pass(self):
        hits = rule_hits(
            """
            from repro import obs
            from repro.obs.cache import counted_cache

            @counted_cache("zipf_weights", maxsize=8)
            def weights(alpha):
                return alpha

            def run():
                with obs.span("calibrate.churn", peers=5000):
                    obs.count("cache.store.sweep_cell.miss")
                obs.add_duration("kernel.resolve/draws", 0.5)
            """,
            "src/repro/analysis/example.py",
            "RL107",
        )
        assert hits == []

    def test_dynamic_names_are_skipped(self):
        hits = rule_hits(
            """
            from repro import obs

            def record(name):
                obs.count(name)
                obs.count(f"cache.{name}.hit")
            """,
            "src/repro/store/example.py",
            "RL107",
        )
        assert hits == []

    def test_bad_progress_name_triggers(self):
        hits = rule_hits(
            """
            from repro import obs

            def report(done):
                obs.progress("Sweep Cells!", done, total=6)
            """,
            "src/repro/experiments/example.py",
            "RL107",
        )
        assert len(hits) == 1
        assert "segment(.segment)*" in hits[0].message

    def test_slash_in_heartbeat_name_triggers(self):
        # Progress units are leaf names: a slash is a naming bug, not a
        # span-stack path, even via the from-import form.
        hits = rule_hits(
            """
            from repro.obs import heartbeat

            def run():
                beat = heartbeat("kernel/rounds", total=10)
            """,
            "src/repro/fastsim/example.py",
            "RL107",
        )
        assert len(hits) == 1

    def test_conventional_progress_names_pass(self):
        hits = rule_hits(
            """
            from repro import obs
            from repro.obs import heartbeat

            def run(done, total):
                obs.progress("sweep.cells", done, total=total)
                beat = heartbeat("kernel.rounds", total=total)
            """,
            "src/repro/experiments/example.py",
            "RL107",
        )
        assert hits == []


class TestSingleProcessPool:
    def test_pool_import_outside_parallel_triggers(self):
        hits = rule_hits(
            """
            from concurrent.futures import ProcessPoolExecutor

            def build_all(contexts):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(len, contexts))
            """,
            "src/repro/experiments/example.py",
            "RL108",
        )
        assert len(hits) == 1
        assert "fan_out" in hits[0].message

    def test_pool_attribute_triggers(self):
        hits = rule_hits(
            """
            import concurrent.futures

            def pool():
                return concurrent.futures.ProcessPoolExecutor(2)
            """,
            "src/repro/experiments/example.py",
            "RL108",
        )
        assert len(hits) == 1

    def test_fan_out_passes(self):
        hits = rule_hits(
            """
            from concurrent.futures import ThreadPoolExecutor
            from repro.fastsim.parallel import fan_out

            def build_all(contexts, workers):
                return list(fan_out(len, contexts, workers))
            """,
            "src/repro/experiments/example.py",
            "RL108",
        )
        assert hits == []

    def test_parallel_module_is_exempt(self):
        hits = rule_hits(
            """
            from concurrent.futures import ProcessPoolExecutor
            """,
            "src/repro/fastsim/parallel.py",
            "RL108",
        )
        assert hits == []
