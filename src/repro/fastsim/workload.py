"""Query streams for both engines.

A :class:`BatchWorkload` draws a round's queries as numpy arrays of
(rank, key index) pairs — whole segments at a time for the vectorized
kernel (:meth:`BatchWorkload.draw_rounds`) — and hands the
discrete-event engine the same round as
:class:`~repro.workload.queries.QueryEvent` objects
(:meth:`BatchWorkload.draw`). Both views go through one
:meth:`BatchWorkload.draw_round`, so a shared generator state yields the
same queries on either engine.

Concrete streams come from a
:class:`~repro.workloads.models.WorkloadModel`: ``model.build(zipf,
rng)`` returns a :class:`ModelWorkload` (mapping boundaries and rate
modulation from the model) or, for a recorded trace, a
:class:`TraceWorkload` (exact per-round counts via
:meth:`BatchWorkload.fixed_counts`). ``next_boundary`` keeps whole
shift-free segments on the one-``sample_ranks`` fast path.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE
from repro.workload.queries import QueryEvent

if TYPE_CHECKING:
    from repro.workloads.models import TraceReplay, WorkloadModel

__all__ = ["BatchWorkload", "ModelWorkload", "TraceWorkload"]


class BatchWorkload(abc.ABC):
    """A vectorized stream of query batches over a Zipf key universe."""

    def __init__(self, zipf: ZipfDistribution, rng: np.random.Generator) -> None:
        self.zipf = zipf
        self.rng = rng
        #: Permutation mapping (rank - 1) -> key index. Identity at start.
        self.rank_to_key = np.arange(zipf.n_keys)

    @property
    def n_keys(self) -> int:
        return self.zipf.n_keys

    def key_for_rank(self, rank: int) -> int:
        """Stable key index currently holding popularity ``rank``."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(f"rank must be in [1, {self.n_keys}], got {rank}")
        return int(self.rank_to_key[rank - 1])

    @abc.abstractmethod
    def maybe_shift(self, now: float) -> bool:
        """Apply any scheduled distribution change; True if one happened."""

    def next_boundary(self, now: float) -> float:
        """Earliest round time at which :meth:`maybe_shift` could change
        anything; ``math.inf`` if it never will again.

        A pure peek — consumes no randomness — so :meth:`draw_rounds` can
        batch whole shift-free segments in one ``sample_ranks`` call and
        *jump* directly to the next boundary instead of testing every
        round. A returned time at or before ``now`` means a shift is due
        now. The base default is conservatively ``now``: a subclass that
        only overrides :meth:`maybe_shift` still has it invoked every
        round (one-round segments, identical semantics to the per-round
        path); overriding this with an exact schedule is the batching
        opt-in.
        """
        return now

    def shift_pending(self, now: float) -> bool:
        """Whether :meth:`maybe_shift` *could* change anything at ``now``
        (the boolean view of :meth:`next_boundary`; also a pure peek)."""
        return self.next_boundary(now) <= now

    def rate_multiplier(self, now: float) -> float:
        """Query-rate factor for the round at ``now`` (1.0 = the
        scenario rate); the event engine's per-round view of
        :meth:`rate_multipliers`."""
        return 1.0

    def rate_multipliers(self, start: float, rounds: int) -> np.ndarray | None:
        """Per-round query-rate factors for rounds ``start+1 .. start+rounds``.

        ``None`` (the default) marks the stationary-rate case, letting
        the kernel keep its exact historical ``poisson(rate, size=n)``
        draw; a time-varying workload (e.g. a diurnal cycle) returns an
        array of factors applied to the scenario rate per round.
        """
        return None

    def fixed_counts(self, start: float, rounds: int) -> np.ndarray | None:
        """Exact per-round query counts, overriding the Poisson draw.

        ``None`` (the default) keeps the sampled counts; a trace-replay
        workload returns the recorded stream's own counts so the kernel
        replays it verbatim.
        """
        return None

    def draw_round(
        self, now: float, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one round's query batch; returns ``(ranks, key_indices)``."""
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        self.maybe_shift(now)
        ranks = self.zipf.sample_ranks(self.rng, count)
        return ranks, self.rank_to_key[ranks - 1]

    def draw(self, now: float, count: int) -> list[QueryEvent]:
        """One round's queries as events (the discrete-event engine's
        view of :meth:`draw_round`: same RNG draws, same mapping)."""
        ranks, keys = self.draw_round(now, count)
        return [
            QueryEvent(time=now, rank=rank, key_index=key)
            for rank, key in zip(ranks.tolist(), keys.tolist())
        ]

    def draw_rounds(
        self,
        start: float,
        counts: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw many consecutive rounds' batches in one or few RNG calls.

        Round ``i`` (0-based) happens at ``start + i + 1`` with
        ``counts[i]`` queries, exactly like ``len(counts)`` successive
        :meth:`draw_round` calls. Stationary workloads draw everything in
        a single ``sample_ranks`` call; non-stationary workloads split at
        shift boundaries and draw per segment, so the rank->key mapping
        applied to each round and the RNG stream order are identical to
        the per-round path — seeded results stay bit-identical.

        ``out``, when given, is an optional ``(ranks, keys)`` pair of
        preallocated int64 buffers; if large enough, the batch is written
        into (views of) them instead of fresh arrays, which lets the
        kernel's streamed loop reuse one draw block for the whole run.
        Buffers that are too small or mistyped are ignored — the call
        then allocates exactly as before.

        Returns ``(ranks, keys, offsets)`` where
        ``ranks[offsets[i]:offsets[i + 1]]`` is round ``i``'s batch.
        """
        counts = np.asarray(counts, dtype=INDEX_DTYPE)
        if counts.size and counts.min() < 0:
            raise ParameterError(
                f"counts must be >= 0, got min {counts.min()}"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        if (
            out is not None
            and out[0].size >= total
            and out[1].size >= total
            and out[0].dtype == INDEX_DTYPE
            and out[1].dtype == INDEX_DTYPE
        ):
            ranks = out[0][:total]
            keys = out[1][:total]
        else:
            ranks = np.empty(total, dtype=INDEX_DTYPE)
            keys = np.empty_like(ranks)

        def flush(lo_round: int, hi_round: int) -> None:
            # Draw the segment [lo_round, hi_round) under the current
            # mapping, in one sample_ranks call.
            lo, hi = int(offsets[lo_round]), int(offsets[hi_round])
            if hi > lo:
                drawn = self.zipf.sample_ranks(self.rng, hi - lo)
                ranks[lo:hi] = drawn
                np.subtract(drawn, 1, out=drawn)
                np.take(self.rank_to_key, drawn, out=keys[lo:hi])

        n = counts.size
        segment_start = 0
        i = 0
        while i < n:
            now = start + i + 1.0
            boundary = self.next_boundary(now)
            if boundary <= now:
                # Round i sits on a boundary: flush the pending segment
                # under the old mapping, then apply the shift (which may
                # consume RNG) before round i draws.
                flush(segment_start, i)
                self.maybe_shift(now)
                segment_start = i
                i += 1
            elif boundary == math.inf:
                i = n
            else:
                # Jump to the first round whose time reaches the
                # boundary. The loop re-checks the peek there, so a
                # conservative (early) landing only costs one more
                # iteration — never a missed shift.
                i = max(i + 1, int(math.ceil(boundary - start - 1.0)))
        flush(segment_start, n)
        return ranks, keys, offsets


class ModelWorkload(BatchWorkload):
    """The stream a :class:`~repro.workloads.models.WorkloadModel`
    drives (built by ``model.build``).

    The model is a frozen schedule; this object owns the mutable part —
    the current rank -> key mapping and the next unapplied boundary.
    Between boundaries the mapping is frozen, so whole segments draw in
    one ``sample_ranks`` call exactly like the stationary stream.
    """

    def __init__(
        self,
        model: WorkloadModel,
        zipf: ZipfDistribution,
        rng: np.random.Generator,
    ) -> None:
        model.check_keys(zipf.n_keys)
        super().__init__(zipf, rng)
        self.model = model
        self._next = model.next_boundary(-math.inf)

    def next_boundary(self, now: float) -> float:
        return self._next

    def maybe_shift(self, now: float) -> bool:
        """Apply every boundary due by ``now``, in schedule order."""
        changed = False
        while now >= self._next:
            at = self._next
            self.rank_to_key = self.model.apply(at, self.rank_to_key, self.rng)
            self._next = self.model.next_boundary(at)
            changed = True
        return changed

    def rate_multiplier(self, now: float) -> float:
        return self.model.rate_multiplier(now)

    def rate_multipliers(self, start: float, rounds: int) -> np.ndarray | None:
        times = start + 1.0 + np.arange(rounds, dtype=float)
        return self.model.rate_multipliers(times)


class TraceWorkload(BatchWorkload):
    """Replay of a recorded trace (built by ``TraceReplay.build``).

    Nothing is sampled: the per-round query counts come from the trace
    (:meth:`fixed_counts`), and round ``i`` of a run starting at
    ``start`` replays the events with times in ``[start + i, start + i +
    1)`` — every strategy and both engines see the identical queries.
    """

    def __init__(
        self,
        model: TraceReplay,
        zipf: ZipfDistribution,
        rng: np.random.Generator,
    ) -> None:
        model.check_keys(zipf.n_keys)
        super().__init__(zipf, rng)
        self.trace = model.trace
        self._times = np.array([e.time for e in self.trace], dtype=float)
        self._ranks = np.array(
            [e.rank for e in self.trace], dtype=INDEX_DTYPE
        )
        self._keys = np.array(
            [e.key_index for e in self.trace], dtype=INDEX_DTYPE
        )

    def next_boundary(self, now: float) -> float:
        return math.inf

    def maybe_shift(self, now: float) -> bool:
        return False

    def fixed_counts(self, start: float, rounds: int) -> np.ndarray:
        edges = start + np.arange(rounds + 1, dtype=float)
        return np.diff(np.searchsorted(self._times, edges, side="left"))

    def draw_round(self, now: float, count: int):
        """The recorded round ending at ``now``; ``count`` is ignored."""
        lo, hi = np.searchsorted(
            self._times, [now - 1.0, now], side="left"
        )
        return self._ranks[lo:hi].copy(), self._keys[lo:hi].copy()

    def draw(self, now: float, count: int) -> list[QueryEvent]:
        """The recorded events of the round ending at ``now``, with
        their recorded times; ``count`` is ignored."""
        return self.trace.events_between(now - 1.0, now)

    def draw_rounds(self, start: float, counts: np.ndarray, out=None):
        # ``out`` (the kernel's reusable draw buffers) is accepted for
        # signature parity and ignored: replay slices the recorded
        # stream, it never draws.
        counts = np.asarray(counts, dtype=INDEX_DTYPE)
        expected = self.fixed_counts(start, counts.size)
        if not np.array_equal(counts, expected):
            raise ParameterError(
                "trace replay needs the trace's own per-round counts "
                "(use fixed_counts); the passed counts disagree with the "
                "recorded stream"
            )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        lo = int(np.searchsorted(self._times, start, side="left"))
        hi = lo + int(offsets[-1])
        return self._ranks[lo:hi].copy(), self._keys[lo:hi].copy(), offsets
