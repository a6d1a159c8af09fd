"""Query events: the unit of a query stream and of a recorded trace.

Queries are Zipf(alpha)-distributed over key ranks [Srip01]. The streams
that emit them — stationary or shifting, as the paper's adaptivity
claims (Section 5.2) need — are built from a
:class:`~repro.workloads.models.WorkloadModel` with ``model.build(zipf,
rng)``; the same stream feeds the discrete-event engine (``draw``) and
the vectorized kernel (``draw_rounds``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryEvent"]


@dataclass(frozen=True)
class QueryEvent:
    """One query: when, and for which key rank.

    ``rank`` is the *popularity* rank at emission time; ``key_index`` is
    the stable identity of the queried key (index into the key universe),
    which differs from ``rank`` once the workload shifts.
    """

    time: float
    rank: int
    key_index: int
