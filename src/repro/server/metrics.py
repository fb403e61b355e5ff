"""Service-level observability: latency histograms and counters.

Everything here is updated from the event-loop thread only (handlers
and job pumps), so plain attributes suffice; ``snapshot()`` renders
the ``/metrics`` JSON document.  Latency is recorded per solver method
into fixed-bucket histograms (Prometheus-style cumulative ``le``
buckets) from which p50/p99 are interpolated — good enough to spot a
saturated queue or a regressed hot path without a metrics dependency.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter

#: Upper bucket bounds in seconds; chosen to straddle the engine's
#: measured range (sub-millisecond cache hits up to multi-second
#: paper-scale runs).
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    float("inf"),
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile interpolation."""

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS):
        if not buckets or buckets[-1] != float("inf"):
            raise ValueError("buckets must end with +inf")
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        # Buckets are sorted upper bounds, so "first bound with
        # seconds <= bound" is a binary search — this runs on every
        # request, and a linear scan of the bucket list was the one
        # O(buckets) step on that path.  The final +inf bound
        # guarantees the index is always valid.
        self.counts[bisect_left(self.buckets, seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile: linear interpolation inside the bucket
        holding the rank (the final +inf bucket reports its lower
        bound — an honest 'at least this much')."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0.0
        lower = 0.0
        for bound, n in zip(self.buckets, self.counts):
            if n and seen + n >= rank:
                if bound == float("inf"):
                    return lower
                fraction = (rank - seen) / n
                return lower + (bound - lower) * fraction
            seen += n
            lower = bound
        return lower

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_seconds": self.sum_seconds,
            "max_seconds": self.max_seconds,
            "p50_seconds": self.quantile(0.50),
            "p99_seconds": self.quantile(0.99),
            "buckets": {
                ("+inf" if bound == float("inf") else repr(bound)): n
                for bound, n in zip(self.buckets, self.counts)
            },
        }


class HttpMetrics:
    """The HTTP counters every service exports."""

    def __init__(self) -> None:
        self.started = time.time()
        self.requests_total = 0
        self.responses_by_status: Counter[int] = Counter()

    def record_response(self, status: int) -> None:
        self.requests_total += 1
        self.responses_by_status[status] += 1

    def http_snapshot(self) -> dict:
        """The ``uptime_seconds`` and ``http`` sections of ``/metrics``."""
        return {
            "uptime_seconds": time.time() - self.started,
            "http": {
                "requests_total": self.requests_total,
                "responses_by_status": {
                    str(status): n
                    for status, n in sorted(self.responses_by_status.items())
                },
            },
        }


class ServerMetrics(HttpMetrics):
    """All counters the server exports, plus the snapshot renderer."""

    def __init__(self) -> None:
        super().__init__()
        self.rejected_total = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.solves_total = 0
        self.solve_cache_hits = 0
        # Planner observability: how often method="auto" resolved to
        # each config.
        self.planner_picks: Counter[str] = Counter()
        self.latency: dict[str, LatencyHistogram] = {}
        # Aggregate engine-run cost, accumulated from each fresh
        # (non-cached) solve's RunStats.
        self.engine_physical_reads = 0
        self.engine_logical_reads = 0
        self.engine_physical_writes = 0
        self.engine_cpu_seconds = 0.0

    def record_solve(
        self, method: str, seconds: float, solution, cached: bool, plan=None
    ) -> None:
        """Record one served solve.

        ``plan`` is the planner decision *of this request* — passed
        only when the request asked for ``method="auto"`` (a cached
        solution may carry the plan of the auto solve that populated
        it, which must not count picks for explicit requests replaying
        the entry).
        """
        self.solves_total += 1
        if cached:
            self.solve_cache_hits += 1
        histogram = self.latency.get(method)
        if histogram is None:
            histogram = self.latency[method] = LatencyHistogram()
        histogram.observe(seconds)
        stats = getattr(solution, "stats", None)
        if plan is not None and plan.auto:
            # One pick per served auto-solve: the decision applies to
            # this request whether the engine ran or the cache answered.
            self.planner_picks[plan.method] += 1
        if not cached and stats is not None:
            self.engine_physical_reads += stats.io.physical_reads
            self.engine_logical_reads += stats.io.logical_reads
            self.engine_physical_writes += stats.io.physical_writes
            self.engine_cpu_seconds += stats.cpu_seconds

    def snapshot(
        self,
        queue: dict,
        solution_cache: dict,
        index_cache: dict,
        churn: dict | None = None,
    ) -> dict:
        """Render the ``/metrics`` document.

        ``churn`` is the session's cumulative churn-counter dict (see
        :meth:`repro.api.session.AssignmentSession.churn_info`), or
        ``None`` when the server has no live session yet.
        """
        return {
            **self.http_snapshot(),
            "queue": {
                **queue,
                "rejected_total": self.rejected_total,
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
            },
            "solution_cache": solution_cache,
            "index_cache": index_cache,
            "solves": {
                "total": self.solves_total,
                "cache_hits": self.solve_cache_hits,
            },
            "planner": {
                "picks": {
                    method: n for method, n in sorted(self.planner_picks.items())
                },
                "auto_solves": sum(self.planner_picks.values()),
            },
            "latency": {
                method: hist.to_dict() for method, hist in self.latency.items()
            },
            "engine": {
                "physical_reads": self.engine_physical_reads,
                "logical_reads": self.engine_logical_reads,
                "physical_writes": self.engine_physical_writes,
                "cpu_seconds": self.engine_cpu_seconds,
            },
            "churn": dict(churn) if churn else {},
        }


__all__ = ["LATENCY_BUCKETS", "HttpMetrics", "LatencyHistogram", "ServerMetrics"]
