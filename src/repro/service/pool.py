"""Process-pool execution backend: per-worker object-index replicas.

The thread backend (:class:`~repro.service.batch.BatchSolver`'s
default) serializes same-catalogue jobs twice over: jobs sharing one
cached :class:`~repro.core.index.ObjectIndex` queue on that entry's
``run_lock`` (the R-tree's LRU buffer and I/O counters are mutable,
measured state), and pure-python engine runs are GIL-bound anyway.
For the many-cohorts-over-one-catalogue shape that real deployments
of this workload class take, that collapses a whole worker pool into
a queue of length one.

:class:`ProcessPoolSolver` removes both limits.  Jobs cross the
process boundary as the canonical JSON-compatible instance payload
(the same ``objects`` / ``functions`` / ``solver`` / ``index``
sections :meth:`repro.api.problem.Problem.to_dict` serves over the
wire), each worker process rebuilds the instance and keeps a private
:class:`~repro.service.batch.ObjectIndexCache` replica — so W workers
hold W independent R-trees for a shared catalogue and run W engine
loops truly in parallel, with no cross-worker ``run_lock`` at all.
Within a worker, runs are sequential, so per-run I/O counters stay
exact; the whole :class:`~repro.core.types.RunStats` ships back with
the matching, making process-backend results bit-identical to the
thread backend (the engine is deterministic and float arithmetic does
not change across local processes).

The trade-offs, stated plainly: a shared catalogue is built once
*per worker* instead of once per host (the index build is the cheap,
unmeasured part, and it amortizes across every subsequent job on that
worker), and each job pays one pickle round trip.  Single-solve wall
time is therefore unchanged on the thread backend and slightly
IPC-taxed on the process backend — the win is fresh-solve
*throughput* on multi-core hosts.

Workers start via the ``spawn`` context by default: ``fork`` from a
multi-threaded parent (the serving layer always is one) is unsafe and
deprecated on Python 3.12+.  ``spawn`` re-imports the package in the
child, which multiprocessing seeds with the parent's ``sys.path``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.core import solve
from repro.core.types import AssignmentResult
from repro.data.instances import FunctionSet, ObjectSet, object_set_fingerprint
from repro.obs.log import get_logger
from repro.obs.trace import (
    SpanCollector,
    TraceContext,
    attach_engine_spans,
    collecting,
    current_context,
    span,
)
from repro.service.batch import (
    JobResult,
    ObjectIndexCache,
    ResolvedJob,
    SolveJob,
)

log = get_logger("repro.service")

EXECUTORS = ("thread", "process")


def check_executor(executor: str) -> str:
    """Validate an executor selector (shared by every layer above)."""
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    return executor


# ---------------------------------------------------------------------------
# canonical job payload (what actually crosses the process boundary)


def require_named_method(job: SolveJob) -> None:
    """Process-backend jobs must use a named (string) method.

    Custom :class:`~repro.engine.engine.EngineConfig` methods carry
    strategy closures that have no canonical form — they stay on the
    thread backend.
    """
    if not isinstance(job.method, str):
        raise ValueError(
            "the process executor ships jobs via the canonical problem "
            f"serde; a custom EngineConfig ({job.method_name!r}) cannot "
            "cross the process boundary — use executor='thread' for "
            "custom engine configs"
        )


def job_to_payload(job: SolveJob, resolved: ResolvedJob | None = None) -> dict:
    """The job as the canonical JSON-compatible instance payload.

    Mirrors the ``objects`` / ``functions`` / ``solver`` / ``index``
    sections of :meth:`repro.api.problem.Problem.to_dict`, so the same
    schema that crosses the HTTP boundary crosses the process boundary.

    ``method="auto"`` jobs are planner-resolved *parent-side* (once,
    see :meth:`SolveJob.resolve`) — the wire carries the concrete
    method, so a worker executes exactly what a direct invocation of
    the chosen config would, and workers need no planner at all.
    """
    require_named_method(job)
    if resolved is None:
        resolved = job.resolve()
    objects, functions = job.objects, job.functions
    payload = {
        "objects": {
            "points": [list(p) for p in objects.points],
            "capacities": (
                list(objects.capacities)
                if objects.capacities is not None
                else None
            ),
        },
        "functions": {
            "weights": [list(w) for w in functions.weights],
            "priorities": (
                list(functions.gammas) if functions.gammas is not None else None
            ),
            "capacities": (
                list(functions.capacities)
                if functions.capacities is not None
                else None
            ),
        },
        "solver": {
            "method": resolved.method,
            "options": dict(resolved.solve_kwargs),
        },
        "index": {
            "page_size": job.page_size,
            "memory": job.wants_memory_index,
            "buffer_fraction": job.buffer_fraction,
        },
    }
    # The active trace context (ids only) crosses with the job, so
    # worker-side log records correlate with the parent's trace.
    context = current_context()
    if context is not None:
        payload["trace"] = {
            "trace_id": context.trace_id,
            "span_id": context.span_id,
        }
    return payload


# ---------------------------------------------------------------------------
# worker side — everything below the line runs inside a worker process

_WORKER_CACHE: ObjectIndexCache | None = None


def _init_worker(index_cache_size: int) -> None:
    """Pool initializer: give this worker its private index replica."""
    global _WORKER_CACHE
    _WORKER_CACHE = ObjectIndexCache(max_entries=index_cache_size)


def solve_payload(payload: dict) -> tuple[AssignmentResult, bool]:
    """Worker-side entry: rebuild the instance, solve on the replica.

    Returns ``(result, index_was_cached)``.  The rebuilt
    :class:`ObjectSet` re-fingerprints per job (the memoized digest
    lives on the parent's instance), which is cheap next to any engine
    run; the replica cache then reuses the built R-tree exactly as the
    thread backend's shared cache does.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:  # direct call outside a pool (tests)
        _WORKER_CACHE = ObjectIndexCache()
    trace_section = payload.get("trace")
    if trace_section is not None:
        # Adopt the parent's trace ids so worker-side log records
        # correlate; worker spans stay local (the result's RunStats
        # phases carry the timings back instead).
        with collecting(
            SpanCollector(),
            parent=TraceContext(
                trace_section["trace_id"], trace_section["span_id"]
            ),
        ):
            return _solve_payload_inner(payload)
    return _solve_payload_inner(payload)


def _solve_payload_inner(payload: dict) -> tuple[AssignmentResult, bool]:
    objects_section = payload["objects"]
    functions_section = payload["functions"]
    index_section = payload["index"]
    objects = ObjectSet(
        [tuple(p) for p in objects_section["points"]],
        capacities=objects_section["capacities"],
    )
    functions = FunctionSet(
        [tuple(w) for w in functions_section["weights"]],
        gammas=functions_section["priorities"],
        capacities=functions_section["capacities"],
    )
    index, run_lock, hit = _WORKER_CACHE.get(
        objects, index_section["page_size"], index_section["memory"]
    )
    with run_lock:  # workers are single-threaded; kept for invariance
        index.reset_for_run(buffer_fraction=index_section["buffer_fraction"])
        result = solve(
            functions,
            index,
            method=payload["solver"]["method"],
            **payload["solver"]["options"],
        )
    return result, hit


# ---------------------------------------------------------------------------
# parent side


@dataclass
class _JobHandle:
    """One dispatched job: the executor future plus its bookkeeping."""

    position: int
    job: SolveJob
    resolved: ResolvedJob
    started: float
    future: Future


class ProcessPoolSolver:
    """Solves :class:`SolveJob`\\ s on a persistent process pool.

    Mirrors the :class:`~repro.service.batch.BatchSolver` result shape
    (:class:`JobResult`), so the batch layer can route jobs to either
    backend transparently.  The pool (and each worker's index replica)
    persists across calls; :meth:`close` releases it.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        index_cache_size: int = 32,
        mp_context: str = "spawn",
    ):
        # Validate eagerly: ``max_workers or cpu_count()`` would turn a
        # falsy 0 into a full-CPU pool, where the thread backend raises.
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 (or None), got {max_workers}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.index_cache_size = index_cache_size
        self.mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._guard = threading.Lock()
        self._in_flight = 0
        #: High-water mark of jobs simultaneously dispatched to workers.
        self.peak_concurrency = 0
        #: Times a broken pool (dead worker) was discarded and rebuilt.
        self.pool_restarts = 0
        #: Aggregated per-worker replica counters: a shared catalogue
        #: counts one miss (= one build) per worker that touches it.
        self.hits = 0
        self.misses = 0
        # LRU-bounded like each worker's replica: the parent must not
        # grow without bound on a long-lived server fed ever-new
        # catalogues (the replicas themselves evict past this size).
        self._catalogues_seen: OrderedDict[tuple, None] = OrderedDict()

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._guard:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(self.mp_context),
                    initializer=_init_worker,
                    initargs=(self.index_cache_size,),
                )
            return self._executor

    def close(self) -> None:
        with self._guard:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def _discard_broken(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next submit builds a fresh one.

        A worker killed mid-solve (OOM, segfault) marks the whole
        ``ProcessPoolExecutor`` broken; without this, every later job
        on a long-running server would fail until restart.  The job
        that hit the breakage still fails (its result is gone) — only
        the *backend* recovers.
        """
        with self._guard:
            if self._executor is executor:
                self._executor = None
                self.pool_restarts += 1
            restarts = self.pool_restarts
        log.warning(
            "process pool broke (worker died); discarding it — the next "
            "solve starts a fresh pool",
            restarts=restarts,
        )
        executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ProcessPoolSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- solving -------------------------------------------------------

    def _on_job_done(self, future: Future) -> None:
        # Done-callback, not collect-side bookkeeping: a caller that
        # aborts mid-batch (one job's worker raised) never collects the
        # remaining handles, and a collect-side decrement would leak
        # ``_in_flight`` — inflating ``peak_concurrency`` forever.
        with self._guard:
            self._in_flight -= 1
        if future.cancelled():
            return
        if isinstance(future.exception(), BrokenProcessPool):
            with self._guard:
                executor = self._executor
            if executor is not None and getattr(executor, "_broken", False):
                self._discard_broken(executor)

    def submit_job(self, position: int, job: SolveJob) -> _JobHandle:
        """Dispatch one job; pair with :meth:`collect`."""
        started = time.perf_counter()
        require_named_method(job)  # raises before planning or pooling
        resolved = job.resolve()  # plans "auto" once, parent-side
        payload = job_to_payload(job, resolved)
        key = (
            object_set_fingerprint(job.objects),
            job.page_size,
            job.wants_memory_index,
        )
        executor = self._ensure_executor()
        try:
            future = executor.submit(solve_payload, payload)
        except BrokenProcessPool:
            self._discard_broken(executor)
            # One transparent retry on a fresh pool: the breakage
            # happened before this job was dispatched, so nothing about
            # it is lost or ambiguous.
            future = self._ensure_executor().submit(solve_payload, payload)
        with self._guard:
            self._catalogues_seen[key] = None
            self._catalogues_seen.move_to_end(key)
            while len(self._catalogues_seen) > self.index_cache_size:
                self._catalogues_seen.popitem(last=False)
            self._in_flight += 1
            # "Executing" concurrency, matching the thread backend's
            # semantics: jobs queued behind busy workers don't count.
            self.peak_concurrency = max(
                self.peak_concurrency, min(self._in_flight, self.max_workers)
            )
        future.add_done_callback(self._on_job_done)
        return _JobHandle(position, job, resolved, started, future)

    def collect(self, handle: _JobHandle) -> JobResult:
        """Await one dispatched job and fold its counters back in.

        The worker's spans stay in its process; the parent re-emits an
        ``engine.solve`` span from the returned :class:`RunStats` (its
        duration includes queue wait — phase children are exact)."""
        with span(
            "engine.solve",
            method=handle.resolved.method_name,
            executor="process",
        ) as solve_span:
            result, hit = handle.future.result()
            solve_span.attributes["index_cache_hit"] = hit
            attach_engine_spans(solve_span, result.stats)
        with self._guard:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        job = handle.job
        return JobResult(
            job_id=(
                job.job_id
                if job.job_id is not None
                else f"job-{handle.position}"
            ),
            method=handle.resolved.method_name,
            result=result,
            index_cache_hit=hit,
            wall_seconds=time.perf_counter() - handle.started,
            plan=handle.resolved.plan,
        )

    def solve_one(self, job: SolveJob, position: int = 0) -> JobResult:
        return self.collect(self.submit_job(position, job))

    def solve_many(self, jobs: list[SolveJob]) -> list[JobResult]:
        """Solve all jobs; results are returned in submission order."""
        # Fail fast before dispatching anything: an invalid job in the
        # middle of the batch must not orphan already-submitted work.
        for job in jobs:
            require_named_method(job)
        handles = [self.submit_job(i, job) for i, job in enumerate(jobs)]
        return [self.collect(handle) for handle in handles]

    # -- observability -------------------------------------------------

    def info(self) -> dict[str, int]:
        """Replica-cache counters in the shared ``cache_info`` shape.

        ``misses`` counts index *builds across all workers* (a shared
        catalogue builds once per worker it lands on); ``entries`` is
        the number of recently dispatched distinct catalogues,
        LRU-bounded by ``index_cache_size`` like each replica.
        """
        with self._guard:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._catalogues_seen),
                "workers": self.max_workers,
                "pool_restarts": self.pool_restarts,
            }


__all__ = [
    "EXECUTORS",
    "ProcessPoolSolver",
    "check_executor",
    "job_to_payload",
    "require_named_method",
    "solve_payload",
]
