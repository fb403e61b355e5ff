"""BatchSolver: solve many preference-query workloads through one pool.

Real deployments of the paper's algorithm (course allocation, housing
lotteries, reviewer assignment à la Lian et al.'s conference-paper
workloads) rarely solve a single instance: the same object catalogue
is matched against many function cohorts, or many catalogues are
solved side by side.  Two observations make this batchable:

- **index reuse** — building the object R-tree (and the catalogue's
  columnar state) is the expensive, solver-independent part, and the
  paper explicitly excludes it from measured cost; an instance-hash
  cache shares one :class:`~repro.core.index.ObjectIndex` across every
  job with the same objects / page size / backend.  The cache creates
  its indexes unloaded: the first run that reads the tree bulk-loads
  it, so a catalogue served only by ``sb-vec`` (all ``auto`` traffic)
  never pays for a tree;
- **independent jobs** — each engine run keeps all mutable state in
  its own strategies, so jobs on *different* indexes execute fully in
  parallel on a :class:`~concurrent.futures.ThreadPoolExecutor`.
  Jobs sharing one index serialize on a per-index lock, because the
  R-tree's LRU buffer and I/O counters are deliberately part of the
  measured, mutable storage model.

For many-cohorts-over-one-catalogue traffic that per-index lock (plus
the GIL) admits one solve at a time per catalogue.  A process pool
with per-worker index replicas measured no faster on the served mix
(see README, "Solve pool"), so the thread pool is the only solve path.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core import solve
from repro.core.index import ObjectIndex
from repro.core.registry import REGISTRY, Plan
from repro.core.types import AssignmentResult
from repro.data.instances import FunctionSet, ObjectSet, object_set_fingerprint
from repro.obs.trace import attach_engine_spans, span


@dataclass
class SolveJob:
    """One assignment workload: a cohort of functions over a catalogue
    of objects, solved by a named engine config."""

    functions: FunctionSet
    objects: ObjectSet
    #: Solver name (``"auto"`` runs ``sb-vec``), or an
    #: :class:`~repro.engine.engine.EngineConfig` for a custom
    #: strategy combination.
    method: str | object = "sb"
    job_id: str | None = None
    page_size: int = 4096
    #: ``None`` = auto: memory-resident object tree for ``sb-alt``
    #: (the Section 7.6 setting), disk-simulated otherwise.
    memory_index: bool | None = None
    buffer_fraction: float = 0.02
    solve_kwargs: dict = field(default_factory=dict)

    @property
    def method_name(self) -> str:
        """The method's name whether given as a string or an
        ``EngineConfig`` (whose ``.name`` identifies it)."""
        return getattr(self.method, "name", self.method)

    @property
    def wants_memory_index(self) -> bool:
        if self.memory_index is None:
            return self.method_name == "sb-alt"
        return self.memory_index

    def resolve(self) -> "ResolvedJob":
        """The concrete ``(method, options, plan)`` this job will run.

        A method name and its options resolve through
        :meth:`~repro.core.registry.SolverRegistry.resolve`, which
        checks them: ``method="auto"`` resolves to
        :data:`~repro.core.registry.AUTO_PLAN` (``sb-vec``), every
        other name to itself, and an ``EngineConfig`` passes through.
        The solve reads the *resolved* method, so an ``auto`` job is
        indistinguishable from an explicitly routed one by the time an
        engine runs.
        """
        if not isinstance(self.method, str):
            return ResolvedJob(self.method, dict(self.solve_kwargs), plan=None)
        plan = REGISTRY.resolve(self.method, self.solve_kwargs)
        return ResolvedJob(
            method=plan.method,
            solve_kwargs=plan.options_dict(),
            plan=plan if plan.auto else None,
        )


@dataclass(frozen=True)
class ResolvedJob:
    """A :class:`SolveJob` after planner resolution."""

    method: str | object
    solve_kwargs: dict
    plan: Plan | None

    @property
    def method_name(self) -> str:
        return getattr(self.method, "name", self.method)


@dataclass
class JobResult:
    """A solved job plus its service-level bookkeeping."""

    job_id: str
    #: The *resolved* method that ran (never ``"auto"``).
    method: str
    result: AssignmentResult
    index_cache_hit: bool
    wall_seconds: float
    #: The planner's decision, for jobs submitted with ``method="auto"``.
    plan: Plan | None = None

    @property
    def matching(self):
        return self.result.matching

    @property
    def stats(self):
        return self.result.stats


@dataclass
class _CacheEntry:
    index: ObjectIndex
    run_lock: threading.Lock = field(default_factory=threading.Lock)


class ObjectIndexCache:
    """LRU cache of object indexes keyed by instance hash.

    Each entry carries a lock serializing solver runs on that index:
    the storage layer (LRU page buffer, I/O counters) is mutable and
    cold-started per run via ``reset_for_run``.  Indexes are created
    unloaded, and both halves of the catalogue state are built on
    first use under that lock: the tree loads in the first run that
    reads it (an interpreted config, ``chain``, ``brute-force``), the
    columnar state (:func:`repro.kernels.columnar.catalogue_columns`)
    in the first columnar run.  Either way a catalogue is loaded at
    most once per entry, and an evicted entry takes its state with it.
    Running jobs hold their own references, so LRU eviction never
    invalidates an in-flight run.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._guard = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self, objects: ObjectSet, page_size: int, memory: bool
    ) -> tuple[ObjectIndex, threading.Lock, bool]:
        """``(index, run_lock, was_cache_hit)`` for an object set.

        The index may be unloaded: read its tree only while holding
        ``run_lock``."""
        key = (object_set_fingerprint(objects), page_size, memory)
        with self._guard:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                entry = _CacheEntry(
                    ObjectIndex(objects, page_size=page_size, is_memory=memory)
                )
                self._entries[key] = entry
                self.misses += 1
                hit = False
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return entry.index, entry.run_lock, hit

    def info(self) -> dict[str, int]:
        with self._guard:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }


class BatchSolver:
    """Solves batches of :class:`SolveJob`\\ s on a thread pool.

    The pool runs over one shared :class:`ObjectIndexCache`, so a
    shared catalogue is loaded at most once; same-catalogue jobs
    serialize on the entry's run lock (and on the GIL).
    ``max_workers`` sizes the thread pool (``None`` = the
    :class:`~concurrent.futures.ThreadPoolExecutor` default).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        index_cache_size: int = 32,
    ):
        self.max_workers = max_workers
        self.cache = ObjectIndexCache(max_entries=index_cache_size)
        self._concurrency_guard = threading.Lock()
        self._in_flight = 0
        #: High-water mark of jobs simultaneously *executing* a solve
        #: (jobs waiting on a shared index's run lock don't count).
        self.peak_concurrency = 0

    def solve_many(self, jobs: list[SolveJob]) -> list[JobResult]:
        """Solve all jobs; results are returned in submission order."""
        if not jobs:
            return []
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [
                pool.submit(self._run_job, i, job)
                for i, job in enumerate(jobs)
            ]
            return [f.result() for f in futures]

    def solve_one(self, job: SolveJob) -> JobResult:
        return self._run_job(0, job)

    def cache_info(self) -> dict[str, int]:
        """Counters of the shared index cache."""
        return self.cache.info()

    # ------------------------------------------------------------------

    def _run_job(self, position: int, job: SolveJob) -> JobResult:
        start = time.perf_counter()
        with span("plan.resolve") as plan_span:
            resolved = job.resolve()
            plan_span.attributes["method"] = resolved.method_name
        with span("index.lookup") as index_span:
            index, run_lock, hit = self.cache.get(
                job.objects, job.page_size, job.wants_memory_index
            )
            index_span.attributes["cache_hit"] = hit
        with run_lock:
            with self._concurrency_guard:
                self._in_flight += 1
                self.peak_concurrency = max(
                    self.peak_concurrency, self._in_flight
                )
            try:
                index.reset_for_run(buffer_fraction=job.buffer_fraction)
                with span("engine.solve", method=resolved.method_name) as solve_span:
                    result = solve(
                        job.functions, index, method=resolved.method,
                        **resolved.solve_kwargs,
                    )
                    attach_engine_spans(solve_span, result.stats)
            finally:
                with self._concurrency_guard:
                    self._in_flight -= 1
        return JobResult(
            job_id=job.job_id if job.job_id is not None else f"job-{position}",
            method=resolved.method_name,
            result=result,
            index_cache_hit=hit,
            wall_seconds=time.perf_counter() - start,
            plan=resolved.plan,
        )
