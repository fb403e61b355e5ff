"""The asyncio serving layer: router + queue + caches wired together.

One event loop accepts JSON-over-HTTP requests; every solve funnels
through a single :class:`~repro.api.session.AssignmentSession`, so the
session's :class:`~repro.core.index.ObjectIndexCache` is shared across
*all* network clients — sixteen concurrent cohorts over
one catalogue share one index, loaded at most once.  Around that sit three
serving concerns the library layers don't have:

- **admission control** — a bounded live-work counter turns overload
  into fast HTTP 429 + ``Retry-After`` instead of unbounded buffering;
- **result caching** — a deterministic engine means an LRU over
  :meth:`Problem.solve_key` serves repeat queries without a solve;
- **single-flight coalescing** — concurrent identical requests await
  one in-flight solve rather than racing N copies of it.

Handlers run on the loop; the actual solving happens on the session's
thread pool and is awaited via ``asyncio.wrap_future``.  Routing,
dispatch, tracing, connections, the catalogue store and the lifecycle
come from the shared :class:`~repro.server.base.HttpService` shell; a
``repro.problem/v3`` problem is built on the stored catalogue, so every
cohort over one catalogue shares its ``ObjectSet``.  The server can be
embedded (:func:`serve_in_thread` hosts it on a background thread for
tests/examples) or run standalone via ``python -m repro.server``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.api.problem import Problem
from repro.api.session import AssignmentSession
from repro.api.solution import Solution
from repro.errors import ReproError, SerdeError
from repro.obs.log import get_logger
from repro.obs.trace import SpanCollector, collecting, span
from repro.server.base import (
    Conflict,
    HttpService,
    NotFound,
    ServiceConfig,
    ServiceHandle,
    diff_envelope,
    diff_job_ids,
    require_object,
    solve_target,
    start_in_thread,
)
from repro.server.cache import SolutionCache
from repro.server.http import Request, Response
from repro.server.jobs import (
    DONE,
    FAILED,
    AdmissionController,
    Job,
    JobStore,
)
from repro.server.metrics import ServerMetrics

log = get_logger("repro.server")


@dataclass(frozen=True, kw_only=True)
class ServerConfig(ServiceConfig):
    """Tunables of one :class:`ReproServer`, beyond the shared ones."""

    #: Admission limit: maximum queued+running solves before 429.
    queue_limit: int = 64
    #: Threads in the session's solve pool, which share one object-index
    #: cache (``None`` = the ``ThreadPoolExecutor`` default).
    workers: int | None = None
    #: Concurrent async jobs in flight (pump task count).
    pump_tasks: int = 8
    #: LRU bound of the solution cache (0 disables result caching).
    solution_cache_size: int = 256
    #: LRU bound of the shared ObjectIndex cache.
    index_cache_size: int = 32
    #: Finished-job records retained for polling.
    job_history: int = 1024

    def validate(self) -> None:
        # queue_limit / solution_cache_size / job_history are validated
        # by the components built from them.
        super().validate()
        if self.pump_tasks < 1:
            raise ValueError("pump_tasks must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for the default)")


class ReproServer(HttpService):
    """The serving facade; see the module docstring for the shape."""

    name = "repro-server"
    role = "server"
    logger = log
    config: ServerConfig
    _metrics: ServerMetrics

    def __init__(self, config: ServerConfig | None = None):
        super().__init__(config or ServerConfig(), ServerMetrics())
        self._problems: OrderedDict[str, Problem] = OrderedDict()
        self._session: AssignmentSession | None = None
        self._solutions = SolutionCache(self.config.solution_cache_size)
        self._admission = AdmissionController(self.config.queue_limit)
        self._jobs = JobStore(history_limit=self.config.job_history)
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._queue: asyncio.Queue[Job] | None = None
        self._pumps: list[asyncio.Task] = []

    # -- problem registry / session ------------------------------------

    def _ensure_session(self, problem: Problem) -> AssignmentSession:
        if self._session is None:
            self._session = AssignmentSession(
                problem,
                max_workers=self.config.workers,
                index_cache_size=self.config.index_cache_size,
            )
        return self._session

    def _register(self, problem: Problem) -> tuple[str, bool]:
        """``(problem_id, created)``.  A repeat registration keeps the
        problem registered first, with its memoized digests, plan and
        solve key, and only refreshes its LRU position; callers read
        the registered problem back from ``self._problems``."""
        problem_id = problem.digest()
        if problem_id in self._problems:
            self._problems.move_to_end(problem_id)
            return problem_id, False
        self._problems[problem_id] = problem
        while len(self._problems) > self.config.problem_registry_size:
            self._problems.popitem(last=False)
        self._ensure_session(problem)
        return problem_id, True

    def _lookup_problem(self, problem_id: str) -> Problem:
        problem = self._problems.get(problem_id)
        if problem is None:
            raise NotFound(f"unknown problem {problem_id!r}")
        self._problems.move_to_end(problem_id)
        return problem

    def _lookup_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"unknown job {job_id!r}")
        return job

    @staticmethod
    def _apply_overrides(problem: Problem, body: Mapping) -> Problem:
        method = body.get("method")
        options = body.get("options")
        if options is not None and not isinstance(options, Mapping):
            raise SerdeError("'options' must be a JSON object")
        if method is not None:
            if not isinstance(method, str):
                raise SerdeError("'method' must be a string")
            return problem.with_method(method, **dict(options or {}))
        if options:
            return problem.with_options(**dict(options))
        return problem

    def _resolve_target(self, body) -> tuple[str, Problem]:
        """``(problem_id, problem-with-overrides)`` from a request body
        holding either an inline ``problem`` payload of any version
        (registered as a side effect) or a ``problem_id`` reference."""
        body = solve_target(body)
        if "problem" in body:
            problem = Problem.from_dict(body["problem"], catalogues=self._catalogues)
            problem_id, _ = self._register(problem)
            problem = self._problems[problem_id]
        else:
            problem_id = body["problem_id"]
            problem = self._lookup_problem(problem_id)
        return problem_id, self._apply_overrides(problem, body)

    # -- the solve funnel ----------------------------------------------

    def _finalize_solve(
        self, problem: Problem, solution: Solution, cached: bool, elapsed: float
    ) -> Solution:
        """Attribute the served solution to *this* request's plan.

        The plan belongs to the request, not the cache entry: auto and
        explicit picks of one config share a solve key, so a cached
        solution may carry the plan of whichever request populated it.
        An auto request served from an explicit-populated entry must
        still report its (memoized, deterministic — same key, same
        decision) plan and count a planner pick; an explicit request
        replaying an auto-populated entry must carry neither.
        """
        plan = problem.plan()
        request_plan = plan if plan.auto else None
        if (solution.plan is None) != (request_plan is None):
            solution = dataclasses.replace(solution, plan=request_plan)
        # Latency histograms key on the *resolved* method, so auto-
        # routed traffic lands in the same histogram as explicit picks
        # of the same config; the planner section of /metrics counts
        # how it was routed.
        self._metrics.record_solve(
            solution.method, elapsed, solution, cached, plan=request_plan
        )
        return solution

    async def _solve(self, problem: Problem) -> tuple[Solution, bool, float]:
        """``(solution, served_from_cache, seconds)`` — cache lookup,
        single-flight coalescing, then the session's thread pool."""
        with span("solve.execute", method=problem.method) as solve_span:
            solution, hit, elapsed = await self._solve_inner(problem)
            solve_span.attributes["cache_hit"] = hit
            solve_span.attributes["resolved_method"] = solution.method
            return solution, hit, elapsed

    async def _solve_inner(self, problem: Problem) -> tuple[Solution, bool, float]:
        key = problem.solve_key()  # plans method="auto" (memoized)
        start = time.perf_counter()
        pending = self._inflight.get(key)
        if pending is not None:
            # Coalesce onto the in-flight solve (checked before the
            # cache so followers don't register spurious misses).
            # Shield: a client disconnect cancelling this awaiter must
            # not cancel the shared solve.
            with span("solve.coalesce"):
                solution = await asyncio.shield(pending)
            elapsed = time.perf_counter() - start
            return self._finalize_solve(problem, solution, True, elapsed), True, elapsed
        with span("cache.lookup") as cache_span:
            solution = self._solutions.get(key)
            cache_span.attributes["cache_hit"] = solution is not None
        if solution is not None:
            elapsed = time.perf_counter() - start
            return self._finalize_solve(problem, solution, True, elapsed), True, elapsed
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        self._inflight[key] = future
        try:
            session = self._ensure_session(problem)
            solution = await asyncio.wrap_future(session.submit(problem))
            self._solutions.put(key, solution)
            future.set_result(solution)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Consume the exception in case no follower is waiting,
                # silencing the "exception was never retrieved" log.
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        elapsed = time.perf_counter() - start
        return self._finalize_solve(problem, solution, False, elapsed), False, elapsed

    def _busy_response(self) -> Response:
        self._metrics.rejected_total += 1
        retry_after = self.config.retry_after_seconds
        return Response.json(
            {
                "error": "solve queue is saturated; retry later",
                "queue_depth": self._admission.depth,
                "queue_limit": self._admission.limit,
                "retry_after_seconds": retry_after,
            },
            status=429,
            **{"Retry-After": f"{retry_after:g}"},
        )

    def _solve_envelope(
        self, problem_id: str, problem: Problem, solution: Solution,
        cache_hit: bool, seconds: float,
    ) -> Response:
        envelope = {
            "problem_id": problem_id,
            "method": problem.method,
            "resolved_method": solution.method,
            "cache_hit": cache_hit,
            "wall_seconds": seconds,
            "solution": solution.to_dict(),
        }
        # ``_finalize_solve`` already normalized the plan to this
        # request (present iff the request asked for method="auto").
        if solution.plan is not None:
            envelope["plan"] = solution.plan.to_dict()
        return Response.json(envelope)

    # -- endpoint handlers ---------------------------------------------

    async def _health(self, request: Request) -> Response:
        # Load-bearing beyond liveness: the cluster gateway's probes
        # read queue_depth / jobs_inflight off this payload to make
        # load-aware decisions, so it stays cheap (no solves, no
        # backend round trips).  Keys change only with a major version.
        import repro

        return Response.json(
            {
                "status": "ok",
                "problems": len(self._problems),
                "version": repro.__version__,
                "uptime_seconds": time.time() - self._metrics.started,
                "queue_depth": self._admission.depth,
                "jobs_inflight": self._jobs.inflight(),
            }
        )

    async def _metrics_endpoint(self, request: Request) -> Response:
        index_info = (
            self._session.cache_info()
            if self._session is not None
            else {"hits": 0, "misses": 0, "entries": 0}
        )
        churn = (
            self._session.churn_info()
            if self._session is not None and self._session.has_churn_state
            else None
        )
        snapshot = self._metrics.snapshot(
            queue=self._admission.info(),
            solution_cache=self._solutions.info(),
            index_cache=index_info,
            churn=churn,
        )
        return self._metrics_response(request, snapshot)

    async def _register_endpoint(self, request: Request) -> Response:
        payload = request.json()
        if payload is None:
            raise SerdeError("problem registration needs a JSON body")
        with span("problem.register") as register_span:
            problem = Problem.from_dict(payload, catalogues=self._catalogues)
            problem_id, created = self._register(problem)
            register_span.attributes["created"] = created
        problem = self._problems[problem_id]
        if created:
            log.info(
                "problem registered",
                problem_id=problem_id,
                objects=len(problem.objects),
                functions=len(problem.functions),
            )
        return Response.json(
            {
                "problem_id": problem_id,
                "instance_digest": problem.instance_digest(),
                "created": created,
            },
            status=201 if created else 200,
        )

    async def _get_problem(self, request: Request, pid: str) -> Response:
        return Response.json(self._lookup_problem(pid).to_dict())

    def _resolve_registered(self, request: Request, pid: str) -> tuple[str, Problem]:
        problem = self._lookup_problem(pid)
        body = require_object(request.json(default={}))
        return pid, self._apply_overrides(problem, body)

    async def _solve_registered(self, request: Request, pid: str) -> Response:
        return await self._admitted_solve(
            lambda: self._resolve_registered(request, pid)
        )

    async def _solve_inline(self, request: Request) -> Response:
        return await self._admitted_solve(
            lambda: self._resolve_target(request.json(default={}))
        )

    async def _admitted_solve(
        self, resolve: Callable[[], tuple[str, Problem]]
    ) -> Response:
        # Admission runs before the body is even deserialized: shedding
        # load must stay O(1), not O(problem payload) on the loop.
        if not self._admission.try_acquire():
            return self._busy_response()
        try:
            problem_id, target = resolve()
            solution, hit, seconds = await self._solve(target)
        finally:
            self._admission.release()
        return self._solve_envelope(problem_id, target, solution, hit, seconds)

    async def _submit_job(self, request: Request) -> Response:
        if not self._admission.try_acquire():
            return self._busy_response()
        try:
            problem_id, target = self._resolve_target(request.json(default={}))
            job = self._jobs.create(problem_id, target)
        except BaseException:
            self._admission.release()
            raise
        self._metrics.jobs_submitted += 1
        assert self._queue is not None
        self._queue.put_nowait(job)
        return Response.json(
            {
                "job_id": job.job_id,
                "problem_id": problem_id,
                "method": target.method,
                "status": job.status,
                "queue_depth": self._admission.depth,
            },
            status=202,
        )

    async def _get_job(self, request: Request, jid: str) -> Response:
        job = self._lookup_job(jid)
        include = request.query.get("solution", "1") not in ("0", "false")
        return Response.json(job.to_dict(include_solution=include))

    async def _get_job_solution(self, request: Request, jid: str) -> Response:
        job = self._lookup_job(jid)
        if job.status == FAILED:
            raise Conflict(f"job {jid} failed: {job.error}")
        if job.status != DONE:
            raise Conflict(f"job {jid} is still {job.status}")
        assert job.solution is not None
        return Response.json(job.solution.to_dict())

    async def _diff_jobs(self, request: Request) -> Response:
        id_a, id_b = diff_job_ids(request)
        solutions = []
        for job_id in (id_a, id_b):
            job = self._lookup_job(job_id)
            if job.status != DONE:
                raise Conflict(f"job {job_id} is {job.status}, cannot diff")
            solutions.append(job.solution)
        diff = solutions[0].diff(solutions[1])
        return Response.json(diff_envelope(id_a, id_b, diff))

    # -- job pump ------------------------------------------------------

    async def _drain_jobs(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                job.mark_running()
                solution, hit, seconds = await self._run_job_traced(job)
                # One atomic publish: solution / wall_seconds /
                # finished_at land before status flips to "done", so a
                # concurrent poll never sees done-without-solution.
                job.complete(solution, hit, seconds)
                self._metrics.jobs_completed += 1
            except asyncio.CancelledError:
                job.fail("server shut down before the job completed")
                raise
            except Exception as exc:
                job.fail(f"{type(exc).__name__}: {exc}")
                self._metrics.jobs_failed += 1
                if not isinstance(exc, ReproError):
                    log.exception("job failed", job_id=job.job_id)
            finally:
                self._admission.release()
                self._queue.task_done()

    async def _run_job_traced(self, job: Job) -> tuple[Solution, bool, float]:
        """Async jobs solve outside any request's context, so each gets
        its own trace — ``repro-admin trace`` shows per-phase engine
        timings for pumped jobs exactly as for synchronous solves."""
        if not self.config.observability:
            return await self._solve(job.problem)
        collector = SpanCollector()
        try:
            with collecting(collector):
                with span("job.solve", job_id=job.job_id) as root:
                    return await self._solve(job.problem)
        finally:
            self._record_trace(root, collector.spans, "slow job", job_id=job.job_id)

    # -- lifecycle -----------------------------------------------------

    async def _open(self) -> None:
        self._queue = asyncio.Queue()
        self._pumps = [
            asyncio.create_task(self._drain_jobs(), name=f"repro-server-pump-{i}")
            for i in range(self.config.pump_tasks)
        ]

    async def start(self) -> None:
        await super().start()
        log.info(
            "server started",
            node=self._node,
            observability=self.config.observability,
        )

    async def _close(self) -> None:
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps = []
        if self._session is not None:
            await asyncio.to_thread(self._session.close)
            self._session = None


def serve_in_thread(config: ServerConfig | None = None) -> ServiceHandle:
    """Start a :class:`ReproServer` on a daemon thread; returns once
    the socket is bound (so :attr:`ServiceHandle.port` is valid).
    ``with serve_in_thread() as handle:`` stops it when the block
    exits."""
    return start_in_thread(ReproServer(config or ServerConfig(port=0)))


__all__ = [
    "ReproServer",
    "ServerConfig",
    "serve_in_thread",
]
