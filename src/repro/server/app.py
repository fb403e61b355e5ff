"""The asyncio serving layer: router + queue + caches wired together.

One event loop accepts JSON-over-HTTP requests; every solve funnels
through a single :class:`~repro.api.session.AssignmentSession`, so the
R-tree :class:`ObjectIndexCache` inside its :class:`BatchSolver` is
shared across *all* network clients — sixteen concurrent cohorts over
one catalogue build its index exactly once.  Around that sit three
serving concerns the library layers don't have:

- **admission control** — a bounded live-work counter turns overload
  into fast HTTP 429 + ``Retry-After`` instead of unbounded buffering;
- **result caching** — a deterministic engine means an LRU over
  :meth:`Problem.solve_key` serves repeat queries without a solve;
- **single-flight coalescing** — concurrent identical requests await
  one in-flight solve rather than racing N copies of it.

Handlers run on the loop; the actual solving happens on the session's
thread pool and is awaited via ``asyncio.wrap_future``.  The server
can be embedded (:func:`running_server` hosts it on a background
thread for tests/examples) or run standalone via ``python -m
repro.server``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import logging
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.api.problem import Problem
from repro.api.session import AssignmentSession
from repro.api.solution import Solution
from repro.planner import AUTO_METHOD
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    ReproError,
    SerdeError,
    UnknownSolverError,
)
from repro.obs.log import LogRing, RingHandler, get_logger
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    wants_prometheus,
)
from repro.obs.store import TraceStore
from repro.obs.trace import (
    TRACE_HEADER,
    SpanCollector,
    TraceContext,
    collecting,
    span,
)
from repro.server.cache import SolutionCache
from repro.server.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    read_request,
)
from repro.server.jobs import (
    DONE,
    FAILED,
    AdmissionController,
    Job,
    JobStore,
)
from repro.server.metrics import ServerMetrics
from repro.server.router import Router
from repro.service.pool import check_executor

log = get_logger("repro.server")

#: Paths outside the trace pipeline: probe/scrape traffic would churn
#: the trace store, and the observability endpoints must not trace
#: themselves.
_UNTRACED_PREFIXES = ("/healthz", "/metrics", "/v1/traces", "/v1/logs")

#: Read-only paths whose GETs skip tracing: async-job status polls
#: arrive tens of times per solve, so tracing them would both dominate
#: the per-request overhead and evict the solve traces an operator
#: actually wants from the recent store.  The job's own ``job.solve``
#: trace (recorded by the pump) is the inspectable artifact.
_UNTRACED_GET_PREFIXES = ("/v1/jobs",)


def _is_traced(method: str, path: str) -> bool:
    if path.startswith(_UNTRACED_PREFIXES):
        return False
    return not (method == "GET" and path.startswith(_UNTRACED_GET_PREFIXES))

_BAD_REQUEST_ERRORS = (
    SerdeError,
    InvalidProblemError,
    UnknownSolverError,
    InvalidSolverOptionError,
)


class _NotFound(Exception):
    """Internal: a referenced problem/job id does not exist (→ 404)."""


class _Conflict(Exception):
    """Internal: the resource exists but is not in a usable state (→ 409)."""


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`ReproServer`."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`ReproServer.port` once started).
    port: int = 8000
    #: Admission limit: maximum queued+running solves before 429.
    queue_limit: int = 64
    #: Solve backend: ``"thread"`` (one shared object-index cache, one
    #: R-tree build per catalogue, GIL-bound) or ``"process"`` (a
    #: worker-process pool where each worker owns a private index
    #: replica — same-catalogue solves run truly in parallel with
    #: bit-identical results; see :mod:`repro.service.pool`).
    executor: str = "thread"
    #: Workers in the session's solve pool: threads for the thread
    #: executor, worker processes for the process executor (``None`` =
    #: executor default — CPU count for processes).
    workers: int | None = None
    #: Concurrent async jobs in flight (pump task count).
    pump_tasks: int = 8
    #: LRU bound of the solution cache (0 disables result caching).
    solution_cache_size: int = 256
    #: LRU bound of the shared ObjectIndex cache.
    index_cache_size: int = 32
    #: ``Retry-After`` hint attached to 429 responses, in seconds.
    retry_after_seconds: float = 1.0
    #: Per-request read deadline; a peer that stalls mid-request (or a
    #: half-open connection) is dropped instead of pinning the task
    #: forever.  ``None`` disables the deadline.
    read_timeout_seconds: float | None = 30.0
    max_body_bytes: int = MAX_BODY_BYTES
    #: Finished-job records retained for polling.
    job_history: int = 1024
    #: LRU bound on registered problems (each retains its full
    #: catalogue + cohort); an evicted id 404s and the client simply
    #: re-registers — registration is idempotent by content digest.
    problem_registry_size: int = 4096
    #: Master switch for request tracing + trace retention (structured
    #: logging and the log ring stay on; they replace plain logging).
    observability: bool = True
    #: Requests at or over this wall time are pinned in the slow-trace
    #: store (the slow-solve log) with their planner transcript.
    slow_trace_threshold_seconds: float = 0.25
    #: LRU bound of the recent-trace store.
    trace_store_size: int = 256
    #: LRU bound of the pinned slow-trace store.
    slow_trace_store_size: int = 64
    #: Bounded in-process log ring served at ``GET /v1/logs``.
    log_ring_size: int = 512


class ReproServer:
    """The serving facade; see the module docstring for the shape."""

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self._validate_config(self.config)
        self.port: int | None = None
        self._problems: OrderedDict[str, Problem] = OrderedDict()
        self._session: AssignmentSession | None = None
        self._solutions = SolutionCache(self.config.solution_cache_size)
        self._metrics = ServerMetrics()
        self._admission = AdmissionController(self.config.queue_limit)
        self._jobs = JobStore(history_limit=self.config.job_history)
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._queue: asyncio.Queue[Job] | None = None
        self._pumps: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._tcp: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._traces = TraceStore(
            recent_size=self.config.trace_store_size,
            slow_size=self.config.slow_trace_store_size,
            slow_threshold_seconds=self.config.slow_trace_threshold_seconds,
        )
        self._log_ring = LogRing(self.config.log_ring_size)
        self._ring_handler: RingHandler | None = None
        self._node: str | None = None
        self._router = self._build_router()

    @staticmethod
    def _validate_config(config: ServerConfig) -> None:
        # queue_limit / solution_cache_size / job_history are validated
        # by the components built from them; check the rest here so a
        # bad flag fails at startup, not as a wedged queue later.
        check_executor(config.executor)
        if config.problem_registry_size < 1:
            raise ValueError("problem_registry_size must be >= 1")
        if config.pump_tasks < 1:
            raise ValueError("pump_tasks must be >= 1")
        if config.workers is not None and config.workers < 1:
            raise ValueError("workers must be >= 1 (or None for the default)")
        if config.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be >= 0")
        if (
            config.read_timeout_seconds is not None
            and config.read_timeout_seconds <= 0
        ):
            raise ValueError("read_timeout_seconds must be > 0 (or None)")
        if config.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if config.slow_trace_threshold_seconds < 0:
            raise ValueError("slow_trace_threshold_seconds must be >= 0")
        if config.trace_store_size < 1 or config.slow_trace_store_size < 1:
            raise ValueError("trace store sizes must be >= 1")
        if config.log_ring_size < 1:
            raise ValueError("log_ring_size must be >= 1")

    # -- routing -------------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._health)
        router.add("GET", "/metrics", self._metrics_endpoint)
        router.add("POST", "/v1/problems", self._register_endpoint)
        router.add("GET", "/v1/problems/{pid}", self._get_problem)
        router.add("POST", "/v1/problems/{pid}/solve", self._solve_registered)
        router.add("POST", "/v1/solve", self._solve_inline)
        router.add("POST", "/v1/jobs", self._submit_job)
        router.add("GET", "/v1/jobs/{jid}", self._get_job)
        router.add("GET", "/v1/jobs/{jid}/solution", self._get_job_solution)
        router.add("GET", "/v1/diff", self._diff_jobs)
        router.add("GET", "/v1/traces", self._list_traces)
        router.add("GET", "/v1/traces/{tid}", self._get_trace)
        router.add("GET", "/v1/logs", self._get_logs)
        return router

    # -- problem registry / session ------------------------------------

    def _ensure_session(self, problem: Problem) -> AssignmentSession:
        if self._session is None:
            self._session = AssignmentSession(
                problem,
                max_workers=self.config.workers,
                index_cache_size=self.config.index_cache_size,
                executor=self.config.executor,
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
            raise _NotFound(f"unknown problem {problem_id!r}")
        self._problems.move_to_end(problem_id)
        return problem

    def _lookup_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise _NotFound(f"unknown job {job_id!r}")
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
        holding either an inline ``problem`` payload (registered as a
        side effect) or a ``problem_id`` reference."""
        if not isinstance(body, Mapping):
            raise SerdeError("request body must be a JSON object")
        if ("problem" in body) == ("problem_id" in body):
            raise SerdeError(
                "request body needs exactly one of 'problem' or 'problem_id'"
            )
        if "problem" in body:
            problem_id, _ = self._register(Problem.from_dict(body["problem"]))
            problem = self._problems[problem_id]
        else:
            problem_id = body["problem_id"]
            if not isinstance(problem_id, str):
                raise SerdeError("'problem_id' must be a string")
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
        request_plan = (
            problem.plan() if problem.method == AUTO_METHOD else None
        )
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
            if solution.plan is not None:
                # Slow traces pin this record, so the planner transcript
                # stays inspectable; the store lifts it off the span
                # into the record.
                solve_span.attributes["plan_explain"] = solution.explain()
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
        # backend round trips).  Existing keys are stable for compat.
        import repro

        return Response.json(
            {
                "status": "ok",
                "problems": len(self._problems),
                "executor": self.config.executor,
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
        snapshot["traces"] = self._traces.info()
        snapshot["log_ring"] = self._log_ring.info()
        if wants_prometheus(request):
            return Response(
                body=render_prometheus(snapshot).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        return Response.json(snapshot)

    async def _register_endpoint(self, request: Request) -> Response:
        payload = request.json()
        if payload is None:
            raise SerdeError("problem registration needs a JSON body")
        with span("problem.register") as register_span:
            problem_id, created = self._register(Problem.from_dict(payload))
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
        body = request.json(default={})
        if not isinstance(body, Mapping):
            raise SerdeError("request body must be a JSON object")
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
            raise _Conflict(f"job {jid} failed: {job.error}")
        if job.status != DONE:
            raise _Conflict(f"job {jid} is still {job.status}")
        assert job.solution is not None
        return Response.json(job.solution.to_dict())

    async def _diff_jobs(self, request: Request) -> Response:
        try:
            id_a, id_b = request.query["a"], request.query["b"]
        except KeyError:
            raise SerdeError(
                "diff needs 'a' and 'b' query parameters (job ids)"
            ) from None
        solutions = []
        for job_id in (id_a, id_b):
            job = self._lookup_job(job_id)
            if job.status != DONE:
                raise _Conflict(f"job {job_id} is {job.status}, cannot diff")
            solutions.append(job.solution)
        diff = solutions[0].diff(solutions[1])
        return Response.json(
            {
                "a": id_a,
                "b": id_b,
                "identical": not diff,
                "units_changed": diff.units_changed,
                "added": [list(t) for t in diff.added],
                "removed": [list(t) for t in diff.removed],
            }
        )

    # -- observability endpoints ---------------------------------------

    async def _list_traces(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        return Response.json(
            {"traces": self._traces.recent(limit), "info": self._traces.info()}
        )

    async def _get_trace(self, request: Request, tid: str) -> Response:
        record = self._traces.get(tid)
        if record is None:
            raise _NotFound(f"unknown trace {tid!r}")
        return Response.json(record)

    async def _get_logs(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "100"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        level = request.query.get("level")
        return Response.json(
            {
                "entries": self._log_ring.tail(limit, level),
                "ring": self._log_ring.info(),
            }
        )

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
            spans = collector.spans
            extra = {}
            for s in spans:
                explain = s.attributes.pop("plan_explain", None)
                if explain is not None:
                    extra["plan_explain"] = explain
            record = self._traces.record(
                root, spans, node=self._node, extra=extra or None
            )
            if record["slow"]:
                log.warning(
                    "slow job",
                    job_id=job.job_id,
                    trace_id=root.trace_id,
                    duration_ms=round(record["duration_seconds"] * 1000, 2),
                )

    # -- connection handling -------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        if not self.config.observability or not _is_traced(
            request.method, request.path
        ):
            return await self._dispatch_inner(request)
        parent = TraceContext.parse(request.headers.get("x-repro-trace"))
        collector = SpanCollector()
        with collecting(collector, parent=parent):
            with span(
                "server.request", method=request.method, path=request.path
            ) as root:
                response = await self._dispatch_inner(request)
                root.attributes["status"] = response.status
                if response.status >= 500:
                    root.status = "error"
                    root.error = f"HTTP {response.status}"
        response = self._stamp_trace(response, root.trace_id, root.span_id)
        spans = collector.spans
        extra = {}
        for s in spans:
            explain = s.attributes.pop("plan_explain", None)
            if explain is not None:
                extra["plan_explain"] = explain
        record = self._traces.record(root, spans, node=self._node, extra=extra or None)
        if record["slow"]:
            log.warning(
                "slow request",
                method=request.method,
                path=request.path,
                trace_id=root.trace_id,
                duration_ms=round(record["duration_seconds"] * 1000, 2),
            )
        return response

    @staticmethod
    def _stamp_trace(response: Response, trace_id: str, span_id: str) -> Response:
        """Echo the trace on the response: the header on every reply,
        and ``trace_id`` inside JSON error envelopes so a failure
        report carries its trace handle even through clients that drop
        headers."""
        response.headers[TRACE_HEADER] = f"{trace_id}:{span_id}"
        if response.status >= 400 and response.content_type == "application/json":
            try:
                payload = json.loads(response.body)
            except ValueError:
                return response
            if isinstance(payload, dict) and "trace_id" not in payload:
                payload["trace_id"] = trace_id
                response.body = (
                    json.dumps(payload, sort_keys=True) + "\n"
                ).encode("utf-8")
        return response

    async def _dispatch_inner(self, request: Request) -> Response:
        routed = self._router.dispatch(request)
        if isinstance(routed, Response):
            response = routed
        else:
            handler, params = routed
            try:
                response = await handler(request, **params)
            except _BAD_REQUEST_ERRORS as exc:
                response = Response.error(400, str(exc), type=type(exc).__name__)
            except _NotFound as exc:
                response = Response.error(404, str(exc))
            except _Conflict as exc:
                response = Response.error(409, str(exc))
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception(
                    "unhandled request error",
                    method=request.method,
                    path=request.path,
                )
                response = Response.error(500, "internal server error")
        self._metrics.record_response(response.status)
        return response

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(
                            reader, max_body_bytes=self.config.max_body_bytes
                        ),
                        timeout=self.config.read_timeout_seconds,
                    )
                except TimeoutError:
                    break  # stalled or idle peer: drop the connection
                except ProtocolError as exc:
                    response = Response.error(exc.status, str(exc))
                    self._metrics.record_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        # lint: except-ok(client hung up or idled out; nothing to answer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the pump tasks (call on the loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._queue = asyncio.Queue()
        self._pumps = [
            self._loop.create_task(
                self._drain_jobs(), name=f"repro-server-pump-{i}"
            )
            for i in range(self.config.pump_tasks)
        ]
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        # Node identity (host:bound-port) is per-server, not
        # per-process: embedded servers and gateways can share one
        # process, so the ring handler and trace store stamp records
        # with their owner's identity at record time.
        self._node = f"{self.config.host}:{self.port}"
        self._ring_handler = RingHandler(self._log_ring, node=self._node)
        repro_logger = logging.getLogger("repro")
        repro_logger.addHandler(self._ring_handler)
        # Embedded servers run without configure_logging(); the ring
        # still captures INFO-level operational events (the last-resort
        # console handler stays WARNING+, so stdout is unchanged).
        if repro_logger.getEffectiveLevel() > logging.INFO:
            repro_logger.setLevel(logging.INFO)
        log.info(
            "server started",
            node=self._node,
            executor=self.config.executor,
            observability=self.config.observability,
        )

    async def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps = []
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._session is not None:
            await asyncio.to_thread(self._session.close)
            self._session = None
        if self._ring_handler is not None:
            logging.getLogger("repro").removeHandler(self._ring_handler)
            self._ring_handler = None

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (used by :class:`ServerHandle`)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def _serve_until_stopped(
        self, on_started: Callable[["ReproServer"], None] | None = None
    ) -> None:
        await self.start()
        if on_started is not None:
            on_started(self)
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def serve_forever(
        self, on_started: Callable[["ReproServer"], None] | None = None
    ) -> None:
        """Run the server on a fresh event loop until stopped."""
        asyncio.run(self._serve_until_stopped(on_started=on_started))


class ServerHandle:
    """A server hosted on a background thread, for tests and examples."""

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def base_url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def close(self, timeout: float = 15.0) -> None:
        self.server.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("repro-server thread did not stop in time")


def serve_in_thread(config: ServerConfig | None = None) -> ServerHandle:
    """Start a :class:`ReproServer` on a daemon thread; returns once
    the socket is bound (so :attr:`ServerHandle.port` is valid)."""
    server = ReproServer(config or ServerConfig(port=0))
    started = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        try:
            server.serve_forever(on_started=lambda _s: started.set())
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
            started.set()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    if not started.wait(timeout=15.0):
        raise RuntimeError("repro-server did not start within 15s")
    if failures:
        raise RuntimeError("repro-server failed to start") from failures[0]
    return ServerHandle(server, thread)


@contextlib.contextmanager
def running_server(config: ServerConfig | None = None):
    """``with running_server() as handle:`` — thread-hosted server."""
    handle = serve_in_thread(config)
    try:
        yield handle
    finally:
        handle.close()


__all__ = [
    "ReproServer",
    "ServerConfig",
    "ServerHandle",
    "running_server",
    "serve_in_thread",
]
