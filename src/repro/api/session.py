"""The long-lived :class:`AssignmentSession` — solve, batch, churn.

A session binds one base :class:`~repro.api.problem.Problem` to the
service machinery: the instance-hash
:class:`~repro.service.batch.ObjectIndexCache` (so the catalogue's
R-tree and columnar state are built at most once, on first use, and
shared across every solve), a
:class:`~repro.service.batch.BatchSolver` thread pool for
:meth:`solve_many`, a persistent thread pool for :meth:`submit`
futures, and a :class:`~repro.core.dynamic.DynamicStableMatching` behind
:meth:`apply` for incremental re-solve under object/function arrival
and departure.  Sessions are context managers; a closed session raises
:class:`~repro.errors.SessionClosedError`.
"""

from __future__ import annotations

import contextvars
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor

from repro.api.events import (
    Event,
    FunctionArrived,
    FunctionDeparted,
    ObjectArrived,
    ObjectDeparted,
)
from repro.api.problem import Problem, validated_functions, validated_objects
from repro.api.solution import Solution, SolutionDiff
from repro.core.dynamic import CHURN_BACKENDS, DynamicStableMatching
from repro.core.registry import AUTO_METHOD as _AUTO
from repro.core.registry import Plan
from repro.core.types import RunStats
from repro.core.validate import assert_stable
from repro.data.instances import FunctionSet, ObjectSet
from repro.errors import InvalidProblemError, SessionClosedError, UnknownSolverError
from repro.obs.trace import span
from repro.service.batch import BatchSolver, SolveJob

_DYNAMIC_METHOD = "dynamic"


def _check_dims(row: tuple[float, ...], dims: int, what: str) -> None:
    if len(row) != dims:
        raise InvalidProblemError(
            f"expected {dims}-dimensional {what}, got {len(row)}"
        )


class AssignmentSession:
    """One catalogue, many queries: the stateful service facade.

    ``solve()`` / ``solve_many()`` / ``submit()`` run static problems
    through the shared index cache; ``apply(events)`` maintains the
    matching incrementally under churn (starting from the base
    problem's population).  The two views are independent: ``solve``
    always answers for the immutable base problem, ``current()`` for
    the churned population.

    ``max_workers`` sizes the solve thread pools, which share one
    index cache (``None`` = the ``ThreadPoolExecutor`` default).

    ``churn_backend`` selects the suffix-rematch engine behind
    ``apply``: ``"interp"`` (the interpreted reference), ``"vec"``
    (columnar kernels), or ``"auto"`` (default), which runs ``"vec"``.
    Both backends maintain byte-identical matchings; cumulative cost
    counters are exposed by :meth:`churn_info` and on each snapshot's
    ``stats``.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        max_workers: int | None = None,
        index_cache_size: int = 32,
        churn_backend: str = _AUTO,
    ):
        if churn_backend != _AUTO and churn_backend not in CHURN_BACKENDS:
            raise UnknownSolverError(
                churn_backend, (_AUTO, *CHURN_BACKENDS), kind="churn backend"
            )
        self._problem = problem
        self._churn_backend = churn_backend
        self._batch = BatchSolver(
            max_workers=max_workers,
            index_cache_size=index_cache_size,
        )
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        self._closing = False
        # Dynamic (churn) state, seeded lazily from the base problem.
        self._dynamic: DynamicStableMatching | None = None
        self._dyn_functions: dict[int, tuple[tuple[float, ...], float, int]] = {}
        self._dyn_objects: dict[int, tuple[tuple[float, ...], int]] = {}
        self._dyn_solution: Solution | None = None
        #: Handles assigned to the arrival events of the last
        #: :meth:`apply` call, in event order.
        self.last_arrival_handles: tuple[int, ...] = ()
        #: Diff produced by the last :meth:`apply` call.
        self.last_diff: SolutionDiff | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain pending futures, release the pool; further operations
        raise.  Futures obtained from :meth:`submit` before ``close``
        still resolve — only *new* work is rejected while draining."""
        if self._closed or self._closing:
            return
        self._closing = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    def __enter__(self) -> "AssignmentSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("this AssignmentSession has been closed")

    # -- static solving ------------------------------------------------

    def _job_for(self, problem: Problem) -> SolveJob:
        return SolveJob(
            functions=problem.function_set,
            objects=problem.object_set,
            method=problem.method,
            page_size=problem.page_size,
            memory_index=problem.memory_index,
            buffer_fraction=problem.buffer_fraction,
            solve_kwargs=dict(problem.options),
        )

    def solve(self, problem: Problem | None = None) -> Solution:
        """Solve the base problem (or an override) synchronously.

        The returned :attr:`Solution.method` is the *resolved* method
        that ran — ``sb-vec`` for ``method="auto"`` problems, with the
        :class:`~repro.core.registry.Plan` attached as :attr:`Solution.plan`.
        """
        self._check_open()
        target = problem if problem is not None else self._problem
        with span("session.solve", method=target.method):
            job_result = self._batch.solve_one(self._job_for(target))
        return Solution.from_result(
            job_result.result,
            method=job_result.method,
            problem=target,
            plan=job_result.plan,
        )

    def solve_many(self, problems: Iterable[Problem]) -> list[Solution]:
        """Solve several problems on the worker pool (order preserved).

        Problems sharing this session's catalogue (e.g. derived via
        :meth:`Problem.with_method` / :meth:`Problem.with_functions`)
        share one cached object index.
        """
        self._check_open()
        targets = list(problems)
        results = self._batch.solve_many([self._job_for(p) for p in targets])
        return [
            Solution.from_result(r.result, method=r.method, problem=p, plan=r.plan)
            for p, r in zip(targets, results)
        ]

    def explain(self, problem: Problem | None = None) -> Plan:
        """The planner's :class:`~repro.core.registry.Plan` for a problem
        (see :meth:`Problem.plan <repro.api.problem.Problem.plan>`)."""
        self._check_open()
        target = problem if problem is not None else self._problem
        return target.plan()

    def submit(self, problem: Problem | None = None) -> Future:
        """Enqueue a solve; returns a ``Future[Solution]``."""
        self._check_open()
        if self._closing:
            raise SessionClosedError("this AssignmentSession is draining")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="repro-session",
            )
        # Pool threads don't inherit contextvars; carry the caller's
        # trace context (and span collector) across the submit so the
        # solve's spans land in the submitting request's trace.
        context = contextvars.copy_context()
        return self._pool.submit(context.run, self.solve, problem)

    def cache_info(self) -> dict[str, int]:
        return self._batch.cache_info()

    # -- dynamic (churn) solving ---------------------------------------

    def _ensure_dynamic(self) -> DynamicStableMatching:
        if self._dynamic is None:
            problem = self._problem
            backend = self._churn_backend
            self._dynamic = DynamicStableMatching.from_instance(
                problem.function_set,
                problem.object_set,
                backend="vec" if backend == _AUTO else backend,
            )
            for fid, w in enumerate(problem.functions):
                self._dyn_functions[fid] = (
                    w,
                    problem.function_set.gamma(fid),
                    problem.function_set.capacity(fid),
                )
            for oid, p in enumerate(problem.objects):
                self._dyn_objects[oid] = (p, problem.object_set.capacity(oid))
            self._dyn_solution = self._snapshot_dynamic()
        return self._dynamic

    def _snapshot_dynamic(self) -> Solution:
        assert self._dynamic is not None
        info = self._dynamic.churn_info()
        stats = RunStats(
            counters={k: v for k, v in info.items() if isinstance(v, int)}
        )
        return Solution(
            pairs=tuple(self._dynamic.matching.pairs),
            method=_DYNAMIC_METHOD,
            stats=stats,
        )

    def current(self) -> Solution:
        """The matching over the current (possibly churned) population."""
        self._check_open()
        self._ensure_dynamic()
        assert self._dyn_solution is not None
        return self._dyn_solution

    @property
    def has_churn_state(self) -> bool:
        """Whether :meth:`apply`/:meth:`current` has seeded the
        dynamic matching (cheap — never seeds it)."""
        return self._dynamic is not None

    def churn_info(self) -> dict[str, int | str]:
        """Cumulative churn counters (see
        :meth:`~repro.core.dynamic.DynamicStableMatching.churn_info`),
        plus what backend was requested and which one runs."""
        self._check_open()
        dyn = self._ensure_dynamic()
        info = dyn.churn_info()
        info["requested_backend"] = self._churn_backend
        return info

    def apply(self, events: Event | Iterable[Event]) -> Solution:
        """Apply churn events and incrementally repair the matching.

        Accepts one event or an iterable; returns the new
        :class:`Solution`.  Handles assigned to arrivals are exposed as
        :attr:`last_arrival_handles`, the unit-level delta as
        :attr:`last_diff`.
        """
        self._check_open()
        dyn = self._ensure_dynamic()
        if isinstance(
            events,
            (ObjectArrived, ObjectDeparted, FunctionArrived, FunctionDeparted),
        ):
            events = [events]
        dims = self._problem.dims
        previous = self._dyn_solution
        arrivals: list[int] = []
        try:
            with span("session.apply", backend=dyn.backend):
                self._apply_events(dyn, events, dims, arrivals)
        finally:
            # Always resync the snapshot: a rejected event mid-batch
            # must not leave the cached solution stale relative to the
            # already-applied prefix.
            self._dyn_solution = self._snapshot_dynamic()
            self.last_arrival_handles = tuple(arrivals)
            self.last_diff = self._dyn_solution.diff(previous)
        return self._dyn_solution

    def _apply_events(
        self,
        dyn: DynamicStableMatching,
        events: Iterable[Event],
        dims: int,
        arrivals: list[int],
    ) -> None:
        # Arrivals pass the same validation as a Problem's catalogue
        # and cohort: a one-row container is built and read back.
        for event in events:
            if isinstance(event, ObjectArrived):
                arrived = validated_objects([event.point], [event.capacity])
                point, capacity = arrived.points[0], arrived.capacity(0)
                _check_dims(point, dims, "point")
                oid = dyn.add_object(point, capacity=capacity)
                self._dyn_objects[oid] = (point, capacity)
                arrivals.append(oid)
            elif isinstance(event, ObjectDeparted):
                if event.oid not in self._dyn_objects:
                    raise InvalidProblemError(f"unknown object {event.oid}")
                dyn.remove_object(event.oid)
                del self._dyn_objects[event.oid]
            elif isinstance(event, FunctionArrived):
                cohort = validated_functions(
                    [event.weights], [event.priority], [event.capacity]
                )
                weights = cohort.weights[0]
                _check_dims(weights, dims, "weights")
                priority, capacity = cohort.gamma(0), cohort.capacity(0)
                fid = dyn.add_function(cohort.effective_weights(0), capacity=capacity)
                self._dyn_functions[fid] = (weights, priority, capacity)
                arrivals.append(fid)
            elif isinstance(event, FunctionDeparted):
                if event.fid not in self._dyn_functions:
                    raise InvalidProblemError(f"unknown function {event.fid}")
                dyn.remove_function(event.fid)
                del self._dyn_functions[event.fid]
            else:
                raise InvalidProblemError(f"unknown event type {type(event).__name__}")

    def verify_current(self) -> Solution:
        """Certify stability of the churned matching; returns it.

        Rebuilds dense instance containers from the surviving
        population (handles are remapped positionally) and runs the
        textbook blocking-pair check.
        """
        self._check_open()
        solution = self.current()
        fids = sorted(self._dyn_functions)
        oids = sorted(self._dyn_objects)
        if not fids or not oids:
            return solution
        functions = FunctionSet(
            [self._dyn_functions[f][0] for f in fids],
            gammas=(
                [self._dyn_functions[f][1] for f in fids]
                if any(self._dyn_functions[f][1] != 1.0 for f in fids)
                else None
            ),
            capacities=[self._dyn_functions[f][2] for f in fids],
        )
        objects = ObjectSet(
            [self._dyn_objects[o][0] for o in oids],
            capacities=[self._dyn_objects[o][1] for o in oids],
        )
        f_remap = {f: i for i, f in enumerate(fids)}
        o_remap = {o: i for i, o in enumerate(oids)}
        dense = Solution(
            pairs=tuple(
                type(p)(f_remap[p.fid], o_remap[p.oid], p.score, p.count)
                for p in solution.pairs
            ),
            method=_DYNAMIC_METHOD,
        )
        assert_stable(dense.matching, functions, objects)
        return solution


__all__ = ["AssignmentSession"]
