"""The :class:`AssignmentSession` facade: bit-identity against direct
``solve``, batching, futures, lifecycle, and churn against the
from-scratch oracle."""

import math
import random

import pytest

from repro.api import (
    AssignmentSession,
    FunctionArrived,
    FunctionDeparted,
    InvalidProblemError,
    ObjectArrived,
    ObjectDeparted,
    Problem,
    SessionClosedError,
)
from repro.core import solve
from repro.core.index import build_object_index
from repro.core.reference import greedy_assign
from repro.core.registry import REGISTRY
from repro.data.instances import FunctionSet, ObjectSet

from .conftest import random_instance, random_points, random_weights


@pytest.mark.parametrize("method", sorted(REGISTRY.names()))
def test_session_solve_bit_identical_to_direct_solve(method):
    fs, os_ = random_instance(6, 14, 3, seed=11, capacities=True)
    problem = Problem.from_sets(os_, fs, method=method)
    direct = solve(
        fs,
        build_object_index(os_, memory=(method == "sb-alt")),
        method=method,
    )
    with AssignmentSession(problem) as session:
        solution = session.solve()
    direct_pairs = [(p.fid, p.oid, p.score, p.count) for p in direct.matching.pairs]
    got_pairs = [(p.fid, p.oid, p.score, p.count) for p in solution.pairs]
    assert got_pairs == direct_pairs, method
    solution.verify()


def test_solver_options_flow_through_the_session():
    fs, os_ = random_instance(20, 12, 3, seed=4)
    problem = Problem.from_sets(
        os_, fs, method="sb", options={"paged_function_lists": 128},
        memory_index=True,
    )
    with AssignmentSession(problem) as session:
        solution = session.solve()
    assert "function_list_reads" in solution.stats.counters


def test_solve_many_shares_one_cached_index():
    fs, os_ = random_instance(8, 30, 2, seed=5)
    base = Problem.from_sets(os_, fs, method="sb")
    variants = [base, base.with_method("brute-force"), base.with_method("chain")]
    with AssignmentSession(base, max_workers=3) as session:
        solutions = session.solve_many(variants)
        info = session.cache_info()
    reference = solutions[0].as_dict()
    assert all(s.as_dict() == reference for s in solutions)
    assert info["misses"] == 1 and info["hits"] == 2


def test_submit_returns_future_solutions():
    fs, os_ = random_instance(5, 12, 2, seed=6)
    problem = Problem.from_sets(os_, fs)
    with AssignmentSession(problem) as session:
        futures = [session.submit() for _ in range(3)]
        expected = session.solve().as_dict()
        assert all(f.result().as_dict() == expected for f in futures)


def test_closed_session_raises_everywhere():
    fs, os_ = random_instance(3, 5, 2, seed=7)
    session = AssignmentSession(Problem.from_sets(os_, fs))
    session.close()
    for op in (
        session.solve,
        lambda: session.solve_many([]),
        session.submit,
        session.current,
        lambda: session.apply([]),
    ):
        with pytest.raises(SessionClosedError):
            op()
    session.close()  # idempotent


# ---------------------------------------------------------------------------
# Churn: session.apply against the from-scratch oracle
# ---------------------------------------------------------------------------


class OracleMirror:
    """Mirror of the session's churned population, by handle."""

    def __init__(self, problem: Problem):
        self.functions = {
            fid: (w, problem.function_set.gamma(fid),
                  problem.function_set.capacity(fid))
            for fid, w in enumerate(problem.functions)
        }
        self.objects = {
            oid: (p, problem.object_set.capacity(oid))
            for oid, p in enumerate(problem.objects)
        }

    def expected(self):
        fids = sorted(self.functions)
        oids = sorted(self.objects)
        if not fids or not oids:
            return {}
        fs = FunctionSet(
            [self.functions[f][0] for f in fids],
            gammas=[self.functions[f][1] for f in fids],
            capacities=[self.functions[f][2] for f in fids],
        )
        os_ = ObjectSet(
            [self.objects[o][0] for o in oids],
            capacities=[self.objects[o][1] for o in oids],
        )
        raw = greedy_assign(fs, os_).matching.as_dict()
        return {(fids[f], oids[o]): u for (f, o), u in raw.items()}


def test_apply_single_departure_matches_oracle_and_diff():
    fs, os_ = random_instance(4, 8, 2, seed=12)
    problem = Problem.from_sets(os_, fs)
    with AssignmentSession(problem) as session:
        before = session.current()
        mirror = OracleMirror(problem)
        victim = before.pairs[0].oid
        after = session.apply(ObjectDeparted(victim))
        del mirror.objects[victim]
        assert after.as_dict() == mirror.expected()
        assert session.last_diff is not None and session.last_diff
        assert any(o == victim for _, o, _ in session.last_diff.removed)
        session.verify_current()


def test_apply_churn_workload_matches_oracle(seed=29):
    rng = random.Random(seed)
    fs, os_ = random_instance(5, 9, 2, seed=seed, capacities=True)
    problem = Problem.from_sets(os_, fs)
    mirror = OracleMirror(problem)
    with AssignmentSession(problem) as session:
        assert session.current().as_dict() == mirror.expected()
        for step in range(30):
            kind = rng.choice(["+o", "-o", "+f", "-f"])
            if kind == "-o" and len(mirror.objects) <= 1:
                kind = "+o"
            if kind == "-f" and len(mirror.functions) <= 1:
                kind = "+f"
            if kind == "+o":
                point = random_points(1, 2, rng)[0]
                cap = rng.randint(1, 3)
                session.apply(ObjectArrived(point, capacity=cap))
                (handle,) = session.last_arrival_handles
                mirror.objects[handle] = (point, cap)
            elif kind == "-o":
                oid = rng.choice(sorted(mirror.objects))
                session.apply(ObjectDeparted(oid))
                del mirror.objects[oid]
            elif kind == "+f":
                weights = random_weights(1, 2, rng)[0]
                cap = rng.randint(1, 3)
                gamma = float(rng.randint(1, 4))
                session.apply(
                    FunctionArrived(weights, priority=gamma, capacity=cap)
                )
                (handle,) = session.last_arrival_handles
                mirror.functions[handle] = (weights, gamma, cap)
            else:
                fid = rng.choice(sorted(mirror.functions))
                session.apply(FunctionDeparted(fid))
                del mirror.functions[fid]
            assert session.current().as_dict() == mirror.expected(), step
            session.verify_current()


def test_apply_batched_events_and_arrival_handles():
    fs, os_ = random_instance(3, 6, 2, seed=13)
    problem = Problem.from_sets(os_, fs)
    mirror = OracleMirror(problem)
    with AssignmentSession(problem) as session:
        session.apply(
            [
                ObjectArrived((0.9, 0.9), capacity=2),
                FunctionArrived((0.5, 0.5), priority=2.0),
                ObjectDeparted(0),
            ]
        )
        o_handle, f_handle = session.last_arrival_handles
        mirror.objects[o_handle] = ((0.9, 0.9), 2)
        mirror.functions[f_handle] = ((0.5, 0.5), 2.0, 1)
        del mirror.objects[0]
        assert session.current().as_dict() == mirror.expected()


def test_apply_rejects_invalid_events_without_corrupting_state():
    fs, os_ = random_instance(3, 6, 2, seed=14)
    problem = Problem.from_sets(os_, fs)
    with AssignmentSession(problem) as session:
        baseline = session.current().as_dict()
        for bad in (
            ObjectArrived((0.5,)),  # wrong dims
            ObjectArrived((0.5, 0.5), capacity=0),
            ObjectDeparted(999),
            FunctionArrived((0.9, 0.5)),  # weights don't sum to 1
            FunctionArrived((0.5, 0.5), priority=0.0),
            FunctionDeparted(999),
            "not-an-event",
            ObjectArrived((math.nan, 0.5)),
            ObjectArrived((0.5, -math.inf)),
            ObjectArrived((0.5, 0.5), capacity=2.7),
            FunctionArrived((math.nan, 1.0)),  # passed the sum check
            FunctionArrived((math.inf, -math.inf)),
            FunctionArrived((0.5, 0.5), priority=math.nan),
            FunctionArrived((0.5, 0.5), priority=math.inf),
            FunctionArrived((0.5, 0.5), capacity=1.5),
        ):
            with pytest.raises(InvalidProblemError):
                session.apply(bad)
        assert session.current().as_dict() == baseline
        session.verify_current()


def test_apply_partial_batch_keeps_snapshot_consistent():
    """A rejected event mid-batch applies the prefix and resyncs."""
    fs, os_ = random_instance(3, 6, 2, seed=15)
    problem = Problem.from_sets(os_, fs)
    mirror = OracleMirror(problem)
    with AssignmentSession(problem) as session:
        with pytest.raises(InvalidProblemError):
            session.apply([ObjectDeparted(0), ObjectDeparted(999)])
        del mirror.objects[0]
        assert session.current().as_dict() == mirror.expected()
        assert session.last_diff is not None


def test_static_solve_is_independent_of_churn():
    fs, os_ = random_instance(4, 7, 2, seed=16)
    problem = Problem.from_sets(os_, fs)
    with AssignmentSession(problem) as session:
        static_before = session.solve().as_dict()
        session.apply(ObjectDeparted(0))
        assert session.solve().as_dict() == static_before


def test_futures_submitted_before_close_still_resolve():
    """close() drains the pool: pending futures resolve, new work is
    rejected while draining."""
    fs, os_ = random_instance(5, 12, 2, seed=17)
    with AssignmentSession(Problem.from_sets(os_, fs), max_workers=1) as session:
        futures = [session.submit() for _ in range(6)]
    results = [f.result() for f in futures]
    assert all(r.as_dict() == results[0].as_dict() for r in results)
    assert session.closed
