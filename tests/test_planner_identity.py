"""The planner's bit-identical guarantee: ``method="auto"`` produces
*exactly* what directly invoking the config it resolves to (``sb-vec``)
produces — pairs bit for bit plus the measured-work counters (I/O,
loops, peak memory, solver counters) — on the session's pool, on the
caller's thread and at embedded-server level.  The gateway level is
covered in ``test_cluster.py``.
"""

import pytest

from repro.api import AssignmentSession, Problem
from repro.core.registry import AUTO_PLAN

from .conftest import random_instance

#: Every config ``method="auto"`` can emit.
EMITTED = (AUTO_PLAN.method,)


def make_problem(method="auto", nf=7, no=30, dims=3, seed=11, **kwargs):
    functions, objects = random_instance(nf, no, dims, seed=seed, **kwargs)
    return Problem.from_sets(objects, functions, method=method)


def solution_signature(solution):
    """Everything that must not differ between auto and direct runs."""
    stats = solution.stats
    return (
        [(p.fid, p.oid, p.score, p.count) for p in solution.pairs],
        stats.io.physical_reads,
        stats.io.logical_reads,
        stats.io.physical_writes,
        stats.loops,
        stats.peak_memory_bytes,
        dict(stats.counters),
    )


# ---------------------------------------------------------------------------
# The session's pool
# ---------------------------------------------------------------------------


def test_auto_matches_natural_pick_on_thread_batch():
    problem = make_problem()
    with AssignmentSession(problem) as session:
        (auto_solution,) = session.solve_many([problem])
        assert auto_solution.plan is not None
        chosen = auto_solution.plan.method
        assert auto_solution.method == chosen != "auto"
        (direct,) = session.solve_many([problem.with_method(chosen)])
    assert direct.plan is None
    assert solution_signature(auto_solution) == solution_signature(direct)


@pytest.mark.parametrize("method", EMITTED)
def test_auto_matches_every_forced_pick_on_thread_batch(method):
    problem = make_problem(seed=23, capacities=True, priorities=True)
    with AssignmentSession(problem) as session:
        (auto_solution,) = session.solve_many([problem])
        assert auto_solution.method == method
        assert auto_solution.plan.method == method
        (direct,) = session.solve_many([problem.with_method(method)])
    assert solution_signature(auto_solution) == solution_signature(direct)


# ---------------------------------------------------------------------------
# The caller's thread, and auto beside direct in one batch
# ---------------------------------------------------------------------------

def test_auto_matches_direct_at_session_level():
    problem = make_problem(seed=37)
    with AssignmentSession(problem, max_workers=2) as session:
        auto_solution = session.solve()
        assert auto_solution.plan is not None
        chosen = auto_solution.method
        assert chosen in EMITTED
        direct_solution = session.solve(problem.with_method(chosen))
        assert direct_solution.plan is None  # explicit pick: no planning
        assert solution_signature(auto_solution) == (
            solution_signature(direct_solution)
        )
        # The session surfaces the decision artifact.
        plan = session.explain()
        assert plan.method == chosen
        assert plan.auto


@pytest.mark.parametrize("method", EMITTED)
def test_session_solve_many_mixed_auto_and_direct(method):
    problem = make_problem(seed=41)
    with AssignmentSession(problem) as session:
        auto_sol, direct_sol = session.solve_many(
            [problem, problem.with_method(method)]
        )
        assert auto_sol.method == method
        assert solution_signature(auto_sol) == solution_signature(direct_sol)


# ---------------------------------------------------------------------------
# Embedded-server level
# ---------------------------------------------------------------------------


def test_auto_matches_direct_through_embedded_server():
    from repro.server import Client, ServerConfig, serve_in_thread

    problem = make_problem(seed=43)
    config = ServerConfig(port=0, workers=2)
    with serve_in_thread(config) as handle:
        with Client(f"http://127.0.0.1:{handle.port}") as client:
            auto_solution = client.solve(problem)
            assert auto_solution.plan is not None
            chosen = auto_solution.method
            assert chosen in EMITTED
            direct_solution = client.solve(problem.with_method(chosen))
            assert solution_signature(auto_solution) == (
                solution_signature(direct_solution)
            )


def test_server_auto_shares_cache_with_explicit_pick():
    """method="auto" and an explicit pick of the resolved config key
    the solution cache identically (the solve key carries the
    *resolved* method), so the second request is a cache hit."""
    from repro.server import Client, ServerConfig, serve_in_thread

    problem = make_problem(seed=47)
    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(f"http://127.0.0.1:{handle.port}") as client:
            auto_solution = client.solve(problem)
            metrics = client.metrics()
            assert metrics["solution_cache"]["misses"] == 1
            explicit = problem.with_method(auto_solution.method)
            client.solve(explicit)
            metrics = client.metrics()
            # No second engine run: the explicit pick hit the entry
            # the auto solve populated.
            assert metrics["solution_cache"]["hits"] == 1
            assert metrics["solution_cache"]["misses"] == 1
            assert metrics["planner"]["picks"] == {
                auto_solution.method: 1
            }


def test_server_auto_from_explicit_populated_cache_still_reports_plan():
    """Plan attribution is per-request, not per-cache-entry: an auto
    request served from an entry an *explicit* pick populated must
    still carry its plan and count a planner pick (the decision is
    deterministic — same solve key, same plan)."""
    from repro.server import Client, ServerConfig, serve_in_thread

    problem = make_problem(seed=61)
    resolved = problem.resolved_method
    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(f"http://127.0.0.1:{handle.port}") as client:
            explicit_solution = client.solve(problem.with_method(resolved))
            assert explicit_solution.plan is None
            auto_solution = client.solve(problem)  # cache hit
            metrics = client.metrics()
            assert metrics["solution_cache"]["hits"] == 1
            assert auto_solution.plan is not None
            assert auto_solution.plan.requested == "auto"
            assert auto_solution.plan.method == resolved
            assert metrics["planner"]["picks"] == {resolved: 1}


def test_server_explicit_from_auto_populated_cache_carries_no_plan():
    """...and the symmetric case: an explicit request replaying an
    auto-populated entry gets a plan-free solution over the wire."""
    from repro.server import Client, ServerConfig, serve_in_thread

    problem = make_problem(seed=67)
    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(f"http://127.0.0.1:{handle.port}") as client:
            auto_solution = client.solve(problem)
            assert auto_solution.plan is not None
            explicit_solution = client.solve(
                problem.with_method(auto_solution.method)
            )  # cache hit on the auto-populated entry
            metrics = client.metrics()
            assert metrics["solution_cache"]["hits"] == 1
            assert explicit_solution.plan is None
            assert metrics["planner"]["picks"] == {auto_solution.method: 1}


def test_server_metrics_expose_planner_picks():
    from repro.server import Client, ServerConfig, serve_in_thread

    problem = make_problem(seed=53)
    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(f"http://127.0.0.1:{handle.port}") as client:
            first = client.solve(problem)
            client.solve(problem)  # cache hit still counts a pick
            metrics = client.metrics()
            planner = metrics["planner"]
            assert planner["picks"] == {first.method: 2}
            assert planner["auto_solves"] == 2
            # Latency histograms key on the resolved method, never on
            # the pseudo-method.
            assert first.method in metrics["latency"]
            assert "auto" not in metrics["latency"]


def test_server_envelope_carries_plan_and_resolved_method():
    import json
    from urllib.request import Request, urlopen

    from repro.server import ServerConfig, serve_in_thread

    problem = make_problem(seed=59)
    with serve_in_thread(ServerConfig(port=0)) as handle:
        body = json.dumps({"problem": problem.to_dict()}).encode()
        request = Request(
            f"http://127.0.0.1:{handle.port}/v1/solve",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urlopen(request) as response:
            envelope = json.loads(response.read())
    assert envelope["method"] == "auto"
    assert envelope["resolved_method"] in EMITTED
    plan = envelope["plan"]
    assert plan == {
        "requested": "auto",
        "method": envelope["resolved_method"],
        "options": {},
    }
    # The embedded solution carries the same plan payload.
    assert envelope["solution"]["plan"] == plan
