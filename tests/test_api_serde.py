"""Serde round trips (property-based).

``Problem`` and ``Solution`` must survive ``to_dict → from_dict`` and
``to_json → from_json`` bit-identically — capacities, priorities and
solver options included — since the dict form is the wire contract of
the serving layers.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Problem, SerdeError, Solution
from repro.core.registry import REGISTRY

from .conftest import random_instance

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_coord = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def _weights(dims: int):
    return (
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=dims,
            max_size=dims,
        )
        .map(lambda xs: tuple(x / sum(xs) for x in xs))
    )


_METHOD_OPTIONS = {
    "sb": {"omega_fraction": st.one_of(st.none(), st.floats(0.01, 0.5)),
           "multi_pair": st.booleans()},
    "sb-alt": {"page_size": st.sampled_from([512, 1024, 4096])},
    "chain": {"disk_function_tree": st.booleans()},
    "brute-force": {"function_scan_pages": st.integers(0, 4)},
    # The planner pseudo-method: valid in serde, accepts no options.
    "auto": {},
}


@st.composite
def problems(draw) -> Problem:
    dims = draw(st.integers(2, 4))
    n_obj = draw(st.integers(1, 6))
    n_fun = draw(st.integers(1, 5))
    objects = tuple(
        tuple(draw(_coord) for _ in range(dims)) for _ in range(n_obj)
    )
    functions = tuple(draw(_weights(dims)) for _ in range(n_fun))
    ocaps = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(1, 4), min_size=n_obj, max_size=n_obj
            ).map(tuple),
        )
    )
    fcaps = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(1, 4), min_size=n_fun, max_size=n_fun
            ).map(tuple),
        )
    )
    gammas = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
                min_size=n_fun,
                max_size=n_fun,
            ).map(tuple),
        )
    )
    method = draw(st.sampled_from(sorted(_METHOD_OPTIONS)))
    options = {
        name: draw(strategy)
        for name, strategy in _METHOD_OPTIONS[method].items()
        if draw(st.booleans())
    }
    return Problem(
        objects=objects,
        functions=functions,
        object_capacities=ocaps,
        function_capacities=fcaps,
        priorities=gammas,
        method=method,
        options=options,
        page_size=draw(st.sampled_from([512, 4096])),
        memory_index=draw(st.sampled_from([None, True, False])),
        buffer_fraction=draw(st.floats(0.01, 1.0, allow_nan=False)),
    )


# ---------------------------------------------------------------------------
# Problem round trips
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(problems())
def test_problem_dict_round_trip_is_bit_identical(problem):
    restored = Problem.from_dict(problem.to_dict())
    assert restored == problem
    assert restored.objects == problem.objects
    assert restored.functions == problem.functions
    assert restored.object_capacities == problem.object_capacities
    assert restored.function_capacities == problem.function_capacities
    assert restored.priorities == problem.priorities
    assert dict(restored.options) == dict(problem.options)
    assert restored.page_size == problem.page_size
    assert restored.memory_index == problem.memory_index
    assert restored.buffer_fraction == problem.buffer_fraction


@settings(max_examples=60, deadline=None)
@given(problems())
def test_problem_json_round_trip_is_canonical(problem):
    text = problem.to_json()
    restored = Problem.from_json(text)
    assert restored == problem
    # Canonical form is a fixpoint: re-encoding yields the same bytes.
    assert restored.to_json() == text
    # And the payload is genuinely JSON (a service could ship it).
    assert json.loads(text)["schema"] == "repro.problem/v2"


def test_problem_v1_payload_still_reads():
    """Schema bump compatibility: a payload written by a pre-planner
    release (tagged ``repro.problem/v1``) must keep deserializing —
    the sections are identical, v2 only admits ``method="auto"``."""
    fs, os_ = random_instance(3, 5, 2, seed=4)
    problem = Problem.from_sets(os_, fs, method="sb")
    payload = problem.to_dict()
    assert payload["schema"] == "repro.problem/v2"
    payload["schema"] = "repro.problem/v1"
    restored = Problem.from_dict(payload)
    assert restored == problem
    # Re-encoding always emits the current schema.
    assert restored.to_dict()["schema"] == "repro.problem/v2"


def test_auto_method_serde_round_trip():
    fs, os_ = random_instance(3, 5, 2, seed=5)
    problem = Problem.from_sets(os_, fs, method="auto")
    restored = Problem.from_json(problem.to_json())
    assert restored == problem
    assert restored.method == "auto"
    # The resolved method keys the cache; both sides resolve equally.
    assert restored.solve_key() == problem.solve_key()
    assert restored.solve_key()[1] != "auto"


# ---------------------------------------------------------------------------
# Solution round trips
# ---------------------------------------------------------------------------


def test_solution_round_trip_preserves_pairs_and_stats():
    from repro.api import AssignmentSession

    fs, os_ = random_instance(6, 10, 3, seed=8, capacities=True)
    with AssignmentSession(Problem.from_sets(os_, fs)) as session:
        solution = session.solve()
    restored = Solution.from_json(solution.to_json())
    assert restored == solution
    assert restored.pairs == solution.pairs  # scores bit-identical
    assert restored.method == solution.method
    assert restored.stats.io.physical_reads == solution.stats.io.physical_reads
    assert restored.stats.io.logical_reads == solution.stats.io.logical_reads
    assert restored.stats.loops == solution.stats.loops
    assert restored.stats.counters == solution.stats.counters
    assert restored.stats.cpu_seconds == solution.stats.cpu_seconds
    # Lookups survive detachment from the session.
    for pair in restored:
        assert (pair.oid, pair.count) in restored.partner_of(pair.fid)


def test_solution_without_stats_round_trips():
    sol = Solution(pairs=(), method="dynamic")
    assert Solution.from_dict(sol.to_dict()) == sol


# ---------------------------------------------------------------------------
# Strict decoding
# ---------------------------------------------------------------------------


def test_serde_rejects_wrong_schema_and_unknown_fields():
    fs, os_ = random_instance(2, 3, 2, seed=9)
    payload = Problem.from_sets(os_, fs).to_dict()
    with pytest.raises(SerdeError):
        Problem.from_dict({**payload, "schema": "repro.problem/v999"})
    with pytest.raises(SerdeError):
        Problem.from_dict({**payload, "surprise": 1})
    with pytest.raises(SerdeError):
        Problem.from_dict(
            {**payload, "solver": {"method": "sb", "bogus": True}}
        )
    with pytest.raises(SerdeError):
        Problem.from_dict({"schema": "repro.problem/v1"})
    with pytest.raises(SerdeError):
        Problem.from_json("{not json")
    with pytest.raises(SerdeError):
        Solution.from_dict({"schema": "repro.solution/v1", "method": "sb"})


def test_every_named_solver_options_are_serializable():
    """Every documented option name fits the JSON-scalar constraint."""
    for spec in REGISTRY:
        assert all(isinstance(name, str) for name in spec.options), spec.name
