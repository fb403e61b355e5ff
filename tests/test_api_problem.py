"""The :class:`repro.api.Problem` value object: builder, validation,
normalization, derivation."""

import dataclasses
import math

import pytest

from repro.api import (
    AUTO_METHOD,
    AssignmentSession,
    InvalidProblemError,
    InvalidSolverOptionError,
    Problem,
    ReproError,
    UnknownSolverError,
)
from repro.api.problem import MAX_SCORE_MAGNITUDE as B
from repro.core.registry import REGISTRY
from repro.data.instances import FunctionSet, ObjectSet, object_set_fingerprint

from .conftest import random_instance

OBJECTS = [(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)]
FUNCTIONS = [(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)]


def figure1_problem(**kwargs) -> Problem:
    return Problem(objects=tuple(OBJECTS), functions=tuple(FUNCTIONS), **kwargs)


def test_builder_equals_direct_construction():
    built = (
        Problem.builder()
        .add_objects(OBJECTS)
        .add_functions(FUNCTIONS)
        .solver("sb")
        .build()
    )
    assert built == figure1_problem()


def test_builder_incremental_with_capacities_and_priorities():
    built = (
        Problem.builder()
        .add_object((0.5, 0.6), capacity=2)
        .add_object((0.8, 0.2))
        .add_function((0.8, 0.2), capacity=3, priority=2.0)
        .add_function((0.5, 0.5))
        .solver("sb", omega_fraction=0.1)
        .page_size(1024)
        .build()
    )
    assert built.object_capacities == (2, 1)
    assert built.function_capacities == (3, 1)
    assert built.priorities == (2.0, 1.0)
    assert dict(built.options) == {"omega_fraction": 0.1}
    assert built.page_size == 1024


def test_all_one_capacities_and_priorities_normalize_to_none():
    p = figure1_problem(
        object_capacities=(1, 1, 1, 1),
        function_capacities=(1, 1, 1),
        priorities=(1.0, 1.0, 1.0),
    )
    assert p.object_capacities is None
    assert p.function_capacities is None
    assert p.priorities is None
    assert p == figure1_problem()


def test_from_sets_round_trips_instance_containers():
    fs, os_ = random_instance(5, 9, 3, seed=3, capacities=True, priorities=True)
    p = Problem.from_sets(os_, fs, method="sb-two-skylines")
    assert p.object_set.points == tuple(os_.points)
    assert p.function_set.gammas == list(fs.gammas)
    assert p.method == "sb-two-skylines"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"objects": ()},
        {"functions": ()},
        {"objects": ((0.5, 0.5), (0.1,))},  # ragged dims
        {"functions": ((0.9, 0.2),)},  # weights don't sum to 1
        {"functions": ((-0.2, 1.2),)},  # negative weight
        {"objects": ((0.5, 0.5, 0.5),)},  # dims mismatch vs functions
        {"object_capacities": (1, 2)},  # misaligned
        {"object_capacities": (0, 1, 1, 1)},  # capacity < 1
        {"priorities": (1.0, -2.0, 1.0)},  # non-positive priority
        {"page_size": 0},
        {"buffer_fraction": 0.0},
        {"buffer_fraction": 1.5},
        {"options": {"omega_fraction": [1, 2]}},  # non-scalar option
        {"objects": ((0.5, 0.6), (0.2, math.inf))},  # +inf coordinate
        {"objects": ((-math.inf, 0.6), (0.2, 0.7))},  # -inf coordinate
        {"functions": ((math.nan, 1.0),)},  # NaN weight passed the sum check
        {"functions": ((math.inf, -math.inf),)},  # sums to NaN
        {"priorities": (1.0, math.nan, 1.0)},
        {"priorities": (1.0, math.inf, 1.0)},
        {"priorities": (1.0, 1.0)},  # misaligned, even when all 1
        {"object_capacities": (2.7, 1, 1, 1)},  # was truncated to 2
        {"function_capacities": (1, math.nan, 1)},
        {"function_capacities": (1, "2", 1)},
        {"options": {"omega_fraction": math.nan}},
        # Wrongly typed option values.
        {"options": {"maintenance": "bogus"}},
        {"options": {"omega_fraction": "x"}},
        {"options": {"omega_fraction": True}},
        {"options": {"multi_pair": "no"}},
        {"options": {"multi_pair": 0}},
        {"options": {"paged_function_lists": 0}},
        {"method": "sb-alt", "options": {"page_size": "big"}},
        {"method": "sb-vec", "options": {"multi_pair": None}},
        {"method": "brute-force", "options": {"function_scan_pages": -1}},
        {"method": "chain", "options": {"disk_function_tree": 1}},
    ],
)
def test_invalid_problems_rejected(kwargs):
    base = dict(objects=tuple(OBJECTS), functions=tuple(FUNCTIONS))
    base.update(kwargs)
    with pytest.raises(InvalidProblemError):
        Problem(**base)


def test_unknown_solver_and_option_are_typed_errors():
    with pytest.raises(UnknownSolverError):
        figure1_problem(method="no-such-solver")
    with pytest.raises(InvalidSolverOptionError) as exc:
        figure1_problem(method="chain", options={"omega_fraction": 0.1})
    assert "disk_function_tree" in str(exc.value)
    # Both are ReproError and keep builtin compatibility.
    assert issubclass(UnknownSolverError, (ReproError, ValueError))
    assert issubclass(InvalidSolverOptionError, (ReproError, TypeError))


def test_problem_is_immutable():
    p = figure1_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.method = "chain"
    assert p.object_set.is_frozen
    with pytest.raises(TypeError):
        p.options["omega_fraction"] = 1.0


def test_with_method_and_with_functions_derive_new_instances():
    p = figure1_problem(options={"omega_fraction": 0.1})
    q = p.with_method("chain")
    assert q.method == "chain" and dict(q.options) == {}
    assert p.method == "sb"  # original untouched
    r = p.with_functions([(1.0, 0.0)], priorities=[3.0])
    assert r.functions == ((1.0, 0.0),) and r.priorities == (3.0,)
    assert r.objects == p.objects
    merged = p.with_options(multi_pair=False)
    assert dict(merged.options) == {"omega_fraction": 0.1, "multi_pair": False}


def test_validated_sets_are_exposed():
    p = figure1_problem()
    assert isinstance(p.object_set, ObjectSet)
    assert isinstance(p.function_set, FunctionSet)
    assert p.dims == 2 and p.num_objects == 4 and p.num_functions == 3


def test_problem_is_hashable_value_object():
    p = figure1_problem(options={"omega_fraction": 0.1})
    q = figure1_problem(options={"omega_fraction": 0.1})
    assert hash(p) == hash(q) and len({p, q}) == 1
    assert hash(p) != hash(p.with_method("chain"))


def test_derived_problems_share_validated_sets():
    """with_method/with_options/with_functions keep the catalogue's
    point tuple and frozen ObjectSet instance, so the catalogue is
    neither re-validated nor re-hashed (the batch cache's memoized
    fingerprint is computed once)."""
    p = figure1_problem()
    v = p.with_method("chain")
    assert v.object_set is p.object_set
    assert v.function_set is p.function_set
    w = p.with_functions([(1.0, 0.0)])
    assert w.object_set is p.object_set
    assert w.function_set is not p.function_set
    for derived in (v, w, p.with_options(omega_fraction=0.1)):
        assert derived.objects is p.objects
        assert derived.object_set is p.object_set


@pytest.mark.parametrize(
    "derive,error",
    [
        (lambda p: p.with_functions([(-0.2, 1.2)]), InvalidProblemError),
        (lambda p: p.with_functions([(0.9, 0.2)]), InvalidProblemError),
        (lambda p: p.with_functions([(math.nan, 1.0)]), InvalidProblemError),
        (lambda p: p.with_functions([(1.0, 0.0)], [1.0, 2.0]), InvalidProblemError),
        (lambda p: p.with_functions([(1.0, 0.0)], None, [2.7]), InvalidProblemError),
        (lambda p: p.with_functions([(1.0, 0.0, 0.0)]), InvalidProblemError),
        (lambda p: p.with_functions([]), InvalidProblemError),
        (lambda p: p.with_method("no-such-solver"), UnknownSolverError),
        (lambda p: p.with_method("chain", omega_fraction=0.1), InvalidSolverOptionError),
        (lambda p: p.with_options(bogus_option=1), InvalidSolverOptionError),
        (lambda p: p.with_objects([(0.5, math.inf)]), InvalidProblemError),
        (lambda p: p.with_objects([(0.5, 0.5)], [0]), InvalidProblemError),
        (lambda p: p.with_objects([(0.5, 0.5, 0.5)]), InvalidProblemError),
        (lambda p: p.with_objects([]), InvalidProblemError),
    ],
)
def test_derivation_still_validates_the_changed_side(derive, error):
    with pytest.raises(error):
        derive(figure1_problem())


def test_derived_problem_equals_the_same_problem_built_directly():
    base = figure1_problem(method="auto", object_capacities=(2, 1, 1, 3))
    base.solve_key()  # memos (digests, plan) must not leak into variants
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    cohort = [(1.0, 0.0), (0.3, 0.7)]
    cases = [
        (
            base.with_functions(cohort, priorities=[2.0, 1.0], capacities=[1, 2]),
            dict(
                functions=tuple(cohort),
                priorities=(2.0, 1.0),
                function_capacities=(1, 2),
            ),
        ),
        (base.with_method("sb-vec"), dict(method="sb-vec")),
        (
            base.with_method("sb", omega_fraction=0.1).with_options(multi_pair=False),
            dict(method="sb", options={"multi_pair": False, "omega_fraction": 0.1}),
        ),
        (
            base.with_objects([(0.1, 0.9), (0.9, 0.1)], capacities=[1, 1]),
            dict(objects=((0.1, 0.9), (0.9, 0.1)), object_capacities=None),
        ),
    ]
    for derived, changes in cases:
        direct = Problem(**{**fields, **changes})
        assert derived == direct and hash(derived) == hash(direct)
        assert derived.digest() == direct.digest() != base.digest()
        assert derived.solve_key() == direct.solve_key()


@pytest.mark.parametrize("method", ["sb", "sb-vec", "chain", "brute-force"])
def test_nan_coordinate_is_rejected_for_every_solver(method):
    """One NaN coordinate used to split the solvers: ``sb`` raised
    IndexError, ``sb-vec`` paired f0 with o1 at score nan, ``chain`` and
    ``brute-force`` paired f2 with o1.  Every entry path now rejects it."""
    objects = list(OBJECTS)
    objects[1] = (math.nan, 0.7)
    with pytest.raises(InvalidProblemError, match="finite"):
        Problem(objects=tuple(objects), functions=tuple(FUNCTIONS), method=method)
    base = figure1_problem(method=method)
    with pytest.raises(InvalidProblemError, match="finite"):
        base.with_objects(objects)
    payload = base.to_dict()
    payload["objects"]["points"][1][0] = math.nan
    with pytest.raises(InvalidProblemError, match="finite"):
        Problem.from_dict(payload)


#: Coordinates near the float range: at priority 4, a score of the
#: first object is inf - inf.  Before the bound, ``auto`` and
#: ``brute-force`` answered a pair scored NaN, ``sb``, ``sb-alt`` and
#: ``sb-two-skylines`` raised a bare ValueError, and ``chain`` spun.
OVERFLOW_OBJECTS = ((1.7e308, -1.7e308), (-1.7e308, 0.5), (1.7e308, 1e308))
OVERFLOW_FUNCTIONS = ((0.2, 0.8), (1 / 3, 2 / 3))

#: Instances whose max |coordinate| x max priority is exactly the bound.
AT_THE_BOUND = {
    "coordinates": dict(
        objects=[(B, -B), (-B, 0.5), (B, B / 10)],
        functions=[(0.2, 0.8), (1 / 3, 2 / 3)],
    ),
    "priorities": dict(
        objects=[(B / 4, -B / 4), (-B / 4, 0.5), (B / 4, B / 8)],
        functions=[(0.2, 0.8), (1 / 3, 2 / 3)],
        priorities=[1, 4],
    ),
    "tiny-coordinates": dict(
        objects=[(1e-8, -1e-8), (-1e-8, 5e-9), (1e-8, 1e-9), (0.0, 1e-8)],
        functions=[(0.2, 0.8), (1 / 3, 2 / 3), (0.5, 0.5)],
        priorities=[B * 1e8, 1e300, 5e307],
    ),
    "d4": dict(
        objects=[(B, -B, B, -B), (-B, B, B, B), (B, B, -B, 0.0), (B / 3,) * 4],
        functions=[(0.25,) * 4, (0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)],
    ),
}


@pytest.mark.parametrize("method", [AUTO_METHOD, *REGISTRY.names()])
def test_scores_beyond_the_float_range_are_rejected(method):
    with pytest.raises(InvalidProblemError, match="float range"):
        Problem(
            objects=OVERFLOW_OBJECTS,
            functions=OVERFLOW_FUNCTIONS,
            priorities=[1, 4],
            method=method,
        )
    # Just above the bound, from either side of the product.
    above = math.nextafter(B, math.inf)
    for objects, priorities in (
        ([(above, 0.5), (0.5, 0.5)], None),
        ([(B, 0.5), (0.5, 0.5)], [1.0, math.nextafter(1.0, math.inf)]),
    ):
        with pytest.raises(InvalidProblemError, match="float range"):
            Problem(
                objects=objects,
                functions=OVERFLOW_FUNCTIONS,
                priorities=priorities,
                method=method,
            )


def test_the_bound_holds_on_every_entry_path():
    """Construction, each derivation and the v2 and v3 decodes check
    the product of the catalogue's and the cohort's maxima; the
    catalogue's maximum is computed once per frozen catalogue."""
    base = Problem(objects=((B, -B), (0.5, 0.5)), functions=OVERFLOW_FUNCTIONS)
    with pytest.raises(InvalidProblemError, match="float range"):
        base.with_functions(OVERFLOW_FUNCTIONS, priorities=[1.0, 2.0])
    with pytest.raises(InvalidProblemError, match="float range"):
        figure1_problem(priorities=[1, 2, 4]).with_objects(OVERFLOW_OBJECTS)
    payload = base.to_dict()
    payload["functions"]["priorities"] = [1.0, 2.0]
    with pytest.raises(InvalidProblemError, match="float range"):
        Problem.from_dict(payload)
    reference = base.to_reference_dict()
    reference["functions"]["priorities"] = [1.0, 2.0]
    held = {object_set_fingerprint(base.object_set): base.object_set}
    with pytest.raises(InvalidProblemError, match="float range"):
        Problem.from_dict(reference, held)
    assert base.object_set.max_abs == B
    assert base.object_set.__dict__["_max_abs"] == B  # memoized on the frozen set


@pytest.mark.parametrize("case", sorted(AT_THE_BOUND))
def test_instances_at_the_bound_solve_alike_on_every_method(case):
    expected = None
    for method in REGISTRY.names():
        problem = Problem(**AT_THE_BOUND[case], method=method)
        assert problem.object_set.max_abs * problem.function_set.max_gamma == B
        with AssignmentSession(problem) as session:
            solution = session.solve()
        assert all(math.isfinite(p.score) for p in solution.pairs), method
        got = sorted((p.fid, p.oid, p.score.hex(), p.count) for p in solution.pairs)
        if expected is None:
            expected = got
        assert got == expected, method
