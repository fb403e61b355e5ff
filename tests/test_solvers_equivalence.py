"""The central cross-validation: every registered solver must produce
the identical canonical stable matching on every instance.

Under the strict canonical orders the stable matching is unique, so
greedy oracle == Gale-Shapley == Brute Force == Chain == SB (all
variants, interpreted and columnar) == SB-alt, pair for pair, unit for
unit.
"""

import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.core import (
    assert_valid_matching,
    build_object_index,
    gale_shapley_assign,
    greedy_assign,
    solve,
)
from repro.data.instances import FunctionSet, ObjectSet
from repro.core.registry import REGISTRY

from .conftest import deep_settings, near_tie_instance, random_instance

ALL_METHODS = REGISTRY.names()


def run_all(fs, os_, methods=ALL_METHODS):
    ref = greedy_assign(fs, os_).matching
    ref_dict = ref.as_dict()
    assert gale_shapley_assign(fs, os_).matching.as_dict() == ref_dict
    for m in methods:
        idx = build_object_index(os_, page_size=512, memory=(m == "sb-alt"))
        got = solve(fs, idx, method=m).matching
        assert got.as_dict() == ref_dict, f"{m} diverged from the oracle"
    assert_valid_matching(ref, fs, os_)
    return ref


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_plain_instances(dims):
    fs, os_ = random_instance(12, 30, dims, seed=dims)
    run_all(fs, os_)


@pytest.mark.parametrize("seed", range(4))
def test_tie_heavy_instances(seed):
    fs, os_ = random_instance(10, 25, 3, seed=seed, tie_heavy=True)
    run_all(fs, os_)


@pytest.mark.parametrize("seed", range(4))
def test_capacitated_instances(seed):
    fs, os_ = random_instance(8, 20, 3, seed=seed, capacities=True)
    run_all(fs, os_)


@pytest.mark.parametrize("seed", range(4))
def test_prioritized_instances(seed):
    fs, os_ = random_instance(10, 25, 3, seed=seed, priorities=True)
    run_all(fs, os_)


@pytest.mark.parametrize("seed", range(3))
def test_capacitated_and_prioritized(seed):
    fs, os_ = random_instance(
        8, 16, 3, seed=seed, capacities=True, priorities=True, tie_heavy=True
    )
    run_all(fs, os_)


class TestEdgeCases:
    def test_one_function_one_object(self):
        fs = FunctionSet([(0.5, 0.5)])
        os_ = ObjectSet([(0.3, 0.7)])
        m = run_all(fs, os_)
        assert m.as_dict() == {(0, 0): 1}

    def test_more_functions_than_objects(self):
        fs, os_ = random_instance(20, 5, 3, seed=7)
        m = run_all(fs, os_)
        assert m.num_units == 5  # only |O| functions can be served

    def test_more_objects_than_functions(self):
        fs, os_ = random_instance(3, 40, 3, seed=8)
        m = run_all(fs, os_)
        assert m.num_units == 3

    def test_all_objects_identical(self):
        fs, _ = random_instance(4, 1, 2, seed=9)
        os_ = ObjectSet([(0.5, 0.5)] * 6)
        run_all(fs, os_)

    def test_all_functions_identical(self):
        _, os_ = random_instance(1, 10, 2, seed=10)
        fs = FunctionSet([(0.4, 0.6)] * 5)
        run_all(fs, os_)

    def test_everything_identical(self):
        fs = FunctionSet([(0.5, 0.5)] * 3)
        os_ = ObjectSet([(0.2, 0.2)] * 4)
        m = run_all(fs, os_)
        assert m.num_units == 3

    def test_single_dominating_object(self):
        fs, _ = random_instance(5, 1, 2, seed=11)
        os_ = ObjectSet([(1.0, 1.0)] + [(0.1, 0.1)] * 9)
        m = run_all(fs, os_)
        # The dominating object goes to exactly one function.
        assert sum(c for (f, o), c in m.as_dict().items() if o == 0) == 1

    def test_large_capacities(self):
        fs = FunctionSet([(0.7, 0.3), (0.2, 0.8)], capacities=[10, 10])
        os_ = ObjectSet([(0.9, 0.1), (0.1, 0.9)], capacities=[10, 10])
        m = run_all(fs, os_)
        assert m.num_units == 20

    def test_capacity_asymmetry(self):
        # |F| capacity >> |O| capacity: objects are the scarce side.
        fs = FunctionSet([(0.5, 0.5)] * 3, capacities=[5, 5, 5])
        os_ = ObjectSet([(0.8, 0.8), (0.2, 0.2)])
        m = run_all(fs, os_)
        assert m.num_units == 2

    def test_priority_dominance_on_a_negative_coordinate(self):
        # f1's effective weights (1.899, 1.101) dominate f0's (1, 0), so
        # f0 is off the function skyline, yet f0 scores the negative
        # object higher (-0.36 against -0.68364).
        fs = FunctionSet([(1.0, 0.0), (0.633, 0.367)], gammas=[1.0, 3.0])
        os_ = ObjectSet([(-0.36, 0.0)])
        m = run_all(fs, os_)
        assert m.as_dict() == {(0, 0): 1}


@pytest.mark.parametrize("dims", [2, 3])
def test_engine_configs_match_pre_refactor_oracles(dims):
    """The engine-backed named configs reproduce the pre-refactor
    oracle results (greedy + Gale-Shapley) — the refactor's
    bit-identical-output guarantee, asserted per config."""
    from repro import engine_config

    fs, os_ = random_instance(
        10, 24, dims, seed=dims + 50, capacities=True, priorities=True
    )
    ref = greedy_assign(fs, os_).matching.as_dict()
    assert gale_shapley_assign(fs, os_).matching.as_dict() == ref
    for name in sorted(s.name for s in REGISTRY if s.engine_backed):
        idx = build_object_index(os_, page_size=512, memory=(name == "sb-alt"))
        got = solve(fs, idx, method=engine_config(name)).matching
        assert got.as_dict() == ref, f"engine config {name} diverged"


def test_near_ties_far_from_the_origin():
    """Coordinates near 1e12 make a matmul's error far larger than
    ``SCORE_EPS``; every method's exact winner must survive its numpy
    prefilter there (``sb-alt``'s batch sweep once kept only scores
    within ``SCORE_EPS`` of the incumbent)."""
    for seed in range(600):
        fs, os_ = near_tie_instance(seed)
        ref = greedy_assign(fs, os_).matching.as_dict()
        for m in ALL_METHODS:
            idx = build_object_index(os_, page_size=512, memory=(m == "sb-alt"))
            got = solve(fs, idx, method=m).matching.as_dict()
            assert got == ref, f"{m} diverged from the oracle on seed {seed}"


# Hypothesis: full random instances, all solvers, moderate sizes.
inst = st.builds(
    random_instance,
    nf=st.integers(1, 12),
    no=st.integers(1, 20),
    dims=st.integers(2, 4),
    seed=st.integers(0, 10**6),
    capacities=st.booleans(),
    priorities=st.booleans(),
    tie_heavy=st.booleans(),
)


@given(inst)
@deep_settings(25, suppress_health_check=[HealthCheck.too_slow])
def test_property_all_solvers_agree(pair):
    fs, os_ = pair
    run_all(fs, os_)
