"""The ``repro.core.solve`` dispatcher: error surface, kwargs
forwarding, and a stable-matching check for every registered solver."""

import pytest

from repro.core import assert_stable, build_object_index, solve
from repro.core.registry import REGISTRY
from repro.core.reference import gale_shapley_assign, greedy_assign

from .conftest import random_instance


def test_unknown_method_error_message_lists_solvers():
    fs, os_ = random_instance(3, 5, 2, seed=0)
    idx = build_object_index(os_, page_size=512)
    with pytest.raises(ValueError) as exc:
        solve(fs, idx, method="no-such-solver")
    msg = str(exc.value)
    assert "no-such-solver" in msg
    for name in REGISTRY.names():
        assert name in msg


def test_kwargs_forwarded_to_solver():
    """Keyword arguments reach the underlying solver: paged function
    lists switch on list-I/O accounting, and the single-pair commit
    needs more rounds than the multi-pair default."""
    fs, os_ = random_instance(20, 12, 3, seed=4)
    idx = build_object_index(os_, memory=True)
    paged = solve(fs, idx, method="sb", paged_function_lists=128)
    assert "function_list_reads" in paged.stats.counters

    idx2 = build_object_index(os_, page_size=512)
    multi = solve(fs, idx2, method="sb")
    idx3 = build_object_index(os_, page_size=512)
    single = solve(fs, idx3, method="sb", multi_pair=False)
    assert single.matching.as_dict() == multi.matching.as_dict()
    assert single.stats.loops >= multi.stats.loops


def test_unknown_kwarg_raises():
    fs, os_ = random_instance(3, 5, 2, seed=1)
    idx = build_object_index(os_, page_size=512)
    with pytest.raises(TypeError):
        solve(fs, idx, method="sb", not_a_real_option=1)


@pytest.mark.parametrize("method", sorted(REGISTRY.names()))
def test_every_solver_entry_matches_oracles(method):
    """Each registered method produces the canonical stable matching on a
    tiny instance — pinned against both pre-refactor oracles."""
    fs, os_ = random_instance(6, 14, 3, seed=27, capacities=True)
    ref = greedy_assign(fs, os_).matching
    assert gale_shapley_assign(fs, os_).matching.as_dict() == ref.as_dict()
    idx = build_object_index(os_, page_size=512, memory=(method == "sb-alt"))
    got = solve(fs, idx, method=method).matching
    assert got.as_dict() == ref.as_dict(), method
    assert_stable(got, fs, os_)
