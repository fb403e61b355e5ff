"""Reverse top-1 search: exactness, resuming, Ω behaviour (Sec 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instances import FunctionSet
from repro.ordering import function_key
from repro.scoring import score
from repro.topk.reverse import ReverseBestSearch, SearchCounters
from repro.topk.sorted_lists import CoefficientLists

from .conftest import random_weights, weights_strategy


def exhaustive_best(weights, point, alive=None):
    fids = range(len(weights)) if alive is None else sorted(alive)
    best = min(
        (function_key(score(weights[f], point), weights[f], f), f) for f in fids
    )
    return best[1], -best[0][0]


@pytest.mark.parametrize("omega", [None, 1, 2, 5])
@pytest.mark.parametrize("biased", [True, False])
def test_best_matches_exhaustive(omega, biased, rng):
    for _ in range(20):
        ws = random_weights(rng.randint(1, 30), 3, rng)
        point = tuple(rng.random() for _ in range(3))
        lists = CoefficientLists(FunctionSet(ws))
        search = ReverseBestSearch(lists, point, omega=omega, biased=biased)
        assert search.best() == exhaustive_best(ws, point)


@pytest.mark.parametrize("omega", [None, 2])
def test_kill_and_resume_full_drain(omega, rng):
    """Killing the incumbent repeatedly must always surface the next
    canonical best among the survivors."""
    for trial in range(15):
        ws = random_weights(rng.randint(1, 25), 3, rng, tie_heavy=(trial % 2 == 0))
        point = tuple(rng.random() for _ in range(3))
        lists = CoefficientLists(FunctionSet(ws))
        search = ReverseBestSearch(lists, point, omega=omega)
        alive = set(range(len(ws)))
        while alive:
            got = search.best()
            assert got == exhaustive_best(ws, point, alive)
            lists.kill(got[0])
            alive.discard(got[0])
        assert search.best() is None


def test_omega_restart_counted(rng):
    """With Ω=1, every kill empties the bounded heap and forces a
    from-scratch restart (the paper's ω trade-off)."""
    ws = random_weights(20, 3, rng)
    point = (0.7, 0.2, 0.9)
    lists = CoefficientLists(FunctionSet(ws))
    counters = SearchCounters()
    search = ReverseBestSearch(lists, point, omega=1, counters=counters)
    for _ in range(5):
        fid, _ = search.best()
        lists.kill(fid)
    assert counters.restarts >= 4


def test_unbounded_never_restarts(rng):
    ws = random_weights(20, 3, rng)
    point = (0.7, 0.2, 0.9)
    lists = CoefficientLists(FunctionSet(ws))
    counters = SearchCounters()
    search = ReverseBestSearch(lists, point, omega=None, counters=counters)
    for _ in range(10):
        fid, _ = search.best()
        lists.kill(fid)
    assert counters.restarts == 0


def test_biased_probing_not_more_accesses_on_average(rng):
    """Biased probing should not scan more than round-robin overall
    (it greedily shrinks the threshold; Section 5.1)."""
    total_biased = total_rr = 0
    for trial in range(30):
        ws = random_weights(60, 4, rng)
        point = tuple(rng.random() for _ in range(4))
        for biased in (True, False):
            lists = CoefficientLists(FunctionSet(ws))
            counters = SearchCounters()
            ReverseBestSearch(
                lists, point, biased=biased, counters=counters
            ).best()
            if biased:
                total_biased += counters.sorted_accesses
            else:
                total_rr += counters.sorted_accesses
    assert total_biased <= total_rr


def test_priorities_use_max_gamma_budget(rng):
    """With priorities, the best function must still be exact —
    including when the top-priority function dies and the budget
    shrinks."""
    ws = random_weights(15, 3, rng)
    gammas = [float(rng.randint(1, 4)) for _ in range(15)]
    fs = FunctionSet(ws, gammas=gammas)
    eff = fs.all_effective_weights()
    point = tuple(rng.random() for _ in range(3))
    lists = CoefficientLists(fs)
    search = ReverseBestSearch(lists, point, omega=3)
    alive = set(range(15))
    while alive:
        got = search.best()
        want = min(
            (function_key(score(eff[f], point), eff[f], f), f) for f in alive
        )
        assert got[0] == want[1]
        lists.kill(got[0])
        alive.discard(got[0])


def test_memory_reporting(rng):
    ws = random_weights(30, 3, rng)
    lists = CoefficientLists(FunctionSet(ws))
    search = ReverseBestSearch(lists, (0.5, 0.5, 0.5), omega=5)
    before = search.memory_bytes()
    search.best()
    assert search.memory_bytes() >= before


def test_invalid_omega():
    lists = CoefficientLists(FunctionSet([(1.0,)]))
    with pytest.raises(ValueError):
        ReverseBestSearch(lists, (0.5,), omega=0)


@given(weights_strategy(3, min_size=1, max_size=12), st.data())
@settings(max_examples=50, deadline=None)
def test_property_exactness(ws, data):
    point = tuple(
        data.draw(st.floats(0, 1, allow_nan=False)) for _ in range(3)
    )
    omega = data.draw(st.sampled_from([None, 1, 3]))
    lists = CoefficientLists(FunctionSet(ws))
    search = ReverseBestSearch(lists, point, omega=omega)
    got = search.best()
    assert got == exhaustive_best(ws, point)


def _pairs_and_score_bits(solution):
    return [(p.fid, p.oid, p.score.hex(), p.count) for p in solution.pairs]


@pytest.mark.parametrize(
    "objects, functions",
    [
        # Every bound x coordinate is <= -1: the minimal failing case.
        ([(-2.0, -3.0)], [(0.5, 0.5)]),
        (
            [(-2.0, -3.0), (-1.5, -4.0), (-6.0, -1.0), (-2.5, -2.5)],
            [(0.5, 0.5), (0.9, 0.1), (0.2, 0.8)],
        ),
    ],
)
def test_sb_matches_brute_force_when_every_product_is_negative(objects, functions):
    """Regression: biased probing started from -1, so when every open
    list's bound x coordinate was <= -1 it picked no list and ``sb``
    raised ``IndexError``."""
    from repro.api import AssignmentSession, Problem

    problem = (
        Problem.builder().add_objects(objects).add_functions(functions).build()
    )
    with AssignmentSession(problem) as session:
        sb = session.solve()
        reference = session.solve(problem.with_method("brute-force"))
    assert _pairs_and_score_bits(sb) == _pairs_and_score_bits(reference)
