"""Dynamic stable-matching maintenance (the paper's future work)."""

import random

import numpy as np
import pytest

from repro.core.dynamic import CHURN_BACKENDS, DynamicStableMatching
from repro.core.reference import greedy_assign
from repro.core.validate import assert_stable
from repro.data.instances import FunctionSet, ObjectSet
from repro.errors import InvalidProblemError

from .conftest import random_points, random_weights


def oracle(dyn: DynamicStableMatching):
    """From-scratch canonical matching over the current population,
    relabeled back to the dynamic handles."""
    fids = sorted(dyn._weights)
    oids = sorted(dyn._points)
    if not fids or not oids:
        return {}
    fs = FunctionSet(
        [dyn._weights[f] for f in fids],
        capacities=[dyn._f_caps[f] for f in fids],
    )
    os_ = ObjectSet(
        [dyn._points[o] for o in oids],
        capacities=[dyn._o_caps[o] for o in oids],
    )
    raw = greedy_assign(fs, os_).matching.as_dict()
    return {(fids[f], oids[o]): c for (f, o), c in raw.items()}


def test_empty_start():
    dyn = DynamicStableMatching()
    assert dyn.matching.num_units == 0
    fid = dyn.add_function((0.5, 0.5))
    assert dyn.matching.num_units == 0  # no objects yet
    oid = dyn.add_object((0.9, 0.1))
    assert dyn.matching.as_dict() == {(fid, oid): 1}


def test_arrival_steals_better_object():
    dyn = DynamicStableMatching()
    f = dyn.add_function((1.0, 0.0))
    o_weak = dyn.add_object((0.3, 0.3))
    assert dyn.matching.as_dict() == {(f, o_weak): 1}
    o_strong = dyn.add_object((0.9, 0.9))
    # The function upgrades; the weak object is freed.
    assert dyn.matching.as_dict() == {(f, o_strong): 1}


def test_departure_falls_back():
    dyn = DynamicStableMatching()
    f = dyn.add_function((1.0, 0.0))
    o1 = dyn.add_object((0.9, 0.9))
    o2 = dyn.add_object((0.3, 0.3))
    assert dyn.matching.as_dict() == {(f, o1): 1}
    dyn.remove_object(o1)
    assert dyn.matching.as_dict() == {(f, o2): 1}


def test_unknown_handles_rejected():
    dyn = DynamicStableMatching()
    with pytest.raises(KeyError):
        dyn.remove_function(0)
    with pytest.raises(KeyError):
        dyn.remove_object(0)
    with pytest.raises(ValueError):
        dyn.add_function((1.0,), capacity=0)


def event_state(dyn: DynamicStableMatching) -> tuple:
    """Everything an event may change, the columnar mirror included."""
    mirror = None
    if dyn._vec is not None:
        mirror = (dict(dyn._vec.functions.row_of), dict(dyn._vec.objects.row_of))
    return (
        repr(dyn._pairs),
        dict(dyn._weights),
        dict(dyn._points),
        dict(dyn._f_caps),
        dict(dyn._o_caps),
        dyn._next_f,
        dyn._next_o,
        dyn.churn_info(),
        mirror,
    )


@pytest.mark.parametrize("backend", CHURN_BACKENDS)
def test_non_integer_handles_and_capacities_are_typed_errors(backend):
    """A departure's handle must be an integer (``bool`` and integral
    floats included in the rejects), an arrival's capacity an integer
    of at least 1: anything else raises InvalidProblemError before any
    state changes.  An unknown integer handle still raises KeyError,
    and numpy integers pass as handles and capacities."""
    dyn = DynamicStableMatching(backend=backend)
    for weights in ((1.0, 0.0), (0.0, 1.0)):
        dyn.add_function(weights)
    for point in ((0.5, 0.5), (0.9, 0.1)):
        dyn.add_object(point)
    before = event_state(dyn)
    for handle in (True, False, 0.0, 1.0, [0], {}, "0", None):
        with pytest.raises(InvalidProblemError, match="handle must be an integer"):
            dyn.remove_object(handle)
        with pytest.raises(InvalidProblemError, match="handle must be an integer"):
            dyn.remove_function(handle)
    for capacity in (1.5, 2.0, "2", None, 0, -1):
        with pytest.raises(InvalidProblemError, match="capacity must be"):
            dyn.add_object((0.25, 0.75), capacity=capacity)
        with pytest.raises(InvalidProblemError, match="capacity must be"):
            dyn.add_function((0.5, 0.5), capacity=capacity)
    assert event_state(dyn) == before
    with pytest.raises(KeyError):
        dyn.remove_object(7)
    with pytest.raises(KeyError):
        dyn.remove_function(np.int64(7))
    assert event_state(dyn) == before

    oid = dyn.add_object((0.25, 0.75), capacity=np.int64(2))
    fid = dyn.add_function((0.5, 0.5), capacity=np.int32(3))
    assert dyn._o_caps[oid] == 2 and type(dyn._o_caps[oid]) is int
    assert dyn._f_caps[fid] == 3 and type(dyn._f_caps[fid]) is int
    assert all(type(p.count) is int for p in dyn.matching.pairs)
    dyn.remove_object(np.int64(oid))
    dyn.remove_function(np.int64(fid))
    assert dyn.matching.as_dict() == oracle(dyn)


def test_partner_lookups():
    dyn = DynamicStableMatching()
    f = dyn.add_function((0.5, 0.5), capacity=2)
    o1 = dyn.add_object((0.8, 0.8))
    o2 = dyn.add_object((0.6, 0.6))
    assert sorted(dyn.partner_of_function(f)) == [(o1, 1), (o2, 1)]
    assert dyn.partner_of_object(o1) == [(f, 1)]


@pytest.mark.parametrize("seed", range(5))
def test_random_event_stream_matches_oracle(seed):
    """The real guarantee: after *every* event the maintained matching
    equals a from-scratch recomputation."""
    rng = random.Random(seed)
    dyn = DynamicStableMatching()
    live_f: list[int] = []
    live_o: list[int] = []
    for step in range(60):
        roll = rng.random()
        if roll < 0.3 or not live_f:
            w = random_weights(1, 3, rng, tie_heavy=(step % 2 == 0))[0]
            live_f.append(dyn.add_function(w, capacity=rng.randint(1, 3)))
        elif roll < 0.6 or not live_o:
            p = random_points(1, 3, rng, tie_heavy=(step % 2 == 0))[0]
            live_o.append(dyn.add_object(p, capacity=rng.randint(1, 3)))
        elif roll < 0.8 and live_f:
            fid = live_f.pop(rng.randrange(len(live_f)))
            dyn.remove_function(fid)
        elif live_o:
            oid = live_o.pop(rng.randrange(len(live_o)))
            dyn.remove_object(oid)
        assert dyn.matching.as_dict() == oracle(dyn), step


def test_maintained_matching_is_stable():
    rng = random.Random(99)
    dyn = DynamicStableMatching()
    handles_f, handles_o = [], []
    for _ in range(12):
        handles_f.append(dyn.add_function(random_weights(1, 3, rng)[0]))
    for _ in range(20):
        handles_o.append(dyn.add_object(random_points(1, 3, rng)[0]))
    for oid in handles_o[:5]:
        dyn.remove_object(oid)

    fids = sorted(dyn._weights)
    oids = sorted(dyn._points)
    fs = FunctionSet([dyn._weights[f] for f in fids])
    os_ = ObjectSet([dyn._points[o] for o in oids])
    from repro.core.types import Matching

    relabeled = Matching()
    f_pos = {f: i for i, f in enumerate(fids)}
    o_pos = {o: i for i, o in enumerate(oids)}
    for p in dyn.matching.pairs:
        relabeled.add(f_pos[p.fid], o_pos[p.oid], p.score, p.count)
    assert_stable(relabeled, fs, os_)


def test_suffix_rematch_is_partial():
    """Updates near the bottom of the score range must not re-match
    the whole assignment (the incremental prefix is retained)."""
    rng = random.Random(5)
    dyn = DynamicStableMatching()
    for _ in range(30):
        dyn.add_function(random_weights(1, 2, rng)[0])
    for _ in range(40):
        dyn.add_object(tuple(0.5 + 0.5 * rng.random() for _ in range(2)))
    total_pairs = len(dyn._pairs)
    # A hopeless object (dominated by everything) arrives: no emitted
    # pair is affected.
    dyn.add_object((0.0, 0.0))
    assert dyn.suffix_rematch_count == 0
    # A world-beating object arrives: everything after the first
    # greedy step is up for re-matching.
    dyn.add_object((1.0, 1.0))
    assert dyn.suffix_rematch_count >= total_pairs - 1
