"""The columnar churn backend: three-way bit-identity (vectorized ==
interpreted == from-scratch) after every event, the per-side partner
indexes, the cumulative churn counters, and ``churn_backend`` routing."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import (
    AssignmentSession,
    FunctionArrived,
    ObjectArrived,
    ObjectDeparted,
    Problem,
)
from repro.core.dynamic import CHURN_BACKENDS, DynamicStableMatching
from repro.data.generators import churn_stream, make_functions, make_objects
from repro.errors import InvalidProblemError, UnknownSolverError
from repro.kernels.dynamic import INITIAL_ROWS, MutableColumns

from .conftest import block_budgets, deep_settings, random_instance


def from_scratch(source: DynamicStableMatching) -> DynamicStableMatching:
    """The oracle: an interpreted bulk solve of the live population."""
    dyn = DynamicStableMatching()
    for fid in sorted(source._weights):
        dyn._register_function(fid, source._weights[fid], source._f_caps[fid])
    for oid in sorted(source._points):
        dyn._register_object(oid, source._points[oid], source._o_caps[oid])
    dyn._rematch_from(0)
    return dyn


def assert_three_way(interp: DynamicStableMatching, vec: DynamicStableMatching):
    assert interp._pairs == vec._pairs
    assert interp._keys == vec._keys
    assert interp.suffix_rematch_count == vec.suffix_rematch_count
    assert interp._pairs == from_scratch(interp)._pairs


def drive(dyn: DynamicStableMatching, event) -> None:
    if isinstance(event, ObjectArrived):
        dyn.add_object(event.point, capacity=event.capacity)
    elif isinstance(event, ObjectDeparted):
        dyn.remove_object(event.oid)
    elif isinstance(event, FunctionArrived):
        effective = tuple(x * event.priority for x in event.weights)
        dyn.add_function(effective, capacity=event.capacity)
    else:
        dyn.remove_function(event.fid)


# ---------------------------------------------------------------------------
# Tentpole: bit-identity of the vectorized backend
# ---------------------------------------------------------------------------


def test_seeded_stream_three_way_identity():
    functions = make_functions(8, 3, seed=2, capacities=[2] * 8)
    objects = make_objects(40, 3, seed=3)
    interp = DynamicStableMatching.from_instance(functions, objects)
    vec = DynamicStableMatching.from_instance(functions, objects, backend="vec")
    assert_three_way(interp, vec)
    for event in churn_stream(
        60, functions, objects, max_capacity=3, max_priority=2, seed=4
    ):
        drive(interp, event)
        drive(vec, event)
        assert_three_way(interp, vec)


def test_vec_backend_departing_both_sides_to_empty():
    vec = DynamicStableMatching(backend="vec")
    interp = DynamicStableMatching()
    for dyn in (interp, vec):
        f = dyn.add_function((0.5, 0.5), capacity=2)
        o = dyn.add_object((1.0, -0.5))
        dyn.remove_object(o)
        dyn.remove_function(f)
    assert interp._pairs == vec._pairs == []
    assert vec.num_functions == 0 and vec.num_objects == 0


@st.composite
def churn_scenario(draw):
    dims = draw(st.integers(1, 3))
    # Tie-heavy on purpose, and signed: the kernel may not assume that
    # a preference rises with every coordinate.
    value = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    coord = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 0.25])
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("af"),
                    st.tuples(*[value] * dims),
                    st.integers(1, 3),  # capacity
                    st.integers(1, 3),  # priority
                ),
                st.tuples(
                    st.just("ao"),
                    st.tuples(*[coord] * dims),
                    st.integers(1, 3),
                    st.just(1),
                ),
                st.tuples(
                    st.just("rf"), st.just(()), st.integers(0, 99), st.just(1)
                ),
                st.tuples(
                    st.just("ro"), st.just(()), st.integers(0, 99), st.just(1)
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return dims, ops


def apply_op(op, dyns, live_f: list[int], live_o: list[int]) -> None:
    """One ``churn_scenario`` op on every matching in ``dyns``, which
    must assign one handle to an arrival; a removal with nothing live
    is a no-op."""
    kind, values, n, priority = op
    if kind == "af":
        w = tuple(x * priority for x in values)
        [fid] = {dyn.add_function(w, n) for dyn in dyns}
        live_f.append(fid)
    elif kind == "ao":
        [oid] = {dyn.add_object(values, n) for dyn in dyns}
        live_o.append(oid)
    elif kind == "rf" and live_f:
        fid = live_f.pop(n % len(live_f))
        for dyn in dyns:
            dyn.remove_function(fid)
    elif kind == "ro" and live_o:
        oid = live_o.pop(n % len(live_o))
        for dyn in dyns:
            dyn.remove_object(oid)


#: Tier-1's budget.  CI's deep step selects the ``churn-deep`` profile
#: (tests/conftest.py) on the pytest command line instead.
CHURN_SETTINGS = deep_settings(max_examples=50)


@given(churn_scenario(), block_budgets)
@CHURN_SETTINGS
def test_random_event_sequences_three_way_identity(scenario, budget):
    """Arrivals/departures with multi-unit capacities and priority
    scaling: vec == interp == from-scratch oracle after every step,
    with the rescans and probes scored in blocks of ``budget`` bytes."""
    _dims, ops = scenario
    interp = DynamicStableMatching()
    vec = DynamicStableMatching(backend="vec")
    live_f: list[int] = []
    live_o: list[int] = []
    with mock.patch("repro.core.vectorized.CELL_BUDGET", budget):
        for op in ops:
            apply_op(op, (interp, vec), live_f, live_o)
            assert_three_way(interp, vec)


def emitted_bits(dyn: DynamicStableMatching) -> tuple:
    """A snapshot of the emitted sequence and its indexes, floats by
    their bits (``repr`` round-trips a float and tells -0.0 from 0.0)."""
    return (
        repr(dyn._pairs),
        repr(dyn._keys),
        {fid: tuple(at) for fid, at in dyn._f_pos.items()},
        {oid: tuple(at) for oid, at in dyn._o_pos.items()},
    )


def replay_in_batches(ops, sizes) -> list[tuple[int, int]]:
    """Run ``ops`` in batches of ``sizes`` (the rest in one last batch)
    on ``interp`` and ``vec`` inside ``batch()``, and one event at a
    time on an ``interp`` twin.  After every batch all three, and a
    from-scratch rematch, hold the same emitted pairs, keys, score bits
    and units; a batch that applied an event ran one rematch, and one
    that applied none changed no counter.  Returns each batch's live
    population ``(functions, objects)``."""
    interp = DynamicStableMatching()
    vec = DynamicStableMatching(backend="vec")
    stepped = DynamicStableMatching()
    live_f: list[int] = []
    live_o: list[int] = []
    populations = []
    cursor = 0
    for size in [*sizes, len(ops)]:
        batch, cursor = ops[cursor : cursor + size], cursor + size
        before = [dyn.churn_info() for dyn in (interp, vec)]
        with interp.batch(), vec.batch():
            for op in batch:
                apply_op(op, (interp, vec, stepped), live_f, live_o)
        populations.append((interp.num_functions, interp.num_objects))
        expected = emitted_bits(stepped)
        assert emitted_bits(interp) == emitted_bits(vec) == expected
        assert expected[:2] == emitted_bits(from_scratch(stepped))[:2]
        assert interp.events_applied == vec.events_applied == stepped.events_applied
        if interp.events_applied == before[0]["events_applied"]:
            assert [dyn.churn_info() for dyn in (interp, vec)] == before
            continue
        for dyn, info in zip((interp, vec), before):
            assert dyn.pairs_rematched == (
                info["pairs_rematched"] + dyn.suffix_rematch_count
            )
        assert interp.suffix_rematch_count == vec.suffix_rematch_count
    return populations


@st.composite
def batched_churn_scenario(draw):
    _dims, ops = draw(churn_scenario())
    sizes = draw(st.lists(st.integers(0, 8), max_size=len(ops) + 2))
    return ops, sizes


@given(batched_churn_scenario(), block_budgets)
@CHURN_SETTINGS
def test_random_event_batches_match_stepped_events(scenario, budget):
    """Random churn applied in random batches, empty ones included:
    after every batch, ``vec`` and ``interp`` inside ``batch()`` equal
    an ``interp`` twin applying one event at a time and a from-scratch
    rematch, with the rescans and probes scored in blocks of ``budget``
    bytes."""
    ops, sizes = scenario
    with mock.patch("repro.core.vectorized.CELL_BUDGET", budget):
        replay_in_batches(ops, sizes)


@pytest.mark.parametrize(
    "ops,sizes,populations",
    [
        pytest.param(
            [
                ("af", (0.5, 0.5), 2, 1),
                ("ao", (1.0, 0.0), 1, 1),
                ("ao", (0.25, 1.0), 1, 1),
                ("ro", (), 1, 1),
                ("af", (1.0, 0.0), 1, 2),
            ],
            [2],
            [(1, 1), (2, 1)],
            id="arrive-and-depart-in-one-batch",
        ),
        pytest.param(
            [
                ("af", (0.5, 0.5), 1, 1),
                ("af", (0.0, 1.0), 1, 1),
                ("ao", (1.0, 0.5), 2, 1),
                ("ao", (0.5, 1.0), 1, 1),
                ("ro", (), 0, 1),
                ("ao", (0.0, 0.0), 1, 1),
                ("ro", (), 0, 1),
                ("ro", (), 0, 1),
                ("rf", (), 0, 1),
                ("rf", (), 0, 1),
            ],
            [4, 4, 2],
            [(2, 2), (2, 0), (0, 0), (0, 0)],
            id="batches-that-empty-a-side",
        ),
        # The arrivals' pair beats the emitted pair, but neither arrival
        # beats it with a member that was there before the batch.
        pytest.param(
            [
                ("af", (1.0, 0.0), 1, 1),
                ("ao", (0.5, 0.0), 1, 1),
                ("af", (0.0, 1.0), 1, 1),
                ("ao", (0.0, 1.0), 1, 1),
            ],
            [2],
            [(1, 1), (2, 2)],
            id="arrivals-pair-with-each-other",
        ),
        pytest.param(
            [("af", (0.5, 0.5), 1, 1), ("ao", (1.0, 0.0), 1, 1), ("rf", (), 0, 1)],
            [0, 2, 0, 0, 1],
            [(0, 0), (1, 1), (1, 1), (1, 1), (0, 1), (0, 1)],
            id="empty-batches",
        ),
    ],
)
def test_batch_edge_cases_match_stepped_events(ops, sizes, populations):
    assert replay_in_batches(ops, sizes) == populations


def test_batch_rematches_once_and_keeps_the_prefix_when_an_event_raises():
    """Scopes nest into one batch; an event that raises inside it
    changes nothing, and the events before it are still rematched."""
    for backend in CHURN_BACKENDS:
        dyn = DynamicStableMatching(backend=backend)
        stepped = DynamicStableMatching()
        for d in (dyn, stepped):
            d.add_function((0.5, 0.5))
            d.add_object((0.25, 0.75))
        rematched = dyn.pairs_rematched
        opened_on = emitted_bits(dyn)
        with pytest.raises(KeyError):
            with dyn.batch():
                dyn.add_object((1.0, 1.0))
                with dyn.batch():
                    dyn.add_function((1.0, 0.0), capacity=2)
                assert emitted_bits(dyn) == opened_on
                dyn.remove_object(99)
        stepped.add_object((1.0, 1.0))
        stepped.add_function((1.0, 0.0), capacity=2)
        assert emitted_bits(dyn) == emitted_bits(stepped), backend
        assert dyn.events_applied == 4
        assert dyn.pairs_rematched == rematched + dyn.suffix_rematch_count


def population_state(dyn: DynamicStableMatching) -> tuple:
    """Everything an event may change, columnar mirror included."""
    mirror = None
    if dyn._vec is not None:
        mirror = (dict(dyn._vec.functions.row_of), dict(dyn._vec.objects.row_of))
    return (
        list(dyn._pairs),
        dict(dyn._weights),
        dict(dyn._points),
        dyn._next_f,
        dyn._next_o,
        dyn.churn_info(),
        mirror,
    )


def test_vec_backend_rejects_mixed_dims():
    """The first arrival on either side fixes d on both backends; an
    arrival of another d raises before anything changes, and the next
    valid event still matches the interpreted backend."""
    arrive = {
        "function": lambda dyn, d: dyn.add_function((0.5,) * d),
        "object": lambda dyn, d: dyn.add_object((1.0,) * d),
    }
    for backend in ("interp", "vec"):
        for first in arrive:
            for bad in arrive:
                dyn = DynamicStableMatching(backend=backend)
                reference = DynamicStableMatching()
                for d in (dyn, reference):
                    arrive[first](d, 2)
                    arrive["object" if first == "function" else "function"](d, 2)
                before = population_state(dyn)
                with pytest.raises(InvalidProblemError):
                    arrive[bad](dyn, 3)
                assert population_state(dyn) == before, (backend, first, bad)
                for d in (dyn, reference):
                    d.add_object((0.25, 1.0))
                    d.add_function((0.75, 0.25))
                    d.remove_object(0)
                assert dyn._pairs == reference._pairs == from_scratch(reference)._pairs


@pytest.mark.parametrize(
    "bad",
    [("a", "b"), (None, 0.5), (float("nan"), 0.5), (0.5, float("inf"))],
    ids=["strings", "none", "nan", "inf"],
)
def test_malformed_arrival_rejected_before_any_change(bad):
    """A non-numeric or non-finite weight or point raises
    InvalidProblemError before anything changes, on both backends and
    both sides, also as the very first arrival (so it does not fix d);
    the next valid events still match interp and a from-scratch solve."""
    arrive = {
        "function": lambda dyn, values: dyn.add_function(values),
        "object": lambda dyn, values: dyn.add_object(values),
    }
    for backend in ("interp", "vec"):
        for side in arrive:
            for seeded in (False, True):
                dyn = DynamicStableMatching(backend=backend)
                reference = DynamicStableMatching()
                if seeded:
                    for d in (dyn, reference):
                        d.add_function((0.5, 0.5))
                        d.add_object((1.0, 0.25))
                before = population_state(dyn), dyn._dims
                with pytest.raises(InvalidProblemError):
                    arrive[side](dyn, bad)
                assert (population_state(dyn), dyn._dims) == before, (
                    backend, side, seeded,
                )
                dims = 2 if seeded else 3
                for d in (dyn, reference):
                    d.add_object((0.25,) * (dims - 1) + (1.0,))
                    d.add_function((1.0 / dims,) * dims)
                assert dyn._pairs == reference._pairs == from_scratch(reference)._pairs


@pytest.mark.parametrize(
    "arrivals,expected",
    [
        # (1, 1) dominates (0, 0.5), but a function that weighs the
        # first coordinate negatively scores the dominated object higher.
        pytest.param(
            [("f", (-1.0, 1.0)), ("o", (1.0, 1.0)), ("o", (0.0, 0.5))],
            (0, 1, 0.5, 1),
            id="negative-weight",
        ),
        # (0.5, 0.5) scores (0, 1) and (1, 0) both 0.5: numpy's argmax
        # picks object 0, the canonical order (lexicographically larger
        # coordinates first) object 1.
        pytest.param(
            [("f", (0.5, 0.5)), ("o", (0.0, 1.0)), ("o", (1.0, 0.0))],
            (0, 1, 0.5, 1),
            id="object-tie",
        ),
        # (0.25, 0.75) and (0.75, 0.25) both score (1, 1) at 1.0: numpy's
        # argmax picks function 0, the canonical order (lexicographically
        # larger weights first) function 1.
        pytest.param(
            [("o", (1.0, 1.0)), ("f", (0.25, 0.75)), ("f", (0.75, 0.25))],
            (1, 0, 1.0, 1),
            id="function-tie",
        ),
    ],
)
def test_minimal_cases_match_on_both_backends(arrivals, expected):
    for backend in ("interp", "vec"):
        dyn = DynamicStableMatching(backend=backend)
        for side, values in arrivals:
            if side == "f":
                dyn.add_function(values)
            else:
                dyn.add_object(values)
        assert [pair[1:] for pair in dyn._pairs] == [expected], backend


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        DynamicStableMatching(backend="bogus")


# ---------------------------------------------------------------------------
# Satellite: O(deg) partner indexes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["interp", "vec"])
def test_partner_maps_match_pair_scan(backend):
    functions, objects = random_instance(6, 25, 3, seed=7, capacities=True)
    dyn = DynamicStableMatching.from_instance(functions, objects, backend=backend)
    for event in churn_stream(30, functions, objects, max_capacity=2, seed=8):
        drive(dyn, event)
        for fid in dyn._weights:
            expected = [(o, u) for _, f, o, _, u in dyn._pairs if f == fid]
            assert dyn.partner_of_function(fid) == expected
        for oid in dyn._points:
            expected = [(f, u) for _, f, o, _, u in dyn._pairs if o == oid]
            assert dyn.partner_of_object(oid) == expected


# ---------------------------------------------------------------------------
# Satellite: cumulative churn counters
# ---------------------------------------------------------------------------


def test_churn_counters_accumulate():
    functions, objects = random_instance(4, 12, 2, seed=9)
    dyn = DynamicStableMatching.from_instance(functions, objects)
    # Seeding is not an event and rematches nothing cumulative.
    assert dyn.events_applied == 0
    assert dyn.pairs_rematched == 0
    assert dyn.full_rematches == 0

    expected_rematched = 0
    oid = dyn.add_object((2.0, 2.0))  # beats everything: full rematch
    expected_rematched += dyn.suffix_rematch_count
    assert dyn.events_applied == 1
    assert dyn.full_rematches == 1
    dyn.remove_object(oid)
    expected_rematched += dyn.suffix_rematch_count
    info = dyn.churn_info()
    assert info["events_applied"] == 2
    assert info["pairs_rematched"] == expected_rematched
    assert info["backend"] == "interp"
    assert info["kernel_score_cells"] == 0  # interpreted path

    vec = DynamicStableMatching.from_instance(functions, objects, backend="vec")
    vec.add_object((2.0, 2.0))
    assert vec.churn_info()["kernel_score_cells"] > 0


def test_rejected_event_does_not_count():
    dyn = DynamicStableMatching()
    dyn.add_function((1.0,))
    with pytest.raises(KeyError):
        dyn.remove_object(99)
    with pytest.raises(ValueError):
        dyn.add_object((1.0,), capacity=0)
    assert dyn.events_applied == 1


# ---------------------------------------------------------------------------
# Mutable columnar store mechanics
# ---------------------------------------------------------------------------


def test_mutable_columns_recycle_and_grow():
    cols = MutableColumns()
    rows = [cols.add(h, (float(h), 1.0), 1) for h in range(INITIAL_ROWS)]
    assert cols.data.shape[0] == INITIAL_ROWS
    cols.remove(3)
    # The freed row is recycled before any growth.
    assert cols.add(100, (9.0, 9.0), 2) == rows[3]
    cols.add(101, (1.0, 1.0), 1)  # forces a doubling
    assert cols.data.shape[0] == 2 * INITIAL_ROWS
    # Grown arrays preserve previous rows and the handle maps.
    assert cols.data[cols.row_of[100]].tolist() == [9.0, 9.0]
    assert int(cols.handle_at[cols.row_of[100]]) == 100
    assert len(cols) == INITIAL_ROWS + 1
    with pytest.raises(ValueError):
        cols.add(100, (0.0, 0.0), 1)  # duplicate handle
    # max_abs is monotone: removals never shrink the tolerance scale.
    before = cols.max_abs
    cols.remove(100)
    assert cols.max_abs == before


# ---------------------------------------------------------------------------
# Session integration: backend routing, batches, counters
# ---------------------------------------------------------------------------


def _problem(nf=5, no=20, dims=3, seed=13):
    fs, os_ = random_instance(nf, no, dims, seed=seed, capacities=True)
    return Problem.from_sets(os_, fs, method="sb")


def test_session_backends_bit_identical():
    problem = _problem()
    events = list(
        churn_stream(
            12,
            problem.function_set,
            problem.object_set,
            max_capacity=2,
            max_priority=2,
            seed=21,
        )
    )
    with AssignmentSession(
        problem, churn_backend="interp", max_workers=2
    ) as a, AssignmentSession(problem, churn_backend="vec") as b:
        for event in events:
            sa = a.apply(event)
            sb = b.apply(event)
            assert sa == sb  # Solution equality: pairs + method
            assert a.last_arrival_handles == b.last_arrival_handles
            assert a.last_diff == b.last_diff
        a.verify_current()
        b.verify_current()
        assert a.churn_info()["events_applied"] == len(events)
        assert a.churn_info()["backend"] == "interp"
        assert b.churn_info()["backend"] == "vec"


def test_session_apply_accepts_batches():
    problem = _problem()
    events = list(
        churn_stream(
            8, problem.function_set, problem.object_set, max_capacity=2, seed=5
        )
    )
    with AssignmentSession(problem, churn_backend="vec") as batched:
        with AssignmentSession(problem, churn_backend="interp") as stepped:
            for event in events:
                stepped.apply(event)
            solution = batched.apply(events)
            assert solution == stepped.current()
        arrivals = [
            e for e in events if isinstance(e, (ObjectArrived, FunctionArrived))
        ]
        assert len(batched.last_arrival_handles) == len(arrivals)
        stats = solution.stats
        assert stats is not None
        assert stats.counters["events_applied"] == len(events)
        assert "kernel_score_cells" in stats.counters
        # The batch ran one rematch: its share is the whole count.
        assert stats.counters["pairs_rematched"] == (
            stats.counters["suffix_rematch_count"]
        )
        assert stats.counters["full_rematches"] <= 1


def test_session_auto_resolves_churn_backend():
    problem = _problem(nf=3, no=12, dims=2)
    with AssignmentSession(problem) as session:
        solution = session.apply(ObjectArrived(point=(0.5, 0.5)))
        assert session.churn_info()["backend"] == "vec"
        assert session.churn_info()["requested_backend"] == "auto"
        assert solution.plan is None  # churn snapshots carry no plan


def test_session_rejects_unknown_churn_backend():
    with pytest.raises(UnknownSolverError) as exc:
        AssignmentSession(_problem(), churn_backend="fast")
    assert type(exc.value) is UnknownSolverError
    assert isinstance(exc.value, ValueError)
    assert exc.value.known == ("auto", "interp", "vec")


def test_has_churn_state_is_lazy():
    with AssignmentSession(_problem()) as session:
        assert not session.has_churn_state
        session.current()
        assert session.has_churn_state
