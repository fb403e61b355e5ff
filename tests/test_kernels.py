"""The columnar kernels of :mod:`repro.kernels`.

Four layers of coverage:

- **bit-identity against the interpreted twins** — ``sb-vec`` must
  reproduce ``sb`` (and ``sb-deltasky-vec`` must reproduce
  ``sb-deltasky``) pair for pair: same (fid, oid, score, units)
  sequence, same loop count, on plain / tie-heavy / capacitated /
  prioritized instances, at a served size and through a session's
  ``solve_many``;
- **the runner-up lists** of :class:`~repro.kernels.rounds.PointerRound`
  — deterministic cases for each way a stale pointer is refreshed, and
  a hypothesis property against the greedy oracle, at list lengths of
  1–4 so that a few dozen objects cross every path, at score-block
  budgets down to one row per block, and at tile sizes of 1–4 so that
  the scans' tile pruning skips tiles;
- **the tile pruning** — deterministic cases at tile sizes of 1–2: a
  catalogue smaller than a tile, a tile whose members all die, exact
  ties split across tiles, and a rounding inversion that only the
  cut's tolerance margin survives;
- **stability certificates** — the vectorized solvers' matchings pass
  :meth:`repro.api.Solution.verify` (no blocking pair);
- **catalogue state** — built once per cached index and read-only.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given
from hypothesis import strategies as st

from repro.api import AssignmentSession, Problem
from repro.core import build_object_index, greedy_assign, solve
from repro.data.generators import make_objects, random_priorities, uniform_weights
from repro.data.instances import FunctionSet, ObjectSet
from repro.kernels import CatalogueColumns, PointerRound, columnar, rounds
from repro.scoring import score

from .conftest import block_budgets, deep_settings, random_instance

# ---------------------------------------------------------------------------
# Bit-identity: vectorized configs vs their interpreted twins
# ---------------------------------------------------------------------------

TWINS = [("sb", "sb-vec"), ("sb-deltasky", "sb-deltasky-vec")]

FAMILIES = [
    dict(),
    dict(tie_heavy=True),
    dict(capacities=True),
    dict(priorities=True),
    dict(capacities=True, priorities=True, tie_heavy=True),
]


def run_signature(functions, objects, method):
    result = solve(
        functions, build_object_index(objects, page_size=512), method=method
    )
    return (
        [(p.fid, p.oid, p.score.hex(), p.count) for p in result.matching.pairs],
        result.stats.loops,
    )


def served_instance(nf: int, no: int, seed: int, object_capacities: bool):
    """The served shape: anti-correlated objects (the benchmark's
    catalogues) and uniform weights with priorities and capacities of
    1–3, as in the benchmark's prioritized cohorts."""
    rng = np.random.default_rng(seed)
    caps = [int(c) for c in rng.integers(1, 4, no)] if object_capacities else None
    objects = make_objects(no, 3, "anti-correlated", seed=rng, capacities=caps)
    functions = FunctionSet(
        [tuple(w) for w in uniform_weights(nf, 3, seed=rng).tolist()],
        gammas=random_priorities(nf, 3, seed=rng),
        capacities=[int(c) for c in rng.integers(1, 4, nf)],
    )
    return functions, objects


#: (|F|, |O|, family) per twin case: a :data:`FAMILIES` index, or
#: ``"served"`` / ``"served-capacities"`` for :func:`served_instance`
#: without / with object capacities.  The served cases hold the
#: columnar configs to their interpreted twins at the size the
#: benchmark serves, where the runner-up lists answer every refresh
#: after the first scans (the list tests below cover rescans).
TWIN_CASES = [(11, 40, family) for family in range(len(FAMILIES))] + [
    (24, 600, 4),
    (64, 2048, "served"),
    (64, 2048, "served-capacities"),
]


@pytest.mark.parametrize("scalar,vectorized", TWINS)
@pytest.mark.parametrize("case", range(len(TWIN_CASES)))
def test_vectorized_twin_is_pair_identical(scalar, vectorized, case):
    nf, no, family = TWIN_CASES[case]
    if isinstance(family, str):
        functions, objects = served_instance(
            nf, no, seed=case, object_capacities=family == "served-capacities"
        )
    else:
        functions, objects = random_instance(
            nf, no, 3, seed=case * 7 + 1, **FAMILIES[family]
        )
    assert run_signature(functions, objects, scalar) == run_signature(
        functions, objects, vectorized
    ), f"{vectorized} diverged from {scalar}"


@pytest.mark.parametrize("scalar,vectorized", TWINS)
def test_vectorized_twin_identity_sweep(scalar, vectorized):
    for seed in range(8):
        functions, objects = random_instance(
            5 + seed, 10 + 5 * seed, 2 + seed % 4, seed=100 + seed,
            capacities=seed % 2 == 0, tie_heavy=seed % 3 == 0,
        )
        assert run_signature(functions, objects, scalar) == run_signature(
            functions, objects, vectorized
        ), f"{vectorized} diverged from {scalar} at seed {100 + seed}"


def test_vectorized_twins_identical_through_batch_solver():
    functions, objects = random_instance(9, 35, 3, seed=55, capacities=True)
    problem = Problem.from_sets(objects, functions)
    with AssignmentSession(problem, max_workers=2) as session:
        for scalar, vectorized in TWINS:
            got_scalar, got_vec = session.solve_many(
                [problem.with_method(m) for m in (scalar, vectorized)]
            )
            assert [(p.fid, p.oid, p.score, p.count) for p in got_scalar.pairs] == [
                (p.fid, p.oid, p.score, p.count) for p in got_vec.pairs
            ], vectorized


# ---------------------------------------------------------------------------
# Runner-up lists: every refresh path at tiny list lengths
# ---------------------------------------------------------------------------


def traced_solve(functions, objects, method, length, tile=columnar.TILE_SIZE):
    """Solve with runner-up lists of ``length`` over tiles of at most
    ``tile`` objects; returns the pairs as ``(fid, oid, score bits,
    units)``, the run's stats and the function ids of each full row
    scan, in order."""
    scans = []
    scan = PointerRound._scan

    def spy(self, fids):
        scans.append(fids.tolist())
        return scan(self, fids)

    with mock.patch.object(rounds, "RUNNERS_UP", length), mock.patch.object(
        columnar, "TILE_SIZE", tile
    ), mock.patch.object(PointerRound, "_scan", spy):
        result = solve(functions, build_object_index(objects), method=method)
    pairs = [(p.fid, p.oid, p.score.hex(), p.count) for p in result.matching.pairs]
    return pairs, result.stats, scans


#: One function ``(0.5, 0.5)`` of capacity ``units`` takes objects one
#: per round, so its pointer goes stale after every commit.
#: ``(points, units, list length, expected oids in commit order,
#: expected full scans, expected exact tie resolutions)``.
LIST_CASES = {
    # Round 1 scans and lists objects 0 and 1 (threshold 0.8); round 2
    # advances to object 1; round 3 finds the list exhausted, rescans
    # and lists objects 2 and 3 (threshold 0.6); round 4 advances
    # within that rebuilt list.
    "advance-exhaust-advance": (
        [(1.0, 1.0), (0.9, 0.9), (0.8, 0.8), (0.7, 0.7), (0.6, 0.6), (0.5, 0.5)],
        4, 2, [0, 1, 2, 3], 2, 0,
    ),
    # Objects 1 and 2 tie exactly at 0.5, so the list of length 2 holds
    # one of them and the threshold is the other's 0.5: after object 0
    # dies the band reaches the threshold and the row is rescanned,
    # which resolves the tie canonically (larger coordinates first).
    "band-reaches-threshold": (
        [(1.0, 1.0), (0.25, 0.75), (0.75, 0.25), (0.1, 0.1)],
        2, 2, [0, 2], 2, 1,
    ),
    # A list of one holds only the function's current object, so every
    # refresh finds it exhausted and rescans.
    "list-of-one": (
        [(1.0, 1.0), (0.9, 0.9), (0.8, 0.8), (0.7, 0.7)],
        3, 1, [0, 1, 2], 3, 0,
    ),
    # Both tied objects are listed (threshold 0.1): the pointer advances
    # within the list, and the exact tie inside it is resolved
    # canonically without a rescan.
    "tie-inside-list": (
        [(1.0, 1.0), (0.25, 0.75), (0.75, 0.25), (0.1, 0.1), (0.05, 0.05)],
        2, 3, [0, 2], 1, 1,
    ),
}


@pytest.mark.parametrize("case", sorted(LIST_CASES))
@pytest.mark.parametrize("method", ["sb-vec", "sb-deltasky-vec"])
def test_runner_up_list_paths(case, method):
    points, units, length, oids, scans, ties = LIST_CASES[case]
    functions = FunctionSet([(0.5, 0.5)], capacities=[units])
    objects = ObjectSet(points)
    pairs, stats, scanned = traced_solve(functions, objects, method, length)
    assert [oid for _, oid, _, _ in pairs] == oids
    assert scanned == [[0]] * scans
    assert stats.counters["kernel_tie_resolutions"] == ties
    reference = solve(functions, build_object_index(objects), method="sb")
    assert pairs == [
        (p.fid, p.oid, p.score.hex(), p.count) for p in reference.matching.pairs
    ]


listed_instances = st.builds(
    random_instance,
    nf=st.integers(1, 12),
    no=st.integers(1, 60),
    dims=st.integers(2, 4),
    seed=st.integers(0, 10**6),
    capacities=st.booleans(),
    priorities=st.booleans(),
    tie_heavy=st.booleans(),
)


def signed(objects: ObjectSet) -> ObjectSet:
    """``objects`` moved from [0, 1] to [-1, 1], ties kept."""
    return ObjectSet(
        [tuple(2.0 * x - 1.0 for x in p) for p in objects.points],
        capacities=objects.capacities,
    )


@given(
    listed_instances,
    st.integers(1, 4),
    block_budgets,
    st.integers(1, 4),
    st.booleans(),
)
@deep_settings(40, suppress_health_check=[HealthCheck.too_slow])
def test_property_runner_up_lists_match_greedy(pair, length, budget, tile, both_signs):
    functions, objects = pair
    if both_signs:
        objects = signed(objects)
    expected = sorted(
        (p.fid, p.oid, p.score.hex(), p.count)
        for p in greedy_assign(functions, objects).matching.pairs
    )
    for method in ("sb-vec", "sb-deltasky-vec"):
        with mock.patch("repro.core.vectorized.CELL_BUDGET", budget):
            pairs, _, _ = traced_solve(functions, objects, method, length, tile)
        assert sorted(pairs) == expected, method


# ---------------------------------------------------------------------------
# Tile pruning: the cases a cut must get right
# ---------------------------------------------------------------------------


def reference_pairs(functions, objects, method="sb-vec"):
    """The pairs of ``method``'s interpreted twin, in commit order."""
    twin = dict((v, s) for s, v in TWINS)[method]
    result = solve(functions, build_object_index(objects), method=twin)
    return [(p.fid, p.oid, p.score.hex(), p.count) for p in result.matching.pairs]


def scored_tiles(functions, objects, length, tile):
    """Solve ``sb-vec`` as :func:`traced_solve` does and record the
    tiles of every pass of every scan, in order; returns the pairs and
    those tile lists."""
    passes = []
    tile_scores = PointerRound._tile_scores

    def spy(self, weights, tiles):
        passes.append(tiles.tolist())
        return tile_scores(self, weights, tiles)

    with mock.patch.object(PointerRound, "_tile_scores", spy):
        pairs, _, _ = traced_solve(functions, objects, "sb-vec", length, tile)
    return pairs, passes


@pytest.mark.parametrize("tile", [1, 2, columnar.TILE_SIZE])
@pytest.mark.parametrize("length", [1, 3])
def test_catalogue_smaller_than_a_tile(tile, length):
    no = 1 if tile < 4 else 20
    functions, objects = random_instance(4, no, 3, seed=tile, capacities=True)
    for method in ("sb-vec", "sb-deltasky-vec"):
        pairs, _, _ = traced_solve(functions, objects, method, length, tile)
        assert pairs == reference_pairs(functions, objects, method), method


def test_a_tile_whose_members_all_die_is_not_scored_again():
    """Tiles of two: function 0 takes both members of the best tile,
    (1, 1) and (0.95, 0.95), one per round, and function 1, whose list
    of one holds (0.9, 0.9), rescans afterwards.  No pass after the
    second member dies scores that tile, and the answer is the
    interpreted one."""
    points = [(1.0, 1.0), (0.95, 0.95), (0.9, 0.9), (0.85, 0.85)]
    points += [(0.1 * i, 0.05) for i in range(8)]
    functions = FunctionSet([(0.5, 0.5), (0.6, 0.4)], capacities=[2, 2])
    objects = ObjectSet(points)
    pairs, passes = scored_tiles(functions, objects, 1, 2)
    assert pairs == reference_pairs(functions, objects)
    with mock.patch.object(columnar, "TILE_SIZE", 2):
        catalogue = CatalogueColumns(objects)
    width = catalogue.tile_ids.shape[1]
    dead_tile = catalogue.tile_slot[0] // width
    assert catalogue.tile_slot[1] // width == dead_tile
    # Function 0 commits (1, 1), then (0.95, 0.95): after that commit
    # every later pass leaves the tile out.
    commits = [oid for fid, oid, _, _ in pairs]
    assert commits.index(1) < len(commits) - 1
    last_use = max(i for i, tiles in enumerate(passes) if dead_tile in tiles)
    assert last_use < len(passes) - 1
    assert all(dead_tile not in tiles for tiles in passes[last_use + 1 :])


@pytest.mark.parametrize("tile", [1, 2])
@pytest.mark.parametrize("length", [1, 2, 4])
def test_exact_ties_split_across_tiles(tile, length):
    """Mirror-image points tie exactly under the symmetric function and
    land in different tiles; the canonical order (larger coordinates
    first, then the smaller id) must decide, whichever tile a pass
    scores first."""
    points = []
    for a, b in [(0.9, 0.1), (0.7, 0.3), (0.6, 0.4), (0.8, 0.2)]:
        points += [(a, b), (b, a)]
    points += [(0.5, 0.5)] * 3 + [(0.2, 0.1), (0.1, 0.2)]
    functions = FunctionSet(
        [(0.5, 0.5), (0.5, 0.5), (0.75, 0.25), (0.25, 0.75)], capacities=[3, 2, 2, 2]
    )
    objects = ObjectSet(points, capacities=[1, 2] * 6 + [1])
    for method in ("sb-vec", "sb-deltasky-vec"):
        pairs, stats, _ = traced_solve(functions, objects, method, length, tile)
        assert pairs == reference_pairs(functions, objects, method), method
        assert stats.counters["kernel_tie_resolutions"] > 0


def rounding_inversion():
    """``(functions, objects)``: one function ``w``, seven objects at a
    point ``p`` (ids 0–6), one at ``q`` (id 7) and low fillers, such
    that at tile size 1 and lists of one ``score(w, q) > score(w, p)``,
    yet the scan's bound of ``q``'s tile is below both the bounds of
    ``p``'s tiles and pass 1's scores of ``p`` (numpy dot products,
    which BLAS may sum with fused multiply-adds).  ``None`` when this
    platform's matmul rounds every candidate like ``score()``."""
    rng = np.random.default_rng(9)
    fillers = [(0.001 * i, 0.0) for i in range(1, 57)]
    for _ in range(20000):
        w0 = float(rng.uniform(0.1, 0.9))
        w = (w0, 1.0 - w0)
        p = tuple(rng.uniform(0.5, 1.0, 2).tolist())
        q1 = float(rng.uniform(0.0, 1.0))
        q = ((score(w, p) - w[1] * q1) / w[0], q1)
        if not score(w, q) > score(w, p):
            continue
        objects = ObjectSet([p] * 7 + [q] + fillers)
        with mock.patch.object(columnar, "TILE_SIZE", 1):
            catalogue = CatalogueColumns(objects)
        # The expressions of PointerRound._bounds and _tile_scores.
        tiles = np.arange(catalogue.tile_upper.shape[0])
        bounds = (np.asarray([w]) @ catalogue.tile_upper[tiles].T)[0]
        p_tiles = np.sort(catalogue.tile_slot[:7])
        pass1 = np.asarray([w]) @ catalogue.tile_points[p_tiles].reshape(-1, 2).T
        q_bound = bounds[catalogue.tile_slot[7]]
        if q_bound < min(bounds[p_tiles].min(), pass1.min()):
            return FunctionSet([w]), objects
    return None


def test_rounding_inversion_needs_the_cut_margin():
    """Pass 1 holds the seven copies of ``p`` (the scan's seven best
    tiles by bound at lists of one), so its second-best score ``kth``
    and its best both read ``p``'s.  ``q``'s tile bounds below them by
    rounding, yet ``q`` is the function's winner: a cut at ``kth``, or
    at ``min(kth, best - tol) + tol``, loses ``q``; the margin keeps
    it."""
    case = rounding_inversion()
    if case is None:
        pytest.skip("this platform's matmul rounds like score(): no inversion")
    functions, objects = case
    pairs, passes = scored_tiles(functions, objects, 1, 1)
    assert pairs == reference_pairs(functions, objects)
    assert pairs[0][1] == 7
    with mock.patch.object(columnar, "TILE_SIZE", 1):
        q_tile = CatalogueColumns(objects).tile_slot[7]
    assert q_tile not in passes[0] and q_tile in passes[1]


# ---------------------------------------------------------------------------
# Stability certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["sb-vec", "sb-deltasky-vec"])
@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_vectorized_solutions_certify_stable(method, family):
    functions, objects = random_instance(
        8, 30, 3, seed=family * 13 + 3, **FAMILIES[family]
    )
    problem = Problem.from_sets(objects, functions, method=method)
    with AssignmentSession(problem) as session:
        session.solve().verify()  # raises on any blocking pair


# ---------------------------------------------------------------------------
# Catalogue state: built once per cached index, shared by every solve
# ---------------------------------------------------------------------------


def solve_record(pairs, stats):
    """Everything a columnar solve reports, floats as exact bits."""
    return (
        [(p.fid, p.oid, p.score.hex(), p.count) for p in pairs],
        stats.loops,
        stats.io_accesses,
        stats.peak_memory_bytes,
        dict(stats.counters),
    )


def interleaved_cohorts(base_a, base_b):
    """Cohorts over two catalogues, alternating catalogue and kernel;
    some carry priorities and capacities."""
    problems = []
    for k in range(8):
        functions, _ = random_instance(
            3 + 2 * k, 1, 3, seed=300 + k, capacities=k % 3 == 1, priorities=k % 4 == 2
        )
        base = base_a if k % 2 == 0 else base_b
        method = "sb-vec" if k % 4 < 2 else "sb-deltasky-vec"
        problems.append(
            base.with_functions(
                functions.weights, functions.gammas, functions.capacities
            ).with_method(method)
        )
    return problems


def fresh_index_record(problem):
    index = build_object_index(problem.object_set, page_size=problem.page_size)
    result = solve(problem.function_set, index, method=problem.method)
    return solve_record(result.matching.pairs, result.stats)


@pytest.mark.parametrize("index_cache_size", [32, 1])
def test_cached_catalogue_state_solves_like_a_fresh_index(index_cache_size):
    functions, objects_a = random_instance(2, 180, 3, seed=71, capacities=True)
    _, objects_b = random_instance(1, 150, 3, seed=72, tie_heavy=True)
    base_a = Problem.from_sets(objects_a, functions)
    base_b = base_a.with_objects(objects_b.points)
    problems = interleaved_cohorts(base_a, base_b)
    with AssignmentSession(
        base_a, max_workers=1, index_cache_size=index_cache_size
    ) as session:
        for problem in problems:
            solution = session.solve(problem)
            assert solve_record(solution.pairs, solution.stats) == fresh_index_record(
                problem
            ), (index_cache_size, problem.method)
        # Two catalogues: built once each, or (one cache slot,
        # alternating catalogues) evicted and rebuilt on every solve.
        builds = 2 if index_cache_size > 1 else len(problems)
        assert session.cache_info()["misses"] == builds


def test_catalogue_state_is_built_once_and_read_only():
    functions, objects = random_instance(6, 120, 3, seed=81)
    problem = Problem.from_sets(objects, functions, method="sb-vec")
    with AssignmentSession(problem) as session:
        index, _, _ = session._cache.get(problem.object_set, problem.page_size, False)
        assert index.columnar is None  # built lazily, by a columnar solve
        first = session.solve()
        columns = index.columnar
        assert columns is not None
        for other in ("sb-deltasky-vec", "sb-vec"):
            session.solve(problem.with_method(other))
            assert index.columnar is columns
        again = session.solve()
    assert solve_record(first.pairs, first.stats) == solve_record(
        again.pairs, again.stats
    )
    for array in (
        columns.points,
        columns.capacities,
        columns.tile_ids,
        columns.tile_points,
        columns.tile_upper,
        columns.tile_slot,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
