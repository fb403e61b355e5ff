"""The columnar kernels of :mod:`repro.kernels`.

Three layers of coverage:

- **batch Pareto kernels vs the scalar oracle** — hypothesis property
  tests check :func:`~repro.kernels.pareto.pareto_mask`,
  :func:`~repro.kernels.pareto.dominated_mask` and
  :func:`~repro.kernels.pareto.dominator_index` against
  :func:`repro.skyline.reference.naive_skyline` /
  :func:`repro.rtree.geometry.dominates` on mixed-sign coordinates,
  exact float ties and duplicate points, at the shipped block sizes and
  at tiny ones that cross many blocks;
- **bit-identity against the interpreted twins** — ``sb-vec`` must
  reproduce ``sb`` (and ``sb-deltasky-vec`` must reproduce
  ``sb-deltasky``) pair for pair: same (fid, oid, score, units)
  sequence, same loop count, on plain / tie-heavy / capacitated /
  prioritized instances and through the batch solver;
- **stability certificates** — the vectorized solvers' matchings pass
  :meth:`repro.api.Solution.verify` (no blocking pair).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AssignmentSession, Problem
from repro.core import build_object_index, solve
from repro.data.instances import FunctionSet, ObjectSet
from repro.kernels import (
    CatalogueColumns,
    ColumnarInstance,
    MaskSkyline,
    VectorizedSkylineMaintenance,
    dominated_mask,
    pareto,
    pareto_mask,
)
from repro.kernels.pareto import dominator_index
from repro.rtree.geometry import dominates
from repro.service import BatchSolver, SolveJob
from repro.skyline.reference import naive_skyline

from .conftest import random_instance

# ---------------------------------------------------------------------------
# Batch Pareto kernels vs the scalar oracle
# ---------------------------------------------------------------------------

# Mixed signs, exact-tie magnets (including negative ones and a
# signed zero) and full floats: maximizes duplicate rows, tied sums and
# tied coordinates.
mixed_coord = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32),
)

# The shipped kernel blocking, or tiny blocks and cell budgets, so that
# a few dozen points cross many Pareto blocks and dominance row blocks.
kernel_blocking = st.fixed_dictionaries({
    "BLOCK": st.one_of(st.just(pareto.BLOCK), st.integers(1, 9)),
    "CELL_BUDGET": st.one_of(st.just(pareto.CELL_BUDGET), st.integers(1, 40)),
})


def mixed_points(dims: int, max_size: int = 60):
    return st.lists(
        st.tuples(*([mixed_coord] * dims)), min_size=0, max_size=max_size
    ).map(lambda pts: (dims, pts))


def as_matrix(dims: int, points: list) -> np.ndarray:
    return np.asarray(points, dtype=np.float64).reshape(len(points), dims)


@given(st.integers(2, 5).flatmap(mixed_points), kernel_blocking)
@settings(max_examples=120, deadline=None)
def test_pareto_mask_matches_naive_skyline(case, blocking):
    dims, points = case
    with mock.patch.multiple(pareto, **blocking):
        mask = pareto_mask(as_matrix(dims, points))
    expected = naive_skyline(list(enumerate(points)))
    assert set(np.nonzero(mask)[0]) == set(expected)


@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    mixed_points(d, max_size=25), mixed_points(d, max_size=25),
)), kernel_blocking)
@settings(max_examples=100, deadline=None)
def test_dominated_mask_matches_scalar_dominates(pair, blocking):
    (dims, points), (_, dominators) = pair
    p = as_matrix(dims, points)
    w = as_matrix(dims, dominators)
    with mock.patch.multiple(pareto, **blocking):
        mask = dominated_mask(p, w)
        witness = dominator_index(p, w)
    for i, point in enumerate(points):
        expected = any(dominates(d, point) for d in dominators)
        assert mask[i] == expected
        assert (witness[i] >= 0) == expected
        if expected:
            assert dominates(dominators[witness[i]], point)


@given(st.integers(2, 4).flatmap(lambda d: mixed_points(d, max_size=40)))
@settings(max_examples=60, deadline=None)
def test_duplicates_are_all_skyline_members(case):
    # Duplicating every row must not evict anyone: coincident points
    # never dominate each other (Section 2.2).
    dims, points = case
    doubled = points + points
    mask = pareto_mask(as_matrix(dims, doubled))
    half = len(points)
    assert (mask[:half] == mask[half:]).all()
    expected = naive_skyline(list(enumerate(doubled)))
    assert set(np.nonzero(mask)[0]) == set(expected)


def test_empty_and_single_point_edges():
    empty = np.zeros((0, 3))
    assert pareto_mask(empty).shape == (0,)
    assert dominated_mask(empty, np.ones((2, 3))).shape == (0,)
    assert dominated_mask(np.ones((2, 3)), empty).tolist() == [False, False]
    assert dominator_index(np.ones((2, 3)), empty).tolist() == [-1, -1]
    one = np.asarray([[0.5, 0.5]])
    assert pareto_mask(one).tolist() == [True]


# ---------------------------------------------------------------------------
# Incremental mask repair vs recompute-from-scratch
# ---------------------------------------------------------------------------


class _Ctx:
    """Minimal stand-in for EngineContext (maintenance only reads
    ``objects`` and ``mem``)."""

    def __init__(self, objects):
        from repro.storage.stats import MemoryTracker

        self.objects = objects
        self.mem = MemoryTracker()


def removal_catalogue(seed: int) -> ObjectSet:
    if seed < 5:
        return random_instance(4, 120, 3, seed=seed, tie_heavy=seed % 2 == 0)[1]
    # 600 rows, more than one Pareto block: mixed signs, tied
    # coordinates, and a quarter of the rows duplicate others.
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (450, 3)).round(2)
    rows = np.concatenate([rows, rows[rng.integers(0, 450, 150)]])
    rng.shuffle(rows)
    return ObjectSet([tuple(row) for row in rows.tolist()])


def assert_references_hold(core: MaskSkyline) -> None:
    """Each alive non-member's ``ref`` is a member (hence alive) that
    dominates it; members and dead rows carry ``-1``, which the orphan
    lookup of :meth:`MaskSkyline.remove` relies on."""
    assert (core.ref[core.sky_mask | ~core.alive] == -1).all()
    rows = np.nonzero(core.alive & ~core.sky_mask)[0]
    refs = core.ref[rows]
    assert (refs >= 0).all() and core.sky_mask[refs].all()
    for row, ref in zip(rows, refs):
        assert dominates(core.points[ref], core.points[row])


@pytest.mark.parametrize(
    "seed,path",
    [pytest.param(seed, "engine", id=str(seed)) for seed in range(6)]
    + [pytest.param(seed, "churn", id=f"churn-{seed}") for seed in range(6)],
)
def test_incremental_removal_matches_recompute(seed, path):
    objects = removal_catalogue(seed)
    if path == "engine":
        # The static solves' adapter over the catalogue's initial pass.
        maintenance = VectorizedSkylineMaintenance(
            _Ctx(objects),
            ColumnarInstance(FunctionSet([(0.5, 0.5, 0.0)]), CatalogueColumns(objects)),
        )
        maintenance.compute_initial()
        core = maintenance._computed()
        remove = maintenance.remove
    else:
        # The bare core: a fresh pass, then removals without the adapter.
        core = MaskSkyline(np.asarray(objects.points, dtype=np.float64))
        core.compute_initial()

        def remove(rows):
            core.remove(np.asarray(rows, dtype=np.intp))

    alive = dict(enumerate(objects.points))
    rng = np.random.default_rng(seed)
    while True:
        expected = naive_skyline(list(alive.items()))
        members = core.sky_indices()
        assert set(members.tolist()) == set(expected)
        if path == "engine":
            assert maintenance.skyline == expected
        assert_references_hold(core)
        if members.size <= 1:
            break
        most = min(members.size, max(3, members.size // 4))
        take = int(rng.integers(1, most + 1))
        removed = [int(o) for o in rng.choice(members, size=take, replace=False)]
        remove(removed)
        for oid in removed:
            del alive[oid]


def test_remove_nonmember_raises():
    functions, objects = random_instance(3, 20, 2, seed=9)
    maintenance = VectorizedSkylineMaintenance(
        _Ctx(objects), ColumnarInstance(functions, CatalogueColumns(objects))
    )
    with pytest.raises(RuntimeError):
        maintenance.remove([0])  # before compute_initial
    skyline = maintenance.compute_initial()
    non_member = next(i for i in range(len(objects)) if i not in skyline)
    with pytest.raises(KeyError):
        maintenance.remove([non_member])


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
        [(p.fid, p.oid, p.score, p.count) for p in result.matching.pairs],
        result.stats.loops,
    )


#: (|F|, |O|, family) per twin case.  The last one's catalogue spans
#: several Pareto blocks, so the interpreted maintenance algorithms
#: check the block-vectorized passes.
TWIN_CASES = [(11, 40, family) for family in range(len(FAMILIES))] + [(24, 600, 4)]


@pytest.mark.parametrize("scalar,vectorized", TWINS)
@pytest.mark.parametrize("case", range(len(TWIN_CASES)))
def test_vectorized_twin_is_pair_identical(scalar, vectorized, case):
    nf, no, family = TWIN_CASES[case]
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
    solver = BatchSolver(max_workers=2)
    for scalar, vectorized in TWINS:
        jobs = [
            SolveJob(functions=functions, objects=objects, method=m)
            for m in (scalar, vectorized)
        ]
        got_scalar, got_vec = solver.solve_many(jobs)
        assert [
            (p.fid, p.oid, p.score, p.count)
            for p in got_scalar.result.matching.pairs
        ] == [
            (p.fid, p.oid, p.score, p.count)
            for p in got_vec.result.matching.pairs
        ], vectorized


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
    solver = BatchSolver()
    job = SolveJob(functions=functions, objects=objects, method="sb-vec")
    index, _, _ = solver.cache.get(objects, job.page_size, False)
    assert index.columnar is None  # built lazily, by a columnar solve
    first = solver.solve_one(job)
    columns = index.columnar
    assert columns is not None and columns.initial is not None
    for other in ("sb-deltasky-vec", "sb-vec"):
        job.method = other
        solver.solve_one(job)
        assert index.columnar is columns
    again = solver.solve_one(job)
    assert solve_record(first.matching.pairs, first.stats) == solve_record(
        again.matching.pairs, again.stats
    )
    for array in (columns.points, columns.capacities, *columns.initial):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
