"""The batched solve service: worker-pool execution, index-cache
reuse, and per-job result fidelity."""

import threading

import pytest

from repro import BatchSolver, SolveJob
from repro.core import build_object_index, solve
from repro.core.reference import greedy_assign
from repro.data.instances import ObjectSet
from repro.service import ObjectIndexCache, object_set_fingerprint

from .conftest import random_instance


def make_jobs(n_catalogues=4, cohorts_per_catalogue=2):
    """n_catalogues distinct object sets, each matched against several
    function cohorts — the index-reuse workload."""
    jobs = []
    for c in range(n_catalogues):
        _, objects = random_instance(1, 25 + c, 3, seed=100 + c)
        for k in range(cohorts_per_catalogue):
            functions, _ = random_instance(8 + k, 1, 3, seed=200 + 10 * c + k)
            jobs.append(SolveJob(
                functions=functions,
                objects=objects,
                method="sb",
                job_id=f"cat{c}-cohort{k}",
                page_size=512,
            ))
    return jobs


def test_batch_of_eight_jobs_with_cache_hits():
    """≥ 8 jobs through the pool: every result matches a standalone
    solve, and each repeated catalogue hits the index cache."""
    jobs = make_jobs(n_catalogues=4, cohorts_per_catalogue=2)
    assert len(jobs) == 8
    solver = BatchSolver(max_workers=8)
    results = solver.solve_many(jobs)

    assert [r.job_id for r in results] == [j.job_id for j in jobs]
    for job, res in zip(jobs, results):
        expected = greedy_assign(job.functions, job.objects).matching.as_dict()
        assert res.matching.as_dict() == expected, res.job_id

    info = solver.cache_info()
    assert info["misses"] == 4  # one build per distinct catalogue
    assert info["hits"] == 4    # every second cohort reuses the index
    assert info["entries"] == 4


def test_jobs_run_concurrently(monkeypatch):
    """The pool genuinely overlaps jobs on distinct catalogues.  Each
    solve waits for a second one to start beside it, so the check does
    not depend on thread start-up racing the first job's solve; a pool
    that ran one job at a time breaks the barrier instead of hanging."""
    barrier = threading.Barrier(2, timeout=30)

    def paired_solve(*args, **kwargs):
        barrier.wait()
        return solve(*args, **kwargs)

    monkeypatch.setattr("repro.service.batch.solve", paired_solve)
    jobs = make_jobs(n_catalogues=8, cohorts_per_catalogue=1)
    solver = BatchSolver(max_workers=8)
    solver.solve_many(jobs)
    assert solver.peak_concurrency >= 2


def test_mixed_methods_share_one_catalogue():
    fs, os_ = random_instance(9, 30, 3, seed=17, capacities=True)
    ref = greedy_assign(fs, os_).matching.as_dict()
    jobs = [
        SolveJob(functions=fs, objects=os_, method=m, job_id=m)
        for m in ("sb", "sb-update", "sb-two-skylines", "chain", "sb-alt")
    ]
    solver = BatchSolver(max_workers=4)
    results = solver.solve_many(jobs)
    for res in results:
        assert res.matching.as_dict() == ref, res.method
    # sb-alt wants a memory-resident object tree, so it builds its own
    # index; the other four share one disk-simulated index.
    assert solver.cache_info() == {"hits": 3, "misses": 2, "entries": 2}


def test_structurally_equal_object_sets_share_fingerprint():
    _, a = random_instance(1, 20, 3, seed=33)
    b = ObjectSet(list(a.points), capacities=None)
    assert a is not b
    assert object_set_fingerprint(a) == object_set_fingerprint(b)
    c = ObjectSet(list(a.points), capacities=[2] * len(a))
    assert object_set_fingerprint(a) != object_set_fingerprint(c)


def test_fingerprint_distinguishes_shape():
    """Same raw coordinate bytes, different catalogue shape: a 6x2 and
    a 4x3 object set must not share a cached index."""
    flat = [float(i) / 12 for i in range(12)]
    six_by_two = ObjectSet([tuple(flat[i:i + 2]) for i in range(0, 12, 2)])
    four_by_three = ObjectSet([tuple(flat[i:i + 3]) for i in range(0, 12, 3)])
    assert (object_set_fingerprint(six_by_two)
            != object_set_fingerprint(four_by_three))


def test_cache_rebuild_after_eviction():
    cache = ObjectIndexCache(max_entries=2)
    sets = [random_instance(1, 10 + i, 2, seed=50 + i)[1] for i in range(3)]
    for os_ in sets:
        cache.get(os_, 512, False)
    assert cache.info() == {"hits": 0, "misses": 3, "entries": 2}
    # The oldest entry was evicted; asking again rebuilds it.
    _, _, hit = cache.get(sets[0], 512, False)
    assert not hit
    # The newest entry is still cached.
    _, _, hit = cache.get(sets[2], 512, False)
    assert hit


def test_solve_kwargs_and_stats_surface():
    fs, os_ = random_instance(10, 15, 3, seed=61)
    job = SolveJob(
        functions=fs, objects=os_, method="sb",
        memory_index=True, solve_kwargs={"paged_function_lists": 128},
    )
    res = BatchSolver().solve_one(job)
    assert res.job_id == "job-0"
    assert res.stats.counters["function_list_reads"] > 0
    assert res.wall_seconds > 0
    idx = build_object_index(os_, memory=True)
    standalone = solve(fs, idx, method="sb", paged_function_lists=128)
    assert res.matching.as_dict() == standalone.matching.as_dict()


def test_engine_config_method_gets_memory_index():
    """An EngineConfig method is recognized by name: an sb-alt config
    auto-selects the memory-resident object tree (Section 7.6), so no
    object-tree page reads leak into the reported I/O."""
    from repro.engine import engine_config

    fs, os_ = random_instance(10, 15, 3, seed=71)
    job = SolveJob(functions=fs, objects=os_, method=engine_config("sb-alt"))
    assert job.wants_memory_index
    res = BatchSolver().solve_one(job)
    assert res.method == "sb-alt"
    assert res.stats.counters["object_reads"] == 0
    assert res.matching.as_dict() == greedy_assign(fs, os_).matching.as_dict()


def test_empty_batch():
    assert BatchSolver().solve_many([]) == []


def test_fingerprint_freezes_catalogue_against_stale_cache_reuse():
    """Regression: the fingerprint is memoized on the instance, so a
    post-submit mutation of ``objects.points`` would silently reuse
    the wrong cached index.  Submitting now freezes the catalogue."""
    from repro.errors import FrozenInstanceError

    fs, objects = random_instance(4, 12, 2, seed=77)
    solver = BatchSolver(max_workers=1)
    first = solver.solve_one(SolveJob(functions=fs, objects=objects))
    assert objects.is_frozen

    # Rebinding or mutating the frozen catalogue is rejected outright.
    with pytest.raises(FrozenInstanceError):
        objects.points = [(0.0, 0.0)]
    with pytest.raises(FrozenInstanceError):
        objects.capacities = [1] * len(objects)
    with pytest.raises((TypeError, AttributeError)):
        objects.points[0] = (0.0, 0.0)  # tuples refuse item assignment
    with pytest.raises(AttributeError):
        objects.points.append((0.0, 0.0))

    # The frozen catalogue still solves and still hits the cache.
    again = solver.solve_one(SolveJob(functions=fs, objects=objects))
    assert again.index_cache_hit
    assert again.matching.as_dict() == first.matching.as_dict()

    # An edited *copy* is a different fingerprint => a fresh index.
    edited = ObjectSet([(0.9, 0.9)] + list(objects.points[1:]))
    assert object_set_fingerprint(edited) != object_set_fingerprint(objects)
    other = solver.solve_one(SolveJob(functions=fs, objects=edited))
    assert not other.index_cache_hit
    assert other.matching.as_dict() != again.matching.as_dict()


def test_eviction_racing_inflight_build_hands_out_correct_indexes(monkeypatch):
    """A cache bounded to one entry under concurrent `get`s for many
    distinct catalogues: entries are evicted while other builds are
    still in flight, yet every caller must receive a fully-built index
    for *its* catalogue — never a partially-built or stale one."""
    import threading
    import time as _time

    import repro.service.batch as batch_mod

    real_build = batch_mod.build_object_index
    build_log = []
    build_guard = threading.Lock()

    def slow_build(objects, page_size=4096, buffer_fraction=0.02, memory=False):
        with build_guard:
            build_log.append(object_set_fingerprint(objects))
        _time.sleep(0.02)  # widen the eviction-vs-build race window
        return real_build(objects, page_size=page_size, memory=memory)

    monkeypatch.setattr(batch_mod, "build_object_index", slow_build)
    cache = ObjectIndexCache(max_entries=1)
    sets = [random_instance(1, 8 + i, 2, seed=900 + i)[1] for i in range(6)]
    results = [None] * len(sets)
    errors = []
    barrier = threading.Barrier(len(sets))

    def fetch(i):
        try:
            barrier.wait()
            index, run_lock, _ = cache.get(sets[i], 256, False)
            results[i] = (index, run_lock)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(len(sets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    for i, (index, run_lock) in enumerate(results):
        # fully built, and for the right catalogue (not a stale reuse)
        assert index is not None and index.tree is not None
        assert index.objects is sets[i]
        assert len(index.objects) == 8 + i
        assert run_lock is not None
    # the bound still holds after the storm
    assert cache.info()["entries"] == 1
    assert set(build_log) == {object_set_fingerprint(s) for s in sets}


def test_concurrent_gets_for_one_catalogue_build_exactly_once(monkeypatch):
    """Racers on the same catalogue serialize on the entry's build
    lock: one bulk-load total, everyone shares the identical index."""
    import threading
    import time as _time

    import repro.service.batch as batch_mod

    real_build = batch_mod.build_object_index
    build_count = []

    def slow_build(objects, page_size=4096, buffer_fraction=0.02, memory=False):
        build_count.append(1)
        _time.sleep(0.02)
        return real_build(objects, page_size=page_size, memory=memory)

    monkeypatch.setattr(batch_mod, "build_object_index", slow_build)
    cache = ObjectIndexCache(max_entries=4)
    _, objects = random_instance(1, 20, 3, seed=911)
    results = []
    barrier = threading.Barrier(8)

    def fetch():
        barrier.wait()
        index, _, _ = cache.get(objects, 512, False)
        results.append(index)

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(build_count) == 1
    assert len({id(index) for index in results}) == 1
    assert cache.info() == {"hits": 7, "misses": 1, "entries": 1}


def test_batch_solver_results_correct_under_lru_eviction_churn():
    """BatchSolver with a one-entry index cache and a full worker pool:
    every job's matching still equals the reference oracle even though
    indexes are evicted and rebuilt under the jobs' feet."""
    jobs = make_jobs(n_catalogues=4, cohorts_per_catalogue=2)
    solver = BatchSolver(max_workers=8, index_cache_size=1)
    results = solver.solve_many(jobs)
    for job, res in zip(jobs, results):
        expected = greedy_assign(job.functions, job.objects).matching.as_dict()
        assert res.matching.as_dict() == expected, res.job_id
    info = solver.cache_info()
    assert info["entries"] == 1
    assert info["hits"] + info["misses"] == len(jobs)


def test_freeze_is_idempotent_and_unfrozen_sets_stay_mutable():
    _, objects = random_instance(1, 5, 2, seed=78)
    assert not objects.is_frozen
    objects.capacities = [2] * len(objects)  # mutable before freeze
    objects.freeze()
    assert objects.freeze() is objects  # idempotent
    assert isinstance(objects.points, tuple)
    assert isinstance(objects.capacities, tuple)
