"""The batched solve service: worker-pool execution, index-cache
reuse, and per-job result fidelity."""

import threading
import time

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


def run_signature(result):
    stats = result.stats
    return (
        [(p.fid, p.oid, p.score, p.count) for p in result.matching.pairs],
        (stats.io.physical_reads, stats.io.logical_reads, stats.io.physical_writes),
        stats.loops,
        stats.peak_memory_bytes,
        dict(stats.counters),
    )


def test_first_solve_on_an_unloaded_index_is_charged_like_an_eager_one():
    """The cache creates indexes unloaded and a run that reads the tree
    loads it.  The loading run reports exactly the I/O, loops, peak
    memory and counters of the same solve on an index that
    ``build_object_index`` loaded before the run."""
    from repro.planner import REGISTRY

    fs, os_ = random_instance(9, 60, 3, seed=83, capacities=True)
    for method in REGISTRY.names():
        job = SolveJob(functions=fs, objects=os_, method=method, page_size=512)
        solver = BatchSolver()
        lazy = solver.solve_one(job)
        index, _, _ = solver.cache.get(os_, 512, job.wants_memory_index)
        # Only the columnar configs leave the tree unloaded.
        assert index.loaded == (not method.endswith("-vec")), method
        eager = build_object_index(os_, page_size=512, memory=job.wants_memory_index)
        direct = solve(fs, eager, method=method)
        assert run_signature(lazy.result) == run_signature(direct), method


@pytest.mark.parametrize("method", ["sb", "chain", "brute-force"])
def test_lazy_tree_load_stays_out_of_the_run_cpu_time(monkeypatch, method):
    """The run that bulk-loads an unloaded cache index reports the load
    in an ``index.load`` span and in ``load_seconds``; its
    ``cpu_seconds`` and phase timings leave the load out."""
    import repro.core.index
    from repro.obs.trace import SpanCollector, collecting
    from repro.rtree.tree import RTree

    pause = 0.2

    class SlowRTree:
        """Slows the object index's load only: ``chain`` bulk-loads a
        function tree inside its run, which is part of the solve."""

        @staticmethod
        def bulk_load(*args, **kwargs):
            time.sleep(pause)
            return RTree.bulk_load(*args, **kwargs)

    monkeypatch.setattr(repro.core.index, "RTree", SlowRTree)
    fs, os_ = random_instance(8, 60, 3, seed=91)
    job = SolveJob(functions=fs, objects=os_, method=method, page_size=512)
    solver = BatchSolver()
    collector = SpanCollector()
    with collecting(collector):
        first = solver.solve_one(job)
    index, _, _ = solver.cache.get(os_, 512, job.wants_memory_index)
    assert index.loaded and index.load_seconds >= pause
    # The job's wall time holds the run and the load; CPU time only
    # the run, and the phases only parts of the run.
    stats = first.result.stats
    assert first.wall_seconds - stats.cpu_seconds >= pause
    assert sum(stats.phases.values()) <= stats.cpu_seconds + 1e-6
    spans = {s.name: s for s in collector.spans}
    load, solve_span = spans["index.load"], spans["engine.solve"]
    assert load.duration_seconds >= pause
    assert load.parent_id == solve_span.span_id
    assert solve_span.attributes["engine_cpu_seconds"] == stats.cpu_seconds
    # The second, identical run loads nothing and pays the same I/O.
    second = solver.solve_one(job)
    assert index.load_seconds == load.duration_seconds
    assert run_signature(second.result) == run_signature(first.result)


def test_auto_session_leaves_the_cached_tree_unloaded():
    from repro.api import AssignmentSession, Problem

    fs, os_ = random_instance(12, 80, 3, seed=87)
    problem = Problem.from_sets(os_, fs, method="auto")
    with AssignmentSession(problem) as session:
        assert session.solve().method == "sb-vec"
        session.solve(problem.with_functions([(0.3, 0.2, 0.5), (0.6, 0.3, 0.1)]))
        index, _, hit = session._batch.cache.get(os_, problem.page_size, False)
        assert hit and not index.loaded
        assert index.columnar is not None  # the columnar state did build
        session.solve(problem.with_method("chain"))
        assert index.loaded
    assert session.cache_info()["misses"] == 1


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


def slow_bulk_load(monkeypatch, log):
    """Patch the R-tree bulk-load to log each load's size and sleep,
    widening any race around it."""
    import time as _time

    from repro.rtree.tree import RTree

    real_load = RTree.bulk_load
    guard = threading.Lock()

    def load(store, dims, items):
        with guard:
            log.append(len(items))
        _time.sleep(0.02)
        return real_load(store, dims, items)

    monkeypatch.setattr(RTree, "bulk_load", staticmethod(load))


def test_eviction_racing_inflight_build_hands_out_correct_indexes(monkeypatch):
    """A cache bounded to one entry under concurrent `get`s for many
    distinct catalogues, each caller then loading its tree under its
    run lock: entries are evicted while other loads are still in
    flight, yet every caller must receive a fully-built index for
    *its* catalogue — never a partially-built or stale one."""
    build_log = []
    slow_bulk_load(monkeypatch, build_log)
    cache = ObjectIndexCache(max_entries=1)
    sets = [random_instance(1, 8 + i, 2, seed=900 + i)[1] for i in range(6)]
    results = [None] * len(sets)
    errors = []
    barrier = threading.Barrier(len(sets))

    def fetch(i):
        try:
            barrier.wait()
            index, run_lock, _ = cache.get(sets[i], 256, False)
            with run_lock:
                index.tree  # loads here, racing the other catalogues
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
        assert index is not None and index.loaded
        assert index.objects is sets[i]
        assert sorted(index.tree.iter_items()) == sorted(sets[i].items())
        assert run_lock is not None
    # the bound still holds after the storm
    assert cache.info()["entries"] == 1
    assert sorted(build_log) == [len(s) for s in sets]


def test_concurrent_gets_for_one_catalogue_build_exactly_once(monkeypatch):
    """Racers on the same catalogue share one index, created unloaded;
    its tree loads under the entry's run lock: one bulk-load total,
    however many racers read it."""
    build_log = []
    slow_bulk_load(monkeypatch, build_log)
    cache = ObjectIndexCache(max_entries=4)
    _, objects = random_instance(1, 20, 3, seed=911)
    results = []
    barrier = threading.Barrier(8)

    def fetch():
        barrier.wait()
        index, run_lock, _ = cache.get(objects, 512, False)
        with run_lock:
            index.tree
        results.append(index)

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert build_log == [len(objects)]
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
