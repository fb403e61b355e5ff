"""Unit tests for the serving-layer building blocks: the solution LRU,
admission control, job store bounds, and latency histograms."""

import pytest

from repro.api import Problem, Solution
from repro.server.cache import SolutionCache
from repro.server.jobs import DONE, AdmissionController, JobStore
from repro.server.metrics import LatencyHistogram, ServerMetrics


def solution(tag: int) -> Solution:
    from repro.core.types import AssignedPair

    return Solution(pairs=(AssignedPair(0, tag, 1.0, 1),), method="sb")


def key(tag: int):
    return (f"instance-{tag}", "sb", "{}")


def test_solution_cache_lru_eviction_and_counters():
    cache = SolutionCache(max_entries=2)
    cache.put(key(1), solution(1))
    cache.put(key(2), solution(2))
    assert cache.get(key(1)) == solution(1)   # 1 now most-recent
    cache.put(key(3), solution(3))            # evicts 2
    assert cache.get(key(2)) is None
    assert cache.get(key(1)) is not None
    assert cache.get(key(3)) is not None
    info = cache.info()
    assert info == {
        "enabled": True,
        "hits": 3, "misses": 1, "evictions": 1, "entries": 2, "max_entries": 2,
    }


def test_solution_cache_zero_size_disables_caching():
    cache = SolutionCache(max_entries=0)
    cache.put(key(1), solution(1))
    assert cache.get(key(1)) is None
    assert cache.info()["entries"] == 0
    with pytest.raises(ValueError):
        SolutionCache(max_entries=-1)


def test_disabled_solution_cache_reports_no_misses():
    """Regression: a disabled cache must not count misses — ``/metrics``
    would otherwise show a 0% hit rate that reads as cache failure
    rather than cache-off."""
    cache = SolutionCache(max_entries=0)
    for tag in range(5):
        assert cache.get(key(tag)) is None
        cache.put(key(tag), solution(tag))
    info = cache.info()
    assert info["enabled"] is False
    assert info["hits"] == 0
    assert info["misses"] == 0
    assert info["evictions"] == 0
    # an enabled cache still counts
    enabled = SolutionCache(max_entries=2)
    assert enabled.get(key(1)) is None
    assert enabled.info()["misses"] == 1
    assert enabled.info()["enabled"] is True


def test_admission_controller_bounds_and_peak():
    admission = AdmissionController(limit=2)
    assert admission.try_acquire() and admission.try_acquire()
    assert not admission.try_acquire()     # saturated
    admission.release()
    assert admission.try_acquire()         # a slot freed up
    assert admission.info() == {
        "depth": 2, "peak_depth": 2, "limit": 2, "underflows": 0,
    }
    with pytest.raises(ValueError):
        AdmissionController(limit=0)


def test_admission_release_underflow_clamps_and_counts(caplog):
    """Regression: an unmatched release used to raise RuntimeError —
    inside the server's ``finally`` blocks that masked the original
    handler exception.  It now clamps at zero, logs, and counts."""
    admission = AdmissionController(limit=2)
    assert admission.try_acquire()
    admission.release()
    with caplog.at_level("WARNING", logger="repro.server"):
        admission.release()                # unbalanced: clamped, not raised
        admission.release()
    assert admission.depth == 0
    assert admission.info()["underflows"] == 2
    assert any("without a matching acquire" in r.message for r in caplog.records)
    # the counter still works after an underflow
    assert admission.try_acquire()
    assert admission.info()["depth"] == 1


def make_problem():
    return (
        Problem.builder()
        .add_objects([(0.5, 0.5), (0.2, 0.8)])
        .add_functions([(0.5, 0.5)])
        .build()
    )


def test_job_store_trims_finished_jobs_only():
    store = JobStore(history_limit=3)
    problem = make_problem()
    jobs = [store.create(f"p{i}", problem) for i in range(3)]
    jobs[0].status = DONE
    jobs[1].status = DONE
    live = jobs[2]
    fourth = store.create("p3", problem)
    assert len(store) == 3
    assert store.get(jobs[0].job_id) is None      # oldest finished dropped
    assert store.get(live.job_id) is live         # live job survives
    assert store.get(fourth.job_id) is fourth
    # job ids keep counting monotonically
    assert fourth.job_id > live.job_id


def test_job_to_dict_shapes():
    store = JobStore()
    job = store.create("pid", make_problem())
    payload = job.to_dict()
    assert payload["status"] == "queued"
    assert payload["solution"] is None
    assert "solution" not in job.to_dict(include_solution=False)


def test_job_finish_transitions_publish_atomically():
    """``complete``/``fail`` assign every result field before ``status``
    flips, under the record lock — concurrent ``to_dict`` snapshots can
    never pair a finished status with missing results."""
    import threading

    store = JobStore()
    job = store.create("pid", make_problem())
    job.mark_running()
    assert job.status == "running" and job.started_at is not None

    violations = []
    stop = threading.Event()

    def poll():
        while not stop.is_set():
            record = job.to_dict()
            if record["status"] == DONE and (
                record["solution"] is None
                or record["wall_seconds"] is None
                or record["finished_at"] is None
            ):
                violations.append(record)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        job.complete(solution(1), cache_hit=False, wall_seconds=0.5)
    finally:
        stop.set()
        poller.join()
    assert not violations
    record = job.to_dict()
    assert record["status"] == DONE
    assert record["solution"] is not None
    assert record["wall_seconds"] == 0.5
    assert record["finished_at"] is not None

    failed = store.create("pid2", make_problem())
    failed.fail("boom")
    assert failed.finished
    assert failed.to_dict()["error"] == "boom"
    assert failed.to_dict()["finished_at"] is not None


def test_job_finished_reads_status_under_the_record_lock():
    """Regression: ``Job.finished`` used to read ``status`` unguarded —
    a poller could observe the DONE flip before the same ``complete()``
    transaction published its result fields."""
    import threading

    store = JobStore()
    job = store.create("pid", make_problem())

    class RecordingGuard:
        def __init__(self):
            self.entries = 0
            self._lock = threading.Lock()

        def __enter__(self):
            self.entries += 1
            self._lock.acquire()
            return self

        def __exit__(self, *exc_info):
            self._lock.release()
            return False

    guard = RecordingGuard()
    job._guard = guard
    assert job.finished is False
    assert guard.entries == 1
    job.complete(solution(1), wall_seconds=0.1, cache_hit=False)
    assert job.finished is True


def test_latency_histogram_quantiles():
    hist = LatencyHistogram()
    for _ in range(99):
        hist.observe(0.002)
    hist.observe(4.0)
    assert hist.count == 100
    assert 0.001 <= hist.quantile(0.5) <= 0.0025
    assert 2.5 <= hist.quantile(0.995) <= 5.0
    assert hist.max_seconds == 4.0
    payload = hist.to_dict()
    assert payload["count"] == 100
    assert payload["buckets"]["+inf"] == 0
    # q=0 estimates the minimum: the occupied bucket's lower bound
    assert hist.quantile(0.0) == pytest.approx(0.001)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_latency_histogram_empty_and_overflow():
    hist = LatencyHistogram()
    assert hist.quantile(0.99) == 0.0
    hist.observe(1e6)  # lands in +inf bucket; quantile reports lower bound
    assert hist.quantile(0.99) == 10.0
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=(0.1, 1.0))  # must end with +inf


def test_server_metrics_engine_accumulation_skips_cache_hits():
    metrics = ServerMetrics()

    class FakeIO:
        physical_reads = 5
        logical_reads = 9
        physical_writes = 2

    class FakeStats:
        io = FakeIO()
        cpu_seconds = 0.25

    class FakeSolution:
        stats = FakeStats()

    metrics.record_solve("sb", 0.1, FakeSolution(), cached=False)
    metrics.record_solve("sb", 0.0001, FakeSolution(), cached=True)
    assert metrics.engine_physical_reads == 5    # hit did not double count
    assert metrics.engine_logical_reads == 9
    assert metrics.solves_total == 2
    assert metrics.solve_cache_hits == 1
    snapshot = metrics.snapshot(
        queue={"depth": 0}, solution_cache={}, index_cache={}
    )
    assert snapshot["latency"]["sb"]["count"] == 2
    assert snapshot["engine"]["cpu_seconds"] == 0.25
    assert snapshot["churn"] == {}  # no live session yet


def test_server_metrics_snapshot_carries_churn_section():
    metrics = ServerMetrics()
    info = {"backend": "vec", "events_applied": 7, "pairs_rematched": 42}
    snapshot = metrics.snapshot(
        queue={"depth": 0}, solution_cache={}, index_cache={}, churn=info
    )
    assert snapshot["churn"] == info
    snapshot["churn"]["events_applied"] = 0  # snapshot holds a copy
    assert info["events_applied"] == 7


def test_latency_histogram_bisect_matches_linear_reference():
    """``observe`` binary-searches the bucket bounds; its placement
    must agree with the first-bound-with-seconds<=bound linear scan it
    replaced, including exactly-on-a-bound values and +inf overflow."""
    from repro.server.metrics import LATENCY_BUCKETS

    def linear_bucket(seconds):
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                return i
        raise AssertionError("unreachable: buckets end with +inf")

    probes = [0.0, 1e-9, 5e-4, 0.00051, 0.001, 0.0024, 0.25, 9.99, 10.0, 11.0, 1e9]
    probes += [b for b in LATENCY_BUCKETS if b != float("inf")]
    hist = LatencyHistogram()
    expected = [0] * len(LATENCY_BUCKETS)
    for seconds in probes:
        hist.observe(seconds)
        expected[linear_bucket(seconds)] += 1
    assert hist.counts == expected
    assert hist.count == len(probes)


def test_server_metrics_count_planner_picks():
    from repro.core.registry import Plan

    metrics = ServerMetrics()
    auto_plan = Plan(requested="auto", method="chain")

    class FakeSolution:
        stats = None
        plan = auto_plan

    # Fresh auto solve: pick counted.
    metrics.record_solve("chain", 0.1, FakeSolution(), cached=False, plan=auto_plan)
    # Cached auto solve: pick counted too.
    metrics.record_solve("chain", 0.001, FakeSolution(), cached=True, plan=auto_plan)
    # Explicit request replaying the same cached entry: no pick.
    metrics.record_solve("chain", 0.001, FakeSolution(), cached=True)
    snapshot = metrics.snapshot(
        queue={"depth": 0}, solution_cache={}, index_cache={}
    )
    planner = snapshot["planner"]
    assert planner["picks"] == {"chain": 2}
    assert planner == {"picks": {"chain": 2}, "auto_solves": 2}
