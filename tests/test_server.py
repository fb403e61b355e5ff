"""End-to-end tests of the serving layer over real sockets.

Each test boots a thread-hosted server on an ephemeral port and talks
to it through the blocking :class:`repro.server.Client` — the same
path examples, CI smoke, and the throughput benchmark use.
"""

import asyncio
import concurrent.futures
import random
import threading

import pytest

from repro.api import AssignmentSession, Problem, catalogue_to_dict
from repro.cluster import GatewayConfig, ReproGateway, serve_gateway_in_thread
from repro.data import object_set_fingerprint
from repro.errors import ServerBusyError, ServerError
from repro.server import Client, ReproServer, ServerConfig, serve_in_thread
from repro.server import base

from .conftest import SHELL_TARGETS, random_instance, serving

ENGINE_METHODS = ("sb", "sb-update", "sb-deltasky", "sb-alt", "sb-two-skylines", "chain")


def make_problem(nf=6, no=24, dims=3, seed=5, method="sb", **options):
    functions, objects = random_instance(nf, no, dims, seed=seed)
    return Problem.from_sets(objects, functions, method=method, options=options)


@pytest.fixture()
def server():
    with serve_in_thread(
        ServerConfig(port=0, queue_limit=32, solution_cache_size=64)
    ) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with Client(server.base_url) as c:
        yield c


def test_health_and_metrics_shape(client):
    assert client.health()["status"] == "ok"
    metrics = client.metrics()
    assert metrics["queue"]["limit"] == 32
    assert metrics["solution_cache"]["entries"] == 0
    assert metrics["http"]["requests_total"] >= 1
    # The planner section exists even before any auto traffic.
    assert metrics["planner"]["picks"] == {}


def test_auto_method_served_end_to_end_with_planner_metrics(client):
    """The CI smoke contract: a method="auto" solve over the wire
    resolves to a concrete config, is bit-identical to requesting that
    config explicitly, and shows up in /metrics planner counters."""
    problem = make_problem(method="auto")
    auto_solution = client.solve(problem)
    assert auto_solution.method != "auto"
    assert auto_solution.plan is not None
    assert auto_solution.plan.requested == "auto"
    direct = client.solve(problem.with_method(auto_solution.method))
    assert direct.pairs == auto_solution.pairs
    metrics = client.metrics()
    assert metrics["planner"]["picks"] == {auto_solution.method: 1}
    assert metrics["planner"]["auto_solves"] == 1
    assert "auto" not in metrics["latency"]


def test_registration_dedupes_by_digest(client):
    problem = make_problem()
    first = client.register(problem)
    second = client.register(make_problem())  # structurally identical
    assert first == second == problem.digest()
    assert client.problem(first) == problem
    # a different solver selection is a different registration
    other = client.register(problem.with_method("chain"))
    assert other != first


def test_wire_solutions_bit_identical_to_direct_session_for_all_configs(client):
    """Acceptance: for every engine config, the solution returned over
    the wire equals a direct AssignmentSession.solve() bit for bit."""
    base = make_problem(nf=7, no=30, dims=3, seed=11)
    for method in ENGINE_METHODS:
        problem = base.with_method(method)
        with AssignmentSession(problem) as session:
            direct = session.solve()
        remote = client.solve(problem)
        assert remote == direct, method
        # bit-identical floats: canonical JSON pairs match exactly
        assert remote.to_dict()["pairs"] == direct.to_dict()["pairs"], method
        remote.verify()


def test_solve_by_problem_id_with_method_override(client):
    problem = make_problem()
    pid = client.register(problem)
    plain = client.solve(pid)
    overridden = client.solve(pid, method="chain")
    assert plain.as_dict() == overridden.as_dict()  # same stable matching
    assert overridden.method == "chain"


def test_solution_cache_serves_repeat_queries(client):
    problem = make_problem(seed=23)
    first = client.solve(problem)
    second = client.solve(problem)
    assert first == second
    metrics = client.metrics()
    assert metrics["solution_cache"]["hits"] >= 1
    assert metrics["solves"]["cache_hits"] >= 1
    # options change the key: a fresh solve, not a hit
    client.solve(problem, options={"omega_fraction": 0.1})
    assert client.metrics()["solution_cache"]["misses"] >= 2


def test_async_job_lifecycle_and_diff(client):
    problem = make_problem(seed=31)
    pid = client.register(problem)
    job_a = client.submit(pid)
    job_b = client.submit(pid, method="chain")
    sol_a = client.result(job_a)
    sol_b = client.result(job_b)
    assert sol_a.as_dict() == sol_b.as_dict()
    record = client.job(job_a)
    assert record["status"] == "done"
    assert record["wall_seconds"] >= 0
    assert record["solution"]["pairs"] == sol_a.to_dict()["pairs"]
    diff = client.diff(job_a, job_b)
    assert diff["identical"] is True and diff["units_changed"] == 0
    # a different cohort genuinely moves units
    other = problem.with_functions([(0.9, 0.05, 0.05), (0.1, 0.1, 0.8)])
    job_c = client.submit(other)
    client.result(job_c)
    assert client.diff(job_a, job_c)["identical"] is False


def test_error_mapping(client):
    problem = make_problem()
    pid = client.register(problem)
    with pytest.raises(ServerError) as not_found:
        client.solve("no-such-problem")
    assert not_found.value.status == 404
    with pytest.raises(ServerError) as bad_method:
        client.solve(pid, method="not-a-solver")
    assert bad_method.value.status == 400
    with pytest.raises(ServerError) as bad_option:
        client.solve(pid, options={"bogus_option": 1})
    assert bad_option.value.status == 400
    # Option values are checked too, not only their names.
    for method, options in (
        ("sb", {"maintenance": "bogus"}),
        ("sb", {"omega_fraction": "x"}),
        ("sb", {"omega_fraction": 1e308}),
        ("sb-alt", {"page_size": "big"}),
        ("sb", {"multi_pair": "no"}),
        ("sb", {"multi_pair": 0}),
    ):
        with pytest.raises(ServerError) as bad_value:
            client.solve(pid, method=method, options=options)
        assert bad_value.value.status == 400, (method, options)
    with pytest.raises(ServerError) as bad_payload:
        client.request("POST", "/v1/problems", {"schema": "wrong/v9"})
    assert bad_payload.value.status == 400
    non_finite = problem.to_dict()
    non_finite["objects"]["points"][0][0] = float("nan")
    with pytest.raises(ServerError) as nan_payload:
        client.request("POST", "/v1/problems", non_finite)
    assert nan_payload.value.status == 400
    assert "non-finite" in str(nan_payload.value)
    with pytest.raises(ServerError) as missing_job:
        client.job("job-99999999")
    assert missing_job.value.status == 404
    with pytest.raises(ServerError) as wrong_verb:
        client.request("GET", "/v1/solve")
    assert wrong_verb.value.status == 405
    with pytest.raises(ServerError) as unfinished_diff:
        client.diff("job-99999999", "job-99999999")
    assert unfinished_diff.value.status == 404


def test_inline_one_shot_solve_registers_as_side_effect(client):
    problem = make_problem(seed=41)
    _, body = client.request(
        "POST", "/v1/solve", {"problem": problem.to_dict()}
    )
    assert body["problem_id"] == problem.digest()
    assert client.problem(body["problem_id"]) == problem


def test_sb_solves_all_negative_products_over_the_wire(client):
    """Regression: when every bound x coordinate is <= -1, ``sb`` raised
    ``IndexError`` and the server answered 500."""
    problem = (
        Problem.builder().add_object((-2.0, -3.0)).add_function((0.5, 0.5)).build()
    )
    status, body = client.request("POST", "/v1/solve", {"problem": problem.to_dict()})
    assert status == 200
    assert body["solution"]["pairs"] == [[0, 0, -2.5, 1]]


def test_backpressure_returns_429_with_retry_after():
    """With an admission limit of 1, a slow in-flight solve forces the
    next submission to be turned away with 429 + Retry-After."""
    slow = make_problem(nf=40, no=2500, dims=4, seed=47)
    quick = make_problem(seed=48)
    with serve_in_thread(
        ServerConfig(port=0, queue_limit=1, solution_cache_size=8)
    ) as handle:
        with Client(handle.base_url) as client:
            pid_slow = client.register(slow)
            pid_quick = client.register(quick)
            job = client.submit(pid_slow)
            rejected = 0
            try:
                client.submit(pid_quick)
            except ServerBusyError as busy:
                rejected += 1
                assert busy.retry_after > 0
                assert busy.payload["queue_limit"] == 1
            client.result(job, timeout=120)
            # the queue drained: the same submission is admitted now,
            # and the client-side Retry-After loop also gets through.
            done = client.submit(pid_quick, timeout=60)
            client.result(done, timeout=60)
            if rejected:
                assert client.metrics()["queue"]["rejected_total"] >= 1


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_bad_server_config_fails_at_startup(target):
    """Regression: a zero pump pool or worker pool must fail loudly at
    construction, not as a silently wedged queue at runtime.  The
    shared settings are validated the same way for both services."""
    shared = (
        dict(problem_registry_size=0),
        dict(retry_after_seconds=-1.0),
        dict(read_timeout_seconds=0.0),
        dict(max_body_bytes=0),
        dict(slow_trace_threshold_seconds=-1.0),
        dict(log_ring_size=0),
    )
    if target == "gateway":
        for bad in shared:
            with pytest.raises(ValueError):
                ReproGateway(GatewayConfig(backends=("127.0.0.1:1",), **bad))
        return
    for bad in shared + (
        dict(pump_tasks=0),
        dict(workers=0),
        dict(queue_limit=0),
        dict(job_history=0),
    ):
        with pytest.raises(ValueError):
            ReproServer(ServerConfig(**bad))


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_stalled_connection_is_dropped_by_read_timeout(target):
    """Regression: a peer that opens a connection and never finishes a
    request must be dropped, not pin its connection task forever."""
    import socket

    with serving(target, read_timeout_seconds=0.2) as handle:
        stalled = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
        stalled.sendall(b"POST /v1/solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        stalled.settimeout(10)
        assert stalled.recv(1024) == b""  # server closed on us
        stalled.close()
        # the server is still serving normal clients afterwards
        with Client(handle.base_url) as client:
            assert client.health()["status"] == "ok"


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_a_stopping_service_ends_keep_alive_connections(target):
    """Regression: Python 3.11's ``wait_for`` swallows ``stop()``'s cancel
    of a connection task when a request arrives in the same instant.
    The task then waited out a whole read deadline on the idle
    connection, and the service did not stop in time.  Once a service
    is stopping, a connection ends instead of waiting for its next
    request (here the socket timeout would fire first)."""
    import contextlib
    import socket

    probe = b"GET /healthz HTTP/1.1\r\n\r\n"
    with serving(target) as handle:
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as raw:
            raw.sendall(probe)
            assert raw.recv(65536).startswith(b"HTTP/1.1 200 ")
            handle.service._stopping = True
            # The loop may still answer this request, or may already
            # have ended and reset it; either way the connection ends.
            with contextlib.suppress(ConnectionResetError):
                raw.sendall(probe)
                while raw.recv(65536):
                    pass


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_registration_without_a_body_is_a_bad_request(target):
    """Regression: an empty or ``null`` registration body is a 400
    ``SerdeError`` from either service, never a 500."""
    with serving(target) as handle, Client(handle.base_url) as client:
        for body in (None, b"null"):
            with pytest.raises(ServerError) as excinfo:
                client.request("POST", "/v1/problems", body)
            assert excinfo.value.status == 400
            assert excinfo.value.payload["type"] == "SerdeError"
            assert "needs a JSON body" in excinfo.value.payload["error"]


def test_problem_registry_is_lru_bounded():
    """Regression: registrations must not retain catalogues without
    bound — the registry evicts least-recently-used entries, and an
    evicted id simply 404s (re-registration is idempotent)."""
    server = ReproServer(ServerConfig(problem_registry_size=2))
    problems = [make_problem(seed=60 + i) for i in range(3)]
    ids = [server._register(p)[0] for p in problems]
    assert len(server._problems) == 2
    assert ids[0] not in server._problems          # oldest evicted
    assert ids[1] in server._problems and ids[2] in server._problems
    # re-registering the evicted problem readmits it under the same id
    again, created = server._register(problems[0])
    assert again == ids[0] and created
    assert again in server._problems


def test_repeat_registration_keeps_the_registered_problem(server, client):
    """A repeat registration must not replace the registered Problem
    with its fresh parse: the first keeps its memoized plan, solve key
    and digests, so a replayed request does not plan again."""
    problem = make_problem(method="auto")
    pid = client.register(problem)
    registered = server.service._problems[pid]
    client.solve(pid)
    assert "_plan" in registered.__dict__
    assert client.register(problem) == pid
    assert server.service._problems[pid] is registered
    status, body = client.request("POST", "/v1/solve", {"problem": problem.to_dict()})
    assert status == 200 and body["cache_hit"] is True
    assert server.service._problems[pid] is registered


def test_client_problem_memory_is_lru_bounded(client, monkeypatch):
    """The client remembers at most KNOWN_PROBLEMS registrations (the
    server's default registry size), and ``solve(problem)`` attaches
    the Problem it was given even after its entry was evicted."""
    from repro.server import client as client_module

    assert client_module.KNOWN_PROBLEMS == ServerConfig().problem_registry_size
    monkeypatch.setattr(client_module, "KNOWN_PROBLEMS", 3)
    problems = [make_problem(seed=90 + i) for i in range(5)]
    ids = [client.register(p) for p in problems]
    assert len(client._known) == 3
    assert list(client._known) == ids[2:]
    # Whatever the memory holds, solve(problem) attaches its argument.
    monkeypatch.setattr(client_module, "KNOWN_PROBLEMS", 0)
    solution = client.solve(problems[0])
    assert not client._known
    assert solution.problem is problems[0]
    assert solution.verify()


def test_override_solutions_stay_detached_from_the_base_problem(client):
    """Regression: a solve with method/options overrides must not come
    back carrying the registered base Problem — its options would
    misreport what produced the result."""
    problem = make_problem()
    pid = client.register(problem)
    plain = client.solve(pid)
    assert plain.problem == problem                # attach on exact match
    assert client.solve(pid, method="chain").problem is None
    assert client.solve(pid, options={"omega_fraction": 0.1}).problem is None
    job_plain = client.submit(pid)
    assert client.result(job_plain).problem == problem
    job_override = client.submit(pid, options={"omega_fraction": 0.1})
    assert client.result(job_override).problem is None


def test_saturated_admission_deterministically_yields_429():
    """Unit-level certainty for the backpressure contract: with the
    only admission slot held, both the sync-solve and job-submit paths
    answer 429 with a Retry-After header."""

    async def run():
        server = ReproServer(
            ServerConfig(port=0, queue_limit=1, retry_after_seconds=2.5)
        )
        await server.start()
        try:
            problem = make_problem()
            problem_id, _ = server._register(problem)
            assert server._admission.try_acquire()  # hold the only slot
            try:
                response = await server._admitted_solve(
                    lambda: (problem_id, problem)
                )
                assert response.status == 429
                assert response.headers["Retry-After"] == "2.5"
                from repro.server.http import Request

                submit = await server._submit_job(
                    Request(
                        "POST", "/v1/jobs", {}, {},
                        b'{"problem_id": "%s"}' % problem_id.encode(), True,
                    )
                )
                assert submit.status == 429
                # admission runs before the body is parsed: a saturated
                # queue rejects even malformed payloads with 429, and
                # a post-admission parse failure releases the slot.
                garbage = await server._submit_job(
                    Request("POST", "/v1/jobs", {}, {}, b"not json", True)
                )
                assert garbage.status == 429
            finally:
                server._admission.release()
            assert server._metrics.rejected_total == 3
            # with the slot free, a malformed body now fails cleanly
            # and does not leak its admission slot
            from repro.errors import SerdeError as _SerdeError
            from repro.server.http import Request as _Request

            try:
                await server._submit_job(
                    _Request("POST", "/v1/jobs", {}, {}, b"not json", True)
                )
            except _SerdeError:
                pass
            else:  # pragma: no cover - the parse must fail
                raise AssertionError("malformed body should raise")
            assert server._admission.depth == 0
        finally:
            await server.stop()

    asyncio.run(run())


def test_sixteen_concurrent_clients_share_one_index_build(server):
    """Acceptance: ≥16 simultaneous clients solving distinct cohorts
    over one shared catalogue leave exactly one ObjectIndex build in
    cache_info()."""
    _, objects = random_instance(1, 40, 3, seed=53)
    base = make_problem(nf=4, no=40, dims=3, seed=53)
    rng = random.Random(7)

    def cohort(k):
        weights = []
        for _ in range(3 + k % 3):
            raw = [rng.random() + 1e-9 for _ in range(3)]
            total = sum(raw)
            weights.append(tuple(x / total for x in raw))
        return base.with_functions(weights)

    problems = [cohort(k) for k in range(16)]

    def solve_one(problem):
        with Client(server.base_url) as worker:
            return worker.solve(problem).verify()

    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        solutions = list(pool.map(solve_one, problems))

    assert len(solutions) == 16
    for problem, solution in zip(problems, solutions):
        with AssignmentSession(problem) as session:
            assert solution == session.solve()
    metrics = Client(server.base_url).metrics()
    index_cache = metrics["index_cache"]
    assert index_cache["misses"] == 1        # exactly one index build
    assert index_cache["hits"] == 15         # everyone else reused it
    assert metrics["queue"]["rejected_total"] == 0


def test_job_finish_is_never_observed_without_its_solution():
    """Regression for the finish race: threads polling job records
    while the pump completes them must never observe ``done`` with a
    missing solution / wall_seconds / finished_at."""
    base = make_problem(nf=16, no=400, dims=3, seed=71)
    with serve_in_thread(
        ServerConfig(port=0, queue_limit=32, solution_cache_size=0)
    ) as handle:
        with Client(handle.base_url) as client:
            job_ids = [
                client.submit(
                    base.with_options(omega_fraction=0.02 + 0.005 * i)
                )
                for i in range(6)
            ]
            jobs = [handle.service._jobs.get(jid) for jid in job_ids]
            assert all(job is not None for job in jobs)
            violations = []
            done = threading.Event()

            def poll():
                while not done.is_set():
                    for job in jobs:
                        record = job.to_dict()
                        if record["status"] == "done" and (
                            record["solution"] is None
                            or record["wall_seconds"] is None
                            or record["finished_at"] is None
                        ):
                            violations.append(record["job_id"])

            pollers = [threading.Thread(target=poll) for _ in range(3)]
            for poller in pollers:
                poller.start()
            try:
                for jid in job_ids:
                    client.result(jid, timeout=120.0)
            finally:
                done.set()
                for poller in pollers:
                    poller.join()
            assert not violations
            for jid in job_ids:
                record = client.job(jid)
                assert record["status"] == "done"
                assert record["solution"] is not None
                assert record["wall_seconds"] is not None
                assert record["finished_at"] is not None


def test_identical_concurrent_requests_coalesce_to_one_engine_run(server):
    """Single-flight: N identical in-flight solves run the engine once."""
    problem = make_problem(nf=10, no=400, dims=3, seed=59)

    def solve_one(_):
        with Client(server.base_url) as worker:
            return worker.solve(problem)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        solutions = list(pool.map(solve_one, range(8)))
    assert len({s.to_json() for s in solutions}) == 1
    metrics = Client(server.base_url).metrics()
    assert metrics["solution_cache"]["misses"] == 1
    assert metrics["index_cache"]["misses"] == 1
    assert metrics["solves"]["total"] == 8


def test_healthz_reports_load_and_version(client):
    """The enriched /healthz contract the cluster gateway probes rely
    on: version, uptime and load signals alongside the legacy keys."""
    import repro

    health = client.health()
    assert health["status"] == "ok"
    assert health["problems"] == 0            # legacy key, still present
    assert health["version"] == repro.__version__
    assert health["uptime_seconds"] >= 0
    assert health["queue_depth"] == 0
    assert health["jobs_inflight"] == 0

    problem = make_problem(seed=91)
    client.solve(problem)
    assert client.health()["problems"] == 1


def test_shared_client_is_thread_safe(server):
    """One Client shared by many threads: each thread gets its own
    keep-alive connection, so concurrent calls cannot interleave on a
    single HTTP stream (the cluster gateway forwards every in-flight
    request for a backend through one shared Client).  Half the solves
    go by catalogue reference over catalogues no thread has sent yet,
    so the threads race on the client's catalogue memory too."""
    import sys

    problems = [make_problem(seed=s) for s in (101, 102, 103)]
    by_reference = [make_problem(seed=s) for s in (104, 105, 106)]
    with AssignmentSession(problems[0]) as session:
        references = {
            p.digest(): session.solve(p).to_dict()["pairs"]
            for p in problems + by_reference
        }

    with Client(server.base_url) as shared:
        ids = [shared.register(p) for p in problems]

        def hammer(i):
            if i % 2:
                problem = by_reference[i % len(by_reference)]
                return problem.digest(), shared.solve(problem).to_dict()["pairs"]
            pid = ids[i % len(ids)]
            if i % 5 == 4:
                assert shared.health()["status"] == "ok"
            return pid, shared.solve(pid).to_dict()["pairs"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                for pid, pairs in pool.map(hammer, range(48), timeout=120):
                    assert pairs == references[pid]
        finally:
            sys.setswitchinterval(interval)
        assert set(shared._catalogues) == {
            object_set_fingerprint(p.object_set) for p in problems + by_reference
        }

        # close() drops every thread's connection; the client remains
        # usable afterwards (threads transparently reconnect).
        shared.close()
        assert shared.health()["status"] == "ok"


# -- catalogues by reference ---------------------------------------------------


def _pairs_and_score_bits(solution):
    return [(p.fid, p.oid, p.score.hex(), p.count) for p in solution.pairs]


def _recording(client: Client) -> list:
    """The paths of every request ``client`` sends from now on."""
    paths: list = []
    send = client.request

    def request(method, path, payload=None):
        paths.append(path)
        return send(method, path, payload)

    client.request = request  # type: ignore[method-assign]
    return paths


def _reference_answer(problem):
    with AssignmentSession(problem) as session:
        return _pairs_and_score_bits(session.solve())


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_v2_and_v3_payloads_register_under_one_problem_id(target):
    problem = make_problem(seed=37)
    catalogue = catalogue_to_dict(problem.object_set)
    fingerprint = object_set_fingerprint(problem.object_set)
    with serving(target) as handle, Client(handle.base_url) as client:
        _, v2 = client.request("POST", "/v1/problems", problem.to_dict())
        assert client.request("POST", "/v1/catalogues", catalogue) == (
            201, {"catalogue": fingerprint, "created": True}
        )
        assert client.request("POST", "/v1/catalogues", catalogue) == (
            200, {"catalogue": fingerprint, "created": False}
        )
        _, v3 = client.request("POST", "/v1/problems", problem.to_reference_dict())
        assert v2["problem_id"] == v3["problem_id"] == problem.digest()
        assert v2["instance_digest"] == v3["instance_digest"]
        # GET still answers the self-contained v2 payload.
        assert client.problem(v3["problem_id"]) == problem


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_unknown_catalogue_is_a_typed_404_and_bad_catalogues_are_400(target):
    v3 = make_problem(seed=38).to_reference_dict()
    with serving(target) as handle, Client(handle.base_url) as client:
        for path, body in (
            ("/v1/problems", v3),
            ("/v1/solve", {"problem": v3}),
            ("/v1/jobs", {"problem": v3}),
        ):
            with pytest.raises(ServerError) as excinfo:
                client.request("POST", path, body)
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "UnknownCatalogueError"
            assert v3["catalogue"] in excinfo.value.payload["error"]
        schema = {"schema": "repro.catalogue/v1"}
        for body, kind in (
            (None, "SerdeError"),
            ({**schema, "points": [[0.5, float("nan")]]}, "SerdeError"),
            (b'{"schema": "repro.catalogue/v1", "points": [[1e999]]}', None),
            ({**schema, "points": 5}, "InvalidProblemError"),
            ({**schema, "points": [[0.5], [0.5, 0.5]]}, "InvalidProblemError"),
            ({**schema, "points": [[0.5]], "capacities": [0]}, "InvalidProblemError"),
            ({"schema": "repro.problem/v2", "points": [[0.5]]}, "SerdeError"),
        ):
            with pytest.raises(ServerError) as excinfo:
                client.request("POST", "/v1/catalogues", body)
            assert excinfo.value.status == 400, body
            assert excinfo.value.error_type == (kind or "InvalidProblemError")


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_scores_beyond_the_float_range_are_a_400(target):
    """At priority 4 these coordinates score inf - inf.  Every path
    that decodes a problem answers a typed 400, whatever the method,
    before any solve runs (``chain`` used to spin on it)."""
    points = [[1.7e308, -1.7e308], [-1.7e308, 0.5], [1.7e308, 1e308]]
    template = Problem(
        objects=[(0.5, 0.5)] * 3,
        functions=[(0.2, 0.8), (1 / 3, 2 / 3)],
        priorities=[1, 4],
    )
    catalogue = {"schema": "repro.catalogue/v1", "points": points}
    with serving(target) as handle, Client(handle.base_url) as client:
        # The catalogue alone is valid: a cohort of small priorities
        # may use it.
        _, created = client.request("POST", "/v1/catalogues", catalogue)
        for method in ("auto", "sb", "sb-alt", "sb-two-skylines", "chain"):
            v2 = template.with_method(method).to_dict()
            v2["objects"]["points"] = points
            v3 = template.with_method(method).to_reference_dict()
            v3["catalogue"] = created["catalogue"]
            for path, body in (
                ("/v1/problems", v2),
                ("/v1/solve", {"problem": v2}),
                ("/v1/solve", {"problem": v3}),
            ):
                with pytest.raises(ServerError) as excinfo:
                    client.request("POST", path, body)
                assert excinfo.value.status == 400, (method, path)
                assert excinfo.value.error_type == "InvalidProblemError"


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_a_second_cohort_over_a_held_catalogue_is_one_request(target):
    base_problem = make_problem(nf=5, no=40, seed=39)
    second = base_problem.with_functions([(0.2, 0.3, 0.5), (0.6, 0.2, 0.2)])
    with serving(target) as handle, Client(handle.base_url) as client:
        paths = _recording(client)
        first = client.solve(base_problem)
        assert paths == ["/v1/catalogues", "/v1/solve"]
        del paths[:]
        again = client.solve(second, method="chain")
        assert paths == ["/v1/solve"]
        assert _pairs_and_score_bits(first) == _reference_answer(base_problem)
        assert _pairs_and_score_bits(again) == _reference_answer(second)
        if target == "gateway":
            gateway = client.metrics()["gateway"]
            assert gateway["forwards_total"] == 2
            assert gateway["catalogue_pushes_total"] == 1
        del paths[:]
        job = client.submit(second)
        assert paths == ["/v1/jobs"]
        assert client.result(job).problem is second


def _start(target: str, backends: list, port: int = 0):
    if target == "server":
        return serve_in_thread(ServerConfig(port=port))
    return serve_gateway_in_thread(GatewayConfig(backends=tuple(backends), port=port))


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_restarted_service_makes_the_client_resend_the_catalogue_once(target):
    problem = make_problem(seed=43)
    cohort = problem.with_functions([(0.1, 0.1, 0.8)])
    with serve_in_thread(ServerConfig(port=0)) as backend:
        backends = [f"127.0.0.1:{backend.port}"]
        with _start(target, backends) as first, Client(first.base_url) as client:
            paths = _recording(client)
            before = client.solve(problem)
            first.close()
            with _start(target, backends, port=first.port):
                after = client.solve(problem)
                assert client.solve(cohort).problem is cohort
        assert paths.count("/v1/catalogues") == 2
        assert _pairs_and_score_bits(after) == _pairs_and_score_bits(before)


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_evicted_catalogue_heals_like_an_unknown_one(target, monkeypatch):
    monkeypatch.setattr(base, "CATALOGUE_STORE_SIZE", 1)
    problem_a = make_problem(seed=44)
    problem_b = make_problem(seed=45)
    cohort_a = problem_a.with_functions([(0.3, 0.3, 0.4)])
    with serving(target) as handle, Client(handle.base_url) as client:
        paths = _recording(client)
        client.solve(problem_a)
        client.solve(problem_b)  # evicts catalogue a everywhere
        assert len(handle.service._catalogues) == 1
        solution = client.solve(cohort_a)
        assert paths.count("/v1/catalogues") == 3
        assert _pairs_and_score_bits(solution) == _reference_answer(cohort_a)


def test_cohorts_over_one_catalogue_share_its_object_set(server, client):
    problem = make_problem(seed=46)
    cohort = problem.with_functions([(0.5, 0.25, 0.25)])
    first, second = client.register(problem), client.register(cohort)
    registered = server.service._problems
    assert first != second
    assert registered[first].object_set is registered[second].object_set
    fingerprint = object_set_fingerprint(problem.object_set)
    assert registered[first].object_set is server.service._catalogues[fingerprint]


@pytest.mark.parametrize("target", SHELL_TARGETS)
def test_unparseable_request_target_is_a_400(target):
    """Regression: ``urlsplit`` raised on an unterminated IPv6 host and
    the connection closed without a response."""
    import socket

    with serving(target) as handle:
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as raw:
            raw.sendall(b"GET http://[ HTTP/1.1\r\n\r\n")
            assert raw.recv(1024).startswith(b"HTTP/1.1 400 ")
