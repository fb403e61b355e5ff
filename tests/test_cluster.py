"""End-to-end tests of the cluster gateway over real sockets.

Each test boots a small fleet of thread-hosted ``repro-server``
backends plus a thread-hosted gateway, and talks to the gateway with
the ordinary blocking :class:`repro.server.Client` — the gateway
speaks the same protocol, so the client needs no cluster awareness.
The failover tests kill real backends and assert that solves re-shard
to ring successors with bit-identical results.
"""

import concurrent.futures
import http.server
import json
import logging
import socket
import threading
import time

import pytest

from repro.api import AssignmentSession, Problem
from repro.cluster import GatewayConfig, serve_gateway_in_thread
from repro.errors import ServerBusyError, ServerError, ServerUnavailableError
from repro.server import Client, ServerConfig, serve_in_thread

from .conftest import random_instance

ENGINE_METHODS = (
    "sb",
    "sb-update",
    "sb-deltasky",
    "sb-alt",
    "sb-two-skylines",
    "chain",
    "sb-vec",
    "sb-deltasky-vec",
)


def make_problem(nf=6, no=24, dims=3, seed=5, method="sb", **options):
    functions, objects = random_instance(nf, no, dims, seed=seed)
    return Problem.from_sets(objects, functions, method=method, options=options)


def gateway_config(addresses, **overrides) -> GatewayConfig:
    """Test-speed gateway: fast probes, immediate-ish down marking."""
    defaults = dict(
        backends=tuple(addresses),
        port=0,
        probe_interval_seconds=0.2,
        probe_timeout_seconds=1.0,
        down_after=2,
        retry_after_seconds=0.05,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


class FleetFixture:
    """N thread-hosted backends + one gateway, with kill/restart."""

    def __init__(self, n: int):
        self.handles = [serve_in_thread(ServerConfig(port=0)) for _ in range(n)]
        self.addresses = [f"127.0.0.1:{h.port}" for h in self.handles]
        self.gateway = serve_gateway_in_thread(gateway_config(self.addresses))

    def owner_address(self, problem: Problem) -> str:
        fleet = self.gateway.service._fleet
        owner = fleet.owner(problem.instance_digest())
        assert owner is not None
        return owner.address

    def handle_for(self, address: str):
        return self.handles[self.addresses.index(address)]

    def kill(self, address: str) -> None:
        self.handle_for(address).close()

    def restart(self, address: str) -> None:
        port = int(address.rsplit(":", 1)[1])
        self.handles[self.addresses.index(address)] = serve_in_thread(
            ServerConfig(port=port)
        )

    def wait_alive(self, address: str, alive: bool, timeout: float = 15.0):
        deadline = time.monotonic() + timeout
        backend = self.gateway.service._fleet.backends[address]
        while time.monotonic() < deadline:
            if backend.alive == alive:
                return
            time.sleep(0.05)
        raise AssertionError(
            f"backend {address} never became {'alive' if alive else 'down'}"
        )

    def close(self) -> None:
        self.gateway.close()
        for handle in self.handles:
            if handle.thread.is_alive():
                handle.close()


@pytest.fixture()
def fleet():
    fixture = FleetFixture(3)
    try:
        yield fixture
    finally:
        fixture.close()


@pytest.fixture()
def client(fleet):
    with Client(fleet.gateway.base_url) as c:
        yield c


def test_gateway_health_reports_ring_membership(fleet, client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["role"] == "gateway"
    assert health["ring"]["alive"] == 3
    assert health["ring"]["configured"] == 3
    assert sorted(health["ring"]["members"]) == sorted(fleet.addresses)
    for address in fleet.addresses:
        snapshot = health["backends"][address]
        assert snapshot["alive"] is True
        # Load signals lifted from each backend's own /healthz.
        assert snapshot["queue_depth"] == 0
        assert snapshot["jobs_inflight"] == 0
        assert snapshot["version"] == health["version"]


def test_gateway_solves_bit_identical_to_direct_for_all_engine_configs(
    fleet, client
):
    """The acceptance contract: every engine config solved through the
    gateway returns exactly what a direct single-server (and local
    session) solve returns — same pairs, same scores, same resolved
    method."""
    problem = make_problem(seed=11)
    pid = client.register(problem)
    with AssignmentSession(problem) as session:
        for method in ENGINE_METHODS + ("auto",):
            via_gateway = client.solve(pid, method=method)
            direct = session.solve(problem.with_method(method))
            assert via_gateway.to_dict()["pairs"] == direct.to_dict()["pairs"]
            assert via_gateway.method == direct.method
            assert via_gateway.total_score() == direct.total_score()


def test_sticky_routing_keeps_method_variants_on_one_backend(fleet, client):
    """instance_digest excludes the solver section, so every method
    variant of one catalogue forwards to the same backend (one R-tree
    build per catalogue, fleet-wide)."""
    problem = make_problem(seed=23)
    pid = client.register(problem)
    expected = fleet.owner_address(problem)
    for method in ("sb", "chain", "sb-deltasky"):
        _, body = Client(fleet.gateway.base_url).request(
            "POST", f"/v1/problems/{pid}/solve", {"method": method}
        )
        assert body["backend"] == expected


def test_distinct_catalogues_spread_across_backends(fleet, client):
    """With enough distinct catalogues the ring uses the whole fleet."""
    backends = set()
    for seed in range(12):
        problem = make_problem(seed=seed)
        backends.add(fleet.owner_address(problem))
        client.register(problem)
    assert len(backends) >= 2


def test_async_jobs_route_by_prefix_and_diff_works_cross_backend(
    fleet, client
):
    # Two catalogues owned by different backends (seeds chosen at
    # runtime off the live ring, so ephemeral ports can't break this).
    seeds = iter(range(100))
    problem_a = make_problem(seed=next(seeds))
    owner_a = fleet.owner_address(problem_a)
    problem_b = None
    for seed in seeds:
        candidate = make_problem(seed=seed)
        if fleet.owner_address(candidate) != owner_a:
            problem_b = candidate
            break
    assert problem_b is not None

    jid_a = client.submit(client.register(problem_a))
    jid_b = client.submit(client.register(problem_b))
    for jid in (jid_a, jid_b):
        assert "@" in jid
        record = client.job(jid)
        assert record["job_id"] == jid  # poll echoes the prefixed id
    solution_a = client.result(jid_a)
    solution_b = client.result(jid_b)

    # Same-backend diff delegates to that backend; cross-backend diff
    # is computed by the gateway from both solutions.  Either way the
    # payload shape matches the single-server /v1/diff contract.
    jid_a2 = client.submit(client.register(problem_a), method="chain")
    client.result(jid_a2)
    same = client.diff(jid_a, jid_a2)
    assert same["identical"] is True and same["units_changed"] == 0

    cross = client.diff(jid_a, jid_b)
    assert cross["a"] == jid_a and cross["b"] == jid_b
    assert cross["identical"] is (
        solution_a.as_dict() == solution_b.as_dict()
    )

    with pytest.raises(ServerError) as excinfo:
        client.job("deadbeef@job-00000001")
    assert excinfo.value.status == 404


def test_failover_reshards_to_successor_with_identical_solution(fleet, client):
    problem = make_problem(nf=8, no=40, seed=31)
    pid = client.register(problem)
    before = client.solve(pid)
    owner = fleet.owner_address(problem)

    fleet.kill(owner)
    # No probe wait needed: the forward path marks the backend down on
    # the first refused connection and re-shards within the request.
    after = client.solve(pid)
    assert after.to_dict()["pairs"] == before.to_dict()["pairs"]
    assert after.total_score() == before.total_score()
    assert fleet.owner_address(problem) != owner

    metrics = client.metrics()
    assert metrics["gateway"]["reshards_total"] >= 1
    # The successor had never seen the problem: the gateway replayed
    # the remembered registration before retrying the solve.
    assert metrics["gateway"]["reregistrations_total"] >= 1
    assert metrics["gateway"]["backends_alive"] == 2
    assert metrics["backends"][owner]["alive"] is False
    assert client.health()["status"] == "degraded"


def test_failover_is_bit_identical_for_every_engine_config(fleet, client):
    """Kill the owner mid-sequence: every engine config re-solved on
    the ring successor matches the pre-failover solution exactly."""
    problem = make_problem(seed=47)
    pid = client.register(problem)
    before = {
        method: client.solve(pid, method=method)
        for method in ENGINE_METHODS + ("auto",)
    }
    fleet.kill(fleet.owner_address(problem))
    for method, expected in before.items():
        resolved = client.solve(pid, method=method)
        assert resolved.to_dict()["pairs"] == expected.to_dict()["pairs"]
        assert resolved.method == expected.method


def test_failover_trace_stitches_across_backends(fleet, client):
    """Kill the owner mid-sequence: the re-forwarded solve's trace —
    fetched from the gateway — stitches gateway and successor spans
    under one trace id, showing the failed forward, the replayed
    registration, and the successor's re-solve."""
    problem = make_problem(nf=8, no=40, seed=61)
    pid = client.register(problem)
    client.solve(pid)
    owner = fleet.owner_address(problem)

    fleet.kill(owner)
    client.solve(pid)
    trace_id = client.last_trace_id
    assert trace_id is not None

    record = client.request("GET", f"/v1/traces/{trace_id}")[1]
    assert record["stitched"] is True
    assert {s["trace_id"] for s in record["spans"]} == {trace_id}

    names = [s["name"] for s in record["spans"]]
    assert "gateway.request" in names
    # The forward to the dead owner failed inside this trace...
    failed = [
        s
        for s in record["spans"]
        if s["name"] == "http.request" and s["status"] == "error"
    ]
    assert failed, names
    assert any(owner in s["attributes"]["backend"] for s in failed)
    # ...the gateway replayed the remembered registration...
    assert "gateway.reregister" in names
    # ...and the ring successor actually re-ran the engine under the
    # same trace id (its own server.request adopted the forward's
    # context over the wire).
    assert "server.request" in names
    assert "engine.solve" in names
    # Spans came from at least two processes-worth of nodes: the
    # gateway plus the successor backend.
    assert len(record["nodes"]) >= 2
    successor = fleet.owner_address(problem)
    assert successor != owner
    assert successor in record["nodes"]


def test_no_live_owner_yields_503_with_retry_after(fleet, client):
    problem = make_problem(seed=53)
    pid = client.register(problem)
    for address in fleet.addresses:
        fleet.kill(address)
    with pytest.raises(ServerUnavailableError) as excinfo:
        client.request("POST", f"/v1/problems/{pid}/solve", None)
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after > 0
    metrics = client.metrics()
    assert metrics["gateway"]["no_owner_total"] >= 1
    assert metrics["gateway"]["backends_alive"] == 0
    assert client.health()["status"] == "down"


def test_job_poll_on_dead_backend_is_503_until_it_recovers(fleet, client):
    problem = make_problem(seed=61)
    pid = client.register(problem)
    jid = client.submit(pid)
    client.result(jid)  # completed on its owner
    owner = fleet.owner_address(problem)

    fleet.kill(owner)
    fleet.wait_alive(owner, alive=False)
    with pytest.raises(ServerUnavailableError):
        client.job(jid)

    # Restarting on the same port rejoins the same ring position; the
    # job record itself died with the old process, so the poll now
    # relays the backend's honest 404 instead of a transport error.
    fleet.restart(owner)
    fleet.wait_alive(owner, alive=True)
    with pytest.raises(ServerError) as excinfo:
        client.job(jid)
    assert excinfo.value.status == 404


def test_job_in_flight_across_an_owner_restart_ends_in_typed_errors(
    fleet, client, monkeypatch
):
    """An owner stopped while it runs a job: the stop waits for the
    solve (the session's pool shuts down with ``wait=True``), a poll
    meanwhile is a typed 503, and after a restart on the same port the
    job is an honest 404 at once; a new solve of the problem succeeds
    and equals a local one."""
    started, release = threading.Event(), threading.Event()
    real_solve = AssignmentSession.solve

    def held_solve(self, problem=None):
        started.set()
        assert release.wait(30), "the held solve was never released"
        return real_solve(self, problem)

    monkeypatch.setattr(AssignmentSession, "solve", held_solve)
    problem = make_problem(seed=71)
    owner = fleet.owner_address(problem)
    jid = client.submit(problem)
    assert started.wait(30), "the job never reached a solve"

    stopper = threading.Thread(target=fleet.kill, args=(owner,))
    stopper.start()
    try:
        deadline = time.monotonic() + 30
        with pytest.raises(ServerUnavailableError) as excinfo:
            while time.monotonic() < deadline:
                assert client.job(jid)["status"] != "done"
                time.sleep(0.02)
        assert excinfo.value.status == 503
        assert stopper.is_alive()  # the stop waits for the held solve
    finally:
        release.set()
        stopper.join(30)
    assert not stopper.is_alive()

    fleet.restart(owner)
    fleet.wait_alive(owner, alive=True)
    start = time.monotonic()
    with pytest.raises(ServerError) as excinfo:
        client.result(jid, timeout=10)
    assert excinfo.value.status == 404
    assert "unknown job" in str(excinfo.value)
    assert time.monotonic() - start < 5

    solution = client.solve(problem)
    with AssignmentSession(problem) as session:
        local = session.solve()
    assert solution.to_dict()["pairs"] == local.to_dict()["pairs"]


def test_stop_with_open_keep_alive_connections_logs_no_error(caplog):
    """Stopping a service cancels its open keep-alive connections; each
    cancelled handler ends normally, so asyncio logs no error (it would
    log the cancellation with a traceback otherwise).  Covers a gateway
    and then its backend, each stopped while a client's connection to
    it is open."""
    problem = make_problem(seed=73)
    backend = serve_in_thread(ServerConfig(port=0))
    gateway = serve_gateway_in_thread(gateway_config([f"127.0.0.1:{backend.port}"]))
    try:
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for handle in (gateway, backend):
                with Client(handle.base_url) as client:
                    client.solve(problem)
                    handle.close()
    finally:
        for handle in (gateway, backend):
            if handle.thread.is_alive():
                handle.close()
    errors = [r for r in caplog.records if r.name == "asyncio"]
    assert not errors, [r.getMessage() for r in errors]


def test_recovered_backend_rejoins_with_ownership_intact(fleet, client):
    problem = make_problem(seed=67)
    pid = client.register(problem)
    owner = fleet.owner_address(problem)
    baseline = client.solve(pid)

    fleet.kill(owner)
    fleet.wait_alive(owner, alive=False)
    via_successor = client.solve(pid)
    successor = fleet.owner_address(problem)
    assert successor != owner

    fleet.restart(owner)
    fleet.wait_alive(owner, alive=True)
    # Ring positions were never dropped, so ownership reverts exactly.
    assert fleet.owner_address(problem) == owner
    recovered = client.solve(pid)
    assert recovered.to_dict()["pairs"] == baseline.to_dict()["pairs"]
    assert via_successor.to_dict()["pairs"] == baseline.to_dict()["pairs"]
    metrics = client.metrics()
    assert metrics["backends"][owner]["recoveries"] >= 1
    assert client.health()["status"] == "ok"


def test_inline_solve_and_submit_without_prior_registration(fleet, client):
    """POST /v1/solve and /v1/jobs with an inline problem payload work
    through the gateway (it registers-and-routes as a side effect),
    matching the single-server inline contract."""
    problem = make_problem(seed=71)
    status, body = client.request(
        "POST", "/v1/solve", {"problem": problem.to_dict()}
    )
    assert status == 200
    assert body["backend"] == fleet.owner_address(problem)
    with AssignmentSession(problem) as session:
        direct = session.solve()
    assert body["solution"]["pairs"] == direct.to_dict()["pairs"]

    status, submitted = client.request(
        "POST", "/v1/jobs", {"problem": problem.to_dict(), "method": "chain"}
    )
    assert status == 202
    assert "@" in submitted["job_id"]
    assert client.result(submitted["job_id"]).to_dict()["pairs"] == (
        direct.to_dict()["pairs"]
    )


def test_gateway_and_backend_agree_on_the_problem_id(fleet, client):
    """A v1 payload with every key out of canonical order: the gateway
    validates it, relays the bytes it received, and its routing id,
    the backend's problem_id and Problem.digest() are one value."""
    problem = make_problem(seed=83)
    canonical = problem.to_dict()
    payload = {
        key: (
            dict(reversed(list(value.items())))
            if isinstance(value, dict)
            else value
        )
        for key, value in reversed(list(canonical.items()))
    }
    payload["schema"] = "repro.problem/v1"
    assert list(payload) != sorted(payload)
    status, body = client.request("POST", "/v1/problems", payload)
    assert status == 201
    assert body["problem_id"] == problem.digest()
    assert body["instance_digest"] == problem.instance_digest()
    assert body["backend"] == fleet.owner_address(problem)
    entry = fleet.gateway.service._problems[problem.digest()]
    assert entry["instance_digest"] == problem.instance_digest()
    assert entry["payload"] == json.dumps(payload).encode("utf-8")
    solution = client.solve(body["problem_id"])
    with AssignmentSession(problem) as session:
        assert solution.pairs == session.solve().pairs


def test_gateway_metrics_aggregate_fleet_counters(fleet, client):
    problems = [make_problem(seed=seed) for seed in range(4)]
    for problem in problems:
        client.solve(client.register(problem))
        client.solve(problems[0].digest())  # repeat: backend cache hit

    metrics = client.metrics()
    fleet_section = metrics["fleet"]
    assert fleet_section["solves"]["total"] >= 8
    assert fleet_section["solves"]["cache_hits"] >= 3
    assert fleet_section["backends_reporting"] == 3
    assert fleet_section["unreachable"] == []
    # Summed backend counters equal the per-backend sum, by direct
    # comparison against each backend's own /metrics.
    direct_total = 0
    for address in fleet.addresses:
        with Client(f"http://{address}") as direct:
            direct_total += direct.metrics()["solves"]["total"]
    assert fleet_section["solves"]["total"] == direct_total

    gateway_section = metrics["gateway"]
    assert gateway_section["forwards_total"] >= 8
    assert gateway_section["probe_cycles"] >= 1
    assert metrics["http"]["requests_total"] >= 8
    latency = metrics["forward_latency"]
    assert sum(h["count"] for h in latency.values()) >= 8


def test_gateway_rejects_bad_requests_like_a_server(fleet, client):
    with pytest.raises(ServerError) as excinfo:
        client.request("POST", "/v1/solve", {"problem_id": 42})
    assert excinfo.value.status == 400
    with pytest.raises(ServerError) as excinfo:
        client.request("POST", "/v1/solve", {})
    assert excinfo.value.status == 400
    with pytest.raises(ServerError) as excinfo:
        client.request("GET", "/v1/problems/unknown")
    assert excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        client.request("GET", "/v1/diff?a=onlyone")
    assert excinfo.value.status == 400
    payload = make_problem().to_dict()
    payload["functions"]["weights"][0][0] = float("inf")
    with pytest.raises(ServerError) as excinfo:
        client.request("POST", "/v1/solve", {"problem": payload})
    assert excinfo.value.status == 400
    assert "non-finite" in str(excinfo.value)


def test_gateway_serves_concurrent_clients(fleet):
    """Eight threads hammer the gateway with a mix of catalogues; all
    solutions verify and match their local-session references."""
    problems = [make_problem(seed=seed) for seed in range(4)]
    references = []
    for problem in problems:
        with AssignmentSession(problem) as session:
            references.append(session.solve().to_dict()["pairs"])

    def solve_one(i):
        problem = problems[i % len(problems)]
        with Client(fleet.gateway.base_url) as c:
            return i % len(problems), c.solve(problem).to_dict()["pairs"]

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        for index, pairs in pool.map(solve_one, range(16)):
            assert pairs == references[index]


def test_gateway_config_validation():
    from repro.cluster import ReproGateway

    # Fleet validation fires at gateway construction:
    with pytest.raises(ValueError):
        ReproGateway(GatewayConfig(backends=()))
    with pytest.raises(ValueError):
        ReproGateway(
            GatewayConfig(backends=("127.0.0.1:1", "127.0.0.1:1"))
        )
    # URL-ish backend spellings normalize to host:port.
    assert GatewayConfig.normalize_address("http://127.0.0.1:8001/") == (
        "127.0.0.1:8001"
    )


def test_gateway_boots_with_backends_already_down():
    """Backends dead at startup are marked down by the initial probe
    sweep, and the fleet serves from whatever is alive."""
    live = serve_in_thread(ServerConfig(port=0))
    dead_address = "127.0.0.1:1"  # nothing listens on port 1
    try:
        with serve_gateway_in_thread(
            gateway_config([f"127.0.0.1:{live.port}", dead_address])
        ) as gw:
            with Client(gw.base_url) as client:
                health = client.health()
                assert health["status"] == "degraded"
                assert health["backends"][dead_address]["alive"] is False
                problem = make_problem(seed=79)
                solution = client.solve(problem)
                solution.verify()
    finally:
        live.close()


# -- catalogues by reference through the gateway --------------------------------


def _pairs_and_score_bits(solution):
    return [(p.fid, p.oid, p.score.hex(), p.count) for p in solution.pairs]


def test_by_reference_solves_are_bit_identical_through_failover(fleet, client):
    """Every engine config and ``auto``, solved through the gateway by
    catalogue reference, equals a local session solve in pairs and
    score bits — and still does once the owner is killed and the
    successor has to be sent the catalogue."""
    problem = make_problem(seed=13)
    with AssignmentSession(problem) as session:
        expected = {
            method: _pairs_and_score_bits(session.solve(problem.with_method(method)))
            for method in ENGINE_METHODS + ("auto",)
        }
    for method, pairs in expected.items():
        assert _pairs_and_score_bits(client.solve(problem.with_method(method))) == pairs
    pushes = client.metrics()["gateway"]["catalogue_pushes_total"]
    assert pushes == 1  # one catalogue, one owner: pushed once
    fleet.kill(fleet.owner_address(problem))
    for method, pairs in expected.items():
        assert _pairs_and_score_bits(client.solve(problem.with_method(method))) == pairs
    assert client.metrics()["gateway"]["catalogue_pushes_total"] == pushes + 1


def test_restarted_backend_costs_one_catalogue_push(fleet, client):
    problem = make_problem(seed=17)
    before = client.solve(problem)
    owner = fleet.owner_address(problem)
    pushes = client.metrics()["gateway"]["catalogue_pushes_total"]
    fleet.kill(owner)
    fleet.restart(owner)
    fleet.wait_alive(owner, alive=True)
    after = client.solve(problem)
    assert _pairs_and_score_bits(after) == _pairs_and_score_bits(before)
    # The restarted owner holds the catalogue again.
    client.solve(problem.with_method("chain"))
    gateway = client.metrics()["gateway"]
    assert gateway["catalogue_pushes_total"] == pushes + 1
    assert fleet.owner_address(problem) == owner


class _Stalled:
    """Stops a live backend and leaves on its port a socket that accepts
    connections (the kernel's backlog does) and never answers a byte."""

    def __init__(self, handle):
        port = handle.port
        handle.close()
        self.socket = socket.socket()
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.socket.bind(("127.0.0.1", port))
        self.socket.listen(16)

    def __enter__(self) -> "_Stalled":
        return self

    def __exit__(self, *exc_info) -> None:
        self.socket.close()


def _owned_by(gateway_handle, address: str) -> Problem:
    fleet = gateway_handle.service._fleet
    for seed in range(200):
        problem = make_problem(seed=seed)
        if fleet.owner(problem.instance_digest()).address == address:
            return problem
    raise AssertionError(f"no test problem routes to {address}")


def _stall_config(addresses) -> GatewayConfig:
    # Probes stay out of the way: the forward path must find the stall.
    return gateway_config(
        addresses, forward_timeout_seconds=0.5, probe_interval_seconds=60.0
    )


def test_stalled_backend_fails_over_within_the_forward_timeout():
    """A backend that stops answering (it still accepts connections)
    costs one forward timeout: the solve completes on the ring
    successor, which is sent the catalogue inside the same forward, and
    the stalled backend is marked down."""
    live = serve_in_thread(ServerConfig(port=0))
    doomed = serve_in_thread(ServerConfig(port=0))
    stalled_address = f"127.0.0.1:{doomed.port}"
    config = _stall_config([f"127.0.0.1:{live.port}", stalled_address])
    try:
        with serve_gateway_in_thread(config) as gw, Client(gw.base_url) as client:
            problem = _owned_by(gw, stalled_address)
            with AssignmentSession(problem) as session:
                expected = _pairs_and_score_bits(session.solve())
            with _Stalled(doomed):
                started = time.monotonic()
                solution = client.solve(problem)
                assert time.monotonic() - started < 10.0
                metrics = client.metrics()
            assert _pairs_and_score_bits(solution) == expected
            assert metrics["backends"][stalled_address]["alive"] is False
            assert metrics["gateway"]["reshards_total"] == 1
            assert metrics["gateway"]["catalogue_pushes_total"] == 1
    finally:
        live.close()


def test_only_a_stalled_backend_is_a_typed_503_not_a_hang():
    doomed = serve_in_thread(ServerConfig(port=0))
    stalled_address = f"127.0.0.1:{doomed.port}"
    with serve_gateway_in_thread(_stall_config([stalled_address])) as gw:
        with Client(gw.base_url) as client, _Stalled(doomed):
            started = time.monotonic()
            with pytest.raises(ServerUnavailableError) as excinfo:
                client.request(
                    "POST", "/v1/solve", {"problem": make_problem().to_dict()}
                )
            assert time.monotonic() - started < 10.0
            assert excinfo.value.status == 503
            assert client.metrics()["backends"][stalled_address]["alive"] is False


class _Malformed:
    """Stops a live backend and serves on its port one fixed response
    to every request: ``status`` with the raw ``body``."""

    def __init__(self, handle, status: int, body: bytes):
        port = handle.port
        handle.close()

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _answer(self) -> None:
                self.rfile.read(int(self.headers.get("Content-Length") or 0))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST = _answer

            def log_message(self, *args) -> None:
                pass

        http.server.ThreadingHTTPServer.allow_reuse_address = True
        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.base_url = f"http://127.0.0.1:{port}"

    def __enter__(self) -> "_Malformed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)
        assert not self.thread.is_alive()


#: ``(backend status, backend body, expected error type, expected
#: status at the client, expected message)`` per malformed answer.
MALFORMED_ANSWERS = {
    "2xx-non-json": (200, b"not json", ServerError, 502, "non-JSON response body"),
    "2xx-json-list": (200, b"[1, 2]", ServerError, 502, "not a JSON object"),
    "2xx-empty": (200, b"", ServerError, 502, "not a JSON object"),
    "error-not-a-string": (500, b'{"error": 123}', ServerError, 500, "-> HTTP 500"),
    "429-json-list": (429, b"[1, 2]", ServerBusyError, 429, "server busy"),
    "503-error-not-a-string": (
        503,
        b'{"error": {"nested": true}}',
        ServerUnavailableError,
        503,
        "service unavailable",
    ),
}


@pytest.mark.parametrize("via", ["direct", "gateway"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ANSWERS))
def test_malformed_backend_answers_are_typed_errors(case, via):
    """A backend answer that is not a well-formed envelope ends in the
    typed error of its status, called directly or through a gateway
    that owns the problem's shard there, never in a bare
    ``KeyError``/``TypeError``/``AttributeError``."""
    status, body, error, client_status, message = MALFORMED_ANSWERS[case]
    live = serve_in_thread(ServerConfig(port=0))
    doomed = serve_in_thread(ServerConfig(port=0))
    address = f"127.0.0.1:{doomed.port}"
    config = _stall_config([f"127.0.0.1:{live.port}", address])
    try:
        with serve_gateway_in_thread(config) as gw:
            problem = _owned_by(gw, address)
            with _Malformed(doomed, status, body) as fake:
                url = fake.base_url if via == "direct" else gw.base_url
                with Client(url) as client:
                    with pytest.raises(error) as excinfo:
                        client.request(
                            "POST", "/v1/solve", {"problem": problem.to_dict()}
                        )
                    assert excinfo.value.status == client_status
                    assert message in str(excinfo.value)
                    if error is ServerError:
                        with pytest.raises(ServerError) as excinfo:
                            client.solve(problem, timeout=0.5)
                        assert excinfo.value.status == client_status
    finally:
        live.close()
