"""The asyncio gateway: consistent-hash routing over a server fleet.

``repro-gateway`` fronts N ``repro-server`` backends and speaks the
*same* JSON-over-HTTP protocol, so any :class:`~repro.server.Client`
pointed at the gateway works unchanged.  Four concerns live here, on
top of the :class:`~repro.cluster.forwarder.Fleet`:

- **sticky sharding** — every request is keyed by the problem's
  ``instance_digest`` and forwarded to that key's ring owner.  The
  digest covers the catalogue, the cohort and the index settings but
  not the solver section, so method/option overrides of one problem
  share its shard (and its solution cache), while the cohorts of one
  catalogue spread over the fleet: every backend that serves one of
  them builds and caches that catalogue's R-tree.  Job ids come back
  prefixed ``{node_id}@{job_id}``, so polls route by prefix without
  any gateway-side job state.
- **relay** — the gateway validates every problem it routes
  (``Problem.from_dict``) and then forwards the request body byte for
  byte; it never re-encodes a catalogue.
- **failover** — dead backends are skipped via the ring's successor
  list (request-path transport failures mark down immediately; the
  background prober also sweeps ``/healthz``).  The gateway remembers
  each problem's registration body (JSON bytes) in a bounded LRU, so
  when a solve re-shards to a successor that has never seen the
  problem (404), it re-registers and retries once — clients ride
  through a backend death without re-sending anything.  A shard with
  no live replica answers 503 + ``Retry-After``.
- **fleet observability** — ``/metrics`` reports per-backend health
  and forward-latency histograms, re-shard/retry counters, and a
  fleet-wide aggregation (summed solve/cache/planner/engine counters
  across live backends); ``/healthz`` reports ring membership.

The gateway keeps no solver, no session and no cache of its own —
results, admission control (429s propagate untouched) and planner
decisions all belong to the backends, which plan deterministically, so
any replica of a shard returns the bit-identical solution.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from collections import Counter, OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.api.problem import Problem
from repro.api.solution import Solution
from repro.cluster.forwarder import Fleet
from repro.cluster.probe import Backend, HealthProber
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    SerdeError,
    ServerBusyError,
    ServerError,
    ServerUnavailableError,
    UnknownSolverError,
)
from repro.obs.log import LogRing, RingHandler, get_logger
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    wants_prometheus,
)
from repro.obs.store import TraceStore
from repro.obs.trace import (
    TRACE_HEADER,
    SpanCollector,
    TraceContext,
    collecting,
    span,
)
from repro.server.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    read_request,
)
from repro.server.metrics import LatencyHistogram
from repro.server.router import Router

log = get_logger("repro.cluster")

#: Probe/scrape and observability paths stay outside the trace
#: pipeline, and job-status poll GETs skip it too (same rule as the
#: server: polls arrive tens of times per solve and would churn the
#: trace store with noise).
_UNTRACED_PREFIXES = ("/healthz", "/metrics", "/v1/traces", "/v1/logs")

_UNTRACED_GET_PREFIXES = ("/v1/jobs",)


def _is_traced(method: str, path: str) -> bool:
    if path.startswith(_UNTRACED_PREFIXES):
        return False
    return not (method == "GET" and path.startswith(_UNTRACED_GET_PREFIXES))

_BAD_REQUEST_ERRORS = (
    SerdeError,
    InvalidProblemError,
    UnknownSolverError,
    InvalidSolverOptionError,
)

#: Backend /metrics sections the fleet aggregation sums, leaf by leaf.
#: Quantiles, high-water marks and per-method histograms are *not*
#: summable and stay per-backend (see the ``backends`` section).
_SUMMED_SECTIONS: dict[str, tuple[str, ...]] = {
    "solves": ("total", "cache_hits"),
    "solution_cache": ("hits", "misses", "evictions", "entries"),
    "index_cache": ("hits", "misses", "entries"),
    "queue": (
        "depth",
        "limit",
        "rejected_total",
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
    ),
    "engine": (
        "physical_reads",
        "logical_reads",
        "physical_writes",
        "cpu_seconds",
    ),
}


class _NotFound(Exception):
    """Internal: the gateway has no routing entry for this id (→ 404)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one :class:`ReproGateway`."""

    #: Backend authorities (``host:port``), one per ``repro-server``.
    backends: tuple[str, ...] = ()
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port.
    port: int = 8100
    #: Virtual nodes per backend on the hash ring.
    vnodes: int = 256
    #: Seconds between background ``/healthz`` sweeps.
    probe_interval_seconds: float = 2.0
    #: Per-probe HTTP timeout.
    probe_timeout_seconds: float = 2.0
    #: Consecutive probe failures before a backend is marked down
    #: (request-path transport failures mark down immediately).
    down_after: int = 2
    #: Per-forward HTTP timeout (covers the backend's solve time).
    forward_timeout_seconds: float = 120.0
    #: ``Retry-After`` hint on 503 responses (no live shard owner).
    retry_after_seconds: float = 1.0
    #: Per-request read deadline on gateway connections.
    read_timeout_seconds: float | None = 30.0
    max_body_bytes: int = MAX_BODY_BYTES
    #: LRU bound on remembered registration payloads (the failover
    #: re-registration store; an evicted problem simply 404s and the
    #: client re-registers, exactly as against a bare server).
    problem_registry_size: int = 4096
    #: Master switch for request tracing + trace retention.
    observability: bool = True
    #: Requests at or over this wall time pin in the slow-trace store.
    slow_trace_threshold_seconds: float = 0.25
    #: LRU bound of the recent-trace store.
    trace_store_size: int = 256
    #: LRU bound of the pinned slow-trace store.
    slow_trace_store_size: int = 64
    #: Bounded in-process log ring served at ``GET /v1/logs``.
    log_ring_size: int = 512

    @staticmethod
    def normalize_address(address: str) -> str:
        """``http://host:port/`` / ``host:port`` → ``host:port``."""
        if address.startswith("http://"):
            address = address[len("http://") :]
        return address.rstrip("/")


class GatewayMetrics:
    """Gateway-local counters (all touched from the event loop only)."""

    def __init__(self) -> None:
        self.started = time.time()
        self.requests_total = 0
        self.responses_by_status: Counter[int] = Counter()
        #: End-to-end forward latency per backend address.
        self.forward_latency: dict[str, LatencyHistogram] = {}

    def record_response(self, status: int) -> None:
        self.requests_total += 1
        self.responses_by_status[status] += 1

    def record_forward(self, address: str, seconds: float) -> None:
        histogram = self.forward_latency.get(address)
        if histogram is None:
            histogram = self.forward_latency[address] = LatencyHistogram()
        histogram.observe(seconds)


class ReproGateway:
    """The gateway facade; see the module docstring for the shape."""

    def __init__(self, config: GatewayConfig):
        addresses = tuple(
            GatewayConfig.normalize_address(a) for a in config.backends
        )
        self.config = config
        self.port: int | None = None
        self._fleet = Fleet(
            addresses,
            vnodes=config.vnodes,
            forward_timeout=config.forward_timeout_seconds,
            probe_timeout=config.probe_timeout_seconds,
            down_after=config.down_after,
            retry_after_seconds=config.retry_after_seconds,
        )
        self._prober = HealthProber(
            list(self._fleet.backends.values()),
            interval=config.probe_interval_seconds,
        )
        self._metrics = GatewayMetrics()
        #: pid → {"instance_digest", "payload"} — the routing map plus
        #: the failover re-registration store (``payload``: the
        #: registration body as JSON bytes), LRU-bounded.
        self._problems: OrderedDict[str, dict] = OrderedDict()
        self._conn_tasks: set[asyncio.Task] = set()
        self._tcp: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._traces = TraceStore(
            recent_size=config.trace_store_size,
            slow_size=config.slow_trace_store_size,
            slow_threshold_seconds=config.slow_trace_threshold_seconds,
        )
        self._log_ring = LogRing(config.log_ring_size)
        self._ring_handler: RingHandler | None = None
        self._node: str | None = None
        self._router = self._build_router()

    # -- routing table -------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._health)
        router.add("GET", "/metrics", self._metrics_endpoint)
        router.add("POST", "/v1/problems", self._register_endpoint)
        router.add("GET", "/v1/problems/{pid}", self._get_problem)
        router.add("POST", "/v1/problems/{pid}/solve", self._solve_registered)
        router.add("POST", "/v1/solve", self._solve_inline)
        router.add("POST", "/v1/jobs", self._submit_job)
        router.add("GET", "/v1/jobs/{jid}", self._get_job)
        router.add("GET", "/v1/jobs/{jid}/solution", self._get_job_solution)
        router.add("GET", "/v1/diff", self._diff_jobs)
        router.add("GET", "/v1/traces", self._list_traces)
        router.add("GET", "/v1/traces/{tid}", self._get_trace)
        router.add("GET", "/v1/logs", self._get_logs)
        return router

    # -- problem routing state -----------------------------------------

    def _remember(self, problem: Problem, payload: Callable[[], bytes]) -> dict:
        """The routing entry of a validated ``problem``, created on
        first sight (``payload()`` then gives its registration body)
        and LRU-refreshed on every later one."""
        pid = problem.digest()
        entry = self._problems.get(pid)
        if entry is not None:
            self._problems.move_to_end(pid)
            return entry
        entry = self._problems[pid] = {
            "instance_digest": problem.instance_digest(),
            "payload": payload(),
        }
        while len(self._problems) > self.config.problem_registry_size:
            self._problems.popitem(last=False)
        return entry

    def _routing_entry(self, pid: str) -> dict:
        entry = self._problems.get(pid)
        if entry is None:
            raise _NotFound(
                f"unknown problem {pid!r} — register it through the "
                "gateway first (routing needs its instance digest)"
            )
        self._problems.move_to_end(pid)
        return entry

    # -- forwarding plumbing -------------------------------------------

    async def _forward(self, key: str, fn):
        """Fleet.forward on a worker thread + latency accounting."""
        started = time.perf_counter()
        backend, result = await asyncio.to_thread(self._fleet.forward, key, fn)
        self._metrics.record_forward(
            backend.address, time.perf_counter() - started
        )
        return backend, result

    async def _call(self, backend: Backend, fn):
        """Fleet.call (single-backend, job polls) on a worker thread."""
        started = time.perf_counter()
        result = await asyncio.to_thread(self._fleet.call, backend, fn)
        self._metrics.record_forward(
            backend.address, time.perf_counter() - started
        )
        return result

    def _reregistering(
        self, method: str, path: str, body: bytes | None, entry: dict
    ):
        """A forward fn for ``method path`` (``body`` relayed as
        received) that heals a post-failover 404 by re-registering the
        remembered payload and retrying once on the same backend."""

        def fn(backend: Backend):
            try:
                return backend.client.request(method, path, body)
            except ServerError as exc:
                if exc.status != 404:
                    raise
                with span("gateway.reregister", backend=backend.address):
                    backend.client.request("POST", "/v1/problems", entry["payload"])
                    self._fleet.count_reregistration()
                return backend.client.request(method, path, body)

        return fn

    @staticmethod
    def _require_mapping(body) -> Mapping:
        if not isinstance(body, Mapping):
            raise SerdeError("request body must be a JSON object")
        return body

    async def _inline_target(self, request: Request) -> dict:
        """The routing entry for a ``/v1/solve`` or ``/v1/jobs`` body
        carrying exactly one of ``problem`` (inline, validated
        off-loop) or ``problem_id`` (resolved from the routing map)."""
        body = self._require_mapping(request.json(default={}))
        if ("problem" in body) == ("problem_id" in body):
            raise SerdeError(
                "request body needs exactly one of 'problem' or 'problem_id'"
            )
        if "problem" in body:
            problem = await asyncio.to_thread(Problem.from_dict, body["problem"])
            return self._remember(
                problem, lambda: json.dumps(body["problem"]).encode("utf-8")
            )
        pid = body["problem_id"]
        if not isinstance(pid, str):
            raise SerdeError("'problem_id' must be a string")
        return self._routing_entry(pid)

    # -- endpoint handlers ---------------------------------------------

    async def _health(self, request: Request) -> Response:
        import repro

        alive = len(self._fleet.alive_backends())
        configured = len(self._fleet.backends)
        status = "ok" if alive == configured else ("degraded" if alive else "down")
        return Response.json(
            {
                "status": status,
                "role": "gateway",
                "version": repro.__version__,
                "uptime_seconds": time.time() - self._metrics.started,
                "backends": {
                    backend.address: backend.snapshot()
                    for backend in self._fleet.backends.values()
                },
                "ring": {
                    "members": sorted(self._fleet.ring.members),
                    "vnodes_per_backend": self._fleet.ring.vnodes,
                    "alive": alive,
                    "configured": configured,
                },
                "problems_routed": len(self._problems),
            }
        )

    async def _metrics_endpoint(self, request: Request) -> Response:
        fleet_totals, unreachable = await self._aggregate_fleet_metrics()
        snapshot = {
            "uptime_seconds": time.time() - self._metrics.started,
            "http": {
                "requests_total": self._metrics.requests_total,
                "responses_by_status": {
                    str(status): n
                    for status, n in sorted(
                        self._metrics.responses_by_status.items()
                    )
                },
            },
            "gateway": {
                **self._fleet.info(),
                "probe_cycles": self._prober.cycles,
                "probe_interval_seconds": self._prober.interval,
            },
            "backends": {
                backend.address: backend.snapshot()
                for backend in self._fleet.backends.values()
            },
            "forward_latency": {
                address: histogram.to_dict()
                for address, histogram in sorted(
                    self._metrics.forward_latency.items()
                )
            },
            "fleet": {**fleet_totals, "unreachable": unreachable},
            "traces": self._traces.info(),
            "log_ring": self._log_ring.info(),
        }
        if wants_prometheus(request):
            return Response(
                body=render_prometheus(snapshot).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        return Response.json(snapshot)

    async def _aggregate_fleet_metrics(self) -> tuple[dict, list[str]]:
        """Summed counters across every live backend's ``/metrics``."""
        backends = self._fleet.alive_backends()

        def fetch(backend: Backend):
            try:
                return backend.address, backend.probe_client.metrics()
            except Exception:
                return backend.address, None

        snapshots = await asyncio.gather(
            *(asyncio.to_thread(fetch, backend) for backend in backends)
        )
        totals: dict = {
            section: dict.fromkeys(keys, 0)
            for section, keys in _SUMMED_SECTIONS.items()
        }
        planner_picks: Counter[str] = Counter()
        requests_total = 0
        reporting, unreachable = 0, []
        for address, snapshot in snapshots:
            if snapshot is None:
                unreachable.append(address)
                continue
            reporting += 1
            for section, keys in _SUMMED_SECTIONS.items():
                values = snapshot.get(section, {})
                for key in keys:
                    value = values.get(key)
                    if isinstance(value, (int, float)):
                        totals[section][key] += value
            planner = snapshot.get("planner", {})
            planner_picks.update(planner.get("picks", {}))
            http_section = snapshot.get("http", {})
            requests_total += http_section.get("requests_total", 0)
        totals["planner"] = {
            "picks": dict(sorted(planner_picks.items())),
            "auto_solves": sum(planner_picks.values()),
        }
        totals["http"] = {"requests_total": requests_total}
        totals["backends_reporting"] = reporting
        return totals, unreachable

    async def _register_endpoint(self, request: Request) -> Response:
        payload = request.json()
        if payload is None:
            raise SerdeError("problem registration needs a JSON body")
        problem = await asyncio.to_thread(Problem.from_dict, payload)
        entry = self._remember(problem, lambda: request.body)
        backend, (status, body) = await self._forward(
            entry["instance_digest"],
            lambda b: b.client.request("POST", "/v1/problems", request.body),
        )
        body["backend"] = backend.address
        return Response.json(body, status=status)

    async def _get_problem(self, request: Request, pid: str) -> Response:
        entry = self._routing_entry(pid)
        _, (status, body) = await self._forward(
            entry["instance_digest"],
            self._reregistering("GET", f"/v1/problems/{pid}", None, entry),
        )
        return Response.json(body, status=status)

    async def _solve_registered(self, request: Request, pid: str) -> Response:
        entry = self._routing_entry(pid)
        # The method/options overrides are checked, then relayed as sent.
        self._require_mapping(request.json(default={}))
        backend, (status, body) = await self._forward(
            entry["instance_digest"],
            self._reregistering(
                "POST", f"/v1/problems/{pid}/solve", request.body or None, entry
            ),
        )
        body["backend"] = backend.address
        return Response.json(body, status=status)

    async def _solve_inline(self, request: Request) -> Response:
        entry = await self._inline_target(request)
        backend, (status, payload) = await self._forward(
            entry["instance_digest"],
            self._reregistering("POST", "/v1/solve", request.body, entry),
        )
        payload["backend"] = backend.address
        return Response.json(payload, status=status)

    async def _submit_job(self, request: Request) -> Response:
        entry = await self._inline_target(request)
        backend, (status, payload) = await self._forward(
            entry["instance_digest"],
            self._reregistering("POST", "/v1/jobs", request.body, entry),
        )
        # Prefix the job id with the owning node, so later polls route
        # by prefix alone — the gateway keeps no job table.
        payload["job_id"] = f"{backend.node_id}@{payload['job_id']}"
        payload["backend"] = backend.address
        return Response.json(payload, status=status)

    def _job_backend(self, jid: str) -> tuple[Backend, str]:
        try:
            return self._fleet.backend_for_job(jid)
        except KeyError as exc:
            raise _NotFound(str(exc)) from None

    async def _get_job(self, request: Request, jid: str) -> Response:
        backend, raw_id = self._job_backend(jid)
        include = request.query.get("solution", "1") not in ("0", "false")
        suffix = "" if include else "?solution=0"
        status, body = await self._call(
            backend,
            lambda b: b.client.request("GET", f"/v1/jobs/{raw_id}{suffix}"),
        )
        if isinstance(body, dict) and "job_id" in body:
            body["job_id"] = jid
            body["backend"] = backend.address
        return Response.json(body, status=status)

    async def _get_job_solution(self, request: Request, jid: str) -> Response:
        backend, raw_id = self._job_backend(jid)
        status, body = await self._call(
            backend,
            lambda b: b.client.request("GET", f"/v1/jobs/{raw_id}/solution"),
        )
        return Response.json(body, status=status)

    async def _diff_jobs(self, request: Request) -> Response:
        try:
            id_a, id_b = request.query["a"], request.query["b"]
        except KeyError:
            raise SerdeError(
                "diff needs 'a' and 'b' query parameters (job ids)"
            ) from None
        backend_a, raw_a = self._job_backend(id_a)
        backend_b, raw_b = self._job_backend(id_b)
        if backend_a is backend_b:
            # Same node: its own /v1/diff does the work.
            status, body = await self._call(
                backend_a,
                lambda b: b.client.request(
                    "GET", f"/v1/diff?a={raw_a}&b={raw_b}"
                ),
            )
            body["a"], body["b"] = id_a, id_b
            return Response.json(body, status=status)
        # Jobs live on different nodes: fetch both solutions and diff
        # here — the value objects make the delta a local computation.
        payload_a, payload_b = await asyncio.gather(
            self._call(
                backend_a,
                lambda b: b.client.request("GET", f"/v1/jobs/{raw_a}/solution"),
            ),
            self._call(
                backend_b,
                lambda b: b.client.request("GET", f"/v1/jobs/{raw_b}/solution"),
            ),
        )

        def compute() -> dict:
            solution_a = Solution.from_dict(payload_a[1])
            solution_b = Solution.from_dict(payload_b[1])
            diff = solution_a.diff(solution_b)
            return {
                "a": id_a,
                "b": id_b,
                "identical": not diff,
                "units_changed": diff.units_changed,
                "added": [list(t) for t in diff.added],
                "removed": [list(t) for t in diff.removed],
            }

        return Response.json(await asyncio.to_thread(compute))

    # -- observability endpoints ---------------------------------------

    async def _list_traces(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        return Response.json(
            {"traces": self._traces.recent(limit), "info": self._traces.info()}
        )

    async def _get_trace(self, request: Request, tid: str) -> Response:
        """The stitched cross-backend view of one trace: the gateway's
        own record merged with whatever each live backend retained
        under the same trace id — a failover's failed forward, the
        re-registration, and the successor's re-solve reassemble into
        one tree because every span carries the same trace id."""
        local = self._traces.get(tid)

        def fetch(backend: Backend):
            try:
                return backend.probe_client.request("GET", f"/v1/traces/{tid}")[1]
            except Exception:
                return None  # 404s and dead backends just contribute nothing

        remotes = await asyncio.gather(
            *(
                asyncio.to_thread(fetch, backend)
                for backend in self._fleet.alive_backends()
            )
        )
        records = ([local] if local is not None else []) + [
            r for r in remotes if isinstance(r, dict)
        ]
        if not records:
            raise _NotFound(f"unknown trace {tid!r}")
        spans: list[dict] = []
        seen: set[str] = set()
        for record in records:
            for s in record.get("spans", ()):
                span_id = s.get("span_id")
                if span_id in seen:
                    continue
                seen.add(span_id)
                spans.append(s)
        spans.sort(key=lambda s: s.get("started") or 0.0)
        base = local if local is not None else records[0]
        stitched = {
            "trace_id": tid,
            "root": base.get("root"),
            "status": base.get("status"),
            "started": base.get("started"),
            "duration_seconds": base.get("duration_seconds"),
            "slow": any(r.get("slow") for r in records),
            "stitched": True,
            "nodes": sorted({s["node"] for s in spans if s.get("node")}),
            "spans": spans,
        }
        for record in records:
            if record.get("plan_explain"):
                stitched["plan_explain"] = record["plan_explain"]
                break
        return Response.json(stitched)

    async def _get_logs(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "100"))
        except ValueError:
            raise SerdeError("'limit' must be an integer") from None
        level = request.query.get("level")
        return Response.json(
            {
                "entries": self._log_ring.tail(limit, level),
                "ring": self._log_ring.info(),
            }
        )

    # -- connection handling -------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        if not self.config.observability or not _is_traced(
            request.method, request.path
        ):
            return await self._dispatch_inner(request)
        parent = TraceContext.parse(request.headers.get("x-repro-trace"))
        collector = SpanCollector()
        with collecting(collector, parent=parent):
            with span(
                "gateway.request", method=request.method, path=request.path
            ) as root:
                response = await self._dispatch_inner(request)
                root.attributes["status"] = response.status
                if response.status >= 500:
                    root.status = "error"
                    root.error = f"HTTP {response.status}"
        response.headers[TRACE_HEADER] = f"{root.trace_id}:{root.span_id}"
        if response.status >= 400 and response.content_type == "application/json":
            try:
                payload = json.loads(response.body)
            except ValueError:
                payload = None
            if isinstance(payload, dict) and "trace_id" not in payload:
                payload["trace_id"] = root.trace_id
                response.body = (
                    json.dumps(payload, sort_keys=True) + "\n"
                ).encode("utf-8")
        record = self._traces.record(root, collector.spans, node=self._node)
        if record["slow"]:
            log.warning(
                "slow request",
                method=request.method,
                path=request.path,
                trace_id=root.trace_id,
                duration_ms=round(record["duration_seconds"] * 1000, 2),
            )
        return response

    async def _dispatch_inner(self, request: Request) -> Response:
        routed = self._router.dispatch(request)
        if isinstance(routed, Response):
            response = routed
        else:
            handler, params = routed
            try:
                response = await handler(request, **params)
            except ServerBusyError as exc:
                # Backend admission control: propagate 429 untouched so
                # the caller's Retry-After loop keeps working.
                response = self._relay_error(exc, 429)
                response.headers["Retry-After"] = f"{exc.retry_after:g}"
            except ServerUnavailableError as exc:
                response = self._relay_error(exc, 503)
                response.headers["Retry-After"] = f"{exc.retry_after:g}"
            except _BAD_REQUEST_ERRORS as exc:
                response = Response.error(400, str(exc), type=type(exc).__name__)
            except _NotFound as exc:
                response = Response.error(404, str(exc))
            except ServerError as exc:
                # Any other backend HTTP error relays verbatim (502 if
                # the backend failed without a usable status).
                response = self._relay_error(exc, exc.status or 502)
            except asyncio.CancelledError:
                raise
            except Exception:
                log.exception(
                    "unhandled request error",
                    method=request.method,
                    path=request.path,
                )
                response = Response.error(500, "internal gateway error")
        self._metrics.record_response(response.status)
        return response

    @staticmethod
    def _relay_error(exc: ServerError, status: int) -> Response:
        payload = exc.payload if isinstance(exc.payload, dict) else None
        return Response.json(payload or {"error": str(exc)}, status=status)

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(
                            reader, max_body_bytes=self.config.max_body_bytes
                        ),
                        timeout=self.config.read_timeout_seconds,
                    )
                except TimeoutError:
                    break  # stalled or idle peer: drop the connection
                except ProtocolError as exc:
                    response = Response.error(exc.status, str(exc))
                    self._metrics.record_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        # lint: except-ok(client hung up or idled out; nothing to answer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start probing (call on the loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # Settle initial liveness before serving: a backend already
        # dead at boot needs down_after consecutive failures to be
        # marked down, so sweep that many times — it gets marked now,
        # not on the first unlucky request.
        for _ in range(self.config.down_after):
            await asyncio.to_thread(self._prober.probe_all)
        self._prober.start()
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        self._node = f"{self.config.host}:{self.port}"
        self._ring_handler = RingHandler(self._log_ring, node=self._node)
        repro_logger = logging.getLogger("repro")
        repro_logger.addHandler(self._ring_handler)
        # Embedded gateways run without configure_logging(); the ring
        # still captures INFO-level operational events (the last-resort
        # console handler stays WARNING+, so stdout is unchanged).
        if repro_logger.getEffectiveLevel() > logging.INFO:
            repro_logger.setLevel(logging.INFO)

    async def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await asyncio.to_thread(self._prober.close)
        await asyncio.to_thread(self._fleet.close)
        if self._ring_handler is not None:
            logging.getLogger("repro").removeHandler(self._ring_handler)
            self._ring_handler = None

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (used by :class:`GatewayHandle`)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def _serve_until_stopped(self, on_started=None) -> None:
        await self.start()
        if on_started is not None:
            on_started(self)
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def serve_forever(self, on_started=None) -> None:
        """Run the gateway on a fresh event loop until stopped."""
        asyncio.run(self._serve_until_stopped(on_started=on_started))


class GatewayHandle:
    """A gateway hosted on a background thread, for tests/benchmarks."""

    def __init__(self, gateway: ReproGateway, thread: threading.Thread):
        self.gateway = gateway
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.gateway.port is not None
        return self.gateway.port

    @property
    def base_url(self) -> str:
        return f"http://{self.gateway.config.host}:{self.port}"

    def close(self, timeout: float = 15.0) -> None:
        self.gateway.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("repro-gateway thread did not stop in time")


def serve_gateway_in_thread(config: GatewayConfig) -> GatewayHandle:
    """Start a :class:`ReproGateway` on a daemon thread; returns once
    the socket is bound (so :attr:`GatewayHandle.port` is valid)."""
    gateway = ReproGateway(config)
    started = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        try:
            gateway.serve_forever(on_started=lambda _g: started.set())
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
            started.set()

    thread = threading.Thread(target=_run, name="repro-gateway", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("repro-gateway did not start within 30s")
    if failures:
        raise RuntimeError("repro-gateway failed to start") from failures[0]
    return GatewayHandle(gateway, thread)


@contextlib.contextmanager
def running_gateway(config: GatewayConfig):
    """``with running_gateway(cfg) as handle:`` — thread-hosted gateway."""
    handle = serve_gateway_in_thread(config)
    try:
        yield handle
    finally:
        handle.close()


__all__ = [
    "GatewayConfig",
    "GatewayHandle",
    "GatewayMetrics",
    "ReproGateway",
    "running_gateway",
    "serve_gateway_in_thread",
]
