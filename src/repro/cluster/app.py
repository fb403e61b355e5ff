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
  (``Problem.from_dict``; a ``repro.problem/v3`` problem against the
  catalogue it holds) and then forwards the request body byte for
  byte; it never re-encodes a catalogue.  It answers
  ``POST /v1/catalogues`` itself, into the shell's catalogue store, and
  forwards no catalogue until a backend asks for it.
- **failover** — dead backends are skipped via the ring's successor
  list (request-path transport failures mark down immediately; the
  background prober also sweeps ``/healthz``).  The gateway remembers
  each problem's registration body (JSON bytes; O(cohort) for a v3
  problem, whose catalogue lives once, in the store) in a bounded LRU.
  A forward heals a backend's 404 once, inside the forward itself: a
  typed ``UnknownCatalogueError`` by pushing the stored catalogue
  bytes, an unknown problem by re-registering it (pushing its catalogue
  first if that 404s too).  So a catalogue reaches a backend lazily,
  once, and clients ride through a backend death or restart without
  re-sending anything.  A shard with no live replica answers 503 +
  ``Retry-After``.
- **fleet observability** — ``/metrics`` reports per-backend health
  and forward-latency histograms, re-shard/retry counters, and a
  fleet-wide aggregation (summed solve/cache/planner/engine counters
  across live backends); ``/healthz`` reports ring membership.

The gateway keeps no solver, no session and no cache of its own —
results, admission control (429s propagate untouched) and planner
decisions all belong to the backends, which plan deterministically, so
any replica of a shard returns the bit-identical solution.  Routing,
dispatch, tracing, connections, the catalogue store and the lifecycle
come from the shared :class:`~repro.server.base.HttpService` shell.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter, OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.api.problem import Problem, is_reference_payload
from repro.api.solution import Solution
from repro.cluster.forwarder import Fleet
from repro.cluster.probe import Backend, HealthProber
from repro.data.instances import object_set_fingerprint
from repro.errors import SerdeError, ServerError, UnknownCatalogueError
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.server.base import (
    HttpService,
    NotFound,
    ServiceConfig,
    ServiceHandle,
    diff_envelope,
    diff_job_ids,
    require_object,
    solve_target,
    start_in_thread,
)
from repro.server.http import Request, Response
from repro.server.metrics import HttpMetrics, LatencyHistogram

log = get_logger("repro.cluster")

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


@dataclass(frozen=True, kw_only=True)
class GatewayConfig(ServiceConfig):
    """Tunables of one :class:`ReproGateway`, beyond the shared ones."""

    #: Backend authorities (``host:port``), one per ``repro-server``.
    backends: tuple[str, ...] = ()
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

    @staticmethod
    def normalize_address(address: str) -> str:
        """``http://host:port/`` / ``host:port`` → ``host:port``."""
        if address.startswith("http://"):
            address = address[len("http://") :]
        return address.rstrip("/")


class GatewayMetrics(HttpMetrics):
    """Gateway-local counters (all touched from the event loop only)."""

    def __init__(self) -> None:
        super().__init__()
        #: End-to-end forward latency per backend address.
        self.forward_latency: dict[str, LatencyHistogram] = {}

    def record_forward(self, address: str, seconds: float) -> None:
        histogram = self.forward_latency.get(address)
        if histogram is None:
            histogram = self.forward_latency[address] = LatencyHistogram()
        histogram.observe(seconds)


class ReproGateway(HttpService):
    """The gateway facade; see the module docstring for the shape."""

    name = "repro-gateway"
    role = "gateway"
    logger = log
    config: GatewayConfig
    _metrics: GatewayMetrics

    def __init__(self, config: GatewayConfig):
        super().__init__(config, GatewayMetrics())
        addresses = tuple(
            GatewayConfig.normalize_address(a) for a in config.backends
        )
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
        #: pid → {"instance_digest", "payload", "catalogue"} — the
        #: routing map plus the failover re-registration store
        #: (``payload``: the registration body as JSON bytes;
        #: ``catalogue``: for a v3 body, the bytes of the catalogue it
        #: names, shared with the store, never copied), LRU-bounded.
        self._problems: OrderedDict[str, dict] = OrderedDict()

    # -- problem routing state -----------------------------------------

    async def _route(
        self, payload: Any, body: Callable[[], bytes]
    ) -> tuple[dict, bytes | None]:
        """Validate a problem payload and return its routing entry, with
        the bytes of the catalogue the payload names (``None`` when it
        carries its own).  The entry is created on first sight
        (``body()`` then gives its registration body) and LRU-refreshed
        on every later one.  A self-contained payload decodes off the
        loop; a v3 one costs O(cohort) and decodes on it, against the
        store, which worker threads never touch."""
        if is_reference_payload(payload):
            problem = Problem.from_dict(payload, catalogues=self._catalogues)
            fingerprint = object_set_fingerprint(problem.object_set)
            catalogue = self._catalogues.body(fingerprint)
        else:
            problem = await asyncio.to_thread(Problem.from_dict, payload)
            catalogue = None
        pid = problem.digest()
        entry = self._problems.get(pid)
        if entry is not None:
            self._problems.move_to_end(pid)
            return entry, catalogue
        entry = self._problems[pid] = {
            "instance_digest": problem.instance_digest(),
            "payload": body(),
            "catalogue": catalogue,
        }
        while len(self._problems) > self.config.problem_registry_size:
            self._problems.popitem(last=False)
        return entry, catalogue

    def _routing_entry(self, pid: str) -> dict:
        entry = self._problems.get(pid)
        if entry is None:
            raise NotFound(
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
        self,
        method: str,
        path: str,
        body: bytes | None,
        entry: dict,
        catalogue: bytes | None,
    ):
        """A forward fn for ``method path`` (``body`` relayed as
        received) that heals a backend's 404 and retries once on the
        same backend.  A typed ``UnknownCatalogueError`` pushes
        ``catalogue``, the bytes of the catalogue the request names
        (read on the loop, passed in here).  An unknown problem
        re-registers the remembered payload, pushing the catalogue first
        if that registration 404s on it.  The heal runs inside the
        forward, so a transport failure during it fails over like any
        other forward."""

        def push(backend: Backend) -> None:
            with span("gateway.catalogue_push", backend=backend.address):
                backend.client.request("POST", "/v1/catalogues", catalogue)
                self._fleet.count_catalogue_push()

        def reregister(backend: Backend) -> None:
            with span("gateway.reregister", backend=backend.address):
                try:
                    backend.client.request("POST", "/v1/problems", entry["payload"])
                except ServerError as exc:
                    if exc.error_type != UnknownCatalogueError.__name__:
                        raise
                    push(backend)
                    backend.client.request("POST", "/v1/problems", entry["payload"])
                self._fleet.count_reregistration()

        def fn(backend: Backend):
            try:
                return backend.client.request(method, path, body)
            except ServerError as exc:
                if exc.status != 404:
                    raise
                if exc.error_type == UnknownCatalogueError.__name__:
                    push(backend)
                else:
                    reregister(backend)
            return backend.client.request(method, path, body)

        return fn

    async def _inline_target(self, request: Request) -> tuple[dict, bytes | None]:
        """The routing entry and catalogue bytes (see :meth:`_route`)
        for a ``/v1/solve`` or ``/v1/jobs`` body carrying exactly one
        of ``problem`` (inline, validated) or ``problem_id`` (resolved
        from the routing map)."""
        body = solve_target(request.json(default={}))
        if "problem" in body:
            payload = body["problem"]
            return await self._route(
                payload, lambda: json.dumps(payload).encode("utf-8")
            )
        entry = self._routing_entry(body["problem_id"])
        return entry, entry["catalogue"]

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
                "backends": self._fleet.snapshots(),
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
            **self._metrics.http_snapshot(),
            "gateway": {
                **self._fleet.info(),
                "probe_cycles": self._prober.cycles,
                "probe_interval_seconds": self._prober.interval,
            },
            "backends": self._fleet.snapshots(),
            "forward_latency": {
                address: histogram.to_dict()
                for address, histogram in sorted(
                    self._metrics.forward_latency.items()
                )
            },
            "fleet": {**fleet_totals, "unreachable": unreachable},
        }
        return self._metrics_response(request, snapshot)

    async def _ask_live_backends(self, path: str) -> list[tuple[str, Any]]:
        """``(address, body)`` of ``GET path`` on every live backend; a
        backend that fails to answer (dead, 404, …) gives ``None``."""

        def fetch(backend: Backend):
            try:
                return backend.address, backend.probe_client.request("GET", path)[1]
            except Exception:
                return backend.address, None

        return await asyncio.gather(
            *(asyncio.to_thread(fetch, b) for b in self._fleet.alive_backends())
        )

    async def _aggregate_fleet_metrics(self) -> tuple[dict, list[str]]:
        """Summed counters across every live backend's ``/metrics``."""
        snapshots = await self._ask_live_backends("/metrics")
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
        entry, catalogue = await self._route(payload, lambda: request.body)
        backend, (status, body) = await self._forward(
            entry["instance_digest"],
            self._reregistering(
                "POST", "/v1/problems", request.body, entry, catalogue
            ),
        )
        body["backend"] = backend.address
        return Response.json(body, status=status)

    async def _get_problem(self, request: Request, pid: str) -> Response:
        entry = self._routing_entry(pid)
        _, (status, body) = await self._forward(
            entry["instance_digest"],
            self._reregistering(
                "GET", f"/v1/problems/{pid}", None, entry, entry["catalogue"]
            ),
        )
        return Response.json(body, status=status)

    async def _solve_registered(self, request: Request, pid: str) -> Response:
        entry = self._routing_entry(pid)
        # The method/options overrides are checked, then relayed as sent.
        require_object(request.json(default={}))
        backend, (status, body) = await self._forward(
            entry["instance_digest"],
            self._reregistering(
                "POST",
                f"/v1/problems/{pid}/solve",
                request.body or None,
                entry,
                entry["catalogue"],
            ),
        )
        body["backend"] = backend.address
        return Response.json(body, status=status)

    async def _solve_inline(self, request: Request) -> Response:
        entry, catalogue = await self._inline_target(request)
        backend, (status, payload) = await self._forward(
            entry["instance_digest"],
            self._reregistering("POST", "/v1/solve", request.body, entry, catalogue),
        )
        payload["backend"] = backend.address
        return Response.json(payload, status=status)

    async def _submit_job(self, request: Request) -> Response:
        entry, catalogue = await self._inline_target(request)
        backend, (status, payload) = await self._forward(
            entry["instance_digest"],
            self._reregistering("POST", "/v1/jobs", request.body, entry, catalogue),
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
            raise NotFound(str(exc)) from None

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
        id_a, id_b = diff_job_ids(request)
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
            return diff_envelope(id_a, id_b, solution_a.diff(solution_b))

        return Response.json(await asyncio.to_thread(compute))

    # -- observability endpoints ---------------------------------------

    async def _get_trace(self, request: Request, tid: str) -> Response:
        """The stitched cross-backend view of one trace: the gateway's
        own record merged with whatever each live backend retained
        under the same trace id — a failover's failed forward, the
        re-registration, and the successor's re-solve reassemble into
        one tree because every span carries the same trace id."""
        local = self._traces.get(tid)
        remotes = await self._ask_live_backends(f"/v1/traces/{tid}")
        records = ([local] if local is not None else []) + [
            r for _, r in remotes if isinstance(r, dict)
        ]
        if not records:
            raise NotFound(f"unknown trace {tid!r}")
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
        return Response.json(stitched)

    # -- lifecycle -----------------------------------------------------

    async def _open(self) -> None:
        # Settle initial liveness before serving: a backend already
        # dead at boot needs down_after consecutive failures to be
        # marked down, so sweep that many times — it gets marked now,
        # not on the first unlucky request.
        for _ in range(self.config.down_after):
            await asyncio.to_thread(self._prober.probe_all)
        self._prober.start()

    async def _close(self) -> None:
        await asyncio.to_thread(self._prober.close)
        await asyncio.to_thread(self._fleet.close)


def serve_gateway_in_thread(config: GatewayConfig) -> ServiceHandle:
    """Start a :class:`ReproGateway` on a daemon thread; returns once
    the socket is bound (so :attr:`ServiceHandle.port` is valid).
    ``with serve_gateway_in_thread(cfg) as handle:`` stops it when the
    block exits."""
    return start_in_thread(ReproGateway(config))


__all__ = [
    "GatewayConfig",
    "GatewayMetrics",
    "ReproGateway",
    "serve_gateway_in_thread",
]
