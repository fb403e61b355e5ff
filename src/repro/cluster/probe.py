"""Backend records and periodic health probing.

Each backend the gateway fronts is one :class:`Backend` record: its
address and stable ``node_id``, a shared forwarding
:class:`~repro.server.client.Client` (thread-safe — every in-flight
request for this backend multiplexes over it), a separate short-timeout
probe client, and the liveness state machine.

Liveness changes through exactly two doors, both under the record's
lock:

- the **probe loop** (:class:`HealthProber`) GETs ``/healthz`` every
  ``interval`` seconds; ``down_after`` consecutive failures mark the
  backend down, one success marks it up again (and stores the health
  payload, so the gateway's own ``/healthz`` can report fleet
  ``queue_depth`` / ``jobs_inflight`` / ``version`` per node);
- the **forward path** calls :meth:`Backend.mark_down` the moment a
  request hits a transport failure — failover must not wait out a
  probe interval.

A backend is never removed from the hash ring: down nodes are skipped
via the ring's successor list, so a recovered backend rejoins with its
ring positions (and key ownership) intact.
"""

from __future__ import annotations

import hashlib
import threading
import time

from repro.obs.log import get_logger
from repro.server.client import Client

log = get_logger("repro.cluster")


def node_id_for(address: str) -> str:
    """Stable 8-hex id for a backend address — the job-id prefix
    (``{node_id}@{job_id}``), so polls route without gateway state."""
    return hashlib.sha256(address.encode("utf-8")).hexdigest()[:8]


class Backend:
    """One fronted ``repro-server``: clients + liveness state."""

    def __init__(
        self,
        address: str,
        *,
        forward_timeout: float = 120.0,
        probe_timeout: float = 2.0,
        down_after: int = 2,
    ):
        if down_after < 1:
            raise ValueError("down_after must be >= 1")
        self.address = address
        self.node_id = node_id_for(address)
        self.client = Client(f"http://{address}", timeout=forward_timeout)
        self.probe_client = Client(f"http://{address}", timeout=probe_timeout)
        self.down_after = down_after
        self._guard = threading.Lock()
        self.alive = True
        self.consecutive_failures = 0
        self.last_probe_at: float | None = None
        self.last_error: str | None = None
        #: Last successful ``/healthz`` payload (queue_depth, ...).
        self.health: dict = {}
        # Counters (under the lock; read by /metrics).
        self.forwards = 0
        self.transport_failures = 0
        self.marks_down = 0
        self.recoveries = 0

    # -- state transitions ---------------------------------------------

    def mark_down(self, reason: str) -> bool:
        """Request-path death notice; returns True on an up→down flip."""
        with self._guard:
            self.transport_failures += 1
            self.consecutive_failures = max(
                self.consecutive_failures, self.down_after
            )
            self.last_error = reason
            if not self.alive:
                return False
            self.alive = False
            self.marks_down += 1
        log.warning("backend marked down", backend=self.address, reason=reason)
        return True

    def record_probe_success(self, payload: dict) -> bool:
        """Probe success; returns True on a down→up recovery."""
        with self._guard:
            self.last_probe_at = time.time()
            self.consecutive_failures = 0
            self.last_error = None
            self.health = payload
            if self.alive:
                return False
            self.alive = True
            self.recoveries += 1
        log.info(
            "backend recovered; rejoining its ring positions",
            backend=self.address,
        )
        return True

    def record_probe_failure(self, reason: str) -> bool:
        """Probe failure; returns True on an up→down flip."""
        with self._guard:
            self.last_probe_at = time.time()
            self.consecutive_failures += 1
            self.last_error = reason
            if not self.alive or self.consecutive_failures < self.down_after:
                return False
            self.alive = False
            self.marks_down += 1
        log.warning(
            "backend failed consecutive probes; marked down",
            backend=self.address,
            probes=self.down_after,
            reason=reason,
        )
        return True

    def count_forward(self) -> None:
        with self._guard:
            self.forwards += 1

    # -- views ---------------------------------------------------------

    # lint: never-traced
    def probe(self) -> bool:
        """One synchronous health check (runs on a worker thread)."""
        try:
            payload = self.probe_client.health()
        except Exception as exc:  # any failure is a failed probe
            return self.record_probe_failure(f"{type(exc).__name__}: {exc}")
        return self.record_probe_success(payload)

    def snapshot(self) -> dict:
        with self._guard:
            health = self.health
            return {
                "node_id": self.node_id,
                "alive": self.alive,
                "consecutive_failures": self.consecutive_failures,
                "last_probe_at": self.last_probe_at,
                "last_error": self.last_error,
                "forwards": self.forwards,
                "transport_failures": self.transport_failures,
                "marks_down": self.marks_down,
                "recoveries": self.recoveries,
                # Load signals lifted from the backend's own /healthz.
                "queue_depth": health.get("queue_depth"),
                "jobs_inflight": health.get("jobs_inflight"),
                "version": health.get("version"),
                "uptime_seconds": health.get("uptime_seconds"),
            }

    def close(self) -> None:
        self.client.close()
        self.probe_client.close()


class HealthProber:
    """Background thread sweeping every backend's ``/healthz``.

    A plain daemon thread, not an asyncio task: probes are blocking
    HTTP calls, and running them off-loop means a wedged backend can
    never stall the gateway's event loop.  ``close()`` wakes and joins
    the thread.
    """

    def __init__(self, backends: list[Backend], interval: float = 2.0):
        if interval <= 0:
            raise ValueError("probe interval must be > 0")
        self.backends = backends
        self.interval = interval
        self.cycles = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-prober", daemon=True
        )
        self._thread.start()

    # lint: never-traced
    def _run(self) -> None:
        while not self._stop.is_set():
            self.probe_all()
            self._stop.wait(self.interval)

    # lint: never-traced
    def probe_all(self) -> None:
        """One sweep over all backends (also callable synchronously —
        tests and gateway startup use it to settle liveness now)."""
        for backend in self.backends:
            if self._stop.is_set():
                return
            backend.probe()
        self.cycles += 1

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None


__all__ = ["Backend", "HealthProber", "node_id_for"]
