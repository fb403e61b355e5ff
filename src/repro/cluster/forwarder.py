"""The fleet: hash ring + backends + the re-shard forwarding loop.

:class:`Fleet` is the gateway's routing brain.  A request keyed by
``instance_digest`` walks the ring's successor list, skipping backends
currently marked down, and runs its blocking client call on the first
live candidate.  A transport failure (connection refused/reset/timed
out, stale keep-alive the client could not revive) marks that backend
down *immediately* and re-shards to the next successor rather than
wedging every later request on a dead node.  HTTP-level errors from a
live backend (400/404/409/429/…) are *not* failover events: the
backend answered; its answer propagates.

When the successor list is exhausted — every replica of the shard is
down — the request fails with the typed
:class:`~repro.errors.ServerUnavailableError`, which the gateway
surfaces as 503 + ``Retry-After`` (and the client's polite-retry loop
honours, riding out short full-fleet outages).

Retries are solve-safe: the engine is deterministic, so re-executing a
solve on a successor returns the bit-identical solution; re-submitting
a job after an ambiguous failure at worst leaves an orphaned job on a
dead node, which died with that node anyway.
"""

from __future__ import annotations

import http.client
import threading
from collections.abc import Callable
from typing import TypeVar

from repro.cluster.probe import Backend
from repro.cluster.ring import HashRing
from repro.errors import ServerUnavailableError

T = TypeVar("T")

#: Failures that mean "this backend is unreachable", triggering mark
#: down + re-shard.  OSError covers refused/reset/timeout sockets;
#: HTTPException covers keep-alive streams that died mid-exchange
#: after the client's own reconnect-once attempt.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


class Fleet:
    """Routes keys to live backends; owns the re-shard discipline."""

    def __init__(
        self,
        addresses: tuple[str, ...] | list[str],
        *,
        vnodes: int = 256,
        forward_timeout: float = 120.0,
        probe_timeout: float = 2.0,
        down_after: int = 2,
        retry_after_seconds: float = 1.0,
    ):
        if not addresses:
            raise ValueError("a gateway needs at least one backend address")
        if len(set(addresses)) != len(addresses):
            raise ValueError(f"duplicate backend addresses in {list(addresses)}")
        self.ring = HashRing(list(addresses), vnodes=vnodes)
        self.backends: dict[str, Backend] = {
            address: Backend(
                address,
                forward_timeout=forward_timeout,
                probe_timeout=probe_timeout,
                down_after=down_after,
            )
            for address in addresses
        }
        self.by_node_id: dict[str, Backend] = {
            backend.node_id: backend for backend in self.backends.values()
        }
        self.retry_after_seconds = retry_after_seconds
        self._guard = threading.Lock()
        # Fleet-level counters (gateway /metrics).
        self.forwards_total = 0
        self.reshards_total = 0
        self.no_owner_total = 0
        self.reregistrations_total = 0
        self.catalogue_pushes_total = 0

    # -- routing -------------------------------------------------------

    def candidates(self, key: str) -> list[Backend]:
        """Live backends in the key's successor order."""
        return [
            self.backends[address]
            for address in self.ring.preference(key)
            if self.backends[address].alive
        ]

    def owner(self, key: str) -> Backend | None:
        """The key's current live owner (``None`` if the shard has no
        live replica)."""
        ordered = self.candidates(key)
        return ordered[0] if ordered else None

    def backend_for_job(self, job_id: str) -> tuple[Backend, str]:
        """Split a gateway job id ``{node_id}@{raw_id}`` and resolve
        the owning backend (polls route by prefix, without state)."""
        node_id, sep, raw_id = job_id.partition("@")
        backend = self.by_node_id.get(node_id) if sep else None
        if backend is None:
            raise KeyError(
                f"job id {job_id!r} does not carry a known backend prefix"
            )
        return backend, raw_id

    # -- forwarding ----------------------------------------------------

    def count_reregistration(self) -> None:
        with self._guard:
            self.reregistrations_total += 1

    def count_catalogue_push(self) -> None:
        with self._guard:
            self.catalogue_pushes_total += 1

    def _no_live_owner(self, key: str) -> ServerUnavailableError:
        with self._guard:
            self.no_owner_total += 1
        return ServerUnavailableError(
            f"no live backend owns shard {key[:16]}…; "
            f"{len(self.backends)} configured, 0 reachable replicas",
            retry_after=self.retry_after_seconds,
        )

    def forward(self, key: str, fn: Callable[[Backend], T]) -> tuple[Backend, T]:
        """Run ``fn`` against the key's owner, re-sharding on death.

        Blocking — the gateway calls it via ``asyncio.to_thread``.
        Walks the successor list at most once: each transport failure
        marks the current candidate down (so the *next* ``owner()``
        lookup already skips it) and moves on; an exhausted list raises
        :class:`ServerUnavailableError`.
        """
        attempted: set[str] = set()
        while True:
            candidate = None
            for backend in self.candidates(key):
                if backend.address not in attempted:
                    candidate = backend
                    break
            if candidate is None:
                raise self._no_live_owner(key)
            attempted.add(candidate.address)
            try:
                result = fn(candidate)
            except TRANSPORT_ERRORS as exc:
                candidate.mark_down(f"{type(exc).__name__}: {exc}")
                with self._guard:
                    self.reshards_total += 1
                continue
            candidate.count_forward()
            with self._guard:
                self.forwards_total += 1
            return candidate, result

    def call(self, backend: Backend, fn: Callable[[Backend], T]) -> T:
        """Run ``fn`` against one specific backend (job polls — the
        record lives only there, so there is nowhere to re-shard to).
        A dead or dying backend surfaces as
        :class:`ServerUnavailableError`: the job may become reachable
        again if the backend recovers."""
        if not backend.alive:
            raise ServerUnavailableError(
                f"backend {backend.address} holding this job is down",
                retry_after=self.retry_after_seconds,
            )
        try:
            result = fn(backend)
        except TRANSPORT_ERRORS as exc:
            backend.mark_down(f"{type(exc).__name__}: {exc}")
            raise ServerUnavailableError(
                f"backend {backend.address} holding this job became "
                f"unreachable ({type(exc).__name__})",
                retry_after=self.retry_after_seconds,
            ) from exc
        backend.count_forward()
        with self._guard:
            self.forwards_total += 1
        return result

    # -- views / lifecycle ---------------------------------------------

    def alive_backends(self) -> list[Backend]:
        return [b for b in self.backends.values() if b.alive]

    def snapshots(self) -> dict[str, dict]:
        """Every backend's liveness and load record, by address."""
        return {address: b.snapshot() for address, b in self.backends.items()}

    def info(self) -> dict:
        with self._guard:
            counters = {
                "forwards_total": self.forwards_total,
                "reshards_total": self.reshards_total,
                "no_owner_total": self.no_owner_total,
                "reregistrations_total": self.reregistrations_total,
                "catalogue_pushes_total": self.catalogue_pushes_total,
            }
        return {
            **counters,
            "backends_configured": len(self.backends),
            "backends_alive": len(self.alive_backends()),
            "ring": {
                "vnodes_per_backend": self.ring.vnodes,
                "points": len(self.backends) * self.ring.vnodes,
            },
        }

    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()


__all__ = ["Fleet", "TRANSPORT_ERRORS"]
