"""repro.cluster — sharded serving over a fleet of repro-servers.

A stdlib-only asyncio gateway that horizontally scales the single-node
:mod:`repro.server` by consistent-hash sharding::

    clients  →  repro-gateway  ──ring──►  repro-server × N
                  (this layer)             (each owns its shards'
                                            R-tree index caches)

Every request is keyed by the problem's ``instance_digest`` (catalogue,
cohort and index settings; solver selection excluded — method variants
of one problem share a shard and its caches), so the cohorts of one
catalogue spread over the fleet and every backend serving one of them
builds that catalogue's index.  The ring is deterministic across
processes and restarts: no state to replicate, any gateway maps any key
the same way.  Async job ids come back prefixed ``{node_id}@{job_id}``,
so polls route by prefix with no gateway-side job table.

Failover: dead backends are skipped via ring successors (never removed
from the ring — recovery restores ownership), solves re-execute on the
successor bit-identically (deterministic engine), and a shard with no
live replica answers 503 + ``Retry-After``.

Run it standalone::

    python -m repro.cluster --backend 127.0.0.1:8001 \
        --backend 127.0.0.1:8002          # or the repro-gateway script

or embed it (tests, benchmarks)::

    from repro.cluster import GatewayConfig, serve_gateway_in_thread
    from repro.server import Client

    with serve_gateway_in_thread(
        GatewayConfig(backends=(addr_a, addr_b), port=0)
    ) as handle:
        with Client(handle.base_url) as client:  # same protocol
            solution = client.solve(problem)
"""

from repro.cluster.app import (
    GatewayConfig,
    GatewayMetrics,
    ReproGateway,
    serve_gateway_in_thread,
)
from repro.cluster.forwarder import Fleet
from repro.cluster.probe import Backend, HealthProber, node_id_for
from repro.cluster.ring import HashRing, ring_hash

__all__ = [
    "Backend",
    "Fleet",
    "GatewayConfig",
    "GatewayMetrics",
    "HashRing",
    "HealthProber",
    "ReproGateway",
    "node_id_for",
    "ring_hash",
    "serve_gateway_in_thread",
]
