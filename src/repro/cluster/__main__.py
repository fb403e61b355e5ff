"""Console entry point: ``python -m repro.cluster`` / ``repro-gateway``.

Announces the bound address on stdout once the socket is listening —
``--port 0`` picks an ephemeral port, so supervisors (and the CI
cluster-smoke job) parse the announcement line rather than guessing.
Backends are given with repeated ``--backend host:port`` flags (or one
comma-separated ``--backends`` list).
"""

from __future__ import annotations

import argparse

from repro.cluster.app import GatewayConfig, ReproGateway
from repro.server.base import serve_console, service_parser


def build_parser() -> argparse.ArgumentParser:
    parser = service_parser(
        "repro-gateway",
        (
            "Shard fair-assignment solves over a fleet of repro-server "
            "backends via a deterministic consistent-hash ring."
        ),
        port=8100,
        retry_status=503,
    )
    parser.add_argument(
        "--backend", action="append", default=[], metavar="HOST:PORT",
        help="one backend repro-server (repeat for each fleet member)",
    )
    parser.add_argument(
        "--backends", dest="backend_list", metavar="HOST:PORT,HOST:PORT,...",
        help="comma-separated backend list (alternative to --backend)",
    )
    parser.add_argument(
        "--vnodes", type=int, default=256,
        help="virtual nodes per backend on the hash ring",
    )
    parser.add_argument(
        "--probe-interval", dest="probe_interval_seconds", type=float,
        default=2.0, help="seconds between background /healthz sweeps",
    )
    parser.add_argument(
        "--probe-timeout", dest="probe_timeout_seconds", type=float,
        default=2.0, help="per-probe HTTP timeout (seconds)",
    )
    parser.add_argument(
        "--down-after", type=int, default=2,
        help="consecutive probe failures before a backend is marked down",
    )
    parser.add_argument(
        "--forward-timeout", dest="forward_timeout_seconds", type=float,
        default=120.0, help="per-forward HTTP timeout (covers backend solve time)",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    addresses = list(args.backend)
    if args.backend_list:
        addresses.extend(
            part.strip() for part in args.backend_list.split(",") if part.strip()
        )
    if not addresses:
        parser.error("at least one backend is required (--backend HOST:PORT)")
    serve_console(
        ReproGateway,
        GatewayConfig,
        args,
        note=f" ({len(addresses)} backends)",
        backends=tuple(addresses),
    )


if __name__ == "__main__":
    main()
