"""Console entry point: ``python -m repro.server`` / ``repro-server``.

Announces the bound address on stdout once the socket is listening —
``--port 0`` picks an ephemeral port, so supervisors (and the CI smoke
job) parse the announcement line rather than guessing.
"""

from __future__ import annotations

import argparse

from repro.server.app import ReproServer, ServerConfig
from repro.server.base import serve_console, service_parser


def build_parser() -> argparse.ArgumentParser:
    parser = service_parser(
        "repro-server",
        "Serve fair-assignment solves over JSON/HTTP.",
        port=8000,
        retry_status=429,
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="max queued+running solves before requests get 429",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "solve pool size in threads, which share one object-index "
            "cache (default: the ThreadPoolExecutor default)"
        ),
    )
    parser.add_argument(
        "--pump-tasks", type=int, default=8,
        help="async jobs concurrently in flight",
    )
    parser.add_argument("--solution-cache-size", type=int, default=256)
    parser.add_argument("--index-cache-size", type=int, default=32)
    return parser


def main(argv: list[str] | None = None) -> None:
    serve_console(ReproServer, ServerConfig, build_parser().parse_args(argv))


if __name__ == "__main__":
    main()
