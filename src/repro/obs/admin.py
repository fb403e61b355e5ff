"""``repro-admin`` — the fleet console.

One small operator CLI over the serving HTTP surface (works against a
single ``repro-server`` or a ``repro-gateway`` fronting a fleet —
both speak the same protocol):

- ``status``      one-shot summary of ``/healthz`` + ``/metrics``
- ``watch``       live-refresh dashboard (req/s, cache hit rate,
                  queue depth, per-backend health, planner picks)
- ``trace ID``    render a span tree from ``/v1/traces/{id}``
                  (``--last`` picks the newest recorded trace)
- ``logs``        tail the remote ``/v1/logs`` ring

Usage::

    repro-admin --url http://127.0.0.1:8000 status
    repro-admin --url http://127.0.0.1:8100 watch --interval 2
    repro-admin --url http://127.0.0.1:8100 trace --last
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.errors import ServerError
from repro.obs.store import render_tree
from repro.server.client import Client


def _bar(fraction: float, width: int = 24) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = round(fraction * width)
    return "█" * filled + "·" * (width - filled)


def _fmt_seconds(seconds: float | None) -> str:
    if seconds is None:
        return "—"
    if seconds < 1:
        return f"{seconds * 1000:.1f} ms"
    return f"{seconds:.2f} s"


# ---------------------------------------------------------------------------
# status


def _render_server_status(health: dict, metrics: dict, url: str) -> list[str]:
    solves = metrics.get("solves", {})
    total = solves.get("total", 0)
    hits = solves.get("cache_hits", 0)
    hit_rate = (hits / total * 100) if total else 0.0
    queue = metrics.get("queue", {})
    caches = metrics.get("solution_cache", {})
    index = metrics.get("index_cache", {})
    lines = [
        f"repro-server @ {url} — {health.get('status', '?')}"
        f" — v{health.get('version', '?')}"
        f" — up {health.get('uptime_seconds', 0.0):.0f}s",
        f"  problems {health.get('problems', 0)}"
        f" · queue {queue.get('depth', 0)}/{queue.get('limit', 0)}"
        f" (peak {queue.get('peak_depth', 0)},"
        f" rejected {queue.get('rejected_total', 0)})",
        f"  solves {total} (cache hits {hits}, {hit_rate:.1f}%)"
        f" · solution cache {caches.get('entries', 0)} entries"
        f" · index cache {index.get('hits', 0)}h/{index.get('misses', 0)}m",
        f"  jobs {queue.get('jobs_submitted', 0)} submitted,"
        f" {queue.get('jobs_completed', 0)} completed,"
        f" {queue.get('jobs_failed', 0)} failed",
    ]
    picks = metrics.get("planner", {}).get("picks", {})
    if picks:
        rendered = ", ".join(f"{m} {n}" for m, n in picks.items())
        lines.append(f"  planner picks: {rendered}")
    for method, hist in sorted(metrics.get("latency", {}).items()):
        lines.append(
            f"  latency[{method}]: p50 {_fmt_seconds(hist.get('p50_seconds'))}"
            f" p99 {_fmt_seconds(hist.get('p99_seconds'))}"
            f" max {_fmt_seconds(hist.get('max_seconds'))}"
            f" (n={hist.get('count', 0)})"
        )
    traces = metrics.get("traces")
    if traces:
        lines.append(
            f"  traces: {traces.get('recorded_total', 0)} recorded,"
            f" {traces.get('slow_total', 0)} slow"
            f" (threshold {_fmt_seconds(traces.get('slow_threshold_seconds'))})"
        )
    return lines


def _render_gateway_status(health: dict, metrics: dict, url: str) -> list[str]:
    ring = health.get("ring", {})
    lines = [
        f"repro-gateway @ {url} — {health.get('status', '?')}"
        f" — v{health.get('version', '?')}"
        f" — up {health.get('uptime_seconds', 0.0):.0f}s",
        f"  ring: {ring.get('alive', 0)}/{ring.get('configured', 0)} backends"
        f" alive · {ring.get('vnodes_per_backend', 0)} vnodes each"
        f" · {health.get('problems_routed', 0)} problems routed",
    ]
    gw = metrics.get("gateway", {})
    lines.append(
        f"  forwards {gw.get('forwards_total', 0)}"
        f" · reshards {gw.get('reshards_total', 0)}"
        f" · re-registrations {gw.get('reregistrations_total', 0)}"
        f" · catalogue pushes {gw.get('catalogue_pushes_total', 0)}"
        f" · no-owner 503s {gw.get('no_owner_total', 0)}"
    )
    for address, backend in sorted(health.get("backends", {}).items()):
        state = "up  " if backend.get("alive") else "DOWN"
        queue_depth = backend.get("queue_depth")
        queue_text = f" queue {queue_depth}" if queue_depth is not None else ""
        lines.append(
            f"  [{state}] {address} ({backend.get('node_id', '?')})"
            f" forwards {backend.get('forwards', 0)}{queue_text}"
            + (
                f" — last error: {backend['last_error']}"
                if backend.get("last_error")
                else ""
            )
        )
    fleet = metrics.get("fleet", {})
    solves = fleet.get("solves", {})
    if solves:
        total = solves.get("total", 0)
        hits = solves.get("cache_hits", 0)
        hit_rate = (hits / total * 100) if total else 0.0
        lines.append(
            f"  fleet solves {total} (cache hits {hits}, {hit_rate:.1f}%)"
            f" over {fleet.get('backends_reporting', 0)} reporting backends"
        )
    picks = fleet.get("planner", {}).get("picks", {})
    if picks:
        rendered = ", ".join(f"{m} {n}" for m, n in picks.items())
        lines.append(f"  fleet planner picks: {rendered}")
    return lines


def status_lines(client: Client, url: str) -> list[str]:
    health = client.health()
    metrics = client.metrics()
    if health.get("role") == "gateway":
        return _render_gateway_status(health, metrics, url)
    return _render_server_status(health, metrics, url)


def cmd_status(args) -> int:
    with Client(args.url) as client:
        for line in status_lines(client, args.url):
            print(line)
    return 0


# ---------------------------------------------------------------------------
# watch


def cmd_watch(args) -> int:
    previous_requests: int | None = None
    previous_at: float | None = None
    iterations = 0
    with Client(args.url) as client:
        while True:
            lines = status_lines(client, args.url)
            metrics = client.metrics()
            requests_total = metrics.get("http", {}).get("requests_total", 0)
            now = time.monotonic()
            if previous_requests is not None and now > previous_at:
                rate = (requests_total - previous_requests) / (now - previous_at)
                capacity = max(rate, 1.0)
                lines.append(
                    f"  {rate:6.1f} req/s  {_bar(rate / (capacity * 1.25))}"
                )
            previous_requests, previous_at = requests_total, now
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(time.strftime("%H:%M:%S"), f"(refresh {args.interval:g}s)")
            for line in lines:
                print(line)
            sys.stdout.flush()
            iterations += 1
            if args.count is not None and iterations >= args.count:
                return 0
            time.sleep(args.interval)


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args) -> int:
    with Client(args.url) as client:
        trace_id = args.trace_id
        if trace_id is None:
            listing = client.request("GET", "/v1/traces")[1]
            traces = listing.get("traces", [])
            if not traces:
                print("no traces recorded yet", file=sys.stderr)
                return 1
            trace_id = traces[0]["trace_id"]
        try:
            record = client.request("GET", f"/v1/traces/{trace_id}")[1]
        except ServerError as exc:
            if exc.status == 404:
                print(f"trace {trace_id} not found", file=sys.stderr)
                return 1
            raise
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            print(render_tree(record))
    return 0


# ---------------------------------------------------------------------------
# logs


def cmd_logs(args) -> int:
    query = f"?limit={args.limit}"
    if args.level:
        query += f"&level={args.level}"
    with Client(args.url) as client:
        body = client.request("GET", f"/v1/logs{query}")[1]
    for entry in body.get("entries", []):
        print(json.dumps(entry, sort_keys=True))
    ring = body.get("ring", {})
    if ring.get("dropped"):
        print(
            f"({ring['dropped']} older records dropped by the ring)",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-admin",
        description="Operator console for repro-server / repro-gateway fleets.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="server or gateway base URL (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("status", help="one-shot fleet/server summary")

    watch = sub.add_parser("watch", help="live-refresh dashboard")
    watch.add_argument("--interval", type=float, default=2.0)
    watch.add_argument(
        "--count", type=int, default=None,
        help="refresh N times then exit (default: run until interrupted)",
    )
    watch.add_argument(
        "--no-clear", action="store_true",
        help="append refreshes instead of clearing the screen",
    )

    trace = sub.add_parser("trace", help="render one trace's span tree")
    trace.add_argument("trace_id", nargs="?", default=None)
    trace.add_argument(
        "--last", action="store_true",
        help="render the newest recorded trace (default when no id given)",
    )
    trace.add_argument("--json", action="store_true", help="raw record JSON")

    logs = sub.add_parser("logs", help="tail the remote log ring")
    logs.add_argument("--limit", type=int, default=50)
    logs.add_argument("--level", default=None, help="minimum severity")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "status": cmd_status,
        "watch": cmd_watch,
        "trace": cmd_trace,
        "logs": cmd_logs,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        return 130
    except ServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
