"""Retention and rendering of finished traces.

Each server/gateway owns one :class:`TraceStore`.  Finished request
trees land in a *recent* LRU (every traced request is briefly
queryable at ``GET /v1/traces/{trace_id}``), and requests over the
configured threshold are additionally pinned in a separate *slow*
store — the slow-solve log — so a latency spike stays inspectable
long after ordinary traffic has churned the recent ring.  Slow-trace
records keep whatever the spans carried, which for solve spans
includes the ``resolved_method`` the planner picked.

The pure functions below (:func:`assemble_tree`, :func:`render_tree`)
work on span *dicts*, so the gateway can stitch its local record with
span lists fetched from backends and `repro-admin trace` can render
either server- or gateway-shaped records.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.trace import Span

#: Every service's LRU bounds on recent traces and on pinned slow ones.
RECENT_TRACES = 256
SLOW_TRACES = 64


class TraceStore:
    """Recent-LRU + pinned-slow retention of finished span trees."""

    def __init__(
        self,
        recent_size: int = RECENT_TRACES,
        slow_size: int = SLOW_TRACES,
        slow_threshold_seconds: float = 0.25,
    ):
        if recent_size < 1 or slow_size < 1:
            raise ValueError("trace store sizes must be >= 1")
        self.recent_size = recent_size
        self.slow_size = slow_size
        self.slow_threshold_seconds = slow_threshold_seconds
        self._guard = threading.Lock()
        self._recent: OrderedDict[str, dict] = OrderedDict()
        self._slow: OrderedDict[str, dict] = OrderedDict()
        self.recorded_total = 0
        self.slow_total = 0

    def record(
        self,
        root: Span,
        spans: list[Span],
        node: str | None = None,
    ) -> dict:
        """Store one finished request's span tree; returns the record.

        ``spans`` is the request's collector output (the root may or
        may not already be in it).  Spans without a node are stamped
        with this store's owner ``node``, so stitched cross-process
        trees show where each span ran.
        """
        seen = {root.span_id}
        all_spans = [root]
        for s in spans:
            if s.span_id not in seen:
                seen.add(s.span_id)
                all_spans.append(s)
        for s in all_spans:
            if s.node is None:
                s.node = node
        duration = root.duration_seconds or 0.0
        slow = duration >= self.slow_threshold_seconds
        record = {
            "trace_id": root.trace_id,
            "root": root.name,
            "status": root.status,
            "started": root.started,
            "duration_seconds": duration,
            "slow": slow,
            "node": node,
            "spans": [s.to_dict() for s in all_spans],
        }
        with self._guard:
            self.recorded_total += 1
            self._recent[root.trace_id] = record
            self._recent.move_to_end(root.trace_id)
            while len(self._recent) > self.recent_size:
                self._recent.popitem(last=False)
            if slow:
                self.slow_total += 1
                self._slow[root.trace_id] = record
                self._slow.move_to_end(root.trace_id)
                while len(self._slow) > self.slow_size:
                    self._slow.popitem(last=False)
        return record

    def get(self, trace_id: str) -> dict | None:
        with self._guard:
            record = self._recent.get(trace_id)
            if record is None:
                record = self._slow.get(trace_id)
            return record

    def recent(self, limit: int = 50) -> list[dict]:
        """Newest-first summaries of the ``limit`` most recently
        finished traces (a negative ``limit`` lists them all)."""
        with self._guard:
            records = list(self._recent.values())[::-1]
        if limit >= 0:
            records = records[:limit]
        return [
            {
                "trace_id": r["trace_id"],
                "root": r["root"],
                "status": r["status"],
                "started": r["started"],
                "duration_seconds": r["duration_seconds"],
                "slow": r["slow"],
                "spans": len(r["spans"]),
            }
            for r in records
        ]

    def info(self) -> dict:
        with self._guard:
            return {
                "recorded_total": self.recorded_total,
                "slow_total": self.slow_total,
                "recent_entries": len(self._recent),
                "slow_entries": len(self._slow),
                "slow_threshold_seconds": self.slow_threshold_seconds,
            }


# ---------------------------------------------------------------------------
# span-tree assembly / rendering (pure functions over span dicts)


def assemble_tree(spans: list[dict]) -> list[dict]:
    """Nest flat span dicts into ``{"span": ..., "children": [...]}``
    trees.  Roots are spans whose parent is absent from the list —
    which is exactly right for stitched traces, where the client's
    originating span was never recorded anywhere.

    Children sort by wall-clock start (cross-process clocks are close
    enough at the millisecond scale the engine works in), with derived
    phase spans kept in insertion order after live ones.
    """
    by_id = {s["span_id"]: {"span": s, "children": []} for s in spans}
    roots: list[dict] = []
    for s in spans:
        node = by_id[s["span_id"]]
        parent = by_id.get(s.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)

    def sort_key(node: dict):
        s = node["span"]
        derived = bool((s.get("attributes") or {}).get("derived"))
        return (derived, s.get("started") or 0.0)

    for node in by_id.values():
        node["children"].sort(key=sort_key)
    roots.sort(key=sort_key)
    return roots


def _span_line(node: dict, prefix: str, last: bool) -> str:
    s = node["span"]
    branch = "└─ " if last else "├─ "
    attrs = dict(s.get("attributes") or {})
    derived = attrs.pop("derived", False)
    where = f" [{s['node']}]" if s.get("node") else ""
    duration = s.get("duration_seconds")
    timing = f"{duration * 1000:9.2f} ms" if duration is not None else "        — "
    label = s["name"]
    detail_keys = ("method", "path", "backend", "status")
    details = " ".join(
        str(attrs[k]) for k in detail_keys if k in attrs and attrs[k] is not None
    )
    if details:
        label = f"{label} {details}"
    flags = []
    if s.get("status") == "error":
        flags.append(f"ERROR {s.get('error', '')}".rstrip())
    if derived:
        flags.append("(derived)")
    counters = " ".join(
        f"{k}={attrs[k]}"
        for k in ("io_accesses", "loops", "cache_hit", "index_cache_hit")
        if k in attrs
    )
    if counters:
        flags.append(counters)
    suffix = ("  " + "  ".join(flags)) if flags else ""
    return f"{prefix}{branch}{label:<44} {timing}{where}{suffix}"


def _render_node(node: dict, prefix: str, last: bool, lines: list[str]) -> None:
    lines.append(_span_line(node, prefix, last))
    children = node["children"]
    child_prefix = prefix + ("   " if last else "│  ")
    for i, child in enumerate(children):
        _render_node(child, child_prefix, i == len(children) - 1, lines)


def render_tree(record: dict) -> str:
    """ASCII rendering of a trace record's span tree (the shape
    ``repro-admin trace`` prints)."""
    spans = record.get("spans") or []
    header = (
        f"trace {record.get('trace_id', '?')}"
        f" — {record.get('duration_seconds', 0.0) * 1000:.2f} ms"
        f" — {record.get('status', '?')}"
        f" — {len(spans)} spans"
    )
    if record.get("slow"):
        header += "  [slow]"
    if record.get("stitched"):
        nodes = ", ".join(record.get("nodes") or [])
        header += f"  (stitched: {nodes})"
    lines = [header]
    roots = assemble_tree(spans)
    for i, root in enumerate(roots):
        _render_node(root, "", i == len(roots) - 1, lines)
    return "\n".join(lines)


__all__ = ["RECENT_TRACES", "SLOW_TRACES", "TraceStore", "assemble_tree", "render_tree"]
