"""Stdlib-only helpers shared by ``run.py`` and its worker processes.

Workers import this module before the program, so nothing here may
import ``repro`` or ``numpy``: the ``setup.import`` window must start
with neither loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (span dumps, result records, the
#: exact-count guard's memory, server logs) lives here.
STATE = ROOT / ".perfbench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Fresh set-ups per untraced run (the timed replay's among them);
#: ``setup_s`` is their median.
SETUPS = 5


def program_env() -> dict[str, str]:
    """Environment for a program process: only this checkout's ``src``
    on the import path, so an installed copy can never be measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Content hash of the program's sources; keys the exact-count
    guard so a changed program never compares against stale counts."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- /proc -------------------------------------------------------------


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of ``pid`` so far."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- host-speed reference -----------------------------------------------


def host_reference_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed integer loop, in ms.

    Never a metric and never compared: stored beside each run's
    metrics so a reader can tell a slow host from a slow program.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        samples.append((time.perf_counter() - start) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


# -- statistics -----------------------------------------------------------


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(replay: dict) -> dict:
    """The end-to-end metrics of one timed replay: each op's latency
    (``None`` if the op failed), the timed phase's wall and CPU seconds,
    and peak RSS."""
    latencies = [x for x in replay["latencies"] if x is not None]
    n = len(latencies)
    summary = {"peak_rss_mb": replay["peak_rss_mb"], "ops": n}
    if not n:
        # Nothing completed: the run is incorrect and has no timings.
        return {
            **summary,
            **dict.fromkeys(
                ("throughput_per_s", "latency_p50_ms", "latency_p90_ms",
                 "latency_mean_ms", "cpu_ms_per_op"),
                0.0,
            ),
        }
    return {
        **summary,
        "throughput_per_s": n / replay["wall_s"],
        "latency_p50_ms": median(latencies) * 1000.0,
        "latency_p90_ms": percentile(latencies, 0.90) * 1000.0,
        "latency_mean_ms": sum(latencies) / n * 1000.0,
        "cpu_ms_per_op": replay["cpu_s"] / n * 1000.0,
    }


# -- span recorder --------------------------------------------------------


class SpanRecorder:
    """In-memory spans around the benchmark's calls into the program.

    A span is ``(id, parent, name, op, start, end)``; the parent is the
    innermost open span of the same thread.  Spans stay in memory until
    the run ends and ``run.py`` writes them out.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, op: int | None = None) -> "_Span":
        return _Span(self, name, op)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


class _Span:
    __slots__ = ("rec", "name", "op", "sid", "parent", "start")

    def __init__(self, rec: SpanRecorder, name: str, op: int | None) -> None:
        self.rec = rec
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self.rec._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.rec._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.rec._stack().pop()
        self.rec.spans.append(
            (self.sid, self.parent, self.name, self.op, self.start, end)
        )


#: Stand-in for a span in untraced runs: no clock, no record.
NO_SPAN = contextlib.nullcontext()


def self_times(spans: list) -> dict[str, float]:
    """Total self time per span name, in seconds: each span's duration
    minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, _op, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for sid, _parent, name, _op, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def span_totals(spans: list) -> dict[str, float]:
    """Total duration per span name, in seconds."""
    totals: dict[str, float] = {}
    for _sid, _parent, name, _op, start, end in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals
