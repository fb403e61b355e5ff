"""The single instrumentation layer shared by every engine run.

Before the refactor each solver carried its own copy of the metric
wiring — ``time.perf_counter`` bracketing, an ``IOStats`` snapshot of
the object index, a :class:`MemoryTracker` for peak search memory and
a hand-built :class:`RunStats`.  ``Instrumentation`` owns all of it:
snapshot on construction, one :meth:`finish` call to assemble the
paper's three metrics (page reads, CPU seconds, peak memory) plus the
loop count.  Strategy-specific counters and I/O adjustments (paged
function lists, disk function trees) are layered on afterwards via
each strategy's ``finalize`` hook.
"""

from __future__ import annotations

from repro.core.index import ObjectIndex
from repro.core.types import RunStats
from repro.storage.stats import MemoryTracker


def fold_auxiliary_io(stats: RunStats, aux, reads_counter: str) -> None:
    """Fold an auxiliary storage layer's page traffic into the run's
    reported I/O (the Section 7.6 accounting shared by paged function
    lists, the batch TA sweep and Chain's disk function tree): record
    the auxiliary physical reads under ``reads_counter``, snapshot the
    object-tree-only count as ``object_reads`` *before* folding, then
    add the auxiliary traffic to the totals.  The snapshot-before-fold
    order is what keeps ``object_reads + <reads_counter> ==
    io_accesses``."""
    stats.counters[reads_counter] = aux.physical_reads
    stats.counters["object_reads"] = stats.io.physical_reads
    stats.io.physical_reads += aux.physical_reads
    stats.io.logical_reads += aux.logical_reads


class Instrumentation:
    """Timer + I/O snapshot + memory tracker for one solver run."""

    def __init__(self, index: ObjectIndex):
        self._index = index
        #: The run's clock: it stands still while a lazy tree load
        #: runs, so the load is in neither CPU time nor any phase.
        self.clock = index.run_clock
        self._start = self.clock()
        self._io_before = index.stats.snapshot()
        self.mem = MemoryTracker()
        self.phases: dict[str, float] = {}

    def phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time against a round-loop phase
        (``skyline_initial`` / ``search`` / ``commit`` /
        ``skyline_repair``).  Phases feed span trees, not counters —
        counters stay bit-identical across runs and processes."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def finish(self, loops: int) -> RunStats:
        """Assemble the run's :class:`RunStats` (object-index I/O only;
        strategies add auxiliary traffic in their ``finalize``)."""
        return RunStats(
            io=self._index.stats.delta_since(self._io_before),
            cpu_seconds=self.clock() - self._start,
            peak_memory_bytes=self.mem.peak_bytes,
            loops=loops,
            phases=dict(self.phases),
        )
