"""Brute Force stable assignment (paper Section 4.1).

One incremental top-1 search (BRS) per function, with the *resuming*
improvement the paper describes: each function keeps its search heap,
so when its top object is taken by another function the search resumes
instead of restarting.  A global heap over every function's current
best candidate yields the next stable pair: the globally best
(function, object) pair is stable by Property 2.

Costs exactly as the paper reports: the numerous top-1 searches make
it I/O-heavy (2–3 orders of magnitude above SB), and the per-function
search heaps make it the most memory-hungry method ("this is the
sacrifice for its ability to resume searches").
"""

from __future__ import annotations

import heapq

from repro.core.capacity import CapacityTracker
from repro.core.index import ObjectIndex
from repro.core.types import AssignmentResult, Matching, RunStats
from repro.data.instances import FunctionSet
from repro.ordering import pair_key
from repro.storage.stats import BYTES_PER_HEAP_ENTRY, MemoryTracker
from repro.topk.brs import BRSSearch


def brute_force_assign(
    functions: FunctionSet,
    index: ObjectIndex,
    function_scan_pages: int = 0,
) -> AssignmentResult:
    """Compute the stable matching by |F| resumable top-1 searches.

    ``function_scan_pages`` charges a one-time sequential read of a
    disk-resident function set (Section 7.6's swapped-storage setting,
    where Brute Force must at least scan F once to issue its queries).
    """
    start = index.run_clock()
    io_before = index.stats.snapshot()
    mem = MemoryTracker()
    matching = Matching()
    caps = CapacityTracker(functions, index.objects)

    assigned_objects: set[int] = set()  # tombstones shared by all searches
    searches: dict[int, BRSSearch] = {}
    brs_heap_bytes = 0  # incremental sum over all per-function heaps

    # Global heap: each alive function contributes its current best
    # candidate pair; entries are (pair_key, fid, oid, score).
    global_heap: list = []
    loops = 0
    top1_searches = 0

    def advance(fid: int) -> None:
        """(Re)compute fid's best remaining object and push it."""
        nonlocal brs_heap_bytes, top1_searches
        search = searches.get(fid)
        if search is None:
            search = BRSSearch(
                index.tree, functions.effective_weights(fid), assigned_objects
            )
            searches[fid] = search
        brs_heap_bytes -= search.memory_bytes()
        nxt = search.next()
        brs_heap_bytes += search.memory_bytes()
        top1_searches += 1
        mem.set_gauge("brs_heaps", brs_heap_bytes)
        if nxt is None:
            return  # objects exhausted; fid stays unmatched
        oid, point, s = nxt
        w = functions.effective_weights(fid)
        heapq.heappush(global_heap, (pair_key(s, w, fid, point, oid), fid, oid, s))
        mem.set_gauge("global_heap", len(global_heap) * BYTES_PER_HEAP_ENTRY)

    for fid in range(len(functions)):
        advance(fid)

    while global_heap and not caps.exhausted:
        loops += 1
        _, fid, oid, s = heapq.heappop(global_heap)
        if not caps.function_alive(fid):
            continue  # stale entry of an already-satisfied function
        if not caps.object_alive(oid):
            advance(fid)  # its candidate was taken: resume the search
            continue
        units, f_died, o_died = caps.assign(fid, oid)
        matching.add(fid, oid, s, units)
        if o_died:
            assigned_objects.add(oid)
        if f_died:
            search = searches.pop(fid, None)
            if search is not None:
                brs_heap_bytes -= search.memory_bytes()
                mem.set_gauge("brs_heaps", brs_heap_bytes)
        else:
            advance(fid)  # capacity left: find its next object

    io = index.stats.delta_since(io_before)
    io.physical_reads += function_scan_pages
    io.logical_reads += function_scan_pages
    stats = RunStats(
        io=io,
        cpu_seconds=index.run_clock() - start,
        peak_memory_bytes=mem.peak_bytes,
        loops=loops,
        counters={"top1_searches": top1_searches},
    )
    return AssignmentResult(matching, stats)
