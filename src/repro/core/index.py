"""Building the object-side index used by every solver.

The paper's setting: ``O`` is persistent, indexed by an R-tree with
4 KB pages behind an LRU buffer sized as a fraction of the tree
(default 2%).  ``build_object_index`` bulk-loads the tree, sizes the
buffer, and clears build-time state so a subsequent run starts cold —
exactly how the paper charges I/O (index construction is not part of
the measured cost).

An :class:`ObjectIndex` can also start unloaded: its ``tree`` then
bulk-loads on first access and cold-starts the storage right after,
just as ``build_object_index`` does after its load.  Object I/O comes
only from the tree, so a run that triggers the load is charged exactly
what it would be on an eagerly loaded index.  The load is timed on its
own, in an ``index.load`` span and in ``ObjectIndex.load_seconds``, and
runs are timed by :meth:`ObjectIndex.run_clock`, which stands still
while the tree loads, so neither a run's ``RunStats.cpu_seconds`` nor
its phase timings include the load.  :class:`ObjectIndexCache`, the
session's instance-hash cache, creates its indexes this way, so a
catalogue served only by the columnar solvers (which read the
catalogue's columns, never the tree) is never bulk-loaded.

For the Section 7.6 setting (``O`` fits in memory while ``F`` is
disk-resident), pass ``memory=True``: the tree lives in a
:class:`MemoryNodeStore` and object-side page counts stay zero.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.instances import ObjectSet, object_set_fingerprint
from repro.obs.trace import span
from repro.rtree.store import DiskNodeStore, MemoryNodeStore
from repro.rtree.tree import RTree
from repro.storage.stats import IOStats

if TYPE_CHECKING:
    from repro.kernels.columnar import CatalogueColumns


@dataclass
class ObjectIndex:
    """An R-tree over an :class:`ObjectSet` plus its storage plumbing.

    The tree bulk-loads on first access (see the module docstring);
    callers that share an index across threads read it under the same
    lock that serializes their runs.
    """

    objects: ObjectSet
    page_size: int = 4096
    buffer_fraction: float = 0.02
    is_memory: bool = False
    stats: IOStats = field(default_factory=IOStats)
    #: The catalogue's columnar state (coordinate matrix, capacities,
    #: coordinate maximum and tiling), built by the first columnar
    #: solve over this index
    #: (:func:`repro.kernels.columnar.catalogue_columns`) and shared by
    #: every later one.  It holds no skyline.
    columnar: CatalogueColumns | None = field(default=None, repr=False, compare=False)
    #: Seconds spent bulk-loading the tree (see :meth:`run_clock`).
    load_seconds: float = field(default=0.0, init=False, repr=False, compare=False)
    _tree: RTree | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.objects) == 0:
            raise ValueError("cannot index an empty ObjectSet")

    @property
    def dims(self) -> int:
        return self.objects.dims

    @property
    def loaded(self) -> bool:
        """Has the tree been bulk-loaded yet?"""
        return self._tree is not None

    @property
    def tree(self) -> RTree:
        """The object R-tree (STR bulk-loaded on first access)."""
        tree = self._tree
        if tree is None:
            with span("index.load", objects=len(self.objects)) as load:
                dims = self.objects.dims
                store: DiskNodeStore | MemoryNodeStore
                if self.is_memory:
                    store = MemoryNodeStore(dims, self.page_size, stats=self.stats)
                else:
                    store = DiskNodeStore(
                        dims, self.page_size, buffer_capacity=0, stats=self.stats
                    )
                tree = RTree.bulk_load(store, dims, self.objects.items())
                self._tree = tree
                self.reset_for_run()
            self.load_seconds += load.duration_seconds or 0.0
        return tree

    def run_clock(self) -> float:
        """``time.perf_counter()`` less the time spent loading the
        tree: the clock runs over this index are timed by, so a lazy
        load falls outside the run and the phase it happens in."""
        return time.perf_counter() - self.load_seconds

    def reset_for_run(self, buffer_fraction: float | None = None) -> None:
        """Cold-start the storage layer before a measured run: resize
        the buffer to the configured fraction (or an override, for
        Figure 13's buffer sweep), drop resident pages and zero the
        counters.  An unloaded tree only records the fraction; its
        load applies it."""
        if buffer_fraction is not None:
            self.buffer_fraction = buffer_fraction
        if self._tree is not None and not self.is_memory:
            store = self._tree.store
            store.set_buffer_fraction(self.buffer_fraction)
            store.buffer.clear()
        self.stats.reset()


def build_object_index(
    objects: ObjectSet,
    page_size: int = 4096,
    buffer_fraction: float = 0.02,
    memory: bool = False,
) -> ObjectIndex:
    """Bulk-load the object R-tree (STR) and prepare it for a run."""
    index = ObjectIndex(
        objects, page_size=page_size, buffer_fraction=buffer_fraction, is_memory=memory
    )
    index.tree  # bulk-load now, so no measured run is charged for it
    return index


@dataclass
class _CacheEntry:
    index: ObjectIndex
    run_lock: threading.Lock = field(default_factory=threading.Lock)


class ObjectIndexCache:
    """LRU cache of object indexes keyed by instance hash.

    Each entry carries a lock serializing solver runs on that index:
    the storage layer (LRU page buffer, I/O counters) is mutable and
    cold-started per run via ``reset_for_run``.  Indexes are created
    unloaded, and both halves of the catalogue state are built on
    first use under that lock: the tree loads in the first run that
    reads it (an interpreted config, ``chain``, ``brute-force``), the
    columnar state (:func:`repro.kernels.columnar.catalogue_columns`)
    in the first columnar run.  Either way a catalogue is loaded at
    most once per entry, and an evicted entry takes its state with it.
    Running solves hold their own references, so LRU eviction never
    invalidates an in-flight run.
    """

    def __init__(self, max_entries: int = 32):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, _CacheEntry] = OrderedDict()
        self._guard = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self, objects: ObjectSet, page_size: int, memory: bool
    ) -> tuple[ObjectIndex, threading.Lock, bool]:
        """``(index, run_lock, was_cache_hit)`` for an object set.

        The index may be unloaded: read its tree only while holding
        ``run_lock``."""
        key = (object_set_fingerprint(objects), page_size, memory)
        with self._guard:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                entry = _CacheEntry(
                    ObjectIndex(objects, page_size=page_size, is_memory=memory)
                )
                self._entries[key] = entry
                self.misses += 1
                hit = False
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
        return entry.index, entry.run_lock, hit

    def info(self) -> dict[str, int]:
        with self._guard:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }
