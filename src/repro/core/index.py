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
its phase timings include the load.  The service's index
cache creates its indexes this way, so a catalogue served only by the
columnar solvers (which read the catalogue's columns, never the tree)
is never bulk-loaded.

For the Section 7.6 setting (``O`` fits in memory while ``F`` is
disk-resident), pass ``memory=True``: the tree lives in a
:class:`MemoryNodeStore` and object-side page counts stay zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.instances import ObjectSet
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
    #: The catalogue's columnar state, built by the first columnar solve
    #: over this index (:func:`repro.kernels.columnar.catalogue_columns`)
    #: and shared by every later one.
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
