"""Building the object-side index used by every solver.

The paper's setting: ``O`` is persistent, indexed by an R-tree with
4 KB pages behind an LRU buffer sized as a fraction of the tree
(default 2%).  ``build_object_index`` bulk-loads the tree, sizes the
buffer, and clears build-time state so a subsequent run starts cold —
exactly how the paper charges I/O (index construction is not part of
the measured cost).

For the Section 7.6 setting (``O`` fits in memory while ``F`` is
disk-resident), pass ``memory=True``: the tree lives in a
:class:`MemoryNodeStore` and object-side page counts stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.instances import ObjectSet
from repro.rtree.store import DiskNodeStore, MemoryNodeStore
from repro.rtree.tree import RTree
from repro.storage.stats import IOStats

if TYPE_CHECKING:
    from repro.kernels.columnar import CatalogueColumns


@dataclass
class ObjectIndex:
    """An R-tree over an :class:`ObjectSet` plus its storage plumbing."""

    objects: ObjectSet
    tree: RTree
    stats: IOStats
    buffer_fraction: float
    is_memory: bool
    #: The catalogue's columnar state, built by the first columnar solve
    #: over this index (:func:`repro.kernels.columnar.catalogue_columns`)
    #: and shared by every later one.
    columnar: CatalogueColumns | None = field(default=None, repr=False, compare=False)

    @property
    def dims(self) -> int:
        return self.objects.dims

    def reset_for_run(self, buffer_fraction: float | None = None) -> None:
        """Cold-start the storage layer before a measured run: resize
        the buffer to the configured fraction (or an override, for
        Figure 13's buffer sweep), drop resident pages and zero the
        counters."""
        if buffer_fraction is not None:
            self.buffer_fraction = buffer_fraction
        if not self.is_memory:
            store = self.tree.store
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
    if len(objects) == 0:
        raise ValueError("cannot index an empty ObjectSet")
    dims = objects.dims
    if memory:
        store = MemoryNodeStore(dims, page_size)
    else:
        store = DiskNodeStore(dims, page_size, buffer_capacity=0)
    tree = RTree.bulk_load(store, dims, objects.items())
    index = ObjectIndex(
        objects=objects,
        tree=tree,
        stats=store.stats,
        buffer_fraction=buffer_fraction,
        is_memory=memory,
    )
    index.reset_for_run()
    return index
