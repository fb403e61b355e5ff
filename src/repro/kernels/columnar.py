"""The columnar representation the kernels operate on, in two halves.

- :class:`CatalogueColumns` holds everything that depends on the object
  catalogue alone: the coordinate matrix, the object-capacity vector,
  the absolute coordinate maximum and a median-split tiling of the
  objects.  It exists once per catalogue: :func:`catalogue_columns`
  builds it on the first columnar solve over an
  :class:`~repro.core.index.ObjectIndex` and stores it on that index,
  so every later solve over the cached index shares it.  Its arrays
  are read-only.
- :class:`ColumnarInstance` is the per-solve half: the cohort's
  (γ-scaled) weight matrix, the function-capacity vector and the
  absolute weight maximum, next to the catalogue half it reads.

The absolute maxima are the ``scale`` of every tolerance band (see
the band rule of :mod:`repro.core.vectorized`).

**The tiling.**  The objects are split at the median of one dimension,
then each half again at the median of the next dimension (cycling
through the dimensions), until every tile holds at most
:data:`TILE_SIZE` objects.  Each tile keeps its members' coordinates
contiguously and the maximum of each coordinate over its members (its
upper corner).  Weights are non-negative
(:class:`~repro.data.instances.FunctionSet` rejects others), so a
function's score of the upper corner bounds its score of every member:
the row scans of :mod:`repro.kernels.rounds` skip the tiles whose bound
cannot reach what they are looking for, as BRS (:mod:`repro.topk.brs`)
skips R-tree nodes by the score of their best corner.
"""

from __future__ import annotations

import numpy as np

from repro.core.index import ObjectIndex
from repro.data.instances import FunctionSet, ObjectSet


#: Most objects one tile of a catalogue's tiling holds.
TILE_SIZE = 32


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _median_split_tiles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, order)`` of the median-split tiling of ``points``.

    ``order`` lists the object ids tile by tile: tile ``t`` holds
    ``order[starts[t]:starts[t + 1]]``.  Level ``l`` splits every tile
    of level ``l - 1`` in two at the median of dimension ``l mod D``,
    so the tiles of one level differ in size by at most one object.  A
    level is one stable sort of small tile numbers (a radix sort) over
    the objects in that dimension's order, with no loop over tiles.
    """
    n, dims = points.shape
    levels = 0
    while -(-n // (1 << levels)) > TILE_SIZE:
        levels += 1
    # Object ids in ascending order of each coordinate.
    sorted_by = np.argsort(np.ascontiguousarray(points.T), axis=1)
    tile_of = np.zeros(n, dtype=np.min_scalar_type((1 << levels) - 1))
    order = np.arange(n)
    for level in range(levels):
        # Each tile's objects in this level's dimension order, tile
        # after tile: the first half of a tile's run is its lower child.
        ids = sorted_by[level % dims]
        order = ids[np.argsort(tile_of[ids], kind="stable")]
        children = np.arange(2 << level, dtype=tile_of.dtype)
        tile_of[order] = np.repeat(children, np.diff(_tile_starts(n, level + 1)))
    # At a tile size of 1 a level can leave a tile empty; drop it.
    return np.unique(_tile_starts(n, levels)), order


def _tile_starts(n: int, level: int) -> np.ndarray:
    """Where each of the ``2**level`` tiles of a level starts in the
    tiling order, and ``n``: tile ``j`` starts at ``floor(j n / 2**level)``."""
    return (np.arange((1 << level) + 1, dtype=np.int64) * n) >> level


class CatalogueColumns:
    """Read-only columnar state of one object catalogue."""

    def __init__(self, objects: ObjectSet):
        #: |O| × D object coordinates (row i == ``objects.points[i]``).
        self.points = _read_only(np.asarray(objects.points, dtype=np.float64))
        caps = objects.capacities
        #: Object capacities (Section 6.1).
        self.capacities = _read_only(
            np.ones(len(objects), dtype=np.int64)
            if caps is None
            else np.asarray(caps, dtype=np.int64)
        )
        self.max_abs_point = (
            float(np.abs(self.points).max()) if self.points.size else 0.0
        )
        n = self.points.shape[0]
        starts, order = _median_split_tiles(self.points)
        sizes = np.diff(starts)
        width = int(sizes.max())
        tile = np.repeat(np.arange(sizes.size), sizes)
        slot = tile * width + np.arange(n) - np.repeat(starts[:-1], sizes)
        ids = np.full((sizes.size, width), n, dtype=np.intp)
        ids.flat[slot] = order
        #: Tiles × slots object ids; a slot past a tile's last member
        #: holds |O|, the id the kernels keep dead.
        self.tile_ids = _read_only(ids)
        #: Tiles × slots × D member coordinates; a slot past the last
        #: member repeats the tile's first member.
        members = np.where(ids < n, ids, ids[:, :1])
        self.tile_points = _read_only(self.points[members])
        #: Tiles × D upper corners: each coordinate's maximum over the
        #: tile's members.
        self.tile_upper = _read_only(
            np.stack([column[members].max(axis=1) for column in self.points.T], axis=1)
        )
        slot_of = np.empty(n, dtype=np.intp)
        slot_of[order] = slot
        #: Each object's flat slot in ``tile_ids``.
        self.tile_slot = _read_only(slot_of)

    def nbytes(self) -> int:
        """Resident size of the catalogue's arrays."""
        return int(
            self.points.nbytes
            + self.capacities.nbytes
            + self.tile_ids.nbytes
            + self.tile_points.nbytes
            + self.tile_upper.nbytes
            + self.tile_slot.nbytes
        )


def catalogue_columns(index: ObjectIndex) -> CatalogueColumns:
    """The index's :class:`CatalogueColumns`, built on first use.
    Callers hold the index's run lock, as for every other per-run use
    of the index."""
    columns = index.columnar
    if columns is None:
        columns = index.columnar = CatalogueColumns(index.objects)
    return columns


class ColumnarInstance:
    """Flat float64/int64 views of one ``(functions, catalogue)`` pair."""

    def __init__(self, functions: FunctionSet, catalogue: CatalogueColumns):
        self.catalogue = catalogue
        #: The catalogue's shared, read-only coordinate matrix.
        self.points = catalogue.points
        #: |F| × D *effective* (γ-scaled) weights (Section 6.2).
        self.weights = np.asarray(functions.all_effective_weights(), dtype=np.float64)
        #: Remaining-capacity seeds (Section 6.1); the engine's
        #: CapacityTracker owns the per-pair decrements, these vectors
        #: seed the pointer round's alive masks.
        self.object_capacities = catalogue.capacities
        caps = functions.capacities
        self.function_capacities = (
            np.ones(len(functions), dtype=np.int64)
            if caps is None
            else np.asarray(caps, dtype=np.int64)
        )
        self.max_abs_point = catalogue.max_abs_point
        self.max_abs_weight = (
            float(np.abs(self.weights).max()) if self.weights.size else 0.0
        )

    @property
    def num_objects(self) -> int:
        return self.points.shape[0]

    @property
    def num_functions(self) -> int:
        return self.weights.shape[0]

    def nbytes(self) -> int:
        """Resident size of the columnar arrays (memory gauge)."""
        return int(
            self.catalogue.nbytes()
            + self.weights.nbytes
            + self.function_capacities.nbytes
        )
