"""The columnar representation the kernels operate on, in two halves.

- :class:`CatalogueColumns` holds everything that depends on the object
  catalogue alone: the coordinate matrix, the object-capacity vector
  and the absolute coordinate maximum.  It exists once per catalogue:
  :func:`catalogue_columns` builds it on the first columnar solve over
  an :class:`~repro.core.index.ObjectIndex` and stores it on that
  index, so every later solve over the cached index shares it.  Its
  arrays are read-only.
- :class:`ColumnarInstance` is the per-solve half: the cohort's
  (γ-scaled) weight matrix, the function-capacity vector and the
  absolute weight maximum, next to the catalogue half it reads.

The absolute maxima scale every exact-winner tolerance band (the
PR 4 ``MatrixView`` discipline: rounding error of a dot product is
proportional to the summed *term* magnitudes, max|coord|·sum|weight|,
not to the final — possibly cancelled — score).
"""

from __future__ import annotations

import numpy as np

from repro.core.index import ObjectIndex
from repro.data.instances import FunctionSet, ObjectSet


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
            self.points.nbytes
            + self.weights.nbytes
            + self.object_capacities.nbytes
            + self.function_capacities.nbytes
        )
