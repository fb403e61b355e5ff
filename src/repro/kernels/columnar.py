"""The columnar representation the kernels operate on, in two halves.

- :class:`CatalogueColumns` holds everything that depends on the object
  catalogue alone: the coordinate matrix, the object-capacity vector,
  the absolute coordinate maximum, and the catalogue's initial skyline
  (membership mask plus reference-dominator array).  It exists once per
  catalogue: :func:`catalogue_columns` builds it on the first columnar
  solve over an :class:`~repro.core.index.ObjectIndex` and stores it on
  that index, so every later solve over the cached index shares it.
  Its arrays are read-only.  The engine's ``skyline_initial`` phase
  therefore reads near 0 after a catalogue's first columnar solve: it
  copies the initial skyline instead of running the Pareto pass.
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
from repro.kernels.skyline import MaskSkyline


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CatalogueColumns:
    """Read-only columnar state of one object catalogue.

    The initial skyline is computed by the first :meth:`initial_skyline`
    call (the first columnar solve's ``skyline_initial`` phase); later
    calls only copy its two arrays.  Callers hold the index's run lock,
    as for every other per-run use of the index.
    """

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
        #: ``(sky_mask, ref)`` of the full catalogue, once computed.
        self.initial: tuple[np.ndarray, np.ndarray] | None = None

    def initial_skyline(self) -> MaskSkyline:
        """A fresh per-solve :class:`MaskSkyline` of the full catalogue."""
        initial = self.initial
        if initial is None:
            first = MaskSkyline(self.points)
            first.compute_initial()
            initial = self.initial = (
                _read_only(first.sky_mask),
                _read_only(first.ref),
            )
        return MaskSkyline.from_initial(self.points, *initial)


def catalogue_columns(index: ObjectIndex) -> CatalogueColumns:
    """The index's :class:`CatalogueColumns`, built on first use."""
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
        #: seed the kernels' alive masks and size estimates.
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
