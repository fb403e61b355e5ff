"""Columnar skyline-membership maintenance.

The engine's maintenance seam (``compute_initial`` / ``remove``) over
flat arrays: membership is a boolean mask over the object matrix and
the initial skyline is one batch Pareto pass.

Removals are repaired with *reference dominators*: every alive
non-skyline object carries the index of one skyline member currently
dominating it (``ref``).  When members are removed, only the objects
whose reference died can possibly surface — everything referencing a
survivor is still dominated — so a round repairs the mask by

1. collecting the orphans (``ref`` ∈ removed, one mask lookup);
2. re-homing the orphans a *surviving* member still dominates
   (one small ``orphans × survivors`` dominance pass);
3. Pareto-filtering the remainder: the winners are promoted into the
   skyline, the losers are re-homed onto the promoted member that
   dominates them.

The produced skyline *set* is exactly the one UpdateSkyline and
DeltaSky maintain — the skyline of the alive objects is unique — so
the vectorized configs stay pair-identical to their interpreted twins
regardless of maintenance algorithm.  I/O is 0 by construction: no
page is ever read.

:class:`MaskSkyline` is the context-free core (used both by the
static solve twin below and by the incremental churn kernel in
:mod:`repro.kernels.dynamic`); :class:`VectorizedSkylineMaintenance`
adapts it to the engine's maintenance seam (``SkylineState`` dicts,
memory gauges, member validation).  The static twin never runs the
initial Pareto pass itself: the catalogue's
:class:`~repro.kernels.columnar.CatalogueColumns` runs it once, and
each solve starts from a copy of its result.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.engine import EngineContext
from repro.engine.protocols import SkylineState
from repro.kernels.pareto import dominator_index, pareto_mask

if TYPE_CHECKING:
    from repro.kernels.columnar import ColumnarInstance


class MaskSkyline:
    """Mask-based skyline with reference-dominator incremental repair.

    Pure array state over one ``n × D`` coordinate matrix: no engine
    context, no id remapping — callers work in local row indices.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        n = points.shape[0]
        self.alive = np.ones(n, dtype=bool)
        self.sky_mask = np.zeros(n, dtype=bool)
        #: Index of one skyline member dominating each alive
        #: non-skyline row; ``-1`` for members and dead rows.
        self.ref = np.full(n, -1, dtype=np.intp)
        self.computed = False

    @classmethod
    def from_initial(
        cls, points: np.ndarray, sky_mask: np.ndarray, ref: np.ndarray
    ) -> "MaskSkyline":
        """A skyline already past :meth:`compute_initial` over
        ``points``: it starts from copies of that pass's ``sky_mask``
        and ``ref``, so the originals are never written."""
        sky = cls(points)
        sky.sky_mask = sky_mask.copy()
        sky.ref = ref.copy()
        sky.computed = True
        return sky

    def sky_indices(self) -> np.ndarray:
        """Current skyline member rows, ascending."""
        return np.nonzero(self.sky_mask)[0]

    def nbytes(self) -> int:
        return int(self.alive.nbytes + self.sky_mask.nbytes + self.ref.nbytes)

    def compute_initial(self) -> np.ndarray:
        """One batch Pareto pass; returns the member rows."""
        if self.computed:
            raise RuntimeError("initial skyline already computed")
        self.computed = True
        points = self.points
        self.sky_mask = pareto_mask(points)
        sky_idx = self.sky_indices()
        pool_idx = np.nonzero(~self.sky_mask)[0]
        if pool_idx.size:
            # Every non-member is dominated by some member (skyline
            # definition), so every witness index is >= 0 here.
            witness = dominator_index(points[pool_idx], points[sky_idx])
            self.ref[pool_idx] = sky_idx[witness]
        return sky_idx

    def remove(self, removed_idx: np.ndarray) -> np.ndarray:
        """Retire member rows; returns the rows promoted to replace
        them (the reference-dominator repair of the module docstring).

        Every removed row must be a current skyline member.  Members
        and dead rows carry ``ref == -1``, so a row whose reference
        died is always alive and the orphan lookup needs no alive mask.
        """
        if not self.computed:
            raise RuntimeError("call compute_initial() first")
        self.alive[removed_idx] = False
        self.sky_mask[removed_idx] = False

        points = self.points
        # (1) orphans: rows whose reference dominator died.  The extra
        #     slot stays False, so ``ref == -1`` never reads as died.
        died = np.zeros(self.ref.size + 1, dtype=bool)
        died[removed_idx] = True
        orphan_idx = np.nonzero(died[self.ref])[0]
        if not orphan_idx.size:
            return orphan_idx
        # (2) re-home orphans a surviving member still dominates.
        survivors = self.sky_indices()
        if survivors.size:
            witness = dominator_index(points[orphan_idx], points[survivors])
            found = witness >= 0
            self.ref[orphan_idx[found]] = survivors[witness[found]]
            orphan_idx = orphan_idx[~found]
        if not orphan_idx.size:
            return orphan_idx
        # (3) orphan-vs-orphan Pareto pass; losers re-home onto the
        #     promoted member that dominates them.
        promoted_local = pareto_mask(points[orphan_idx])
        promoted = orphan_idx[promoted_local]
        losers = orphan_idx[~promoted_local]
        self.sky_mask[promoted] = True
        self.ref[promoted] = -1
        if losers.size:
            witness = dominator_index(points[losers], points[promoted])
            self.ref[losers] = promoted[witness]
        return promoted


class VectorizedSkylineMaintenance:
    """The engine-facing adapter over :class:`MaskSkyline`."""

    def __init__(self, ctx: EngineContext, columnar: ColumnarInstance):
        self.columnar = columnar
        self._objects = ctx.objects
        self._mem = ctx.mem
        self._core: MaskSkyline | None = None
        self._skyline: SkylineState = {}

    @property
    def skyline(self) -> SkylineState:
        return self._skyline

    def _computed(self) -> MaskSkyline:
        if self._core is None:
            raise RuntimeError("call compute_initial() first")
        return self._core

    def sky_indices(self) -> np.ndarray:
        """Current skyline member ids, ascending."""
        return self._computed().sky_indices()

    def compute_initial(self) -> SkylineState:
        if self._core is not None:
            raise RuntimeError("initial skyline already computed")
        core = self._core = self.columnar.catalogue.initial_skyline()
        self._mem.set_gauge("columnar_arrays", self.columnar.nbytes() + core.nbytes())
        self._skyline = {
            int(i): self._objects.points[int(i)] for i in core.sky_indices()
        }
        return self._skyline

    def remove(self, oids: Iterable[int]) -> SkylineState:
        removed = list(oids)
        core = self._computed()
        for oid in removed:
            if not core.sky_mask[oid]:
                raise KeyError(f"object {oid} is not a current skyline member")
        for oid in removed:
            del self._skyline[oid]
        promoted = core.remove(np.asarray(removed, dtype=np.intp))
        for i in promoted:
            self._skyline[int(i)] = self._objects.points[int(i)]
        return self._skyline
