"""Columnar incremental churn kernel — the vectorized twin of
:class:`repro.core.dynamic.DynamicStableMatching`'s rematch loop.

The interpreted dynamic maintainer re-runs a greedy pass over the
*suffix* participants of each event (sorted Python tuples, one
``score()`` per candidate pair).  This module re-expresses that suffix
rematch over numpy arrays:

- a **mutable columnar instance** (:class:`MutableColumns` per side):
  preallocated float64 coordinate/weight matrices with amortized
  doubling growth and slot recycling, int64 residual-capacity vectors
  and alive masks, handles mapped to rows so arrays stay dense under
  arbitrary arrival/departure interleavings;
- **mutual-best rounds over per-side best pointers**: each free
  function points to its canonically best alive free object, and each
  candidate object (one that some function points to) to its
  canonically best alive free function.  A round commits every pair
  whose two pointers meet — the greedy's next pairs, as in
  :class:`~repro.kernels.rounds.PointerRound`.  Within a
  rematch rows and columns only die, so a pointer whose target is
  still alive stays correct; only pointers whose target was exhausted
  are recomputed, by the block scan of :mod:`repro.core.vectorized`:
  the stale rows against every alive member of the other side.  No
  ``|F| × |O|`` matrix is held and no skyline is kept, so nothing
  assumes that a preference rises with every coordinate: negative
  weights and coordinates get the interpreted answer too.

**Bit-identity discipline.**  The interpreted
``DynamicStableMatching`` stays the oracle: after every event the
emitted suffix — pair handles, float scores, units, and the canonical
pair-key order — is byte-equal to the interpreted rematch (and hence
to a from-scratch static re-solve).  Exactness comes from the band
rule of :mod:`repro.core.vectorized`, over the original Python tuples,
and every emitted score is computed with :func:`repro.scoring.score`.
A band's scale is the other side's *monotone running maximum* of the
absolute values ever admitted, so departures can only widen bands.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.vectorized import CanonicalArgmax, band_tolerance, canonical_best
from repro.ordering import PairKey, pair_key
from repro.scoring import score

#: Initial row allocation of a side's columnar arrays.
INITIAL_ROWS = 8


class MutableColumns:
    """One side's mutable columnar store: handle → recycled array row.

    Rows of departed handles go on a free stack and are reused by the
    next arrival; when no free row exists the arrays double (amortized
    O(1) per arrival, resident size O(peak live population)).
    """

    def __init__(self) -> None:
        self.dims: int | None = None
        self.data = np.zeros((0, 0), dtype=np.float64)
        self.caps = np.zeros(0, dtype=np.int64)
        self.alive = np.zeros(0, dtype=bool)
        #: row → handle for alive rows (-1 for free rows).
        self.handle_at = np.full(0, -1, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        self._free: list[int] = []
        #: Monotone running max of |value| over every row ever added —
        #: the conservative scale of the exactness tolerance bands.
        self.max_abs = 0.0

    def __len__(self) -> int:
        return len(self.row_of)

    def _grow(self) -> None:
        old_rows = self.data.shape[0]
        new_rows = max(INITIAL_ROWS, 2 * old_rows)
        dims = self.dims if self.dims is not None else 0
        data = np.zeros((new_rows, dims), dtype=np.float64)
        data[:old_rows] = self.data
        self.data = data
        for name, fill in (("caps", 0), ("handle_at", -1)):
            old = getattr(self, name)
            arr = np.full(new_rows, fill, dtype=np.int64)
            arr[:old_rows] = old
            setattr(self, name, arr)
        alive = np.zeros(new_rows, dtype=bool)
        alive[:old_rows] = self.alive
        self.alive = alive
        self._free.extend(range(new_rows - 1, old_rows - 1, -1))

    def add(self, handle: int, values: Sequence[float], capacity: int) -> int:
        """Admit a handle; returns the row it occupies."""
        if handle in self.row_of:
            raise ValueError(f"handle {handle} already present")
        vals = np.asarray(values, dtype=np.float64)
        if self.dims is None:
            self.dims = int(vals.shape[0])
            self.data = np.zeros((self.data.shape[0], self.dims), dtype=np.float64)
        elif vals.shape[0] != self.dims:
            raise ValueError(
                f"expected {self.dims}-dimensional values, got {vals.shape[0]}"
            )
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.data[row] = vals
        self.caps[row] = capacity
        self.alive[row] = True
        self.handle_at[row] = handle
        self.row_of[handle] = row
        if vals.size:
            self.max_abs = max(self.max_abs, float(np.abs(vals).max()))
        return row

    def remove(self, handle: int) -> None:
        row = self.row_of.pop(handle)
        self.alive[row] = False
        self.handle_at[row] = -1
        self._free.append(row)

    def live_rows(self) -> np.ndarray:
        """Rows of alive handles, ascending."""
        return np.nonzero(self.alive)[0]

    def rows_for(self, handles: Sequence[int]) -> np.ndarray:
        return np.asarray([self.row_of[h] for h in handles], dtype=np.intp)

    def nbytes(self) -> int:
        return int(
            self.data.nbytes
            + self.caps.nbytes
            + self.alive.nbytes
            + self.handle_at.nbytes
        )


class VectorizedChurnState(CanonicalArgmax):
    """The ``backend="vec"`` engine behind ``DynamicStableMatching``.

    Owns the two mutable columnar sides and runs the vectorized suffix
    rematch; the hosting ``DynamicStableMatching`` keeps the emitted
    pair log, position indexes and cut computation (shared with the
    interpreted backend), so the two backends differ *only* in how a
    suffix is re-matched and in how the event's best-key probe is
    evaluated.  ``score_cells`` counts the scores that rematches and
    probes computed (the churn analogue of the static kernels'
    ``kernel_score_cells``), ``tie_resolutions`` the bands resolved
    exactly; both are cumulative.
    """

    def __init__(self) -> None:
        super().__init__()
        self.functions = MutableColumns()
        self.objects = MutableColumns()

    # -- the event best-key probe --------------------------------------

    def best_key_for(
        self,
        handle: int,
        arrived: MutableColumns,
        exact: Mapping[int, tuple[float, ...]],
    ) -> PairKey | None:
        """The best conceivable pair key of ``handle``, a member of the
        ``arrived`` side, over every live member of the other side,
        whose exact tuples ``exact`` holds: the arrival cut probe, one
        matvec instead of a Python loop."""
        other = self.objects if arrived is self.functions else self.functions
        live = other.live_rows()
        if live.size == 0:
            return None
        stale = np.array([arrived.row_of[handle]])
        query = tuple(arrived.data[stale[0]].tolist())
        tol = band_tolerance(other.max_abs, arrived.data[stale])
        handles = other.handle_at

        def pick(_: int, band: np.ndarray) -> int:
            members = zip(band.tolist(), handles[band].tolist())
            return canonical_best(query, ((r, h, exact[h]) for r, h in members))[0]

        [found] = self.scan(arrived.data, stale, tol, other.data, live, pick)
        partner = int(handles[found])
        ends = [(query, handle), (exact[partner], partner)]
        if arrived is self.objects:
            ends.reverse()
        (w, fid), (p, oid) = ends
        return pair_key(score(w, p), w, fid, p, oid)

    # -- the vectorized suffix rematch ---------------------------------

    def rematch(
        self,
        free_functions: Sequence[tuple[int, int]],
        free_objects: Sequence[tuple[int, int]],
        exact_weights: Mapping[int, tuple[float, ...]],
        exact_points: Mapping[int, tuple[float, ...]],
    ) -> list[tuple[PairKey, int, int, float, int]]:
        """Greedily re-match the suffix participants, vectorized.

        ``free_functions`` / ``free_objects`` are ``(handle, residual
        capacity)`` pairs with positive residuals.  Returns emitted
        ``(pair_key, fid, oid, score, units)`` tuples in ascending
        canonical pair order — byte-equal to the interpreted greedy
        over the same participants.
        """
        if not free_functions or not free_objects:
            return []
        fids = [h for h, _ in free_functions]
        oids = [h for h, _ in free_objects]
        fcap = [c for _, c in free_functions]
        ocap = [c for _, c in free_objects]
        nf, no = len(fids), len(oids)
        weights = self.functions.data[self.functions.rows_for(fids)]
        points = self.objects.data[self.objects.rows_for(oids)]
        row_tol = band_tolerance(self.objects.max_abs, weights)
        col_tol = band_tolerance(self.functions.max_abs, points)
        # One spare slot past each side stays dead, so a pointer that
        # was never set (-1) reads as stale in the same lookup as one
        # whose target was exhausted.
        f_alive = np.zeros(nf + 1, dtype=bool)
        f_alive[:nf] = True
        o_alive = np.zeros(no + 1, dtype=bool)
        o_alive[:no] = True
        # Local row of each function's canonically best alive object, and
        # of each candidate object's canonically best alive function.
        obest = np.full(nf, -1, dtype=np.intp)
        fbest = np.full(no, -1, dtype=np.intp)

        def pick_object(f: int, band: np.ndarray) -> int:
            candidates = ((r, oids[r], exact_points[oids[r]]) for r in band.tolist())
            return canonical_best(exact_weights[fids[f]], candidates)[0]

        def pick_function(o: int, band: np.ndarray) -> int:
            candidates = ((r, fids[r], exact_weights[fids[r]]) for r in band.tolist())
            return canonical_best(exact_points[oids[o]], candidates)[0]

        emitted: list[tuple[int, int, int]] = []
        while True:
            live_f = np.nonzero(f_alive)[0]
            live_o = np.nonzero(o_alive)[0]
            if live_f.size == 0 or live_o.size == 0:
                break
            # Rows and columns only die within a rematch, so a pointer
            # whose target is alive is still correct; rescan the rest.
            stale = live_f[~o_alive[obest[live_f]]]
            if stale.size:
                obest[stale] = self.scan(
                    weights, stale, row_tol[stale], points, live_o, pick_object
                )
            candidates = obest[live_f]
            stale = candidates[~f_alive[fbest[candidates]]]
            if stale.size:
                stale = np.unique(stale)
                fbest[stale] = self.scan(
                    points, stale, col_tol[stale], weights, live_f, pick_function
                )

            # -- commit mutually-best pairs (vertex-disjoint within a
            #    round, so commit order cannot change the outcome).
            committed = 0
            for f in live_f[fbest[obest[live_f]] == live_f].tolist():
                o = int(obest[f])
                units = min(fcap[f], ocap[o])
                committed += units
                fcap[f] -= units
                ocap[o] -= units
                emitted.append((fids[f], oids[o], units))
                if fcap[f] == 0:
                    f_alive[f] = False
                if ocap[o] == 0:
                    o_alive[o] = False
            if not committed:
                # Unreachable: with both sides non-empty the globally
                # best pair is always mutual and commits a unit, which
                # exhausts one side.  Guard the loop anyway.
                raise RuntimeError("vectorized rematch round made no progress")

        out = []
        for fid, oid, units in emitted:
            w, p = exact_weights[fid], exact_points[oid]
            s = score(w, p)
            out.append((pair_key(s, w, fid, p, oid), fid, oid, s, units))
        out.sort(key=lambda item: item[0])
        return out

    def nbytes(self) -> int:
        """Resident size of the mutable columnar arrays."""
        return self.functions.nbytes() + self.objects.nbytes()


__all__ = ["INITIAL_ROWS", "MutableColumns", "VectorizedChurnState"]
