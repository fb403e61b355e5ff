"""The vectorized mutual-best round, over per-side best pointers.

A round proposes the mutually-best pairs of Property 2: a function
``f`` and an object ``o`` such that ``o`` is ``f``'s canonically best
alive object and ``f`` is ``o``'s canonically best alive function.
:class:`PointerRound` keeps two pointer arrays instead of an object
skyline:

- every alive function points to its canonically best alive object
  (``obest``);
- every *candidate* object, one that some alive function points to,
  points to its canonically best alive function (``fbest``);

and proposes, in ascending function id, every function whose two
pointers meet.  The interpreted rounds search the object skyline only;
:class:`~repro.data.instances.FunctionSet` rejects negative weights,
and under non-negative weights a function's canonically best object is
always a skyline member (see :mod:`repro.ordering`).  So both find the
same pairs, and rounds, loop counts and commit order do not change.

Functions and objects only die during a solve, so a pointer whose
target is alive stays correct; only stale pointers are recomputed.

**Runner-up lists.**  A full scan of a function's row also keeps its
:data:`RUNNERS_UP` best alive objects with their scores from that
scan, and the best unlisted score as the row's threshold.  When the
function's object dies, its pointer advances to the best alive listed
object, provided that object's score exceeds the threshold by more
than the row's tolerance: then no unlisted object can sit inside its
band.  Otherwise, and when no listed object is alive, the row is
scanned again and its list rebuilt.  Candidate objects keep no list;
a stale one is scored against every alive function.

**Exactness.**  A numpy argmax is trusted only when it is alone inside
the row's rounding-error band, which is scaled by the summed term
magnitudes (the ``MatrixView`` rule).  A wider band is resolved with
:func:`repro.scoring.score` and the canonical tuple orders, and every
emitted score is computed with :func:`~repro.scoring.score`, so pairs
and score bits equal the interpreted twins'.

**Memory.**  Rows are scored in blocks of at most :data:`CELL_BUDGET`
bytes of float64 scores, and the lists take ``|F| × RUNNERS_UP``
entries; no ``|F| × |O|`` array is held.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.engine.engine import EngineContext
from repro.engine.protocols import RoundStrategy, SkylineState, StablePair
from repro.kernels.columnar import ColumnarInstance
from repro.ordering import neg
from repro.scoring import SCORE_EPS, score

#: Bytes of float64 scores one block of rows may take.
CELL_BUDGET = 1 << 20

#: Runner-up objects a full row scan keeps per function.
RUNNERS_UP = 64


class PointerRound(RoundStrategy):
    """fbest ∩ obest from per-side best pointers and runner-up lists."""

    def __init__(self, ctx: EngineContext, columnar: ColumnarInstance):
        self.ctx = ctx
        self.col = columnar
        nf, no = columnar.num_functions, columnar.num_objects
        # One spare dead slot past each side lets a pointer that was
        # never set (-1) read as stale in the same lookup as one whose
        # target died.
        self.f_alive = np.append(columnar.function_capacities > 0, False)
        self.o_alive = np.append(columnar.object_capacities > 0, False)
        self.obest = np.full(nf, -1, dtype=np.intp)
        self.fbest = np.full(no, -1, dtype=np.intp)
        length = min(RUNNERS_UP, no)
        self.listed = np.full((nf, length), -1, dtype=np.intp)
        self.listed_scores = np.empty((nf, length))
        # An infinite threshold: no row has a list yet.
        self.threshold = np.full(nf, np.inf)
        self.row_tol = SCORE_EPS * np.maximum(
            1.0, columnar.max_abs_point * np.abs(columnar.weights).sum(axis=1)
        )
        self.score_cells = 0
        self.tie_resolutions = 0
        ctx.mem.set_gauge(
            "columnar_arrays",
            columnar.nbytes() + self.listed.nbytes + self.listed_scores.nbytes,
        )

    def propose(self, skyline: SkylineState) -> list[StablePair] | None:
        live_f = np.nonzero(self.f_alive[:-1])[0]
        if live_f.size == 0:
            return None
        stale = live_f[~self.o_alive[self.obest[live_f]]]
        if stale.size:
            self._advance(stale)
        candidates = self.obest[live_f]
        stale = candidates[~self.f_alive[self.fbest[candidates]]]
        if stale.size:
            self._point_objects(np.unique(stale), live_f)
        mutual = self.fbest[candidates] == live_f
        weights = self.ctx.functions.effective_weights
        points = self.ctx.objects.points
        return [
            StablePair(fid, oid, score(weights(fid), points[oid]))
            for fid, oid in zip(live_f[mutual].tolist(), candidates[mutual].tolist())
        ]

    # -- pointer refresh -----------------------------------------------------

    def _advance(self, stale: np.ndarray) -> None:
        """Point each stale function at its best alive object: from its
        runner-up list where the list can answer, else by a full scan."""
        listed = self.listed[stale]
        scores = np.where(self.o_alive[listed], self.listed_scores[stale], -np.inf)
        floor = scores.max(axis=1) - self.row_tol[stale]
        answered = self.threshold[stale] < floor
        if answered.any():
            rows = np.nonzero(answered)[0]
            self.obest[stale[rows]] = self._winners(
                scores[rows],
                listed[rows],
                floor[rows],
                stale[rows],
                self._resolve_object,
            )
        if not answered.all():
            self._scan(stale[~answered])

    def _scan(self, fids: np.ndarray) -> None:
        """Score each function against every alive object; set its
        pointer and rebuild its runner-up list from the same scores."""
        col = self.col
        live = np.nonzero(self.o_alive[:-1])[0]
        cut = live.size - self.listed.shape[1] - 1
        for block, scores in self._blocks(col.weights, fids, col.points, live):
            floor = scores.max(axis=1) - self.row_tol[block]
            ids = np.broadcast_to(live, scores.shape)
            self.obest[block] = self._winners(
                scores, ids, floor, block, self._resolve_object
            )
            if cut < 0:
                # Every alive object fits in the list.
                self.listed[block, : live.size] = live
                self.listed[block, live.size :] = -1
                self.listed_scores[block, : live.size] = scores
                self.threshold[block] = -np.inf
                continue
            order = np.argpartition(scores, cut, axis=1)
            top = order[:, cut + 1 :]
            self.listed[block] = live[top]
            self.listed_scores[block] = np.take_along_axis(scores, top, axis=1)
            self.threshold[block] = scores[np.arange(block.size), order[:, cut]]

    def _point_objects(self, oids: np.ndarray, live_f: np.ndarray) -> None:
        """Score each stale candidate object against every alive
        function and point it at the canonically best one."""
        col = self.col
        for block, scores in self._blocks(col.points, oids, col.weights, live_f):
            tol = SCORE_EPS * np.maximum(
                1.0, col.max_abs_weight * np.abs(col.points[block]).sum(axis=1)
            )
            self.fbest[block] = self._winners(
                scores,
                np.broadcast_to(live_f, scores.shape),
                scores.max(axis=1) - tol,
                block,
                self._resolve_function,
            )

    def _blocks(
        self,
        queries: np.ndarray,
        rows: np.ndarray,
        targets: np.ndarray,
        live: np.ndarray,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(block, scores)`` pairs: ``queries[block]`` scored against
        ``targets[live]``, in blocks of at most :data:`CELL_BUDGET` bytes."""
        cols = targets[live].T
        step = max(1, CELL_BUDGET // (cols.itemsize * live.size))
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            scores = queries[block] @ cols
            self.score_cells += scores.size
            self.ctx.mem.set_gauge("score_matrix", scores.nbytes)
            yield block, scores

    def _winners(
        self,
        scores: np.ndarray,
        ids: np.ndarray,
        floor: np.ndarray,
        rows: np.ndarray,
        resolve: Callable[[np.ndarray, int], int],
    ) -> np.ndarray:
        """Per row, the id of its best score: the numpy argmax when it
        is alone at or above the row's band ``floor``, else the
        canonical winner of the band, by ``resolve(band_ids, row)``."""
        band = scores >= floor[:, None]
        best = ids[np.arange(ids.shape[0]), scores.argmax(axis=1)]
        # Every band holds its argmax, so a total above the row count
        # means some band holds more than one candidate.
        if np.count_nonzero(band) > band.shape[0]:
            for t in np.nonzero(np.count_nonzero(band, axis=1) > 1)[0]:
                best[t] = resolve(ids[t][band[t]], int(rows[t]))
        return best

    # -- exact canonical tie resolution -------------------------------------

    def _resolve_function(self, band_fids: np.ndarray, oid: int) -> int:
        """Canonical winner of an fbest band (function_key)."""
        self.tie_resolutions += 1
        point = self.ctx.objects.points[oid]
        best_key = None
        for fid in band_fids.tolist():
            w = self.ctx.functions.effective_weights(fid)
            key = (-score(w, point), neg(w), fid)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2]

    def _resolve_object(self, band_oids: np.ndarray, fid: int) -> int:
        """Canonical winner of an obest band (object_key)."""
        self.tie_resolutions += 1
        w = self.ctx.functions.effective_weights(fid)
        best_key = None
        for oid in band_oids.tolist():
            p = self.ctx.objects.points[oid]
            key = (-score(p, w), neg(p), oid)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2]

    # -- engine hooks --------------------------------------------------------

    def on_pair_committed(
        self, fid: int, oid: int, units: int, f_died: bool, o_died: bool
    ) -> None:
        if f_died:
            self.f_alive[fid] = False
        if o_died:
            self.o_alive[oid] = False

    def finalize(self, stats, skyline) -> None:
        stats.counters["kernel_score_cells"] = self.score_cells
        stats.counters["kernel_tie_resolutions"] = self.tie_resolutions
