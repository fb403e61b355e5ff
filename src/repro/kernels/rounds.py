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
a stale one is scored against every alive function by the block scan
of :mod:`repro.core.vectorized`.

**Tile-pruned scans.**  A full row scan reads the catalogue's tiling
(:class:`~repro.kernels.columnar.CatalogueColumns`): a tile's bound is
the row's score of its upper corner, and a tile whose members are all
dead is skipped outright.  Pass 1 scores the row's best tiles by bound
(with those of the rows scanned beside it).  From those scores, ``kth``
is the (``RUNNERS_UP`` + 1)-th best and ``top`` the best; every object
the row lists, its threshold and every member of its band score at
least ``need = min(kth, top - tol)``, because the whole row's
(``RUNNERS_UP`` + 1)-th best and best score at least ``kth`` and
``top``.  Pass 2 scores each other tile whose bound reaches
``need - tol``.  A skipped tile's members score below ``need``: with
non-negative weights a member's exact score is at most its tile's
exact bound, and the two numpy dot products (the bound and the pass
score, summed in whatever order BLAS chooses) each err by at most
``D·2⁻⁵³·max|coord|·sum|weight|``, far less than the ``tol`` margin,
the row's band width (:func:`~repro.core.vectorized.band_tolerance`).
So the list, the threshold and the band are those of a scan of every
alive object, and the band rule resolves the band exactly as before.
A catalogue of one tile, or a row whose pass 1 holds too few alive
objects to fill a list, scores every alive tile.

**Exactness.**  Every pointer is set by the band rule of
:mod:`repro.core.vectorized`, and every emitted score is computed with
:func:`~repro.scoring.score`, so pairs and score bits equal the
interpreted twins'.

**Memory.**  Rows are scored in blocks of at most
:data:`~repro.core.vectorized.CELL_BUDGET` bytes of float64 scores
(one row at least), and the lists take
``|F| × RUNNERS_UP`` entries; no ``|F| × |O|`` array is held.  Each
solve keeps a tiles × slots penalty (0, or -inf for a dead object and
an unused slot) and an alive count per tile, which the commit hook
updates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import vectorized
from repro.core.vectorized import CanonicalArgmax, band_tolerance, canonical_best
from repro.engine.engine import EngineContext
from repro.engine.protocols import RoundStrategy, SkylineState, StablePair
from repro.kernels.columnar import ColumnarInstance
from repro.scoring import score

#: Runner-up objects a full row scan keeps per function.
RUNNERS_UP = 64

#: Most rows of a full scan scored together against one set of tiles.
SCAN_CHUNK = 8


class PointerRound(RoundStrategy, CanonicalArgmax):
    """fbest ∩ obest from per-side best pointers and runner-up lists."""

    def __init__(self, ctx: EngineContext, columnar: ColumnarInstance):
        super().__init__()
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
        self.row_tol = band_tolerance(columnar.max_abs_point, columnar.weights)
        tile_ids = columnar.catalogue.tile_ids
        # Added to every score of a tile slot: 0 for an alive object,
        # -inf for a dead one and for a slot past a tile's last member.
        self.penalty = np.where(self.o_alive[tile_ids], 0.0, -np.inf)
        self.tile_alive = np.count_nonzero(self.o_alive[tile_ids], axis=1)
        ctx.mem.set_gauge(
            "columnar_arrays",
            columnar.nbytes()
            + self.listed.nbytes
            + self.listed_scores.nbytes
            + self.penalty.nbytes
            + self.tile_alive.nbytes,
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
            fids = stale[rows]
            self.obest[fids] = self.winners(
                scores[rows], listed[rows], self.row_tol[fids], fids, self._pick_object
            )
        if not answered.all():
            self._scan(stale[~answered])

    def _scan(self, fids: np.ndarray) -> None:
        """Score each function against the alive objects of the tiles
        that can reach its runner-up list or its band; set its pointer
        and rebuild its list from the same scores.

        Rows are sorted by their two best tiles by bound and scored in
        chunks of up to :data:`SCAN_CHUNK` rows, so that a chunk's rows
        mostly want the same tiles.  Pass 1 scores the union of the
        chunk rows' best tiles.  Pass 2 scores every other alive tile
        whose bound reaches some row's cut (see the module docstring)."""
        catalogue = self.col.catalogue
        live = np.nonzero(self.tile_alive)[0]
        upper = catalogue.tile_upper[live].T
        weights = self.col.weights[fids]
        length = self.listed.shape[1]
        width = catalogue.tile_ids.shape[1]
        # Pass 1 takes each row's best tiles: enough slots for three
        # lists with their thresholds, and one tile more.  Fewer leave
        # kth far below the row's true one when the chunk's rows share
        # few tiles, and pass 2 then scores most of a large catalogue.
        first = min(live.size, 3 * -(-(length + 1) // width) + 1)
        best = self._best_tiles(weights, upper, first)
        order = np.lexsort((best[:, -min(2, first)], best[:, -1]))
        # A chunk of k rows scores at most k * first tiles in pass 1.
        cells = vectorized.CELL_BUDGET // (upper.itemsize * first * width)
        step = max(1, min(SCAN_CHUNK, math.isqrt(cells)))
        for start in range(0, fids.size, step):
            rows = order[start : start + step]
            tol = self.row_tol[fids[rows]]
            in_pass1 = np.zeros(live.size, dtype=bool)
            in_pass1[best[rows]] = True
            pass1 = live[in_pass1]
            scores = self._tile_scores(weights[rows], pass1)
            need = self._need(scores, tol, length)
            reached = self._bounds(weights[rows], upper) >= (need - tol)[:, None]
            pass2 = live[reached.any(axis=0) & ~in_pass1]
            ids = catalogue.tile_ids[np.concatenate((pass1, pass2))].reshape(-1)
            # Both passes' scores of a block of rows fit the budget.
            sub = max(1, vectorized.CELL_BUDGET // (upper.itemsize * ids.size))
            for at in range(0, rows.size, sub):
                part = rows[at : at + sub]
                block = scores[at : at + sub]
                if pass2.size:
                    block = np.concatenate(
                        (block, self._tile_scores(weights[part], pass2)), axis=1
                    )
                self.ctx.mem.set_gauge("score_matrix", block.nbytes)
                # Only the columns that some row needs can be listed, be
                # a threshold or sit in a band.
                wanted = np.flatnonzero(block.max(axis=0) >= need[at : at + sub].min())
                self._rebuild_lists(
                    fids[part], block.take(wanted, axis=1), ids.take(wanted)
                )

    def _best_tiles(
        self, weights: np.ndarray, upper: np.ndarray, first: int
    ) -> np.ndarray:
        """Each row's ``first`` best alive tiles by bound (indices into
        the columns of ``upper``): its best last, its second best
        before it, and its other best tiles before those."""
        tiles = upper.shape[1]
        positions = sorted({tiles - first, max(tiles - 2, 0), tiles - 1})
        best = np.empty((weights.shape[0], first), dtype=np.intp)
        step = max(1, vectorized.CELL_BUDGET // (upper.itemsize * tiles))
        for start in range(0, weights.shape[0], step):
            bounds = self._bounds(weights[start : start + step], upper)
            ranked = np.argpartition(bounds, positions, axis=1)
            best[start : start + step] = ranked[:, tiles - first :]
        return best

    def _bounds(self, weights: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Each row's score of each alive tile's upper corner."""
        bounds = weights @ upper
        self.score_cells += bounds.size
        return bounds

    def _tile_scores(self, weights: np.ndarray, tiles: np.ndarray) -> np.ndarray:
        """Each row's score of every slot of ``tiles``, tile after tile;
        a dead object's or an unused slot's score is -inf."""
        points = self.col.catalogue.tile_points[tiles]
        scores = weights @ points.reshape(-1, points.shape[2]).T
        scores += self.penalty[tiles].reshape(-1)
        self.score_cells += scores.size
        return scores

    @staticmethod
    def _need(scores: np.ndarray, tol: np.ndarray, length: int) -> np.ndarray:
        """Per row, the score below which an object can be neither
        listed, nor the threshold, nor in the band, from the scores of
        some of the row's alive objects: the lower of their
        (``length`` + 1)-th best and their best less ``tol``.  -inf
        when they are too few to fill a list."""
        kth = scores.shape[1] - length - 1
        if kth < 0:
            return np.full(scores.shape[0], -np.inf)
        kth_score = np.partition(scores, kth, axis=1)[:, kth]
        return np.minimum(kth_score, scores.max(axis=1) - tol)

    def _rebuild_lists(
        self, block: np.ndarray, scores: np.ndarray, ids: np.ndarray
    ) -> None:
        """Point each row of ``block`` at the canonical winner of its
        ``scores`` over the objects ``ids`` and list its best ones."""
        tol = self.row_tol[block]
        self.obest[block] = self.winners(scores, ids, tol, block, self._pick_object)
        cut = ids.size - self.listed.shape[1] - 1
        if cut < 0:
            # Every alive object fits in the list.
            self.listed[block, : ids.size] = ids
            self.listed[block, ids.size :] = -1
            self.listed_scores[block, : ids.size] = scores
            self.threshold[block] = -np.inf
            return
        # Each row's threshold column, then its listed columns.
        kept = np.argpartition(scores, cut, axis=1)[:, cut:]
        values = scores[np.arange(block.size)[:, None], kept]
        self.threshold[block] = values[:, 0]
        self.listed_scores[block] = values[:, 1:]
        self.listed[block] = ids[kept[:, 1:]]

    def _point_objects(self, oids: np.ndarray, live_f: np.ndarray) -> None:
        """Point each stale candidate object at its canonically best
        alive function."""
        col = self.col
        tol = band_tolerance(col.max_abs_weight, col.points[oids])
        self.fbest[oids] = self.scan(
            col.points, oids, tol, col.weights, live_f, self._pick_function
        )

    def _pick_object(self, fid: int, oids: np.ndarray) -> int:
        """The canonical winner among the objects ``oids`` for ``fid``."""
        points = self.ctx.objects.points
        candidates = ((oid, oid, points[oid]) for oid in oids.tolist())
        return canonical_best(self.ctx.functions.effective_weights(fid), candidates)[0]

    def _pick_function(self, oid: int, fids: np.ndarray) -> int:
        """The canonical winner among the functions ``fids`` for ``oid``."""
        weights = self.ctx.functions.effective_weights
        candidates = ((fid, fid, weights(fid)) for fid in fids.tolist())
        return canonical_best(self.ctx.objects.points[oid], candidates)[0]

    def scored(self, scores: np.ndarray) -> None:
        """Count a block of the shared scan and gauge it as the solve's
        score matrix."""
        super().scored(scores)
        self.ctx.mem.set_gauge("score_matrix", scores.nbytes)

    # -- engine hooks --------------------------------------------------------

    def on_pair_committed(
        self, fid: int, oid: int, units: int, f_died: bool, o_died: bool
    ) -> None:
        if f_died:
            self.f_alive[fid] = False
        if o_died:
            self.o_alive[oid] = False
            slot = self.col.catalogue.tile_slot[oid]
            self.penalty.flat[slot] = -np.inf
            self.tile_alive[slot // self.penalty.shape[1]] -= 1

    def finalize(self, stats, skyline) -> None:
        stats.counters["kernel_score_cells"] = self.score_cells
        stats.counters["kernel_tie_resolutions"] = self.tie_resolutions
