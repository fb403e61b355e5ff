"""Reverse top-1 search: the best function for a given object.

This is the engine behind SB's BestPair step (Section 5.1).  For a
skyline object ``o`` it scans the sorted coefficient lists TA-style
and maintains the best function seen so far; it terminates as soon as
the fractional-knapsack threshold ``Ttight`` proves no unseen function
can beat the incumbent.

Optimizations from the paper, all switchable for the ablation study:

- **biased probing** — instead of round-robin, advance the list with
  the largest ``l_i · o_i``, which shrinks the threshold fastest;
- **resuming** — the search state (positions, candidate heap) is kept
  per object, so when an object loses its best function to another
  object it resumes scanning instead of restarting;
- **Ω-bounded heap** — only the top-Ω candidates are kept; every pop
  of a dead incumbent lowers the retrieval guarantee by one, and when
  Ω hits zero the search restarts from scratch with a fresh Ω
  (the paper's memory/time trade-off, tuned by ω = Ω/|F|).

Implementation note: lists are scanned in small batches through the
numpy views of :class:`CoefficientLists`; a vectorized score prefilter
skips candidates that the Ω-truncation would discard anyway.  Exact
incumbent selection always goes through :func:`repro.scoring.score`
and the canonical :func:`repro.ordering.function_key`, and termination
requires the incumbent to *strictly* beat ``Ttight`` (with the
:data:`SCORE_EPS` margin for the threshold's different summation
order), so results are canonical-exact regardless of batching.

Solvers consume these searches through the engine's
:class:`repro.engine.search.ReverseTASearch` strategy (the
``BestPairSearch`` seam), which owns per-object search state,
resumption and the Ω/biased/fresh toggles.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

import numpy as np

from repro.ordering import FunctionKey, function_key
from repro.scoring import SCORE_EPS, score
from repro.storage.stats import BYTES_PER_LIST_POSITION, BYTES_PER_SCORE_ENTRY
from repro.topk.knapsack import tight_threshold
from repro.topk.sorted_lists import CoefficientLists

_BATCH = 32


class SearchCounters:
    """Aggregate work counters, shared across many searches."""

    __slots__ = ("sorted_accesses", "random_accesses", "restarts", "threshold_evals")

    def __init__(self) -> None:
        self.sorted_accesses = 0
        self.random_accesses = 0
        self.restarts = 0
        self.threshold_evals = 0


class ReverseBestSearch:
    """Resumable best-function search for one object."""

    def __init__(
        self,
        lists: CoefficientLists,
        point: Sequence[float],
        omega: int | None = None,
        biased: bool = True,
        counters: SearchCounters | None = None,
    ):
        if omega is not None and omega < 1:
            raise ValueError("omega must be >= 1 (or None for unbounded)")
        self.lists = lists
        self.point = tuple(point)
        self._point_np = np.asarray(self.point)
        self.omega_init = omega
        self.biased = biased
        self.counters = counters if counters is not None else SearchCounters()
        self._dims = lists.dims
        self._n = len(lists.alive)
        self._rr = 0  # round-robin cursor (non-biased mode)
        self._reset()

    def _reset(self) -> None:
        self._pos = [0] * self._dims
        self._bounds = [self.lists.initial_bound(d) for d in range(self._dims)]
        self._seen = np.zeros(self._n, dtype=bool)
        # Sorted candidate list: index 0 = canonically best.
        self._heap: list[tuple[FunctionKey, int]] = []
        self._omega = self.omega_init

    # -- public API ---------------------------------------------------------

    def best(self) -> tuple[int, float] | None:
        """``(fid, score)`` of the canonically best *alive* function,
        or ``None`` if no alive function exists.  Resumes (or restarts,
        if Ω ran out) as needed."""
        while True:
            self._drop_dead_incumbents()
            if self._heap:
                key = self._heap[0][0]
                best_score = -key[0]
                # SCORE_EPS guards against the threshold's different
                # summation order (see repro.scoring.SCORE_EPS).
                if best_score > self._threshold() + SCORE_EPS or self._exhausted():
                    fid = self._heap[0][1]
                    return fid, best_score
            elif self._exhausted():
                return None
            self._advance_batch()

    def memory_bytes(self) -> int:
        """Size of this search's retained state: candidate heap, list
        cursors, and the seen-functions bitmap."""
        return (
            len(self._heap) * BYTES_PER_SCORE_ENTRY
            + self._dims * BYTES_PER_LIST_POSITION
            + self._n // 8
        )

    # -- internals ------------------------------------------------------------

    def _threshold(self) -> float:
        self.counters.threshold_evals += 1
        return tight_threshold(
            self._bounds, self.point, budget=self.lists.max_alive_gamma()
        )

    def _exhausted(self) -> bool:
        return all(
            self._pos[d] >= self.lists.length(d) for d in range(self._dims)
        )

    def _drop_dead_incumbents(self) -> None:
        """Pop assigned functions off the top; each pop burns one unit
        of Ω; at zero the whole search restarts from scratch."""
        alive = self.lists.alive
        while self._heap and not alive[self._heap[0][1]]:
            self._heap.pop(0)
            if self._omega is not None:
                self._omega -= 1
                if self._omega <= 0:
                    self.counters.restarts += 1
                    self._reset()
                    return

    def _pick_list(self) -> int:
        lengths = self.lists.length
        if self.biased:
            # Start below any product: with negative coordinates every
            # open list's bound x coordinate may be <= -1, and one of
            # them must still be picked.
            best_d = -1
            best_v = -math.inf
            for d in range(self._dims):
                if self._pos[d] >= lengths(d):
                    continue
                v = self._bounds[d] * self.point[d]
                if v > best_v:
                    best_v = v
                    best_d = d
            return best_d
        for _ in range(self._dims + 1):
            d = self._rr % self._dims
            self._rr += 1
            if self._pos[d] < lengths(d):
                return d
        raise AssertionError("no open list (exhausted search advanced)")

    def _advance_batch(self) -> None:
        d = self._pick_list()
        lo = self._pos[d]
        hi = min(lo + _BATCH, self.lists.length(d))
        fids = self.lists.fids_np[d][lo:hi]
        coefs = self.lists.coefs_np[d][lo:hi]
        self._pos[d] = hi
        self._bounds[d] = float(coefs[-1])
        self.counters.sorted_accesses += hi - lo
        if self.lists.charges_io:
            self.lists.charge_range(d, lo, hi)

        fresh_mask = ~self._seen[fids]
        if not fresh_mask.any():
            return
        fresh = fids[fresh_mask]
        self._seen[fresh] = True
        # "Random accesses" fetch each new function's other D-1 coords.
        self.counters.random_accesses += int(fresh.size) * (self._dims - 1)
        if self.lists.charges_io:
            for fid in fresh:
                self.lists.charge_random(int(fid), d)
        alive_new = fresh[self.lists.alive_np[fresh]]
        if alive_new.size == 0:
            return

        # Vectorized prefilter: candidates the Ω-truncation would drop
        # immediately (strictly below the worst retained score) are
        # skipped without exact evaluation — behaviour-identical to
        # insert-then-truncate.
        if self._omega is not None and len(self._heap) >= self._omega:
            cutoff = -self._heap[-1][0][0]
            approx = self.lists.weights_np[alive_new] @ self._point_np
            alive_new = alive_new[approx >= cutoff - SCORE_EPS]

        for fid in alive_new:
            fid = int(fid)
            weights = self.lists.weights[fid]
            s = score(weights, self.point)
            bisect.insort(self._heap, (function_key(s, weights, fid), fid))
        if self._omega is not None and len(self._heap) > self._omega:
            del self._heap[self._omega :]
