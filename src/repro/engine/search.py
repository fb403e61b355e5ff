"""BestPairSearch strategy implementations.

Three ways of answering "which alive function is canonically best for
each skyline object", extracted from the solvers that used to inline
them:

- :class:`ReverseTASearch` — per-object reverse top-1 TA over sorted
  coefficient lists (Section 5.1), with the paper's resumable /
  biased / Ω-bounded toggles, optionally over simulated disk pages
  (Section 7.6);
- :class:`BatchTASearch` — SB-alt's one batch TA sweep per skyline
  version over disk-resident lists (Figure 17);
- :class:`FskySearch` — the two-skyline prioritized variant's
  exhaustive vectorized scan of the *function* skyline (Section 6.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.vectorized import MatrixView, band_tolerance
from repro.engine.engine import EngineContext
from repro.engine.instrumentation import fold_auxiliary_io
from repro.engine.protocols import SkylineState
from repro.ordering import FunctionKey, function_key
from repro.scoring import SCORE_EPS, score
from repro.skyline.inmemory import InMemorySkylineManager
from repro.storage.stats import (
    BYTES_PER_PLIST_ENTRY,
    BYTES_PER_SCORE_ENTRY,
)
from repro.topk.knapsack import tight_threshold
from repro.topk.reverse import ReverseBestSearch, SearchCounters
from repro.topk.sorted_lists import CoefficientLists, PagedCoefficientLists


class ReverseTASearch:
    """Per-object resumable reverse top-1 searches (SB's fbest step)."""

    def __init__(
        self,
        ctx: EngineContext,
        *,
        resume: bool,
        biased: bool,
        omega: int | None,
        paged_page_size: int | None = None,
    ):
        if paged_page_size is None:
            self.lists: CoefficientLists = CoefficientLists(ctx.functions)
        else:
            self.lists = PagedCoefficientLists(
                ctx.functions, page_size=paged_page_size
            )
        self.paged = paged_page_size is not None
        self.objects = ctx.objects
        self.mem = ctx.mem
        self.resume = resume
        self.biased = biased
        self.omega = omega
        self.counters = SearchCounters()
        self._searches: dict[int, ReverseBestSearch] = {}
        self._ta_state_bytes = 0

    def best_functions(self, skyline: SkylineState):
        fbest: dict[int, tuple[int, float]] = {}
        for oid in sorted(skyline):
            result = self._best_function(oid)
            if result is None:
                return None  # no alive function left anywhere
            fbest[oid] = result
        return fbest

    def _best_function(self, oid: int) -> tuple[int, float] | None:
        """Best alive function for a skyline object (Section 5.1)."""
        if not self.resume:
            fresh = ReverseBestSearch(
                self.lists, self.objects.points[oid], omega=None,
                biased=self.biased, counters=self.counters,
            )
            result = fresh.best()
            # Transient state: only its momentary size counts.
            self.mem.set_gauge("ta_states", fresh.memory_bytes())
            return result
        search = self._searches.get(oid)
        if search is None:
            search = ReverseBestSearch(
                self.lists, self.objects.points[oid], omega=self.omega,
                biased=self.biased, counters=self.counters,
            )
            self._searches[oid] = search
        self._ta_state_bytes -= search.memory_bytes()
        result = search.best()
        self._ta_state_bytes += search.memory_bytes()
        self.mem.set_gauge("ta_states", self._ta_state_bytes)
        return result

    def on_function_dead(self, fid: int) -> None:
        self.lists.kill(fid)

    def on_object_dead(self, oid: int) -> None:
        dead = self._searches.pop(oid, None)
        if dead is not None:
            self._ta_state_bytes -= dead.memory_bytes()
            self.mem.set_gauge("ta_states", self._ta_state_bytes)

    def on_round_end(self, dead_fids: list[int]) -> None:
        pass

    def finalize(self, stats, skyline) -> None:
        stats.counters["ta_sorted_accesses"] = self.counters.sorted_accesses
        stats.counters["ta_random_accesses"] = self.counters.random_accesses
        stats.counters["ta_restarts"] = self.counters.restarts
        stats.counters["skyline_final_size"] = len(skyline)
        if self.paged:
            fold_auxiliary_io(stats, self.lists.stats, "function_list_reads")


class BatchTASearch:
    """SB-alt's batch TA: one sweep per skyline version (Section 7.6).

    Lists are read round-robin one block at a time, each newly seen
    alive function is random-accessed once and scored against *all*
    not-yet-finished skyline objects, and objects retire individually
    as their incumbents beat their thresholds — so every function
    coefficient is accessed at most once per skyline version.  A new
    function is scored against the active objects by one matmul, and
    only the objects whose numpy score lies within its
    :func:`~repro.core.vectorized.band_tolerance` of their incumbent's
    are scored exactly.
    """

    def __init__(self, ctx: EngineContext, *, page_size: int = 4096):
        self.lists = PagedCoefficientLists(ctx.functions, page_size=page_size)
        self.objects = ctx.objects
        self.mem = ctx.mem
        self.batch_scans = 0

    def best_functions(self, skyline: SkylineState):
        fbest = self._batch_best_functions(sorted(skyline))
        self.batch_scans += 1
        return fbest or None

    def _batch_best_functions(
        self, sky_oids: list[int]
    ) -> dict[int, tuple[int, float]]:
        """One batch TA pass: best alive function for every skyline
        object, round-robin block reads over the D lists."""
        lists = self.lists
        mem = self.mem
        dims = lists.dims
        points = {oid: self.objects.points[oid] for oid in sky_oids}
        positions = [0] * dims
        bounds = [lists.initial_bound(d) for d in range(dims)]
        seen: set[int] = set()
        incumbents: dict[int, tuple[FunctionKey, int]] = {}
        active = list(sky_oids)
        budget = lists.max_alive_gamma()

        # Vectorized view of the active objects; rebuilt when some retire.
        active_matrix = np.asarray([points[oid] for oid in active])
        inc_scores = np.full(len(active), -np.inf)
        scale = float(np.abs(active_matrix).max(initial=0.0))

        def exhausted() -> bool:
            return all(positions[d] >= lists.length(d) for d in range(dims))

        d = 0
        while active and not exhausted():
            # Read the next block of the next non-exhausted list.
            for _ in range(dims):
                if positions[d] < lists.length(d):
                    break
                d = (d + 1) % dims
            src = d
            end = min(positions[d] + lists.entries_per_page, lists.length(d))
            new_fids: list[int] = []
            while positions[d] < end:
                coef, fid = lists.entry(d, positions[d])  # charged sequentially
                positions[d] += 1
                bounds[d] = coef
                if fid not in seen:
                    seen.add(fid)
                    if lists.is_alive(fid):
                        new_fids.append(fid)
            d = (d + 1) % dims

            for fid in new_fids:
                # Collect the *remaining* coefficients by random access
                # on the other lists (charged); the values equal the
                # in-memory effective weights.
                for j in range(dims):
                    if j != src:
                        lists.random_access(fid, j)
                w = lists.effective_weights(fid)
                # One matmul scores the function against every active
                # object; only objects within the band of their
                # incumbent need exact canonical treatment.
                query = lists.weights_np[fid]
                approx = active_matrix @ query
                tol = band_tolerance(scale, query)
                for i in np.nonzero(approx >= inc_scores - tol)[0]:
                    oid = active[i]
                    s = score(w, points[oid])
                    key = function_key(s, w, fid)
                    cur = incumbents.get(oid)
                    if cur is None or key < cur[0]:
                        incumbents[oid] = (key, fid)
                        inc_scores[i] = s

            # Retire objects whose incumbent beats the (updated) threshold.
            keep = []
            for i, oid in enumerate(active):
                cur = incumbents.get(oid)
                if cur is not None:
                    t = tight_threshold(bounds, points[oid], budget=budget)
                    if -cur[0][0] > t + SCORE_EPS:
                        continue
                keep.append(i)
            if len(keep) != len(active):
                active = [active[i] for i in keep]
                active_matrix = active_matrix[keep]
                inc_scores = inc_scores[keep]
            mem.set_gauge(
                "batch_incumbents", len(incumbents) * BYTES_PER_SCORE_ENTRY
            )

        return {
            oid: (fid, -key[0])
            for oid, (key, fid) in incumbents.items()
        }

    def on_function_dead(self, fid: int) -> None:
        self.lists.kill(fid)

    def on_object_dead(self, oid: int) -> None:
        pass

    def on_round_end(self, dead_fids: list[int]) -> None:
        pass

    def finalize(self, stats, skyline) -> None:
        # Function-list traffic is the dominant I/O in this setting.
        fold_auxiliary_io(stats, self.lists.stats, "function_list_reads")
        stats.counters["batch_scans"] = self.batch_scans


class FskySearch:
    """The two-skyline variant's exhaustive Fsky scan (Section 6.2).

    Maintains a skyline over the effective coefficient vectors; stable
    pairs can only join ``Fsky`` with ``Osky``, so the best function of
    each skyline object is found by one vectorized scan of Fsky
    instead of TA (Fsky is small and sees frequent updates that would
    invalidate TA states).

    Correctness of restricting to Fsky: if f' dominates f
    coefficient-wise then ``f'(o) >= f(o)`` for every non-negative
    object, and the canonical function order of :mod:`repro.ordering`
    breaks score ties toward the dominator, so the canonical best
    function for any object is always on the function skyline.  That
    restriction holds only for non-negative objects: on a negative
    coordinate a dominating coefficient vector scores *lower*.  A
    catalogue with any negative coordinate therefore scans every alive
    function instead.
    """

    def __init__(self, ctx: EngineContext):
        self.objects = ctx.objects
        self.mem = ctx.mem
        weights = [
            (fid, ctx.functions.effective_weights(fid))
            for fid in range(len(ctx.functions))
        ]
        #: ``None`` when the catalogue has a negative coordinate; the
        #: scan then covers every alive function in ``_alive``.
        self.manager: InMemorySkylineManager | None = None
        self._alive: dict[int, tuple[float, ...]] = {}
        if any(c < 0 for point in ctx.objects.points for c in point):
            self._alive = dict(weights)
        else:
            self.manager = InMemorySkylineManager(weights)
        self._fsky_view: MatrixView | None = None

    def _candidates(self) -> dict[int, tuple[float, ...]]:
        return self._alive if self.manager is None else self.manager.skyline

    def best_functions(self, skyline: SkylineState):
        candidates = self._candidates()
        entries = len(candidates)
        if self.manager is not None:
            entries += self.manager.memory_entries()
        self.mem.set_gauge("fsky", entries * BYTES_PER_PLIST_ENTRY)
        if not candidates:
            return None
        if self._fsky_view is None:
            self._fsky_view = MatrixView.from_dict(candidates)
        else:
            self._fsky_view.sync(candidates)
        fsky_view = self._fsky_view
        return {
            oid: fsky_view.best_for(self.objects.points[oid])
            for oid in sorted(skyline)
        }

    def on_function_dead(self, fid: int) -> None:
        pass  # batched: Fsky is repaired once per round in on_round_end

    def on_object_dead(self, oid: int) -> None:
        pass

    def on_round_end(self, dead_fids: list[int]) -> None:
        if not dead_fids:
            return
        if self.manager is None:
            for fid in dead_fids:
                del self._alive[fid]
        else:
            self.manager.remove(dead_fids)

    def finalize(self, stats, skyline) -> None:
        stats.counters["fsky_final_size"] = len(self._candidates())
