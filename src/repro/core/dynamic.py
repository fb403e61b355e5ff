"""Dynamic stable-matching maintenance (the paper's future work).

The paper's conclusion: "we plan to study issues such as the
maintenance of a fair matching in a system, where objects are
dynamically allocated/freed."  This module implements that extension
for in-memory instances: a :class:`DynamicStableMatching` accepts
object/function arrivals and departures and keeps the canonical
stable matching current without recomputing it from scratch.

The key structural fact (provable from the greedy definition): the
canonical matching is the greedy fixpoint over pairs sorted by the
canonical pair order, so an update can only change the outcome from
the *first greedy step whose choice set changed*.  Events are applied
in batches (:meth:`DynamicStableMatching.batch`; each event method
on its own is a one-event batch), and each batch:

1. registers or unregisters every event's participant at once, and
   notes the earliest emitted pair each event can affect.  For a
   departure that is its first pair in the emitted sequence as it
   stood when the batch opened.  For an arrival still alive when the
   batch closes it is the first pair canonically worse than the
   arrival's best possible pair over the *final* population, the
   other arrivals included;
2. keeps the prefix of the emitted pair sequence before the least of
   those cuts;
3. re-runs greedy once, on the participants that prefix leaves free.

The kept prefix is a valid greedy prefix of the final population.
Each of its steps took the least pair key among the pairs available
at that step.  No departed member appears in it (the cut is at or
before each departure's first pair), so every step's pair is still
available, and removing participants only removes competitors.  No
arrival's pair can sort before the prefix's end: each arrival was
probed against every live member of the other side, arrivals too, so
its best key bounds every pair it joins, and the cut lies at or
before the first emitted key above that bound.  Both sides of each
prefix pair keep their capacities, so each step's units are
unchanged too.  A batch therefore gives the same matching as its
events applied one at a time, with one rematch instead of one per
event.

The emitted sequence is always globally sorted by the canonical pair
key (each greedy step takes the minimum remaining key, and suffix
keys exceed the probe key bounding the prefix), so a cut probe is a
``bisect`` over a parallel key list, and per-handle position indexes
answer ``partner_of_*`` and departure cuts without scanning.

Two interchangeable backends run step 3:

- ``backend="interp"`` — the reference pure-Python greedy (sorted
  exact pair keys, one scalar ``score()`` per candidate pair);
- ``backend="vec"`` — the columnar churn kernel of
  :mod:`repro.kernels.dynamic`: mutable preallocated coordinate and
  weight matrices mirror the live population, and the suffix is
  re-matched in mutual-best rounds over per-side best pointers (each
  free function's best alive object, each candidate object's best
  alive function), rescanning only the pointers whose target was
  exhausted.  It assumes nothing about the signs of weights or
  coordinates.

Both backends produce byte-identical emitted pairs (handles, float
scores, units, order) — the property tests assert equality against
each other and against a from-scratch oracle after every event and
after every batch.

On workloads where churn hits the middle of the score range this
re-matches a fraction of the pairs instead of all of them; the tests
verify exact equivalence against a from-scratch oracle and measure
that the suffix work is genuinely partial.
"""

# repro-lint: deterministic-module

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.core.types import Matching
from repro.data.instances import FunctionSet, ObjectSet, Point
from repro.errors import InvalidProblemError
from repro.kernels.dynamic import VectorizedChurnState
from repro.ordering import PairKey, pair_key
from repro.scoring import score

#: Valid values of the ``backend`` constructor argument.
CHURN_BACKENDS = ("interp", "vec")


def _finite_tuple(values: Iterable[float], what: str) -> tuple[float, ...]:
    """An arrival's values as finite floats, or
    :class:`~repro.errors.InvalidProblemError` before anything changes."""
    try:
        out = tuple(map(float, values))
    except (TypeError, ValueError):
        raise InvalidProblemError(f"{what} must be numbers, got {values!r}") from None
    if not all(map(math.isfinite, out)):
        raise InvalidProblemError(f"{what} must be finite, got {values!r}")
    return out


def checked_handle(value: Any, what: str) -> int:
    """A departure's handle as an ``int``; anything but an integer
    (``bool`` included, numpy integers accepted) raises
    :class:`~repro.errors.InvalidProblemError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidProblemError(f"{what} handle must be an integer, got {value!r}")
    return int(value)


def _checked_capacity(value: Any) -> int:
    """An arrival's capacity as an ``int`` (by ``operator.index``) of
    at least 1, or :class:`~repro.errors.InvalidProblemError`."""
    try:
        capacity = operator.index(value)
    except TypeError:
        raise InvalidProblemError(
            f"capacity must be an integer, got {value!r}"
        ) from None
    if capacity < 1:
        raise InvalidProblemError(f"capacity must be >= 1, got {capacity}")
    return capacity


class DynamicStableMatching:
    """Maintains the canonical stable matching under churn.

    Functions and objects are identified by the integer handles
    returned from ``add_function`` / ``add_object``.  Capacities are
    supported the same way as in the static solvers; priorities via
    pre-scaled (effective) weight vectors.

    ``backend`` selects the suffix-rematch engine (see the module
    docstring); both backends maintain byte-identical state.  Events
    applied inside one :meth:`batch` share one rematch.  An
    arrival's weights or point must be finite numbers, and the first
    arrival on either side fixes the dimensionality: a non-numeric,
    NaN or infinite value, or a tuple of another length, raises
    :class:`~repro.errors.InvalidProblemError` (a ``ValueError``)
    before anything changes, on both backends.  So does an arrival's
    capacity that is not an integer of at least 1, or a departure's
    handle that is not an integer (``bool`` included); an integer
    handle that names no live member raises ``KeyError``.
    """

    def __init__(self, backend: str = "interp") -> None:
        if backend not in CHURN_BACKENDS:
            raise ValueError(
                f"unknown churn backend {backend!r}; expected one of {CHURN_BACKENDS}"
            )
        self.backend = backend
        self._vec = VectorizedChurnState() if backend == "vec" else None
        self._weights: dict[int, tuple[float, ...]] = {}
        self._f_caps: dict[int, int] = {}
        self._points: dict[int, Point] = {}
        self._o_caps: dict[int, int] = {}
        #: Dimensionality of every weight and point tuple, fixed by the
        #: first arrival on either side.
        self._dims: int | None = None
        self._next_f = 0
        self._next_o = 0
        # Emitted pair sequence in canonical greedy order:
        # (pair_key, fid, oid, score, units).
        self._pairs: list[tuple[PairKey, int, int, float, int]] = []
        #: Parallel ascending key list (the bisect target of cut probes).
        self._keys: list[PairKey] = []
        #: handle → ascending positions of its pairs in ``_pairs``.
        self._f_pos: dict[int, list[int]] = {}
        self._o_pos: dict[int, list[int]] = {}
        #: Open :meth:`batch` scopes; the outermost one rematches.
        self._batch_depth = 0
        #: The open batch's least departure cut, its arrivals (probed
        #: when it closes) and ``events_applied`` when it opened.
        self._batch_cut = 0
        self._batch_functions: list[int] = []
        self._batch_objects: list[int] = []
        self._batch_start = 0
        #: Churn counters (see :meth:`churn_info`; seeding is free).
        self.suffix_rematch_count = 0
        self.events_applied = 0
        self.pairs_rematched = 0
        self.full_rematches = 0

    @classmethod
    def from_instance(
        cls,
        functions: FunctionSet,
        objects: ObjectSet,
        backend: str = "interp",
    ) -> "DynamicStableMatching":
        """Seed from static instance containers in one bulk rematch.

        Handles equal the containers' positional ids (function ``i`` of
        the :class:`FunctionSet` becomes dynamic handle ``i``, same for
        objects).  Priorities enter as γ-scaled effective weights, the
        same canonical order the static solvers use, so the seeded
        matching is exactly the static solution.
        """
        dyn = cls(backend=backend)
        for fid, _ in functions.items():
            dyn._register_function(
                fid, tuple(functions.effective_weights(fid)), functions.capacity(fid)
            )
        dyn._next_f = len(functions)
        for oid, point in objects.items():
            dyn._register_object(oid, tuple(point), objects.capacity(oid))
        dyn._next_o = len(objects)
        dyn._rematch_from(0)
        return dyn

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def matching(self) -> Matching:
        out = Matching()
        for _, fid, oid, s, units in self._pairs:
            out.add(fid, oid, s, units)
        return out

    @property
    def num_functions(self) -> int:
        return len(self._weights)

    @property
    def num_objects(self) -> int:
        return len(self._points)

    def partner_of_function(self, fid: int) -> list[tuple[int, int]]:
        return [
            (self._pairs[i][2], self._pairs[i][4]) for i in self._f_pos.get(fid, ())
        ]

    def partner_of_object(self, oid: int) -> list[tuple[int, int]]:
        return [
            (self._pairs[i][1], self._pairs[i][4]) for i in self._o_pos.get(oid, ())
        ]

    def churn_info(self) -> dict[str, int | str]:
        """Churn cost counters since construction (seeding is free).

        ``events_applied`` counts events.  The rematch counters count
        per rematch, which is one per :meth:`batch` that applied an
        event: ``pairs_rematched`` sums the emitted pairs each rematch
        re-examined, ``full_rematches`` counts the rematches that kept
        no prefix of a non-empty sequence, and ``suffix_rematch_count``
        is the last rematch's share of ``pairs_rematched``.  On the
        ``vec`` backend, ``kernel_score_cells`` counts the scores that
        rematches and arrival probes computed and
        ``kernel_tie_resolutions`` the tolerance bands resolved
        exactly; both read 0 on ``interp``.
        """
        return {
            "backend": self.backend,
            "events_applied": self.events_applied,
            "pairs_rematched": self.pairs_rematched,
            "full_rematches": self.full_rematches,
            "suffix_rematch_count": self.suffix_rematch_count,
            "kernel_score_cells": self._vec.score_cells if self._vec else 0,
            "kernel_tie_resolutions": self._vec.tie_resolutions if self._vec else 0,
        }

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Apply the events of the scope with one suffix rematch.

        Each event inside is validated and registers or unregisters
        at once; the rematch runs when the outermost scope exits, also
        when an event raised, so the events applied before it are kept.
        A scope that applied no event rematches nothing.  Scopes nest:
        an inner one joins the outer one's batch.  Until the outermost
        scope exits, :attr:`matching` and the partner lookups still
        describe the sequence the batch opened on.
        """
        if self._batch_depth == 0:
            self._batch_cut = len(self._pairs)
            self._batch_functions = []
            self._batch_objects = []
            self._batch_start = self.events_applied
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self.events_applied > self._batch_start:
                self._rematch_from(self._batch_least_cut())

    def add_function(self, weights: tuple[float, ...], capacity: int = 1) -> int:
        capacity = _checked_capacity(capacity)
        with self.batch():
            fid = self._next_f
            self._register_function(fid, _finite_tuple(weights, "weights"), capacity)
            self._next_f += 1
            self._batch_functions.append(fid)
            self.events_applied += 1
        return fid

    def remove_function(self, fid: int) -> None:
        fid = checked_handle(fid, "function")
        if fid not in self._weights:
            raise KeyError(f"unknown function {fid}")
        with self.batch():
            self._cut_at_first_pair(self._f_pos, fid)
            self._unregister_function(fid)
            self.events_applied += 1

    def add_object(self, point: Point, capacity: int = 1) -> int:
        capacity = _checked_capacity(capacity)
        with self.batch():
            oid = self._next_o
            self._register_object(oid, _finite_tuple(point, "point"), capacity)
            self._next_o += 1
            self._batch_objects.append(oid)
            self.events_applied += 1
        return oid

    def remove_object(self, oid: int) -> None:
        """Free an object (e.g. a returned housing unit)."""
        oid = checked_handle(oid, "object")
        if oid not in self._points:
            raise KeyError(f"unknown object {oid}")
        with self.batch():
            self._cut_at_first_pair(self._o_pos, oid)
            self._unregister_object(oid)
            self.events_applied += 1

    # ------------------------------------------------------------------
    # Population registry (dicts + optional columnar mirror)
    # ------------------------------------------------------------------

    def _check_dims(self, values: tuple[float, ...], what: str) -> None:
        """Reject a tuple whose length differs from the fixed
        dimensionality; the first tuple of either side fixes it."""
        if self._dims is None:
            self._dims = len(values)
        elif len(values) != self._dims:
            raise InvalidProblemError(
                f"expected {self._dims}-dimensional {what}, got {len(values)}"
            )

    def _register_function(
        self, fid: int, weights: tuple[float, ...], capacity: int
    ) -> None:
        self._check_dims(weights, "weights")
        self._weights[fid] = weights
        self._f_caps[fid] = capacity
        if self._vec is not None:
            self._vec.functions.add(fid, weights, capacity)

    def _unregister_function(self, fid: int) -> None:
        del self._weights[fid]
        del self._f_caps[fid]
        if self._vec is not None:
            self._vec.functions.remove(fid)

    def _register_object(self, oid: int, point: Point, capacity: int) -> None:
        self._check_dims(point, "point")
        self._points[oid] = point
        self._o_caps[oid] = capacity
        if self._vec is not None:
            self._vec.objects.add(oid, point, capacity)

    def _unregister_object(self, oid: int) -> None:
        del self._points[oid]
        del self._o_caps[oid]
        if self._vec is not None:
            self._vec.objects.remove(oid)

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------

    def _cut_at_first_pair(
        self, positions: dict[int, list[int]], handle: int
    ) -> None:
        """Lower the batch's cut to a departing handle's first pair;
        ``positions`` still describes the sequence the batch opened on."""
        if handle in positions:
            self._batch_cut = min(self._batch_cut, positions[handle][0])

    def _batch_least_cut(self) -> int:
        """The batch's least cut: its departures' and the probes of its
        arrivals that are still alive."""
        cut = self._batch_cut
        for fid in self._batch_functions:
            if fid in self._weights:
                cut = min(cut, self._first_affected_by_function(fid))
        for oid in self._batch_objects:
            if oid in self._points:
                cut = min(cut, self._first_affected_by_object(oid))
        return cut

    def _first_affected_by_object(self, oid: int) -> int:
        """Greedy steps strictly better than the new object's best
        conceivable pair are unaffected by its arrival."""
        if self._vec is not None:
            best = self._vec.best_key_for(oid, self._vec.objects, self._weights)
        else:
            p = self._points[oid]
            best = None
            for fid, w in self._weights.items():
                key = pair_key(score(w, p), w, fid, p, oid)
                if best is None or key < best:
                    best = key
        if best is None:
            return len(self._pairs)
        return bisect_right(self._keys, best)

    def _first_affected_by_function(self, fid: int) -> int:
        if self._vec is not None:
            best = self._vec.best_key_for(fid, self._vec.functions, self._points)
        else:
            w = self._weights[fid]
            best = None
            for oid, p in self._points.items():
                key = pair_key(score(w, p), w, fid, p, oid)
                if best is None or key < best:
                    best = key
        if best is None:
            return len(self._pairs)
        return bisect_right(self._keys, best)

    def _rematch_from(self, cut: int) -> None:
        """Keep the prefix [0, cut); greedily re-match everything not
        consumed by it."""
        self.suffix_rematch_count = len(self._pairs) - cut
        self.pairs_rematched += self.suffix_rematch_count
        if cut == 0 and self._pairs:
            self.full_rematches += 1

        # Retire the old suffix from the position indexes: reverse
        # iteration pops exactly each handle list's tail (positions are
        # appended ascending and appear once per pair).
        for _, fid, oid, _, _ in reversed(self._pairs[cut:]):
            flist = self._f_pos[fid]
            flist.pop()
            if not flist:
                del self._f_pos[fid]
            olist = self._o_pos[oid]
            olist.pop()
            if not olist:
                del self._o_pos[oid]
        prefix = self._pairs[:cut]

        f_left = dict(self._f_caps)
        o_left = dict(self._o_caps)
        for _, fid, oid, _, units in prefix:
            f_left[fid] -= units
            o_left[oid] -= units

        free_f = [(fid, c) for fid, c in f_left.items() if c > 0]
        free_o = [(oid, c) for oid, c in o_left.items() if c > 0]
        suffix: list[tuple[PairKey, int, int, float, int]] = []
        if free_f and free_o:
            if self._vec is not None:
                suffix = self._vec.rematch(
                    free_f, free_o, self._weights, self._points
                )
            else:
                suffix = self._greedy_suffix(free_f, free_o, f_left, o_left)

        self._pairs = prefix + suffix
        del self._keys[cut:]
        for i, (key, fid, oid, _, _) in enumerate(suffix, start=cut):
            self._keys.append(key)
            self._f_pos.setdefault(fid, []).append(i)
            self._o_pos.setdefault(oid, []).append(i)

    def _greedy_suffix(
        self,
        free_f: list[tuple[int, int]],
        free_o: list[tuple[int, int]],
        f_left: dict[int, int],
        o_left: dict[int, int],
    ) -> list[tuple[PairKey, int, int, float, int]]:
        """The interpreted reference rematch: exact keys, sorted."""
        suffix: list[tuple[PairKey, int, int, float, int]] = []
        candidates = sorted(
            pair_key(
                score(self._weights[fid], self._points[oid]),
                self._weights[fid], fid, self._points[oid], oid,
            )
            for fid, _ in free_f
            for oid, _ in free_o
        )
        for key in candidates:
            neg_s, _nw, fid, _np, oid = key
            if f_left[fid] <= 0 or o_left[oid] <= 0:
                continue
            units = min(f_left[fid], o_left[oid])
            f_left[fid] -= units
            o_left[oid] -= units
            suffix.append((key, fid, oid, -neg_s, units))
        return suffix
