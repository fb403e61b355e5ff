"""Exact canonical argmax over numpy score rows.

Every vectorized solver asks, for a row of scores, which column is
canonically best: the least ``(-score(row, query), neg(row), id)``,
which is :func:`repro.ordering.object_key` when the rows are object
points and :func:`repro.ordering.function_key` when they are effective
weight vectors (:func:`repro.scoring.score` commutes bit for bit).
numpy scores a whole block with one matmul, but its float64 sums round
differently from ``score()``'s left-to-right order.  This module owns
the rule that makes its argmax exact, and every step built on it; the
interpreted engine (:class:`MatrixView`) and the columnar kernels of
:mod:`repro.kernels` all call it.

**The band rule.**  A dot product's rounding error is proportional to
its summed *term* magnitudes (a few ulps of ``sum_i |w_i·x_i|``, at most
``max|x|·sum|w|``), not to the final score, which cancellation can make
orders of magnitude smaller.  So a row's *band* is every column that
scores within :func:`band_tolerance`, ``SCORE_EPS·max(1, scale·sum|q|)``,
of the row's numpy maximum, where ``q`` is the query row and ``scale``
bounds every absolute coordinate of the other side.  The band is far
wider than the rounding error, so the exact winner is always inside
it.  A numpy argmax is trusted only when it is alone in its band; a
wider band is resolved by :func:`canonical_best` with ``score()`` and
the canonical keys, and every emitted score is computed with
``score()``, so answers are bit-identical to a scalar scan.  A
``scale`` kept as a running maximum over every row ever added only
widens bands: more exact resolutions, never another winner.

The steps:

- :func:`band_tolerance`: the band width of each query row;
- :func:`canonical_best`: the scalar resolver, for both sides;
- :meth:`CanonicalArgmax.winners`: argmax-or-resolve over a block of
  score rows;
- :meth:`CanonicalArgmax.scan`: stale rows against every alive row of
  the other side, scored in blocks of at most :data:`CELL_BUDGET`
  bytes (read at call time), with the counters both kernels report;
- :class:`MatrixView`: an incrementally editable row set answering one
  query at a time.  Its float64 matrix is the canonical
  representation: Python tuples are derived from it lazily (and
  cached) only for rows that fall in a band, and :meth:`MatrixView.append`
  / :meth:`MatrixView.remove` (swap-remove into a doubling buffer) and
  the diff-based :meth:`MatrixView.sync` let the engine's per-round
  skyline churn update the matrix in place.
"""

# repro-lint: deterministic-module

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.ordering import neg
from repro.scoring import SCORE_EPS, score

#: Bytes of float64 scores one block of rows may take.
CELL_BUDGET = 1 << 20


def band_tolerance(scale: float, queries: np.ndarray) -> np.ndarray:
    """The band width of each query row (a scalar for one 1-D query):
    ``SCORE_EPS·max(1, scale·sum|q|)``, where ``scale`` bounds every
    absolute coordinate of the rows scored against it.  The floor of
    1.0 keeps an absolute margin for small instances."""
    return SCORE_EPS * np.maximum(1.0, scale * np.abs(queries).sum(axis=-1))


def canonical_best(
    query: Sequence[float], candidates: Iterable[tuple[int, int, Sequence[float]]]
) -> tuple[int, float]:
    """The canonically best of ``candidates`` for ``query``: its label
    and its exact score.

    Each candidate is ``(label, id, row)``, where the label is the
    caller's name for the candidate (a column or a buffer row) and
    ``row`` its exact tuple.  The best is the least
    ``(-score(row, query), neg(row), id)``; ids are unique, so the
    label never decides."""
    key = min(
        (-score(row, query), neg(row), ident, label) for label, ident, row in candidates
    )
    return key[3], -key[0]


class CanonicalArgmax:
    """The band rule over blocks of score rows, with its counters.

    ``score_cells`` counts the scores computed and ``tie_resolutions``
    the bands resolved exactly.  A resolver, ``resolve(row, band)``,
    receives a query row's label and the labels of its band's columns
    and returns the canonical winner's label, by :func:`canonical_best`
    over the caller's exact tuples.
    """

    def __init__(self) -> None:
        self.score_cells = 0
        self.tie_resolutions = 0

    def winners(
        self,
        scores: np.ndarray,
        ids: np.ndarray,
        tol: np.ndarray,
        rows: np.ndarray,
        resolve: Callable[[int, np.ndarray], int],
    ) -> np.ndarray:
        """Per row of ``scores``, the label of its best column: the
        numpy argmax when it is alone in the row's band, the columns
        within ``tol`` of it, else ``resolve(rows[t], band)``.  ``ids``
        labels the columns, one row for all rows or one row each."""
        at = scores.argmax(axis=1)
        every = np.arange(at.size)
        band = scores >= (scores[every, at] - tol)[:, None]
        best = ids[at] if ids.ndim == 1 else ids[every, at]
        # Every band holds its argmax, so a total above the row count
        # means some band holds more than one candidate.
        if np.count_nonzero(band) > band.shape[0]:
            for t in np.nonzero(np.count_nonzero(band, axis=1) > 1)[0]:
                self.tie_resolutions += 1
                row_ids = ids if ids.ndim == 1 else ids[t]
                best[t] = resolve(int(rows[t]), row_ids[band[t]])
        return best

    def scan(
        self,
        queries: np.ndarray,
        stale: np.ndarray,
        tol: np.ndarray,
        targets: np.ndarray,
        live: np.ndarray,
        resolve: Callable[[int, np.ndarray], int],
    ) -> np.ndarray:
        """The canonically best ``live`` row of ``targets`` for each
        ``stale`` row of ``queries``, as a row of ``targets``; ``tol``
        holds each stale row's band width.

        Blocks of query rows are scored so that no block exceeds
        :data:`CELL_BUDGET` bytes of float64 scores (one row at least)."""
        columns = targets[live].T
        best = np.empty(stale.size, dtype=np.intp)
        step = max(1, CELL_BUDGET // (columns.itemsize * live.size))
        for start in range(0, stale.size, step):
            rows = stale[start : start + step]
            scores = queries[rows] @ columns
            self.scored(scores)
            best[start : start + step] = self.winners(
                scores, live, tol[start : start + step], rows, resolve
            )
        return best

    def scored(self, scores: np.ndarray) -> None:
        """Count one block of scores that :meth:`scan` computed."""
        self.score_cells += scores.size


class MatrixView:
    """``(id, vector)`` rows supporting canonical best-row queries.

    The canonical order used is ``(-score, neg(row), id)`` ascending —
    which equals :func:`repro.ordering.object_key` when rows are object
    points and :func:`repro.ordering.function_key` when rows are
    effective weight vectors (the two orders share one shape).

    Row order is maintenance-defined (removals swap the last row into
    the hole), which is irrelevant to ``best_for``: ties are resolved
    through the canonical key, never through row position.
    """

    def __init__(self, ids: Sequence[int], rows: Sequence[Sequence[float]]):
        if len(ids) != len(rows):
            raise ValueError("ids and rows must align")
        self.ids = list(ids)
        self._n = len(self.ids)
        self._buf = np.asarray(rows, dtype=np.float64)
        if self._n and self._buf.ndim != 2:
            raise ValueError("rows must share one dimensionality")
        self._pos = {ident: i for i, ident in enumerate(self.ids)}
        # Lazy canonical-tuple cache, aligned with the buffer rows.
        self._tuples: list[tuple[float, ...] | None] = [None] * self._n
        # Largest |coordinate| *ever seen*: the band's scale, kept as a
        # monotone upper bound across removals.
        self._max_abs_coord = float(np.abs(self._buf).max()) if self._n else 0.0

    def __len__(self) -> int:
        return self._n

    @classmethod
    def from_dict(cls, mapping: Mapping[int, tuple[float, ...]]) -> "MatrixView":
        ids = sorted(mapping)
        return cls(ids, [mapping[i] for i in ids])

    @property
    def matrix(self) -> np.ndarray:
        """The canonical float64 row matrix (live rows only)."""
        return self._buf[: self._n]

    @property
    def rows(self) -> list[tuple[float, ...]]:
        """All rows as canonical tuples (diagnostics/tests only —
        ``best_for`` materializes tuples lazily per tolerance band)."""
        return [self._row_tuple(i) for i in range(self._n)]

    def _row_tuple(self, i: int) -> tuple[float, ...]:
        cached = self._tuples[i]
        if cached is None:
            cached = tuple(self._buf[i].tolist())
            self._tuples[i] = cached
        return cached

    # -- incremental maintenance -------------------------------------------

    def append(self, ident: int, row: Sequence[float]) -> None:
        """Add one row (amortized O(dims); the buffer doubles)."""
        if ident in self._pos:
            raise ValueError(f"id {ident} is already present")
        vec = np.asarray(row, dtype=np.float64)
        if self._n == 0 and self._buf.size == 0:
            self._buf = vec.reshape(1, -1).copy()
        elif self._n == len(self._buf):
            grown = np.empty(
                (max(2 * self._n, 4), self._buf.shape[1]), dtype=np.float64
            )
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        if self._n < len(self._buf):
            self._buf[self._n] = vec
        self._pos[ident] = self._n
        self.ids.append(ident)
        self._tuples.append(None)
        self._n += 1
        mx = float(np.abs(vec).max()) if vec.size else 0.0
        if mx > self._max_abs_coord:
            self._max_abs_coord = mx

    def remove(self, ident: int) -> None:
        """Drop one row in O(dims) by swapping the last row into it."""
        i = self._pos.pop(ident)
        last = self._n - 1
        if i != last:
            self._buf[i] = self._buf[last]
            self.ids[i] = self.ids[last]
            self._tuples[i] = self._tuples[last]
            self._pos[self.ids[i]] = i
        self.ids.pop()
        self._tuples.pop()
        self._n = last

    def sync(self, mapping: Mapping[int, tuple[float, ...]]) -> None:
        """Diff the view against ``mapping`` — removals first, then
        appends — so steady-state churn costs O(changes), not O(rows)."""
        for ident in [i for i in self._pos if i not in mapping]:
            self.remove(ident)
        for ident, row in mapping.items():
            if ident not in self._pos:
                self.append(ident, row)

    # -- queries ------------------------------------------------------------

    def best_for(self, query: Sequence[float]) -> tuple[int, float]:
        """Canonically best ``(id, exact_score)`` for ``query``."""
        if not self._n:
            raise ValueError("best_for on an empty MatrixView")
        query_vector = np.asarray(query, dtype=np.float64)
        approx = self.matrix @ query_vector
        floor = approx.max() - band_tolerance(self._max_abs_coord, query_vector)
        band = np.nonzero(approx >= floor)[0].tolist()
        best, best_score = canonical_best(
            query, ((i, self.ids[i], self._row_tuple(i)) for i in band)
        )
        return self.ids[best], best_score
