"""MatrixView and the kernels' block scan: the vectorized canonical
argmax must equal the scalar scan bit for bit — including at large
coordinate magnitudes, where the matmul's rounding error is *relative*
to the score and a fixed tolerance band used to drop the exact winner
(regression)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectorized import (
    CanonicalArgmax,
    MatrixView,
    band_tolerance,
    canonical_best,
)
from repro.ordering import neg
from repro.scoring import score

from .conftest import block_budgets


def reference_best(ids, rows, query):
    """The scalar canonical argmax that MatrixView and the block scan
    must reproduce exactly."""
    best = min((-score(r, query), neg(r), i) for i, r in zip(ids, rows))
    return best[2], -best[0]


def test_best_for_matches_scalar_scan_small_magnitudes():
    rows = [(0.3, 0.7), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7)]
    view = MatrixView(list(range(4)), rows)
    for query in [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.2, 0.8)]:
        assert view.best_for(query) == reference_best(
            list(range(4)), rows, query
        )


def test_best_for_empty_view_raises():
    with pytest.raises(ValueError):
        MatrixView([], []).best_for((1.0,))


#: Two rows that score ~-4.2e10 for ``HIGH_QUERY`` and differ by ~1e-4
#: exactly, which the matmul ranks with a larger error.
HIGH_ROWS = [
    (-645729423672.261, -531398143962.7751, 856642729273.811),
    (-645729423672.2605, -531398143962.77484, 856642729273.8105),
]
HIGH_QUERY = (0.5828105982174631, 0.7038528499563493, 0.8270780916312745)


def test_best_for_high_magnitude_regression():
    """Fixed-band regression: the old fixed 1e-9 band excluded the
    exact winner of ``HIGH_ROWS``."""
    view = MatrixView([0, 1], HIGH_ROWS)
    assert view.best_for(HIGH_QUERY) == reference_best([0, 1], HIGH_ROWS, HIGH_QUERY)


def test_scan_gives_each_block_its_own_band():
    """Blocks of one row: the zero query's band is ``SCORE_EPS`` wide,
    and ``HIGH_QUERY``'s must be wide enough to hold both rows; a scan
    that reused another block's width would trust its argmax."""
    queries = [(0.0, 0.0, 0.0), HIGH_QUERY]
    targets = np.asarray(HIGH_ROWS)
    tol = band_tolerance(float(np.abs(targets).max()), np.asarray(queries))
    kernel = CanonicalArgmax()

    def resolve(q, band):
        candidates = ((r, r, HIGH_ROWS[r]) for r in band.tolist())
        return canonical_best(queries[q], candidates)[0]

    with mock.patch("repro.core.vectorized.CELL_BUDGET", 1):
        best = kernel.scan(
            np.asarray(queries), np.arange(2), tol, targets, np.arange(2), resolve
        )
    assert [(r, score(HIGH_ROWS[r], q)) for r, q in zip(best.tolist(), queries)] == [
        reference_best([0, 1], HIGH_ROWS, q) for q in queries
    ]
    assert kernel.tie_resolutions == 2


def test_best_for_cancellation_regression():
    """Mixed-sign terms can cancel to a tiny score while the matmul's
    rounding error stays proportional to the ~1e11 intermediate terms
    — a band scaled by the *score* magnitude (not the term magnitude)
    still dropped the exact winner here."""
    rows = [
        (297490869326.6809, 259350717377.3098, -534769277134.6597),
        (297490869326.68115, 259350717377.3107, -534769277134.6592),
        (297490869326.6816, 259350717377.31036, -534769277134.6591),
    ]
    query = (0.5434318467145423, 0.7711915062581616, 0.6763198604457373)
    ids = [0, 1, 2]
    view = MatrixView(ids, rows)
    assert view.best_for(query) == reference_best(ids, rows, query)


coordinate = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
weight = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dims=st.integers(min_value=1, max_value=4))
def test_best_for_matches_scalar_scan_any_magnitude(data, dims):
    row = st.tuples(*[coordinate] * dims)
    base = data.draw(row)
    rows = [base]
    # near-ties of the first row stress the tolerance band: their exact
    # scores differ by far less than the matmul's rounding error
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        if data.draw(st.booleans()):
            jitter = data.draw(
                st.tuples(
                    *[
                        st.floats(min_value=-1e-3, max_value=1e-3)
                        for _ in range(dims)
                    ]
                )
            )
            rows.append(tuple(b + j for b, j in zip(base, jitter)))
        else:
            rows.append(data.draw(row))
    queries = data.draw(st.lists(st.tuples(*[weight] * dims), min_size=1, max_size=4))
    ids = list(range(len(rows)))
    assert MatrixView(ids, rows).best_for(queries[0]) == reference_best(
        ids, rows, queries[0]
    )
    # The kernels' block scan: every query row against an alive subset
    # of the rows, in blocks of a drawn budget.
    live = sorted(data.draw(st.sets(st.sampled_from(ids), min_size=1)))
    kernel = CanonicalArgmax()

    def resolve(q, band):
        candidates = ((r, r, rows[r]) for r in band.tolist())
        return canonical_best(queries[q], candidates)[0]

    targets = np.asarray(rows)
    tol = band_tolerance(float(np.abs(targets).max()), np.asarray(queries))
    with mock.patch("repro.core.vectorized.CELL_BUDGET", data.draw(block_budgets)):
        best = kernel.scan(
            np.asarray(queries),
            np.arange(len(queries)),
            tol,
            targets,
            np.asarray(live),
            resolve,
        )
    for query, row in zip(queries, best.tolist()):
        assert (row, score(rows[row], query)) == reference_best(
            live, [rows[r] for r in live], query
        )
    assert kernel.score_cells == len(queries) * len(live)
