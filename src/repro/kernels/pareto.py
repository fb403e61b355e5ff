"""Batch dominance tests and Pareto (skyline) filtering.

Dominance follows the paper's Section 2.2 exactly (see
:func:`repro.rtree.geometry.dominates`): ``p`` dominates ``q`` iff
``p >= q`` in every dimension and the points do not coincide —
coincident duplicates never dominate each other, so they are all
skyline members.  The scalar oracle is
:func:`repro.skyline.reference.naive_skyline`; the hypothesis suite
checks these kernels against it on mixed-sign coordinates, exact
float ties and duplicate points.

The pairwise tests fold per-dimension comparisons into two boolean
2-d ``candidates × dominators`` planes (one pass per dimension)
rather than materializing a 3-d boolean tensor: ``p`` is dominated by
``w`` iff ``w >= p`` in all ``D`` dimensions (``&=``) and ``w > p``
in at least one (``|=``) — for ``>=``-everywhere vectors, "differs
somewhere" and "strictly greater somewhere" coincide.  The planes are
blocked by :data:`CELL_BUDGET`, so the transient stays around a
megabyte while typical calls run in one shot.
"""

from __future__ import annotations

import numpy as np

#: Transient-plane budget of one vectorized dominance pass, in cells
#: (``block × |dominators|``); a block of candidate rows is processed
#: per pass so the boolean planes stay around a megabyte.
CELL_BUDGET = 1 << 20

#: Rows of the sky order filtered per :func:`pareto_mask` block.
BLOCK = 256


def _dominance_planes(block: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """``plane[i, j]`` — does ``dominators[j]`` dominate ``block[i]``?"""
    ge = np.ones((block.shape[0], dominators.shape[0]), dtype=bool)
    gt = np.zeros_like(ge)
    for d in range(block.shape[1]):
        dom_col = dominators[:, d]
        cand_col = block[:, d, None]
        ge &= dom_col >= cand_col
        gt |= dom_col > cand_col
    return ge & gt


def _block_rows(num_dominators: int) -> int:
    return max(1, CELL_BUDGET // max(1, num_dominators))


def dominated_mask(points: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """``mask[i]`` — is ``points[i]`` dominated by any dominator row?"""
    n = points.shape[0]
    mask = np.zeros(n, dtype=bool)
    if n == 0 or dominators.shape[0] == 0:
        return mask
    step = _block_rows(dominators.shape[0])
    for start in range(0, n, step):
        plane = _dominance_planes(points[start : start + step], dominators)
        mask[start : start + step] = plane.any(axis=1)
    return mask


def dominator_index(points: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """Index of *one* dominating row per point, or ``-1`` if none.

    The witness (the first dominator in row order) backs the
    reference-dominator bookkeeping of
    :class:`~repro.kernels.skyline.MaskSkyline`: which dominator is
    reported does not matter, only that it currently dominates the
    point.
    """
    n = points.shape[0]
    out = np.full(n, -1, dtype=np.intp)
    if n == 0 or dominators.shape[0] == 0:
        return out
    step = _block_rows(dominators.shape[0])
    for start in range(0, n, step):
        plane = _dominance_planes(points[start : start + step], dominators)
        found = plane.any(axis=1)
        first = plane.argmax(axis=1)
        out[start : start + step] = np.where(found, first, -1)
    return out


def sky_order(points: np.ndarray) -> np.ndarray:
    """Indices in dominance-monotone processing order.

    Mirrors :func:`repro.rtree.geometry.sky_key_point`: descending
    coordinate sum with a lexicographic tiebreak on the (negated)
    coordinates, so a dominator is processed *strictly before*
    everything it dominates even when float rounding ties the sums
    (the PR 1 dominance-tie discipline).  Summation here only orders
    the pass — float addition is monotone under the fixed reduction
    tree, so a dominator's sum can tie but never trail.
    """
    if points.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    keys = [-points[:, d] for d in range(points.shape[1] - 1, -1, -1)]
    keys.append(-points.sum(axis=1))
    return np.lexsort(keys)


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Skyline membership mask of an ``n × D`` coordinate matrix.

    Sorted-pass batch filter: points are visited in :func:`sky_order`
    in blocks of :data:`BLOCK`.  A block's survivors are the rows no
    member accepted from earlier blocks dominates; a survivor is
    accepted when no other survivor of its block dominates it.  Both
    are single dominance passes.  The second test is exact because
    dominators sort strictly first and dominance is transitive: by
    induction along the order, a survivor dominated by a rejected
    survivor is also dominated by an accepted one, so "dominated by an
    in-block survivor" is the same test as "dominated by an accepted
    in-block row", and no later point can invalidate an accepted one.
    """
    mask = np.zeros(points.shape[0], dtype=bool)
    order = sky_order(points)
    for start in range(0, points.shape[0], BLOCK):
        idx = order[start : start + BLOCK]
        idx = idx[~dominated_mask(points[idx], points[mask])]
        survivors = points[idx]
        mask[idx[~dominated_mask(survivors, survivors)]] = True
    return mask
