"""Columnar numpy solve kernels — the vectorized twins of the
interpreted engine configs.

The interpreted solvers walk objects one at a time: per-object reverse
TA searches, R-tree skyline maintenance, per-pair Python bookkeeping.
This package rewrites the engine's inner loops over flat float64
arrays.  Catalogue-only state is built once per catalogue and held by
its cached :class:`~repro.core.index.ObjectIndex`
(:class:`~repro.kernels.columnar.CatalogueColumns`: the read-only
coordinate matrix, object capacities, ``max_abs_point`` and a
median-split tiling of the objects with each tile's upper corner,
built on the first columnar solve over the index).  Cohort state is
built once per solve (:class:`~repro.kernels.columnar.ColumnarInstance`:
the weight matrix and function capacities).  The kernels cover:

- mutual-best rounds over per-side best pointers
  (:class:`~repro.kernels.rounds.PointerRound`): each alive function
  points to its canonically best alive object, each candidate object
  to its canonically best alive function, and a round proposes every
  pair whose two pointers meet.  No skyline is kept: a function's
  stale pointer advances along the runner-up list of its last full
  row scan, or the row is scanned again, and a scan scores only the
  tiles whose upper-corner bound can reach the row's list or band;
- the churn kernel behind ``DynamicStableMatching(backend="vec")``
  (:mod:`repro.kernels.dynamic`), whose suffix rematches run the same
  kind of pointer rounds over mutable columns.

**The oracle discipline.**  Every vectorized config is a *bit-identical
twin* of an interpreted config: same pairs in the same order with the
same float scores, same loop count.  The interpreted configs remain
the ground truth — ``tests/test_kernels.py`` verifies each twin
pair-for-pair (and the planner identity suite exercises the vectorized
configs through batch/session/server).  Exactness comes from the
band rule of :mod:`repro.core.vectorized`, which both kernels call
for every argmax.

**Instrumentation.**  ``loops`` is exact (the round structure is the
scalar one).  ``io_accesses`` is 0 by construction — the kernels never
touch the object R-tree — and peak memory gauges the columnar arrays
(the tiling included), the runner-up lists, the per-solve tile state
and one block of scores instead of TA states and BBS heaps;
``kernel_score_cells`` counts the dot products computed (object
scores and tile bounds) and ``kernel_tie_resolutions`` the bands
resolved exactly.  The README's
"Columnar kernels" section documents these divergences.
"""

from repro.kernels.columnar import CatalogueColumns, ColumnarInstance
from repro.kernels.configs import sb_deltasky_vec_config, sb_vec_config
from repro.kernels.dynamic import MutableColumns, VectorizedChurnState
from repro.kernels.rounds import PointerRound

__all__ = [
    "CatalogueColumns",
    "ColumnarInstance",
    "MutableColumns",
    "PointerRound",
    "VectorizedChurnState",
    "sb_deltasky_vec_config",
    "sb_vec_config",
]
