"""Columnar numpy solve kernels — the vectorized twins of the
interpreted engine configs.

The interpreted solvers walk objects one at a time: per-object reverse
TA searches, R-tree skyline maintenance, per-pair Python bookkeeping.
This package rewrites the engine's inner loops over flat float64
arrays.  Catalogue-only state is built once per catalogue and held by
its cached :class:`~repro.core.index.ObjectIndex`
(:class:`~repro.kernels.columnar.CatalogueColumns`: the read-only
coordinate matrix, object capacities, ``max_abs_point`` and the initial
skyline mask with its reference dominators, built on the first columnar
solve over the index).  Cohort state is built once per solve
(:class:`~repro.kernels.columnar.ColumnarInstance`: the weight matrix
and function capacities).  So the ``skyline_initial`` phase reads near
0 after a catalogue's first columnar solve: it copies two masks.  The
kernels cover:

- batch Pareto filtering and incremental skyline-membership
  maintenance (:mod:`repro.kernels.pareto`,
  :class:`~repro.kernels.skyline.VectorizedSkylineMaintenance`);
- one matmul per round answering *both* mutual-best directions
  (fbest and obest) with exact canonical tie-resolution inside a
  rounding-error tolerance band
  (:class:`~repro.kernels.rounds.VectorizedMutualRound`);
- array capacity/alive vectors seeding the masks the kernels filter
  by (per-pair commit bookkeeping stays engine-owned — it is O(pairs),
  not O(|F|·|O|)).

**The oracle discipline.**  Every vectorized config is a *bit-identical
twin* of an interpreted config: same pairs in the same order with the
same float scores, same loop count.  The interpreted configs remain
the ground truth — ``tests/test_kernels.py`` verifies each twin
pair-for-pair (and the planner identity suite exercises the vectorized
configs through batch/session/server).  Exactness comes from the
MatrixView pattern generalized: numpy produces a *candidate band*
(everything within a term-magnitude-scaled tolerance of the
approximate maximum), and the canonical winner is resolved
inside the band with :func:`repro.scoring.score` and the canonical
tuple orders of :mod:`repro.ordering`.

**Instrumentation.**  ``loops`` and ``skyline_final_size`` are exact
(the round structure is the scalar one).  ``io_accesses`` is 0 by
construction — the kernels never touch the object R-tree — and peak
memory gauges the columnar arrays plus the round score matrix instead
of TA states and BBS heaps; both divergences are documented in the
README's "Columnar kernels" section.
"""

from repro.kernels.columnar import CatalogueColumns, ColumnarInstance
from repro.kernels.configs import (
    VECTORIZED_CONFIGS,
    sb_deltasky_vec_assign,
    sb_deltasky_vec_config,
    sb_vec_assign,
    sb_vec_config,
)
from repro.kernels.dynamic import MutableColumns, VectorizedChurnState
from repro.kernels.pareto import dominated_mask, pareto_mask
from repro.kernels.rounds import VectorizedMutualRound
from repro.kernels.skyline import MaskSkyline, VectorizedSkylineMaintenance

__all__ = [
    "CatalogueColumns",
    "ColumnarInstance",
    "MaskSkyline",
    "MutableColumns",
    "VECTORIZED_CONFIGS",
    "VectorizedChurnState",
    "VectorizedMutualRound",
    "VectorizedSkylineMaintenance",
    "dominated_mask",
    "pareto_mask",
    "sb_deltasky_vec_assign",
    "sb_deltasky_vec_config",
    "sb_vec_assign",
    "sb_vec_config",
]
