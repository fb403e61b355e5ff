"""Top-k search: the paper's query substrate.

- :mod:`repro.topk.sorted_lists` — the per-dimension descending
  coefficient lists indexing the function set ``F`` (Section 5.1),
  with lazy deletions and an optional disk-resident paged variant
  (Section 7.6).
- :mod:`repro.topk.knapsack` — the fractional-knapsack *tight*
  threshold ``Ttight`` (Section 5.1), generalized to priorities
  (``B = max γ``, Section 6.2).
- :mod:`repro.topk.reverse` — reverse top-1: the best function for a
  given object via TA with biased list probing, resumable state and
  the Ω-bounded candidate heap.
- :mod:`repro.topk.brs` — BRS [19]: incremental, resumable
  branch-and-bound ranked search over an R-tree, used by the Brute
  Force and Chain baselines.
"""

from repro.topk.brs import BRSSearch
from repro.topk.knapsack import tight_threshold
from repro.topk.reverse import ReverseBestSearch
from repro.topk.sorted_lists import CoefficientLists

__all__ = [
    "BRSSearch",
    "CoefficientLists",
    "ReverseBestSearch",
    "tight_threshold",
]
