"""Skyline computation and maintenance.

The static ground truth, used by the tests as the Pareto oracle:

- :func:`repro.skyline.reference.naive_skyline` — O(n²) skyline.

Index-based computation and maintenance (the paper's substrate):

- :mod:`repro.skyline.bbs` — BBS over the R-tree [Papadias et al.],
  extended to record pruned entries in per-skyline-point ``plist``s;
- :mod:`repro.skyline.maintenance` — **UpdateSkyline** (paper Alg. 2):
  I/O-optimal deletion maintenance driven by the plists;
- :mod:`repro.skyline.deltasky` — DeltaSky [Wu et al.]: per-deletion
  constrained BBS, the maintenance baseline of Figure 8.

All three maintenance managers (UpdateSkyline, DeltaSky, in-memory
plists) share the ``compute_initial()`` / ``remove()`` surface and
plug into the engine's
:class:`repro.engine.protocols.SkylineMaintenance` strategy seam.
"""

from repro.skyline.bbs import bbs_skyline
from repro.skyline.deltasky import DeltaSkyManager
from repro.skyline.inmemory import InMemorySkylineManager
from repro.skyline.maintenance import UpdateSkylineManager
from repro.skyline.reference import naive_skyline

__all__ = [
    "DeltaSkyManager",
    "InMemorySkylineManager",
    "UpdateSkylineManager",
    "bbs_skyline",
    "naive_skyline",
]
