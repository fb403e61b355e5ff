"""SkylineMaintenance strategy implementations.

The R-tree managers of :mod:`repro.skyline` already speak the
protocol (``compute_initial`` / ``remove``); this module adds the
engine-side factories plus the degenerate strategy used by Chain and
the columnar configs, which operate on the full alive object set and
need no skyline at all.
"""

from __future__ import annotations

from repro.engine.engine import EngineContext
from repro.engine.protocols import SkylineMaintenance
from repro.skyline.deltasky import DeltaSkyManager
from repro.skyline.maintenance import UpdateSkylineManager

#: Maintenance algorithms selectable by name (the Figure 8 axis).
MAINTENANCE_STRATEGIES = ("update-skyline", "deltasky")


def build_object_skyline(ctx: EngineContext, maintenance: str) -> SkylineMaintenance:
    """The paper's object-skyline managers over the run's R-tree."""
    if maintenance == "update-skyline":
        return UpdateSkylineManager(ctx.index.tree, ctx.mem)
    if maintenance == "deltasky":
        return DeltaSkyManager(ctx.index.tree, ctx.mem)
    raise ValueError(
        f"unknown maintenance {maintenance!r}; "
        f"expected one of {MAINTENANCE_STRATEGIES}"
    )


class NoSkyline:
    """Trivial maintenance for strategies that ignore the skyline.

    Chain answers best-partner queries with R-tree top-1 searches over
    the full alive sets, and the columnar configs with per-side best
    pointers over them (:class:`~repro.kernels.rounds.PointerRound`),
    so the engine's skyline state is a permanently truthy sentinel and
    removals are no-ops (the loop terminates via capacity exhaustion or
    pair-source exhaustion instead).
    """

    class _Sentinel:
        def __bool__(self) -> bool:
            return True

        def __len__(self) -> int:  # pragma: no cover - diagnostics only
            return 0

    def __init__(self) -> None:
        self._state = self._Sentinel()

    def compute_initial(self):
        return self._state

    def remove(self, oids):
        return self._state
