"""repro.planner — the solver registry and the ``auto`` rule.

Two pieces, consulted by every layer above the engine:

- :mod:`repro.planner.registry` — the one solver registry: each named
  method as a :class:`~repro.planner.registry.SolverSpec` (solve entry
  point, ``EngineConfig`` factory, option schema); ``repro.core.solve``,
  ``Problem`` validation and the server all dispatch from
  :data:`~repro.planner.registry.REGISTRY`;
- :mod:`repro.planner.plan` — the :class:`Plan` artifact and
  :data:`AUTO_PLAN`, the fixed rule that resolves ``method="auto"`` to
  ``sb-vec`` on every instance.

``method="auto"`` (:data:`AUTO_METHOD`) threads through the whole
stack — ``Problem`` → ``AssignmentSession`` → ``BatchSolver`` →
``repro-server`` — and the decision surfaces as a :class:`Plan`
(``explain()``, the solve envelope, ``/metrics`` pick counters).  The
resolved run is bit-identical to invoking ``sb-vec`` directly.
"""

from repro.planner.plan import AUTO_PLAN, Plan, explicit_plan
from repro.planner.registry import (
    AUTO_METHOD,
    REGISTRY,
    SolverRegistry,
    SolverSpec,
)

__all__ = [
    "AUTO_METHOD",
    "AUTO_PLAN",
    "Plan",
    "REGISTRY",
    "SolverRegistry",
    "SolverSpec",
    "explicit_plan",
]
