"""repro.planner — the workload-adaptive planning layer.

Three pieces, consulted by every layer above the engine:

- :mod:`repro.planner.registry` — the one solver registry: each named
  method as a :class:`~repro.planner.registry.SolverSpec` (solve entry
  point, ``EngineConfig`` factory, option schema, cost-model key,
  plannability); ``repro.core.solve``, ``Problem`` validation and the
  server all dispatch from :data:`~repro.planner.registry.REGISTRY`;
- :mod:`repro.planner.profile` — the cheap, deterministic instance
  profiler (cardinalities, dimensionality, capacity ratio, attribute
  correlation, weight skew — stride-sampled, no RNG);
- :mod:`repro.planner.cost` / :mod:`repro.planner.calibration` — one
  calibrated power-law cost model per config, fit from the bench
  harness (``benchmarks/bench_planner.py --calibrate``) into a
  checked-in table.

``method="auto"`` (:data:`AUTO_METHOD`) threads through the whole
stack — ``Problem`` → ``AssignmentSession`` → ``BatchSolver`` →
``repro-server`` — resolving exactly once per
solve key via :func:`plan_instance` and surfacing the decision as a
:class:`Plan` (``explain()``, the solve envelope, ``/metrics`` pick
counters).  The resolved run is bit-identical to invoking the chosen
config directly.
"""

from repro.planner.cost import CostModel, cost_model_for, fit_power_law
from repro.planner.plan import (
    CHURN_COST_KEYS,
    Plan,
    PlanCandidate,
    explicit_plan,
    plan_churn,
    plan_instance,
)
from repro.planner.profile import (
    FEATURE_NAMES,
    InstanceProfile,
    features,
    profile_instance,
)
from repro.planner.registry import (
    AUTO_METHOD,
    REGISTRY,
    SolverRegistry,
    SolverSpec,
)

__all__ = [
    "AUTO_METHOD",
    "CHURN_COST_KEYS",
    "CostModel",
    "FEATURE_NAMES",
    "InstanceProfile",
    "Plan",
    "PlanCandidate",
    "REGISTRY",
    "SolverRegistry",
    "SolverSpec",
    "cost_model_for",
    "explicit_plan",
    "features",
    "fit_power_law",
    "plan_churn",
    "plan_instance",
    "profile_instance",
]
