"""The assignment algorithms — the paper's contribution and baselines.

Public entry points:

- :func:`solve` — one-call dispatcher over every solver;
- :func:`repro.core.sb.sb_assign` — the paper's SB (Algorithms 1+3,
  with ablation toggles);
- :func:`repro.core.brute_force.brute_force_assign` — Section 4.1;
- :func:`repro.core.chain.chain_assign` — the adapted Chain of [25];
- :func:`repro.core.priority.sb_two_skyline_assign` — Section 6.2;
- :func:`repro.core.sb_alt.sb_alt_assign` — Section 7.6;
- :func:`repro.core.reference.greedy_assign` /
  :func:`repro.core.reference.gale_shapley_assign` — oracles;
- :func:`repro.core.validate.assert_stable` — stability checking;
- :func:`repro.core.index.build_object_index` — the object R-tree.

Every solver above (except the oracles and Brute Force) is a thin
strategy configuration over :class:`repro.engine.AssignmentEngine`;
``solve`` also accepts a custom :class:`repro.engine.EngineConfig`,
and ``method="auto"`` runs ``sb-vec`` (the planner's fixed rule, see
:mod:`repro.planner`).

Dispatch knowledge (name → solve callable → option schema → engine
config factory) lives in one place — the solver registry,
:data:`repro.planner.registry.REGISTRY`; the ``SOLVERS`` /
``SOLVER_OPTIONS`` tables below are derived views kept for
compatibility.
"""

from repro.core.brute_force import brute_force_assign
from repro.core.chain import chain_assign
from repro.core.index import ObjectIndex, build_object_index
from repro.core.priority import sb_two_skyline_assign
from repro.core.reference import gale_shapley_assign, greedy_assign
from repro.core.sb import sb_assign
from repro.core.sb_alt import sb_alt_assign
from repro.core.types import AssignedPair, AssignmentResult, Matching, RunStats
from repro.core.validate import assert_stable, assert_valid_matching, find_blocking_pair
from repro.data.instances import FunctionSet, ObjectSet
from repro.engine.engine import AssignmentEngine, EngineConfig
from repro.errors import InvalidSolverOptionError, UnknownSolverError
from repro.planner.plan import AUTO_PLAN
from repro.planner.registry import AUTO_METHOD, REGISTRY

#: Name → solve callable, derived from the registry (legacy view).
SOLVERS = {spec.name: spec.solve for spec in REGISTRY}

#: Keyword overrides accepted by each named solver, derived from the
#: registry (legacy view).  ``solve`` rejects anything outside these
#: sets up front with a typed error instead of letting a raw
#: ``TypeError`` escape from an inner solver callable.
SOLVER_OPTIONS: dict[str, frozenset[str]] = REGISTRY.option_schema()


def validate_solver_options(method: str, options: dict | None) -> None:
    """Check a solver name and its keyword overrides.

    Raises :class:`~repro.errors.UnknownSolverError` (a ``ValueError``)
    for an unregistered name and
    :class:`~repro.errors.InvalidSolverOptionError` (a ``TypeError``)
    naming the accepted options for an unknown override.  ``"auto"``
    is accepted (with no options): it resolves to ``sb-vec``.
    """
    REGISTRY.validate(method, options)


def solve(
    functions: FunctionSet,
    index: ObjectIndex,
    method: str | EngineConfig = "sb",
    **kwargs,
) -> AssignmentResult:
    """Run one of the stable-assignment algorithms.

    ``method`` is one of ``sb`` (the paper's algorithm), ``sb-update`` /
    ``sb-deltasky`` (Figure 8 ablations), ``sb-vec`` /
    ``sb-deltasky-vec`` (their columnar twins), ``sb-two-skylines``
    (prioritized variant), ``sb-alt`` (disk-resident functions),
    ``brute-force`` or ``chain`` — or ``"auto"``, which runs ``sb-vec``
    (see :mod:`repro.planner`; the run is bit-identical to invoking
    ``sb-vec`` directly) — or an
    :class:`~repro.engine.engine.EngineConfig` to run a custom
    strategy combination directly on the engine.
    """
    if isinstance(method, EngineConfig):
        if kwargs:
            raise InvalidSolverOptionError(
                method.name,
                kwargs,
                (),
                message=(
                    "keyword overrides are not accepted with an "
                    "EngineConfig; bake them into the config instead"
                ),
            )
        return AssignmentEngine(method).run(functions, index)
    REGISTRY.validate(method, kwargs)
    if method == AUTO_METHOD:
        spec = REGISTRY.get(AUTO_PLAN.method)
        return spec.solve(functions, index, **AUTO_PLAN.options_dict())
    return REGISTRY.get(method).solve(functions, index, **kwargs)


__all__ = [
    "AssignedPair",
    "AssignmentResult",
    "FunctionSet",
    "Matching",
    "ObjectIndex",
    "ObjectSet",
    "RunStats",
    "SOLVERS",
    "SOLVER_OPTIONS",
    "assert_stable",
    "assert_valid_matching",
    "brute_force_assign",
    "build_object_index",
    "chain_assign",
    "find_blocking_pair",
    "gale_shapley_assign",
    "greedy_assign",
    "sb_assign",
    "sb_alt_assign",
    "sb_two_skyline_assign",
    "solve",
    "validate_solver_options",
]
