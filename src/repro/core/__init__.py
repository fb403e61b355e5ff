"""The assignment algorithms — the paper's contribution and baselines.

Public entry points:

- :func:`solve` — one-call dispatcher over every named method
  (:data:`repro.core.registry.REGISTRY`: SB and its Figure 8
  ablations, their columnar twins, the two-skyline variant, SB-alt,
  Brute Force and Chain) or a custom
  :class:`repro.engine.EngineConfig`;
- :func:`repro.core.brute_force.brute_force_assign` — Section 4.1;
- :func:`repro.core.reference.greedy_assign` /
  :func:`repro.core.reference.gale_shapley_assign` — oracles;
- :func:`repro.core.validate.assert_stable` — stability checking;
- :func:`repro.core.index.build_object_index` — the object R-tree.

Every named method except Brute Force is one strategy configuration
of :class:`repro.engine.AssignmentEngine`, built by the factory its
registry spec names (:func:`repro.core.registry.engine_config`).
"""

from repro.core.brute_force import brute_force_assign
from repro.core.index import ObjectIndex, build_object_index
from repro.core.reference import gale_shapley_assign, greedy_assign
from repro.core.registry import REGISTRY
from repro.core.types import AssignedPair, AssignmentResult, Matching, RunStats
from repro.core.validate import assert_stable, assert_valid_matching, find_blocking_pair
from repro.data.instances import FunctionSet, ObjectSet
from repro.engine.engine import AssignmentEngine, EngineConfig
from repro.errors import InvalidSolverOptionError


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
    (see :mod:`repro.core.registry`; the run is bit-identical to
    invoking ``sb-vec`` directly) — or an
    :class:`~repro.engine.engine.EngineConfig` to run a custom
    strategy combination directly on the engine.  Keyword overrides
    are checked by :meth:`~repro.core.registry.SolverRegistry.resolve`.
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
    plan = REGISTRY.resolve(method, kwargs)
    spec = REGISTRY.get(plan.method)
    if not spec.engine_backed:
        return spec.config(functions, index, **plan.options_dict())
    return AssignmentEngine(spec.config(**plan.options_dict())).run(functions, index)


__all__ = [
    "AssignedPair",
    "AssignmentResult",
    "FunctionSet",
    "Matching",
    "ObjectIndex",
    "ObjectSet",
    "RunStats",
    "assert_stable",
    "assert_valid_matching",
    "brute_force_assign",
    "build_object_index",
    "find_blocking_pair",
    "gale_shapley_assign",
    "greedy_assign",
    "solve",
]
