"""repro — reproduction of "A Fair Assignment Algorithm for Multiple
Preference Queries" (U, Mamoulis, Mouratidis; VLDB 2009).

Compute a fair (stable-marriage) assignment between a set of linear
preference functions and a set of multidimensional objects.

The stable, documented entry surface is :mod:`repro.api`::

    from repro.api import Problem, AssignmentSession

    problem = (
        Problem.builder()
        .add_objects([(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)])
        .add_functions([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
        .solver("sb")
        .build()
    )
    with AssignmentSession(problem) as session:
        solution = session.solve().verify()
        for pair in solution:
            print(f"user {pair.fid} -> object {pair.oid} ({pair.score:.2f})")

See README.md for the full architecture (engine strategy seams,
service layer, benchmarks reproducing the paper's figures); the
lower-level entry points (``repro.core.solve``, ``repro.engine``,
``repro.service.BatchSolver``) remain available for algorithm work.

The historical top-level helpers ``repro.solve`` and
``repro.build_object_index`` still work but emit a single
``DeprecationWarning`` each — new code should go through
``repro.api``.
"""

import warnings as _warnings

from repro.api import (
    AssignmentSession,
    Problem,
    ProblemBuilder,
    ReproError,
    Solution,
    SolutionDiff,
)
from repro.core import (
    AssignedPair,
    AssignmentResult,
    Matching,
    ObjectIndex,
    RunStats,
)
from repro.core import build_object_index as _build_object_index
from repro.core import solve as _solve
from repro.data.instances import FunctionSet, ObjectSet
from repro.engine import AssignmentEngine, EngineConfig, engine_config
from repro.service import BatchSolver, JobResult, SolveJob

__version__ = "1.9.0"

#: Deprecated top-level names that have already warned (each shim
#: warns exactly once per process).
_DEPRECATION_EMITTED: set[str] = set()


def _warn_deprecated(name: str, replacement: str) -> None:
    if name in _DEPRECATION_EMITTED:
        return
    _DEPRECATION_EMITTED.add(name)
    _warnings.warn(
        f"repro.{name} is deprecated; use {replacement} (see repro.api)",
        DeprecationWarning,
        stacklevel=3,
    )


def solve(*args, **kwargs):
    """Deprecated alias of :func:`repro.core.solve`.

    Prefer :class:`repro.api.AssignmentSession` (or ``repro.core.solve``
    for low-level algorithm work).
    """
    _warn_deprecated("solve", "repro.api.AssignmentSession.solve")
    return _solve(*args, **kwargs)


def build_object_index(*args, **kwargs):
    """Deprecated alias of :func:`repro.core.index.build_object_index`.

    Prefer :class:`repro.api.AssignmentSession`, which builds and
    caches the object index itself.
    """
    _warn_deprecated(
        "build_object_index", "repro.api.AssignmentSession (index is managed)"
    )
    return _build_object_index(*args, **kwargs)


__all__ = [
    "AssignedPair",
    "AssignmentEngine",
    "AssignmentResult",
    "AssignmentSession",
    "BatchSolver",
    "EngineConfig",
    "FunctionSet",
    "JobResult",
    "Matching",
    "ObjectIndex",
    "ObjectSet",
    "Problem",
    "ProblemBuilder",
    "ReproError",
    "RunStats",
    "Solution",
    "SolutionDiff",
    "SolveJob",
    "build_object_index",
    "engine_config",
    "solve",
    "__version__",
]
