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
session and index cache, benchmarks reproducing the paper's figures);
the lower-level entry points (``repro.core.solve``,
``repro.core.build_object_index``, ``repro.engine``) remain available
for algorithm work.
"""

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
from repro.core.registry import engine_config
from repro.data.instances import FunctionSet, ObjectSet
from repro.engine import AssignmentEngine, EngineConfig

__version__ = "6.0.0"

__all__ = [
    "AssignedPair",
    "AssignmentEngine",
    "AssignmentResult",
    "AssignmentSession",
    "EngineConfig",
    "FunctionSet",
    "Matching",
    "ObjectIndex",
    "ObjectSet",
    "Problem",
    "ProblemBuilder",
    "ReproError",
    "RunStats",
    "Solution",
    "SolutionDiff",
    "engine_config",
    "__version__",
]
