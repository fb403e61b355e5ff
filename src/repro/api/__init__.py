"""repro.api — the stable, documented entry surface of the library.

Three value objects and one stateful facade::

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
        for fid, oid, score, units in (
            (p.fid, p.oid, p.score, p.count) for p in solution
        ):
            print(fid, "->", oid, score, units)

- :class:`Problem` — an immutable, validated assignment instance with
  a fluent builder and versioned JSON serde;
- :class:`AssignmentSession` — a long-lived handle owning the built
  object index (shared through its instance-hash index cache), with
  ``solve()``, and ``solve_many()`` / ``submit()`` on one thread pool,
  and ``apply(events)`` incremental re-solve under churn;
- :class:`Solution` — the solved assignment with O(1) partner lookups,
  ``verify()`` stability certification, ``diff()`` against a previous
  solution, and JSON serde;
- :mod:`repro.api.errors` — the typed exception hierarchy rooted at
  :class:`~repro.errors.ReproError`.

Everything else in the package (``repro.core``, ``repro.engine``,
``repro.kernels``, ...) is implementation that this facade wires
together; new integrations should depend on ``repro.api`` only.
"""

from repro.api.events import (
    Event,
    FunctionArrived,
    FunctionDeparted,
    ObjectArrived,
    ObjectDeparted,
)
from repro.api.problem import (
    Problem,
    ProblemBuilder,
    catalogue_from_dict,
    catalogue_to_dict,
)
from repro.api.serde import canonical_digest
from repro.api.session import AssignmentSession
from repro.api.solution import Solution, SolutionDiff
from repro.core.registry import AUTO_METHOD, Plan
from repro.errors import (
    FrozenInstanceError,
    InvalidProblemError,
    InvalidSolverOptionError,
    ReproError,
    SerdeError,
    ServerBusyError,
    ServerError,
    SessionClosedError,
    UnknownCatalogueError,
    UnknownSolverError,
)

__all__ = [
    "AUTO_METHOD",
    "AssignmentSession",
    "Event",
    "Plan",
    "FrozenInstanceError",
    "FunctionArrived",
    "FunctionDeparted",
    "InvalidProblemError",
    "InvalidSolverOptionError",
    "ObjectArrived",
    "ObjectDeparted",
    "Problem",
    "ProblemBuilder",
    "ReproError",
    "SerdeError",
    "ServerBusyError",
    "ServerError",
    "SessionClosedError",
    "Solution",
    "SolutionDiff",
    "UnknownCatalogueError",
    "UnknownSolverError",
    "canonical_digest",
    "catalogue_from_dict",
    "catalogue_to_dict",
]
