"""Re-export of the typed exception hierarchy at the API surface.

The classes live in :mod:`repro.errors` (a dependency-free module any
layer may import without cycles); this alias makes them reachable
where users expect them: ``from repro.api.errors import ReproError``.
"""

from repro.errors import (
    FrozenInstanceError,
    InvalidProblemError,
    InvalidSolverOptionError,
    ReproError,
    SerdeError,
    SessionClosedError,
    UnknownCatalogueError,
    UnknownSolverError,
)

__all__ = [
    "FrozenInstanceError",
    "InvalidProblemError",
    "InvalidSolverOptionError",
    "ReproError",
    "SerdeError",
    "SessionClosedError",
    "UnknownCatalogueError",
    "UnknownSolverError",
]
