"""Instance containers for the assignment problem.

``ObjectSet`` holds the multidimensional objects ``O`` (larger values
are better in every attribute) and ``FunctionSet`` holds the linear
preference functions ``F`` (per-function weight vectors that sum to 1,
optional priorities γ and capacities, Sections 3 and 6 of the paper).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import FrozenInstanceError

Point = tuple[float, ...]


def _as_tuples(rows: Sequence[Sequence[float]], what: str) -> list[Point]:
    """Rows as float tuples; ``ValueError`` on a NaN or ±inf entry
    (scores, dominance and the tolerance bands assume finite values)."""
    out = [tuple(map(float, row)) for row in rows]
    if not all(map(math.isfinite, chain.from_iterable(out))):
        bad = next(row for row in out if not all(map(math.isfinite, row)))
        raise ValueError(f"{what} must be finite, got {bad}")
    return out


@dataclass
class ObjectSet:
    """The object collection ``O``.

    ``capacities[i]`` is the number of identical copies of object ``i``
    (Section 6.1); ``None`` means capacity 1 everywhere.
    """

    points: list[Point]
    capacities: list[int] | None = None

    def __post_init__(self) -> None:
        self.points = _as_tuples(self.points, "object coordinates")
        if self.points:
            dims = len(self.points[0])
            if any(len(p) != dims for p in self.points):
                raise ValueError("all object points must share one dimensionality")
        if self.capacities is not None:
            if len(self.capacities) != len(self.points):
                raise ValueError("capacities must align with points")
            if any(c < 1 for c in self.capacities):
                raise ValueError("object capacities must be >= 1")

    def __len__(self) -> int:
        return len(self.points)

    def freeze(self) -> "ObjectSet":
        """Make the catalogue immutable (idempotent; returns self).

        Called when the instance enters a fingerprint-keyed cache (the
        service layer memoizes the content hash on the instance, so a
        later mutation would silently reuse a stale cached index).
        ``points`` / ``capacities`` become tuples and rebinding either
        attribute raises :class:`~repro.errors.FrozenInstanceError`.
        """
        if not getattr(self, "_frozen", False):
            self.points = tuple(self.points)  # type: ignore[assignment]
            if self.capacities is not None:
                self.capacities = tuple(self.capacities)  # type: ignore[assignment]
            self._frozen = True
        return self

    @property
    def is_frozen(self) -> bool:
        return getattr(self, "_frozen", False)

    def __setattr__(self, name: str, value) -> None:
        if name in ("points", "capacities") and getattr(self, "_frozen", False):
            raise FrozenInstanceError(
                f"cannot rebind {name!r}: this ObjectSet was frozen when "
                "its fingerprint entered the index cache; build a new "
                "ObjectSet instead of mutating a submitted one"
            )
        super().__setattr__(name, value)

    @property
    def dims(self) -> int:
        if not self.points:
            raise ValueError("empty ObjectSet has no dimensionality")
        return len(self.points[0])

    def capacity(self, oid: int) -> int:
        return 1 if self.capacities is None else self.capacities[oid]

    @property
    def total_capacity(self) -> int:
        if self.capacities is None:
            return len(self.points)
        return sum(self.capacities)

    def items(self) -> list[tuple[int, Point]]:
        """``(object_id, point)`` pairs; ids are positional indices."""
        return list(enumerate(self.points))


@dataclass
class FunctionSet:
    """The preference-function collection ``F``.

    ``weights[i]`` are the normalized coefficients of function ``i``
    (they must sum to 1, Section 3).  ``gammas[i]`` is the priority of
    Section 6.2's Equation 2 (``None`` means γ=1 everywhere), and
    ``capacities`` follows Section 6.1.
    """

    weights: list[Point]
    gammas: list[float] | None = None
    capacities: list[int] | None = None
    _effective: list[Point] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = _as_tuples(self.weights, "weights")
        if self.weights:
            dims = len(self.weights[0])
            if any(len(w) != dims for w in self.weights):
                raise ValueError("all weight vectors must share one dimensionality")
        for w in self.weights:
            if any(x < 0 for x in w):
                raise ValueError(f"weights must be non-negative, got {w}")
            if abs(sum(w) - 1.0) > 1e-6:
                raise ValueError(f"weights must sum to 1, got {w} (sum {sum(w)})")
        if self.gammas is not None:
            if len(self.gammas) != len(self.weights):
                raise ValueError("gammas must align with weights")
            if not all(0 < g < math.inf for g in self.gammas):
                raise ValueError("priorities must be positive and finite")
        if self.capacities is not None:
            if len(self.capacities) != len(self.weights):
                raise ValueError("capacities must align with weights")
            if any(c < 1 for c in self.capacities):
                raise ValueError("function capacities must be >= 1")
        # Priority-scaled coefficients f.α'_i = f.α_i · f.γ (Section 6.2).
        if self.gammas is None:
            self._effective = self.weights
        else:
            self._effective = [
                tuple(a * g for a in w) for w, g in zip(self.weights, self.gammas)
            ]

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> int:
        if not self.weights:
            raise ValueError("empty FunctionSet has no dimensionality")
        return len(self.weights[0])

    def gamma(self, fid: int) -> float:
        return 1.0 if self.gammas is None else self.gammas[fid]

    @property
    def max_gamma(self) -> float:
        return 1.0 if self.gammas is None else max(self.gammas)

    def capacity(self, fid: int) -> int:
        return 1 if self.capacities is None else self.capacities[fid]

    @property
    def total_capacity(self) -> int:
        if self.capacities is None:
            return len(self.weights)
        return sum(self.capacities)

    def effective_weights(self, fid: int) -> Point:
        """γ-scaled coefficients (= plain weights when γ=1)."""
        return self._effective[fid]

    def all_effective_weights(self) -> list[Point]:
        return list(self._effective)

    def items(self) -> list[tuple[int, Point]]:
        """``(function_id, weights)`` pairs; ids are positional indices."""
        return list(enumerate(self.weights))
