"""Instance containers for the assignment problem.

``ObjectSet`` holds the multidimensional objects ``O`` (larger values
are better in every attribute) and ``FunctionSet`` holds the linear
preference functions ``F`` (per-function weight vectors that sum to 1,
optional priorities γ and capacities, Sections 3 and 6 of the paper).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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

        Called by :func:`object_set_fingerprint`, which memoizes the
        content hash on the instance (a later mutation would silently
        reuse a stale cached index or problem address).
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

    @property
    def max_abs(self) -> float:
        """The largest absolute coordinate (0.0 when empty), memoized
        once the set is frozen, so every problem over one catalogue
        reads it in O(1)."""
        cached = self.__dict__.get("_max_abs")
        if cached is None:
            cached = max(map(abs, chain.from_iterable(self.points)), default=0.0)
            if self.is_frozen:
                self._max_abs = cached
        return cached

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


def object_set_fingerprint(objects: ObjectSet) -> str:
    """Content hash of an :class:`ObjectSet` — the catalogue's identity.

    It keys the session's index cache
    (:class:`~repro.core.index.ObjectIndexCache`) and is the catalogue part
    of every :class:`~repro.api.Problem` address, so two structurally
    identical object sets (same points, same capacities) fingerprint
    equally even when they are distinct Python objects.  It hashes the
    shape, the coordinates as little-endian ``<f8`` and the capacities
    as ``<i8``: the bytes, and so the hash, are the same on every host.

    The digest is memoized on the instance, so K solves or problem
    variants over one large catalogue hash it once, not K times — and
    the instance is **frozen** first (:meth:`ObjectSet.freeze`):
    without that, mutating ``objects.points`` afterwards would silently
    reuse a stale cached index for a catalogue that no longer matches.
    """
    objects.freeze()
    cached = getattr(objects, "_fingerprint", None)
    if cached is not None:
        return cached
    rows = objects.points
    shape = (len(rows), len(rows[0])) if rows else (0,)
    coords = np.fromiter(
        chain.from_iterable(rows), dtype="<f8", count=math.prod(shape)
    )
    h = hashlib.sha256()
    # Shape goes into the digest: without it, the raw bytes of e.g. a
    # 6x2 and a 4x3 catalogue collide and would share a cached index.
    h.update(repr(shape).encode())
    h.update(coords.tobytes())
    if objects.capacities is not None:
        h.update(b"caps")
        h.update(np.asarray(objects.capacities, dtype="<i8").tobytes())
    digest = h.hexdigest()
    objects._fingerprint = digest
    return digest


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
