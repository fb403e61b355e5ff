"""The immutable :class:`Problem` value object and its fluent builder.

A ``Problem`` is everything needed to reproduce one assignment
instance: the object catalogue (points + capacities), the preference
cohort (weights + priorities + capacities), the solver selection
(named method + keyword options) and the index/storage settings.  It
validates on construction (:class:`~repro.errors.InvalidProblemError`
/ :class:`~repro.errors.UnknownSolverError`), is canonically
normalized (all-1 capacity and priority vectors collapse to ``None``),
and round-trips through versioned dict/JSON serde so instances can
cross a process boundary — the contract :mod:`repro.server` serves.

Two payload families cross that boundary.  A ``repro.problem/v2``
payload (:meth:`Problem.to_dict`, also read as v1) is self-contained:
it carries the catalogue.  A ``repro.problem/v3`` payload
(:meth:`Problem.to_reference_dict`) names the catalogue by its
fingerprint instead, so a catalogue sent once as a
``repro.catalogue/v1`` payload (:func:`catalogue_to_dict`) serves any
number of cohorts; it decodes against the catalogues a caller holds.
Both spellings of one problem have the same content addresses.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any

from pathlib import Path

from repro.api.serde import (
    CATALOGUE_SCHEMA,
    PROBLEM_SCHEMA,
    PROBLEM_SCHEMA_V3,
    PROBLEM_SCHEMAS,
    SCHEMA_KEY,
    canonical_digest,
    check_payload,
    from_json,
    to_canonical_json,
)
from repro.core.registry import REGISTRY, Plan
from repro.data.instances import FunctionSet, ObjectSet, Point, object_set_fingerprint
from repro.errors import InvalidProblemError, SerdeError, UnknownCatalogueError

_OPTION_TYPES = (bool, int, float, str, type(None))


def _tuple_or_none(values: Sequence[Any] | None) -> tuple | None:
    return None if values is None else tuple(values)


def _point_tuple(row: Sequence[float]) -> Point:
    return tuple(float(x) for x in row)


def _capacity(value: Any) -> int:
    """``value`` as an int capacity: integral floats pass; ``2.7``,
    NaN and ±inf raise ``ValueError``, non-numbers ``TypeError``."""
    if not isinstance(value, float):
        return operator.index(value)
    if not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _rows(values: Iterable[Any], what: str) -> list[Any]:
    try:
        return list(values)
    except TypeError as exc:
        raise InvalidProblemError(f"malformed {what}: {exc}") from exc


def _aligned(
    values: Iterable[Any] | None,
    n: int,
    what: str,
    side: str,
    convert: Callable[[Any], Any],
    one: Any,
) -> list | None:
    """``values`` converted and checked to align with ``n`` rows;
    ``None`` when absent or all equal to ``one`` (the canonical form)."""
    if values is None:
        return None
    try:
        out = [convert(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(f"malformed {what}: {exc}") from exc
    if len(out) != n:
        raise InvalidProblemError(
            f"{what} must align with the {side}s ({len(out)} != {n})"
        )
    return None if all(v == one for v in out) else out


#: The largest accepted ``max|coordinate| × max priority`` of an
#: instance.  Weights are non-negative and sum to 1, so every score,
#: partial sum, tile bound and band width stays within a small multiple
#: of this product (a band's ``scale·sum|q|`` within d times it), far
#: below the float range (about 1.8e308).
MAX_SCORE_MAGNITUDE = 1e300


def check_score_magnitude(max_abs: float, max_priority: float) -> None:
    """Raise :class:`~repro.errors.InvalidProblemError` when an instance
    whose largest absolute coordinate is ``max_abs`` and whose largest
    priority is ``max_priority`` could score beyond
    :data:`MAX_SCORE_MAGNITUDE`."""
    if max_abs * max_priority > MAX_SCORE_MAGNITUDE:
        raise InvalidProblemError(
            f"max |coordinate| {max_abs!r} x max priority {max_priority!r} "
            f"exceeds {MAX_SCORE_MAGNITUDE!r}: scores would leave the float range"
        )


def validated_objects(
    objects: Iterable[Sequence[float]], capacities: Iterable[Any] | None
) -> ObjectSet:
    """A catalogue's frozen :class:`ObjectSet`, or
    :class:`~repro.errors.InvalidProblemError`: at least one point, one
    dimensionality, finite coordinates, integral capacities >= 1
    aligned with the points (all-1 capacities normalize to ``None``)."""
    rows = _rows(objects, "object points")
    if not rows:
        raise InvalidProblemError("a Problem needs at least one object")
    caps = _aligned(capacities, len(rows), "object capacities", "object", _capacity, 1)
    try:
        return ObjectSet(rows, capacities=caps).freeze()
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(str(exc)) from exc


def validated_functions(
    functions: Iterable[Sequence[float]],
    priorities: Iterable[Any] | None,
    capacities: Iterable[Any] | None,
) -> FunctionSet:
    """A cohort's :class:`FunctionSet`, or
    :class:`~repro.errors.InvalidProblemError`: at least one function,
    one dimensionality, finite non-negative weights summing to 1,
    finite positive priorities and integral capacities >= 1, both
    aligned with the weights (all-1 vectors normalize to ``None``)."""
    rows = _rows(functions, "function weights")
    if not rows:
        raise InvalidProblemError("a Problem needs at least one function")
    gammas = _aligned(priorities, len(rows), "priorities", "function", float, 1.0)
    caps = _aligned(
        capacities, len(rows), "function capacities", "function", _capacity, 1
    )
    try:
        return FunctionSet(rows, gammas=gammas, capacities=caps)
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(str(exc)) from exc


def catalogue_to_dict(objects: ObjectSet) -> dict:
    """The ``repro.catalogue/v1`` payload of a catalogue, the body of
    ``POST /v1/catalogues``."""
    return {SCHEMA_KEY: CATALOGUE_SCHEMA, **_catalogue_section(objects)}


def catalogue_from_dict(payload: Any) -> ObjectSet:
    """A ``repro.catalogue/v1`` payload as a frozen :class:`ObjectSet`,
    checked exactly as a problem's catalogue is (:func:`validated_objects`):
    :class:`~repro.errors.SerdeError` or
    :class:`~repro.errors.InvalidProblemError` when it is not one."""
    check_payload(
        payload, CATALOGUE_SCHEMA, required={"points"}, optional={"capacities"}
    )
    return validated_objects(payload["points"], payload.get("capacities"))


def is_reference_payload(payload: Any) -> bool:
    """Whether ``payload`` is tagged ``repro.problem/v3``: a problem
    that names its catalogue by fingerprint instead of carrying it."""
    return isinstance(payload, Mapping) and payload.get(SCHEMA_KEY) == PROBLEM_SCHEMA_V3


def _catalogue_section(objects: ObjectSet) -> dict:
    return {
        "points": [list(p) for p in objects.points],
        "capacities": (
            list(objects.capacities) if objects.capacities is not None else None
        ),
    }


def _validated_options(method: str, options: Mapping[str, Any]) -> Mapping[str, Any]:
    items = dict(options)
    for name, value in items.items():
        if (
            not isinstance(name, str)
            or not isinstance(value, _OPTION_TYPES)
            or (isinstance(value, float) and not math.isfinite(value))
        ):
            raise InvalidProblemError(
                f"solver option {name!r}={value!r} is not a finite JSON scalar"
            )
    # Raises UnknownSolverError / InvalidSolverOptionError /
    # InvalidProblemError.
    REGISTRY.resolve(method, items)
    return MappingProxyType(dict(sorted(items.items())))


@dataclass(frozen=True)
class Problem:
    """One immutable assignment instance plus its solver selection.

    Construct directly, via :meth:`builder`, or via :meth:`from_sets`;
    derive variants with :meth:`with_method` / :meth:`with_functions` /
    :meth:`with_objects` (the instance itself never mutates).
    """

    objects: tuple[Point, ...]
    functions: tuple[Point, ...]
    object_capacities: tuple[int, ...] | None = None
    function_capacities: tuple[int, ...] | None = None
    priorities: tuple[float, ...] | None = None
    method: str = "sb"
    options: Mapping[str, Any] = field(default_factory=dict)
    page_size: int = 4096
    memory_index: bool | None = None
    buffer_fraction: float = 0.02

    def __post_init__(self) -> None:
        self._check_index_settings()
        self._install(
            validated_objects(self.objects, self.object_capacities),
            validated_functions(
                self.functions, self.priorities, self.function_capacities
            ),
            self.method,
            _validated_options(self.method, self.options),
        )

    def _check_index_settings(self) -> None:
        if not isinstance(self.page_size, int) or self.page_size < 64:
            raise InvalidProblemError(
                f"page_size must be an int >= 64, got {self.page_size!r}"
            )
        if not 0.0 < float(self.buffer_fraction) <= 1.0:
            raise InvalidProblemError(
                f"buffer_fraction must be in (0, 1], got {self.buffer_fraction!r}"
            )
        object.__setattr__(self, "buffer_fraction", float(self.buffer_fraction))

    def _install(
        self,
        oset: ObjectSet,
        fset: FunctionSet,
        method: str,
        options: Mapping[str, Any],
    ) -> None:
        """Set every instance and solver field from validated parts;
        the value fields are the containers' own normalized data."""
        if oset.dims != fset.dims:
            raise InvalidProblemError(
                f"objects are {oset.dims}-dimensional but functions are "
                f"{fset.dims}-dimensional"
            )
        check_score_magnitude(oset.max_abs, fset.max_gamma)
        set_ = object.__setattr__
        set_(self, "objects", oset.points)
        set_(self, "object_capacities", oset.capacities)
        set_(self, "functions", tuple(fset.weights))
        set_(self, "priorities", _tuple_or_none(fset.gammas))
        set_(self, "function_capacities", _tuple_or_none(fset.capacities))
        set_(self, "method", method)
        set_(self, "options", options)
        self.__dict__["object_set"] = oset
        self.__dict__["function_set"] = fset

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the
        # MappingProxyType options field; hash its canonical item form.
        return hash(
            (
                self.objects,
                self.functions,
                self.object_capacities,
                self.function_capacities,
                self.priorities,
                self.method,
                tuple(self.options.items()),
                self.page_size,
                self.memory_index,
                self.buffer_fraction,
            )
        )

    # -- instance views ------------------------------------------------

    @cached_property
    def object_set(self) -> ObjectSet:
        """The validated (frozen) :class:`ObjectSet` view."""
        raise AssertionError("populated in __post_init__")

    @cached_property
    def function_set(self) -> FunctionSet:
        """The validated :class:`FunctionSet` view."""
        raise AssertionError("populated in __post_init__")

    @property
    def dims(self) -> int:
        return len(self.objects[0])

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    # -- construction --------------------------------------------------

    @staticmethod
    def builder() -> "ProblemBuilder":
        return ProblemBuilder()

    @classmethod
    def from_sets(
        cls,
        objects: ObjectSet,
        functions: FunctionSet,
        method: str = "sb",
        options: Mapping[str, Any] | None = None,
        **settings: Any,
    ) -> "Problem":
        """Build a ``Problem`` from existing instance containers."""
        return cls(
            objects=tuple(objects.points),
            functions=tuple(functions.weights),
            object_capacities=(
                tuple(objects.capacities) if objects.capacities is not None else None
            ),
            function_capacities=(
                tuple(functions.capacities)
                if functions.capacities is not None
                else None
            ),
            priorities=(
                tuple(functions.gammas) if functions.gammas is not None else None
            ),
            method=method,
            options=dict(options or {}),
            **settings,
        )

    # -- derivation ----------------------------------------------------

    def _derive(
        self,
        objects: ObjectSet | None = None,
        functions: FunctionSet | None = None,
        method: str | None = None,
        options: Mapping[str, Any] | None = None,
    ) -> "Problem":
        """A copy with the given validated parts replaced.

        Callers validate only the side they change; every other side
        keeps this problem's values and containers, so M variants of
        one catalogue share its point tuple and frozen ``ObjectSet``
        (whose memoized fingerprint keys the index cache and addresses
        every variant: hashed once, not M times).  The problem's own
        memos (digests, plan) are not carried over.
        """
        derived = object.__new__(type(self))
        for name in ("page_size", "memory_index", "buffer_fraction"):
            object.__setattr__(derived, name, getattr(self, name))
        derived._install(
            self.object_set if objects is None else objects,
            self.function_set if functions is None else functions,
            self.method if method is None else method,
            self.options if options is None else options,
        )
        return derived

    def with_method(self, method: str, **options: Any) -> "Problem":
        """A copy solved by a different method (options replaced)."""
        return self._derive(method=method, options=_validated_options(method, options))

    def with_options(self, **options: Any) -> "Problem":
        """A copy with updated solver options (merged over current)."""
        merged = dict(self.options)
        merged.update(options)
        return self._derive(options=_validated_options(self.method, merged))

    def with_functions(
        self,
        functions: Sequence[Sequence[float]],
        priorities: Sequence[float] | None = None,
        capacities: Sequence[int] | None = None,
    ) -> "Problem":
        """A new cohort over the same catalogue (index cache reuse)."""
        return self._derive(
            functions=validated_functions(functions, priorities, capacities)
        )

    def with_objects(
        self,
        objects: Sequence[Sequence[float]],
        capacities: Sequence[int] | None = None,
    ) -> "Problem":
        """The same cohort over a different catalogue."""
        return self._derive(objects=validated_objects(objects, capacities))

    # -- serde ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-compatible payload (``repro.problem/v2``),
        self-contained: it carries the catalogue."""
        return {
            SCHEMA_KEY: PROBLEM_SCHEMA,
            "objects": _catalogue_section(self.object_set),
            **self._small_sections(),
        }

    def to_reference_dict(self) -> dict:
        """The ``repro.problem/v3`` payload: the :meth:`to_dict`
        sections with the catalogue named by its fingerprint, O(cohort)
        once the catalogue has been hashed.  A reader decodes it against
        the catalogues it holds (see :meth:`from_dict`)."""
        return {
            SCHEMA_KEY: PROBLEM_SCHEMA_V3,
            "catalogue": object_set_fingerprint(self.object_set),
            **self._small_sections(),
        }

    def _small_sections(self) -> dict:
        """The payload sections after the catalogue — cohort, solver
        and index — each O(cohort) to build."""
        return {
            "functions": {
                "weights": [list(w) for w in self.functions],
                "priorities": (
                    list(self.priorities) if self.priorities is not None else None
                ),
                "capacities": (
                    list(self.function_capacities)
                    if self.function_capacities is not None
                    else None
                ),
            },
            "solver": {"method": self.method, "options": dict(self.options)},
            "index": {
                "page_size": self.page_size,
                "memory": self.memory_index,
                "buffer_fraction": self.buffer_fraction,
            },
        }

    @classmethod
    def from_dict(
        cls, payload: Mapping, catalogues: Mapping[str, ObjectSet] | None = None
    ) -> "Problem":
        """Decode a v1, v2 or v3 problem payload.

        A v3 payload decodes only against ``catalogues``, which maps
        fingerprints to frozen catalogues the caller holds (validated
        when they arrived).  The problem is built on the held
        ``ObjectSet`` itself, with no copy and no second catalogue
        validation, so every cohort over one catalogue shares it and its
        memoized fingerprint.  Without ``catalogues`` a v3 payload raises
        :class:`~repro.errors.SerdeError`; a fingerprint ``catalogues``
        lacks raises :class:`~repro.errors.UnknownCatalogueError`.
        """
        by_reference = is_reference_payload(payload)
        catalogue_field = "catalogue" if by_reference else "objects"
        check_payload(
            payload,
            PROBLEM_SCHEMA_V3 if by_reference else PROBLEM_SCHEMAS,
            required={catalogue_field, "functions", "solver"},
            optional={"index"},
        )
        functions = payload["functions"]
        solver = payload["solver"]
        index = payload.get("index") or {}
        sections: list[tuple[Any, str, set[str], set[str]]] = [
            (functions, "functions", {"weights"}, {"priorities", "capacities"}),
            (solver, "solver", {"method"}, {"options"}),
            (index, "index", set(), {"page_size", "memory", "buffer_fraction"}),
        ]
        if not by_reference:
            objects = payload["objects"]
            sections.insert(0, (objects, "objects", {"points"}, {"capacities"}))
        for section, name, required_keys, optional_keys in sections:
            if not isinstance(section, Mapping):
                raise SerdeError(f"{name!r} section must be a mapping")
            unknown = set(section) - required_keys - optional_keys
            if unknown:
                raise SerdeError(
                    f"{name!r} section has unknown field(s) {sorted(unknown)}"
                )
            missing = required_keys - set(section)
            if missing:
                raise SerdeError(f"{name!r} section missing field(s) {sorted(missing)}")
        problem = object.__new__(cls)
        for name, value in (
            ("page_size", index.get("page_size", 4096)),
            ("memory_index", index.get("memory")),
            ("buffer_fraction", index.get("buffer_fraction", 0.02)),
        ):
            object.__setattr__(problem, name, value)
        problem._check_index_settings()
        if by_reference:
            oset = _held_catalogue(payload["catalogue"], catalogues)
        else:
            oset = validated_objects(objects["points"], objects.get("capacities"))
        method = solver["method"]
        problem._install(
            oset,
            validated_functions(
                functions["weights"],
                functions.get("priorities"),
                functions.get("capacities"),
            ),
            method,
            _validated_options(method, dict(solver.get("options") or {})),
        )
        return problem

    def to_json(self) -> str:
        return to_canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str | bytes) -> "Problem":
        return cls.from_dict(from_json(text))

    def to_file(self, path: str | Path) -> Path:
        """Write the canonical JSON payload to ``path``; returns it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_file(cls, path: str | Path) -> "Problem":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SerdeError(f"cannot read problem file {path!s}: {exc}") from exc
        return cls.from_json(text)

    # -- content addressing --------------------------------------------

    def digest(self) -> str:
        """Stable content address of the whole problem (catalogue,
        cohort, solver selection, index settings) — the registration
        identity at a service boundary."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = self.__dict__["_digest"] = self._address(solver=True)
        return cached

    def instance_digest(self) -> str:
        """Content address of the *instance* alone: the solver section
        is excluded, so ``p.with_method(...)`` variants share it (and
        thus share index/result cache locality downstream)."""
        cached = self.__dict__.get("_instance_digest")
        if cached is None:
            cached = self.__dict__["_instance_digest"] = self._address(solver=False)
        return cached

    def _address(self, solver: bool) -> str:
        """SHA-256 of the canonical small sections, with the catalogue
        section replaced by its binary :func:`object_set_fingerprint`
        (memoized on the shared frozen ``ObjectSet``): O(cohort) once
        the catalogue has been hashed."""
        payload = self._small_sections()
        if not solver:
            del payload["solver"]
        payload["objects"] = object_set_fingerprint(self.object_set)
        return canonical_digest(payload)

    # -- planning ------------------------------------------------------

    def plan(self) -> Plan:
        """The planner's decision for this problem (memoized).

        For ``method="auto"`` this is
        :data:`~repro.core.registry.AUTO_PLAN` (``sb-vec``, whatever
        the instance); for an explicit method it is the trivial plan
        (``explain()`` works either way).
        """
        cached = self.__dict__.get("_plan")
        if cached is None:
            cached = self.__dict__["_plan"] = REGISTRY.resolve(
                self.method, self.options
            )
        return cached

    @property
    def resolved_method(self) -> str:
        """The concrete method a solve will run: ``method`` itself, or
        ``sb-vec`` when ``method="auto"``."""
        return self.plan().method

    def explain(self) -> str:
        """One line saying which method runs and why (:meth:`plan`)."""
        return self.plan().explain()

    def solve_key(self) -> tuple[str, str, str]:
        """``(instance_digest, resolved method, canonical options
        JSON)`` — the result-cache identity used by
        :mod:`repro.server`: two problems with this key equal produce
        bit-identical solutions.  The *resolved* method (see
        :attr:`resolved_method`) keys the cache, so ``method="auto"``
        shares cache entries with an explicit pick of the same config
        — a planner-routed solve and a hand-routed one are the same
        computation."""
        plan = self.plan()
        return (
            self.instance_digest(),
            plan.method,
            to_canonical_json(plan.options_dict()),
        )


def _held_catalogue(
    reference: Any, catalogues: Mapping[str, ObjectSet] | None
) -> ObjectSet:
    if not isinstance(reference, str):
        raise SerdeError("'catalogue' must be a fingerprint string")
    if catalogues is None:
        raise SerdeError(
            f"a {PROBLEM_SCHEMA_V3!r} payload names its catalogue by "
            "fingerprint; decoding it needs the catalogues it may name"
        )
    objects = catalogues.get(reference)
    if objects is None:
        raise UnknownCatalogueError(reference)
    return objects


class ProblemBuilder:
    """Fluent, mutable accumulator for a :class:`Problem`.

    Every method returns ``self``; :meth:`build` validates and freezes
    the accumulated state into an immutable ``Problem``::

        problem = (
            Problem.builder()
            .add_object((0.5, 0.6), capacity=2)
            .add_function((0.8, 0.2), priority=2.0)
            .solver("sb", omega_fraction=0.05)
            .build()
        )
    """

    def __init__(self) -> None:
        self._objects: list[Point] = []
        self._object_caps: list[int] = []
        self._functions: list[Point] = []
        self._function_caps: list[int] = []
        self._priorities: list[float] = []
        self._method = "sb"
        self._options: dict[str, Any] = {}
        self._page_size = 4096
        self._memory_index: bool | None = None
        self._buffer_fraction = 0.02

    def add_object(self, point: Sequence[float], capacity: int = 1) -> "ProblemBuilder":
        self._objects.append(_point_tuple(point))
        self._object_caps.append(capacity)
        return self

    def add_objects(
        self,
        points: Sequence[Sequence[float]],
        capacities: Sequence[int] | None = None,
    ) -> "ProblemBuilder":
        if capacities is not None and len(capacities) != len(points):
            raise InvalidProblemError("capacities must align with points")
        for i, point in enumerate(points):
            self.add_object(point, 1 if capacities is None else capacities[i])
        return self

    def add_function(
        self,
        weights: Sequence[float],
        capacity: int = 1,
        priority: float = 1.0,
    ) -> "ProblemBuilder":
        self._functions.append(_point_tuple(weights))
        self._function_caps.append(capacity)
        self._priorities.append(float(priority))
        return self

    def add_functions(
        self,
        weights: Sequence[Sequence[float]],
        priorities: Sequence[float] | None = None,
        capacities: Sequence[int] | None = None,
    ) -> "ProblemBuilder":
        for seq, what in ((priorities, "priorities"), (capacities, "capacities")):
            if seq is not None and len(seq) != len(weights):
                raise InvalidProblemError(f"{what} must align with weights")
        for i, w in enumerate(weights):
            self.add_function(
                w,
                capacity=1 if capacities is None else capacities[i],
                priority=1.0 if priorities is None else priorities[i],
            )
        return self

    def solver(self, method: str, **options: Any) -> "ProblemBuilder":
        """Select the solver; keyword arguments become its options."""
        self._method = method
        self._options = dict(options)
        return self

    def options(self, **options: Any) -> "ProblemBuilder":
        self._options.update(options)
        return self

    def page_size(self, page_size: int) -> "ProblemBuilder":
        self._page_size = int(page_size)
        return self

    def memory_index(self, memory: bool | None) -> "ProblemBuilder":
        self._memory_index = memory
        return self

    def buffer_fraction(self, fraction: float) -> "ProblemBuilder":
        self._buffer_fraction = float(fraction)
        return self

    def build(self) -> Problem:
        return Problem(
            objects=tuple(self._objects),
            functions=tuple(self._functions),
            object_capacities=tuple(self._object_caps) or None,
            function_capacities=tuple(self._function_caps) or None,
            priorities=tuple(self._priorities) or None,
            method=self._method,
            options=dict(self._options),
            page_size=self._page_size,
            memory_index=self._memory_index,
            buffer_fraction=self._buffer_fraction,
        )


__all__ = [
    "MAX_SCORE_MAGNITUDE",
    "Problem",
    "ProblemBuilder",
    "catalogue_from_dict",
    "catalogue_to_dict",
    "is_reference_payload",
]
