"""The solver table: every named method, its options, its config.

The paper's methods are SB, its Figure 8 ablations (``sb-update``,
``sb-deltasky``), SB-alt (Section 7.6), the two-skyline variant
(Section 6.2) and the adapted Chain; ``sb-vec`` and ``sb-deltasky-vec``
are the columnar twins of :mod:`repro.kernels`.  Each is one named
configuration of the engine's round loop, so a :class:`SolverSpec`
holds just the method's name, the options it accepts (each with the
check its value must pass) and the factory that builds its
:class:`~repro.engine.engine.EngineConfig`.  ``brute-force``, the one
method not on the engine, carries
:func:`~repro.core.brute_force.brute_force_assign` instead.

:meth:`SolverRegistry.resolve` is the one place a ``(method, options)``
request is checked and turned into the :class:`Plan` that runs;
``repro.core.solve`` and :meth:`Problem.plan
<repro.api.problem.Problem.plan>` call it, and :func:`engine_config` is
the one builder of a named config.

``method="auto"`` (:data:`AUTO_METHOD`) is not a spec: it resolves by
one fixed rule to :data:`AUTO_PLAN`, ``sb-vec`` on every instance.
Timed per op on a warm index, ``sb-vec`` came within a few percent of
the fastest of ``chain``, ``sb-vec`` and ``sb-deltasky-vec`` on every
served shape, so ranking candidates per instance bought nothing
(README, "Adaptive planning").  The rule reads nothing of the
instance, so every process resolves every instance identically, and
an ``auto`` run is bit-identical to invoking ``sb-vec`` directly.
"""

# repro-lint: deterministic-module

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

from repro.core.brute_force import brute_force_assign
from repro.engine.configs import (
    chain_config,
    sb_alt_config,
    sb_config,
    two_skyline_config,
)
from repro.engine.engine import EngineConfig
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    SerdeError,
    UnknownSolverError,
)
from repro.kernels.configs import sb_deltasky_vec_config, sb_vec_config

#: The planner pseudo-method: accepted wherever a method name is,
#: resolved to :data:`AUTO_PLAN` before any engine runs.
AUTO_METHOD = "auto"


@dataclass(frozen=True)
class Plan:
    """The method a solve runs, and who chose it.

    A small, picklable, JSON-serializable value: the session attaches
    it to the :class:`~repro.api.solution.Solution` of an ``auto``
    solve, and the server ships it in the solve envelope and counts
    its picks in ``/metrics``.
    """

    #: What the caller asked for: ``"auto"`` or a concrete name.
    requested: str
    #: The resolved concrete method the engine actually runs.
    method: str
    #: Solver options of the resolved method (sorted items).
    options: tuple[tuple[str, Any], ...] = ()

    @property
    def auto(self) -> bool:
        """Did the rule (rather than the caller) pick the method?"""
        return self.requested == AUTO_METHOD

    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)

    def explain(self) -> str:
        """One line saying which method runs and why."""
        if self.auto:
            return (
                f"planner resolved method='auto' -> {self.method!r} by its "
                "fixed rule: every auto solve runs the columnar SB"
            )
        return (
            f"method {self.method!r} was picked explicitly; "
            "the planner was not consulted"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "requested": self.requested,
            "method": self.method,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> Plan:
        if not isinstance(payload, Mapping):
            raise SerdeError("plan payload must be a mapping")
        try:
            return cls(
                requested=payload["requested"],
                method=payload["method"],
                options=tuple(sorted(dict(payload.get("options") or {}).items())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerdeError(f"malformed plan payload: {exc}") from exc


#: What ``method="auto"`` resolves to, for every instance.
AUTO_PLAN = Plan(requested=AUTO_METHOD, method="sb-vec")


class OptionCheck(NamedTuple):
    """What one option's value must be: ``test`` decides, ``expects``
    says it in the error."""

    expects: str
    test: Callable[[Any], bool]

    def or_none(self) -> OptionCheck:
        return OptionCheck(
            f"{self.expects} or None", lambda v: v is None or self.test(v)
        )


def _int_at_least(low: int) -> OptionCheck:
    return OptionCheck(
        f"an int >= {low}",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low,
    )


_FLAG = OptionCheck("a bool", lambda v: isinstance(v, bool))
# NaN and the infinities fail the range test.
_FRACTION = OptionCheck(
    "a number in [0, 1]",
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1,
)
_MAINTENANCE = OptionCheck(
    "'update-skyline' or 'deltasky'",
    lambda v: isinstance(v, str) and v in ("update-skyline", "deltasky"),
)

#: ``sb_config``'s overrides; ``None`` keeps the variant's preset
#: (and disables the Ω bound for ``omega_fraction``).
_SB_OPTIONS = {
    "omega_fraction": _FRACTION.or_none(),
    "multi_pair": _FLAG.or_none(),
    "biased": _FLAG.or_none(),
    "resume": _FLAG.or_none(),
    "maintenance": _MAINTENANCE.or_none(),
    "paged_function_lists": _int_at_least(1).or_none(),
}


@dataclass(frozen=True)
class SolverSpec:
    """One named method: its options and its config factory."""

    name: str
    #: Each accepted keyword override and the check its value must pass.
    options: Mapping[str, OptionCheck] = field(repr=False)
    #: ``(**options) -> EngineConfig``; for ``brute-force``, which does
    #: not run on the engine, ``brute_force_assign`` itself.
    config: Callable[..., Any] = field(repr=False)

    @property
    def engine_backed(self) -> bool:
        return self.config is not brute_force_assign


SPECS: tuple[SolverSpec, ...] = (
    SolverSpec("sb", _SB_OPTIONS, partial(sb_config, "sb")),
    SolverSpec("sb-update", _SB_OPTIONS, partial(sb_config, "sb-update")),
    SolverSpec("sb-deltasky", _SB_OPTIONS, partial(sb_config, "sb-deltasky")),
    SolverSpec("sb-vec", {"multi_pair": _FLAG}, sb_vec_config),
    SolverSpec("sb-deltasky-vec", {"multi_pair": _FLAG}, sb_deltasky_vec_config),
    SolverSpec("sb-two-skylines", {"multi_pair": _FLAG}, two_skyline_config),
    SolverSpec(
        "sb-alt", {"page_size": _int_at_least(1), "multi_pair": _FLAG}, sb_alt_config
    ),
    SolverSpec(
        "brute-force", {"function_scan_pages": _int_at_least(0)}, brute_force_assign
    ),
    SolverSpec("chain", {"disk_function_tree": _FLAG}, chain_config),
)


class SolverRegistry:
    """Name → :class:`SolverSpec` lookup and the one request resolver."""

    def __init__(self, specs: tuple[SolverSpec, ...] = SPECS) -> None:
        self._specs: dict[str, SolverSpec] = {s.name: s for s in specs}

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def names(self) -> tuple[str, ...]:
        """Registered concrete method names (``auto`` excluded)."""
        return tuple(self._specs)

    def get(self, name: str) -> SolverSpec:
        spec = self._specs.get(name) if isinstance(name, str) else None
        if spec is None:
            raise UnknownSolverError(name, (*self._specs, AUTO_METHOD))
        return spec

    def resolve(self, method: str, options: Mapping[str, Any] | None = None) -> Plan:
        """The :class:`Plan` that runs for ``method`` with ``options``.

        Raises :class:`~repro.errors.UnknownSolverError` (a
        ``ValueError``) for an unregistered name,
        :class:`~repro.errors.InvalidSolverOptionError` (a
        ``TypeError``) for an option the method does not accept, and
        :class:`~repro.errors.InvalidProblemError` (a ``ValueError``)
        for a value its check rejects.  ``auto`` accepts no options
        and resolves to :data:`AUTO_PLAN`.
        """
        options = dict(options or {})
        if method == AUTO_METHOD:
            if options:
                raise InvalidSolverOptionError(
                    AUTO_METHOD,
                    options,
                    (),
                    message=(
                        "method='auto' accepts no solver options: it "
                        "always runs sb-vec with its defaults; pick a "
                        "concrete method to pass overrides"
                    ),
                )
            return AUTO_PLAN
        spec = self.get(method)
        unknown = options.keys() - spec.options.keys()
        if unknown:
            raise InvalidSolverOptionError(spec.name, unknown, spec.options)
        for name, value in options.items():
            check = spec.options[name]
            if not check.test(value):
                raise InvalidProblemError(
                    f"solver {spec.name!r} option {name!r} must be "
                    f"{check.expects}, got {value!r}"
                )
        return Plan(method, method, tuple(sorted(options.items())))


#: The process-wide registry every layer consults.
REGISTRY = SolverRegistry()


def engine_config(name: str, **overrides: Any) -> EngineConfig:
    """Build the named method's :class:`EngineConfig`, its overrides
    checked as :meth:`SolverRegistry.resolve` checks them."""
    engine_backed = {s.name: s for s in REGISTRY if s.engine_backed}
    spec = engine_backed.get(name)
    if spec is None:
        raise UnknownSolverError(name, engine_backed, kind="engine config")
    plan = REGISTRY.resolve(name, overrides)
    config: EngineConfig = spec.config(**plan.options_dict())
    return config


__all__ = [
    "AUTO_METHOD",
    "AUTO_PLAN",
    "REGISTRY",
    "SPECS",
    "OptionCheck",
    "Plan",
    "SolverRegistry",
    "SolverSpec",
    "engine_config",
]
