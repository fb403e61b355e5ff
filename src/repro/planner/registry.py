"""The solver registry — one table from which every layer dispatches.

Before this module existed, method-name knowledge was smeared across
three places: ``repro.core.solve`` owned a name → callable dict plus a
separate name → option-schema dict, ``repro.engine.configs`` owned the
name → :class:`~repro.engine.engine.EngineConfig` factories, and the
API layer re-validated names against the core dicts.  Adding a solver
meant editing all of them in lockstep.

Now a :class:`SolverSpec` carries everything known about one named
method — the solve entry point, the engine-config factory and the
option schema — and :data:`REGISTRY` is the single table that
``repro.core.solve``, :class:`~repro.api.problem.Problem` validation,
the planner and the server all consult.

The solve / config callables import their implementations lazily so
this module stays import-light: ``repro.core.__init__`` derives its
public ``SOLVERS`` / ``SOLVER_OPTIONS`` tables from the registry, and
a module-level import of the solver functions here would be circular.

``method="auto"`` is *not* a spec: it is the planner pseudo-method
(:data:`AUTO_METHOD`) that :meth:`SolverRegistry.validate` accepts and
:data:`repro.planner.plan.AUTO_PLAN` resolves to ``sb-vec``.  Every
other spec stays registered: ``chain`` and the interpreted SB
variants reproduce the paper's figures and serve as identity oracles.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import InvalidSolverOptionError, UnknownSolverError

if TYPE_CHECKING:
    from repro.core.types import AssignmentResult
    from repro.engine.engine import EngineConfig

#: The planner pseudo-method: accepted wherever a method name is,
#: resolved to a concrete registered config before any engine runs.
AUTO_METHOD = "auto"

_SB_OPTIONS = frozenset(
    {
        "omega_fraction",
        "multi_pair",
        "biased",
        "resume",
        "maintenance",
        "paged_function_lists",
    }
)


# -- lazy solve entry points -------------------------------------------------
# Each closure imports its implementation on first call; see the module
# docstring for why these are not plain module-level imports.


def _solve_sb(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.sb import sb_assign

    return sb_assign(functions, index, **kw)


def _solve_sb_update(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.sb import sb_assign

    return sb_assign(functions, index, variant="sb-update", **kw)


def _solve_sb_deltasky(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.sb import sb_assign

    return sb_assign(functions, index, variant="sb-deltasky", **kw)


def _solve_sb_vec(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.kernels.configs import sb_vec_assign

    return sb_vec_assign(functions, index, **kw)


def _solve_sb_deltasky_vec(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.kernels.configs import sb_deltasky_vec_assign

    return sb_deltasky_vec_assign(functions, index, **kw)


def _solve_two_skylines(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.priority import sb_two_skyline_assign

    return sb_two_skyline_assign(functions, index, **kw)


def _solve_sb_alt(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.sb_alt import sb_alt_assign

    return sb_alt_assign(functions, index, **kw)


def _solve_brute_force(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.brute_force import brute_force_assign

    return brute_force_assign(functions, index, **kw)


def _solve_chain(functions: Any, index: Any, **kw: Any) -> AssignmentResult:
    from repro.core.chain import chain_assign

    return chain_assign(functions, index, **kw)


def _config_sb(**kw: Any) -> EngineConfig:
    from repro.engine.configs import sb_config

    return sb_config("sb", **kw)


def _config_sb_update(**kw: Any) -> EngineConfig:
    from repro.engine.configs import sb_config

    return sb_config("sb-update", **kw)


def _config_sb_deltasky(**kw: Any) -> EngineConfig:
    from repro.engine.configs import sb_config

    return sb_config("sb-deltasky", **kw)


def _config_sb_vec(**kw: Any) -> EngineConfig:
    from repro.kernels.configs import sb_vec_config

    return sb_vec_config(**kw)


def _config_sb_deltasky_vec(**kw: Any) -> EngineConfig:
    from repro.kernels.configs import sb_deltasky_vec_config

    return sb_deltasky_vec_config(**kw)


def _config_two_skylines(**kw: Any) -> EngineConfig:
    from repro.engine.configs import two_skyline_config

    return two_skyline_config(**kw)


def _config_sb_alt(**kw: Any) -> EngineConfig:
    from repro.engine.configs import sb_alt_config

    return sb_alt_config(**kw)


def _config_chain(**kw: Any) -> EngineConfig:
    from repro.engine.configs import chain_config

    return chain_config(**kw)


@dataclass(frozen=True)
class SolverSpec:
    """Everything the stack knows about one named solver."""

    name: str
    #: One-line description (README registry table, ``explain()``).
    summary: str
    #: Keyword overrides the solver accepts; anything else is rejected
    #: up front with a typed error.
    options: frozenset[str]
    #: ``(functions, index, **options) -> AssignmentResult``.
    solve: Callable[..., Any] = field(repr=False)
    #: ``(**options) -> EngineConfig``; ``None`` for the one solver
    #: (brute-force) that does not run on the unified engine.
    config_factory: Callable[..., Any] | None = field(repr=False)

    @property
    def engine_backed(self) -> bool:
        return self.config_factory is not None

    def engine_config(self, **overrides: Any) -> EngineConfig:
        """Build this solver's :class:`EngineConfig` (with overrides)."""
        if self.config_factory is None:
            raise UnknownSolverError(
                self.name,
                [s.name for s in SPECS if s.engine_backed],
                kind="engine config",
            )
        return self.config_factory(**overrides)

    def validate_options(self, options: Mapping[str, Any] | None) -> None:
        unknown = set(options or ()) - self.options
        if unknown:
            raise InvalidSolverOptionError(self.name, unknown, self.options)


SPECS: tuple[SolverSpec, ...] = (
    SolverSpec(
        name="sb",
        summary="the paper's SB: resumable biased Ω-bounded TA, multi-pair",
        options=_SB_OPTIONS | {"variant"},
        solve=_solve_sb,
        config_factory=_config_sb,
    ),
    SolverSpec(
        name="sb-update",
        summary="Figure 8 ablation: fresh round-robin TA, single-pair",
        options=_SB_OPTIONS,
        solve=_solve_sb_update,
        config_factory=_config_sb_update,
    ),
    SolverSpec(
        name="sb-deltasky",
        summary="Figure 8 ablation: DeltaSky maintenance",
        options=_SB_OPTIONS,
        solve=_solve_sb_deltasky,
        config_factory=_config_sb_deltasky,
    ),
    SolverSpec(
        name="sb-vec",
        summary=(
            "columnar twin of sb: pointer rounds, runner-up lists,"
            " tile-pruned row scans"
        ),
        options=frozenset({"multi_pair"}),
        solve=_solve_sb_vec,
        config_factory=_config_sb_vec,
    ),
    SolverSpec(
        name="sb-deltasky-vec",
        summary=(
            "columnar twin of sb-deltasky: sb-vec's pointer rounds,"
            " single-pair commit"
        ),
        options=frozenset({"multi_pair"}),
        solve=_solve_sb_deltasky_vec,
        config_factory=_config_sb_deltasky_vec,
    ),
    SolverSpec(
        name="sb-two-skylines",
        summary="prioritized two-skyline variant (Section 6.2)",
        options=frozenset({"multi_pair"}),
        solve=_solve_two_skylines,
        config_factory=_config_two_skylines,
    ),
    SolverSpec(
        name="sb-alt",
        summary="disk-resident function lists, batch TA sweep (Section 7.6)",
        options=frozenset({"page_size", "multi_pair"}),
        solve=_solve_sb_alt,
        config_factory=_config_sb_alt,
    ),
    SolverSpec(
        name="brute-force",
        summary="Section 4.1 baseline: repeated best-pair extraction",
        options=frozenset({"function_scan_pages"}),
        solve=_solve_brute_force,
        config_factory=None,
    ),
    SolverSpec(
        name="chain",
        summary="the adapted Chain of Wong et al. [25]: mutual top-1 chase",
        options=frozenset({"disk_function_tree"}),
        solve=_solve_chain,
        config_factory=_config_chain,
    ),
)


class SolverRegistry:
    """Name → :class:`SolverSpec` lookup with typed validation."""

    def __init__(self, specs: tuple[SolverSpec, ...] = SPECS) -> None:
        self._specs: dict[str, SolverSpec] = {s.name: s for s in specs}

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def names(self) -> tuple[str, ...]:
        """Registered concrete method names (``auto`` excluded)."""
        return tuple(self._specs)

    def method_names(self) -> tuple[str, ...]:
        """Every name accepted as ``method=`` — specs plus ``auto``."""
        return (*self._specs, AUTO_METHOD)

    def get(self, name: str) -> SolverSpec:
        spec = self._specs.get(name) if isinstance(name, str) else None
        if spec is None:
            raise UnknownSolverError(name, self.method_names())
        return spec

    def option_schema(self) -> dict[str, frozenset[str]]:
        """``{name: accepted options}`` (the legacy table shape)."""
        return {s.name: s.options for s in self}

    def validate(self, method: str, options: Mapping[str, Any] | None) -> None:
        """Check a method name and its keyword overrides.

        Raises :class:`~repro.errors.UnknownSolverError` (a
        ``ValueError``) for an unregistered name and
        :class:`~repro.errors.InvalidSolverOptionError` (a
        ``TypeError``) for an unaccepted override.  ``auto`` is valid
        and accepts no options — the rule fixes the config it runs.
        """
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
            return
        self.get(method).validate_options(options)


#: The process-wide registry every layer consults.
REGISTRY = SolverRegistry()


__all__ = [
    "AUTO_METHOD",
    "REGISTRY",
    "SPECS",
    "SolverRegistry",
    "SolverSpec",
]
