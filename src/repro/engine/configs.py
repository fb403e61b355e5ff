"""Named engine configurations — every solver as a declarative value.

Each of the paper's algorithms (and each Figure 8 ablation variant)
is expressed purely as a choice of the three strategy seams; no
solver carries a private round loop anymore.  The table:

===================  ==================  ===================  ===========
config                skyline              best-pair search     commit
===================  ==================  ===================  ===========
``sb``                UpdateSkyline        resumable biased     multi-pair
                                           Ω-bounded TA
``sb-update``         UpdateSkyline        fresh round-robin    single-pair
                                           TA
``sb-deltasky``       DeltaSky             resumable biased     multi-pair
                                           Ω-bounded TA
``sb-alt``            UpdateSkyline        batch TA sweep       multi-pair
``sb-two-skylines``   UpdateSkyline        exhaustive Fsky      multi-pair
                                           scan
``chain``             (none)               mutual top-1 chase   multi-pair
``sb-vec``            (none)               per-side best        multi-pair
                                           pointers
``sb-deltasky-vec``   (none)               per-side best        single-pair
                                           pointers
===================  ==================  ===================  ===========

The two ``*-vec`` configs are the columnar twins of
:mod:`repro.kernels` — bit-identical pairs, vectorized inner loops.

Individual keyword arguments override a preset (for the ablation
benchmarks), exactly as the pre-refactor solver signatures did.
"""

from __future__ import annotations

from repro.engine.commit import build_commit_policy
from repro.engine.engine import EngineConfig, EngineContext
from repro.engine.rounds import ChainRound, MutualBestRound
from repro.engine.search import BatchTASearch, FskySearch, ReverseTASearch
from repro.engine.skyline import NoSkyline, build_object_skyline
from repro.errors import UnknownSolverError

SB_VARIANTS = ("sb", "sb-update", "sb-deltasky")


def sb_config(
    variant: str = "sb",
    *,
    omega_fraction: float | None = 0.025,
    multi_pair: bool | None = None,
    biased: bool | None = None,
    resume: bool | None = None,
    maintenance: str | None = None,
    paged_function_lists: int | None = None,
) -> EngineConfig:
    """SB and its Figure 8 ablation variants.

    ``variant`` presets the optimization toggles; individual keyword
    arguments override the preset.  ``omega_fraction`` is the paper's
    ω (default 2.5%, Section 7); ``None`` disables the Ω bound.
    ``paged_function_lists`` materializes the coefficient lists on
    simulated disk pages of the given size (Section 7.6).
    """
    if variant not in SB_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {SB_VARIANTS}"
        )
    optimized = variant == "sb"
    if multi_pair is None:
        multi_pair = optimized
    if biased is None:
        biased = optimized
    if resume is None:
        resume = optimized
    if maintenance is None:
        maintenance = "deltasky" if variant == "sb-deltasky" else "update-skyline"

    def build_round(ctx: EngineContext) -> MutualBestRound:
        omega = None
        if optimized and omega_fraction is not None:
            omega = max(1, int(omega_fraction * len(ctx.functions)))
        search = ReverseTASearch(
            ctx, resume=resume, biased=biased, omega=omega,
            paged_page_size=paged_function_lists,
        )
        return MutualBestRound(ctx, search)

    return EngineConfig(
        name=variant,
        build_maintenance=lambda ctx: build_object_skyline(ctx, maintenance),
        build_round=build_round,
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def sb_alt_config(
    *, page_size: int = 4096, multi_pair: bool = True
) -> EngineConfig:
    """SB-alt: batch best-pair search over disk-resident lists (7.6)."""
    return EngineConfig(
        name="sb-alt",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "update-skyline"),
        build_round=lambda ctx: MutualBestRound(
            ctx, BatchTASearch(ctx, page_size=page_size)
        ),
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def two_skyline_config(*, multi_pair: bool = True) -> EngineConfig:
    """The prioritized two-skyline variant (Section 6.2)."""
    return EngineConfig(
        name="sb-two-skylines",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "update-skyline"),
        build_round=lambda ctx: MutualBestRound(ctx, FskySearch(ctx)),
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def chain_config(*, disk_function_tree: bool = False) -> EngineConfig:
    """The adapted Chain of Wong et al. [25] (Section 7)."""
    return EngineConfig(
        name="chain",
        build_maintenance=lambda ctx: NoSkyline(),
        build_round=lambda ctx: ChainRound(
            ctx, disk_function_tree=disk_function_tree
        ),
        build_commit=lambda ctx: build_commit_policy(ctx, True),
    )


def _vectorized_factory(name: str):
    """Lazy factory for the columnar configs of :mod:`repro.kernels`
    (imported on first use — the kernels package imports the engine)."""

    def factory(**kw):
        from repro.kernels.configs import VECTORIZED_CONFIGS

        return VECTORIZED_CONFIGS[name](**kw)

    return factory


#: Every engine-backed solver by name; values are config factories so
#: callers can pass per-run keyword overrides.
ENGINE_CONFIGS = {
    "sb": lambda **kw: sb_config("sb", **kw),
    "sb-update": lambda **kw: sb_config("sb-update", **kw),
    "sb-deltasky": lambda **kw: sb_config("sb-deltasky", **kw),
    "sb-alt": sb_alt_config,
    "sb-two-skylines": two_skyline_config,
    "chain": chain_config,
    "sb-vec": _vectorized_factory("sb-vec"),
    "sb-deltasky-vec": _vectorized_factory("sb-deltasky-vec"),
}


def engine_config(name: str, **kwargs) -> EngineConfig:
    """Build a named engine configuration (with keyword overrides)."""
    try:
        factory = ENGINE_CONFIGS[name]
    except KeyError:
        raise UnknownSolverError(name, ENGINE_CONFIGS, kind="engine config") from None
    return factory(**kwargs)
