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
:data:`repro.core.registry.REGISTRY` maps each name to its factory
here, and :func:`repro.core.registry.engine_config` builds one by
name.

Individual keyword arguments override a preset (for the ablation
benchmarks).
"""

from __future__ import annotations

from repro.engine.commit import build_commit_policy
from repro.engine.engine import EngineConfig, EngineContext
from repro.engine.rounds import ChainRound, MutualBestRound
from repro.engine.search import BatchTASearch, FskySearch, ReverseTASearch
from repro.engine.skyline import NoSkyline, build_object_skyline

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
    """SB — the paper's Skyline-Based stable assignment (Sections
    4.2–5.3) — and its Figure 8 ablation variants.

    SB maintains the skyline of the remaining objects (only skyline
    objects can appear in stable pairs) and, per loop:

    1. finds for every skyline object its best alive function via the
       resumable reverse top-1 searches of :mod:`repro.topk.reverse`
       (Section 5.1: TA over sorted coefficient lists,
       fractional-knapsack threshold, biased probing, Ω-bounded heaps);
    2. finds for every candidate function its best skyline object (a
       scan of the in-memory skyline);
    3. emits every mutually-best pair (Property 2; Section 5.3's
       multiple-pairs-per-loop enhancement), honoring capacities
       (Section 6.1) and priorities (Section 6.2, via effective weights
       and the ``B = max γ`` knapsack budget);
    4. removes assigned objects and repairs the skyline with the
       I/O-optimal UpdateSkyline (Section 5.2) — or with DeltaSky when
       running the Figure 8 ablation.

    ``variant`` presets the optimization toggles:

    =================  ========================================
    ``sb``             everything on (the paper's SB)
    ``sb-update``      Algorithm 1 + UpdateSkyline only (fresh
                       round-robin TA per loop, one pair per loop)
                       — "SB-UpdateSkyline"
    ``sb-deltasky``    Algorithm 1 + DeltaSky maintenance
    =================  ========================================

    Individual keyword arguments override the preset (for ablation
    benchmarks).  ``omega_fraction`` is the paper's ω (default 2.5%,
    Section 7); ``None`` disables the Ω bound.
    ``paged_function_lists`` materializes the coefficient lists on
    simulated disk pages of the given size (the Section 7.6 setting
    where F does not fit in memory); the per-object TA searches then
    charge list-page I/O, which is reported alongside the object-tree
    I/O (compare with :func:`sb_alt_config`).
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
    """SB-alt — batch best-pair search for disk-resident functions
    (Section 7.6).

    When ``F`` does not fit in memory, the sorted coefficient lists are
    materialized on disk and per-object TA searches (each randomly
    probing the lists) would thrash.  SB-alt instead runs *one* batch
    TA per skyline version (:class:`~repro.engine.search.BatchTASearch`),
    so each function coefficient is accessed at most once per skyline
    version — the I/O saving of Figure 17.  Search resumption is *not*
    applied ("the best functions are identified from scratch for each
    version of the skyline").

    The object set is assumed memory-resident in this setting (build
    the index with ``memory=True``); the reported I/O is the
    function-list page traffic.
    """
    return EngineConfig(
        name="sb-alt",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "update-skyline"),
        build_round=lambda ctx: MutualBestRound(
            ctx, BatchTASearch(ctx, page_size=page_size)
        ),
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def two_skyline_config(*, multi_pair: bool = True) -> EngineConfig:
    """Prioritized assignment — the two-skyline variant (Section 6.2).

    With per-function priorities γ the effective coefficients
    ``α'_i = γ·α_i`` no longer sum to 1, which loosens the plain TA
    threshold (``B`` must be initialized to ``max γ``).  The paper's
    stronger alternative: also maintain a skyline ``Fsky`` over the
    effective coefficient vectors and search best pairs *exhaustively*
    between the two skylines
    (:class:`~repro.engine.search.FskySearch`).
    """
    return EngineConfig(
        name="sb-two-skylines",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "update-skyline"),
        build_round=lambda ctx: MutualBestRound(ctx, FskySearch(ctx)),
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def chain_config(*, disk_function_tree: bool = False) -> EngineConfig:
    """Chain stable assignment — adaptation of Wong et al. [25]
    (Section 7).

    As in the paper's experimental setup, the nearest-neighbor module
    of the original spatial Chain is replaced by top-1 search (BRS) in
    the corresponding R-tree (:class:`~repro.engine.rounds.ChainRound`,
    one chase step per engine round).  Chain repeatedly takes an item
    ``x`` (from its queue, else the lowest alive function id), finds
    its top-1 partner ``y``, and checks whether ``x`` is also ``y``'s
    top-1; if so ``(x, y)`` is stable (Property 1), otherwise ``y`` is
    enqueued and the chase continues.

    ``disk_function_tree`` puts the function R-tree on simulated disk
    pages (with a 2% LRU buffer) instead of in memory — the Section 7.6
    setting where ``F`` does not fit in memory; its page reads are then
    included in the reported I/O.
    """
    return EngineConfig(
        name="chain",
        build_maintenance=lambda ctx: NoSkyline(),
        build_round=lambda ctx: ChainRound(
            ctx, disk_function_tree=disk_function_tree
        ),
        build_commit=lambda ctx: build_commit_policy(ctx, True),
    )
