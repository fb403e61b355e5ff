"""The vectorized engine configs.

``sb-vec`` is the columnar twin of ``sb`` (multi-pair commit) and
``sb-deltasky-vec`` the twin of ``sb-deltasky`` (single-pair commit,
matching the unoptimized preset of its interpreted namesake).  Both
run inside the ordinary :class:`~repro.engine.engine.AssignmentEngine`
round loop, so commit, capacity and loop accounting are literally the
shared engine code, not re-implementations.

Both configs run one :class:`~repro.kernels.rounds.PointerRound` over
a per-solve :class:`~repro.kernels.columnar.ColumnarInstance` on the
index's cached :class:`~repro.kernels.columnar.CatalogueColumns`.  The
round keeps no skyline, so the maintenance seam is the engine's
:class:`~repro.engine.skyline.NoSkyline`, as for Chain, and the round
learns of exhausted objects from the commit hook.
"""

from __future__ import annotations

from repro.engine.commit import build_commit_policy
from repro.engine.engine import EngineConfig, EngineContext
from repro.engine.skyline import NoSkyline
from repro.kernels.columnar import ColumnarInstance, catalogue_columns
from repro.kernels.rounds import PointerRound


def _vectorized_config(name: str, multi_pair: bool) -> EngineConfig:
    def build_round(ctx: EngineContext) -> PointerRound:
        return PointerRound(
            ctx, ColumnarInstance(ctx.functions, catalogue_columns(ctx.index))
        )

    return EngineConfig(
        name=name,
        build_maintenance=lambda ctx: NoSkyline(),
        build_round=build_round,
        build_commit=lambda ctx: build_commit_policy(ctx, multi_pair),
    )


def sb_vec_config(*, multi_pair: bool = True) -> EngineConfig:
    """Columnar twin of ``sb`` (multi-pair commit by default)."""
    return _vectorized_config("sb-vec", multi_pair)


def sb_deltasky_vec_config(*, multi_pair: bool = False) -> EngineConfig:
    """Columnar twin of ``sb-deltasky`` (single-pair commit by default,
    the unoptimized preset of the interpreted variant)."""
    return _vectorized_config("sb-deltasky-vec", multi_pair)
