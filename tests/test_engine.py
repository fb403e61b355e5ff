"""The unified assignment engine: strategy configs, protocols, and
equivalence of engine-driven runs with the solver entry points."""

import pytest

from repro import engine_config
from repro.core import build_object_index, solve
from repro.core.reference import greedy_assign
from repro.core.registry import REGISTRY
from repro.engine import (
    AssignmentEngine,
    BestPairSearch,
    EngineConfig,
    SkylineMaintenance,
)
from repro.engine.commit import MultiPairCommit, SinglePairCommit
from repro.engine.rounds import MutualBestRound
from repro.engine.search import BatchTASearch, FskySearch, ReverseTASearch
from repro.engine.skyline import NoSkyline, build_object_skyline
from repro.data.instances import FunctionSet
from repro.skyline.deltasky import DeltaSkyManager
from repro.skyline.maintenance import UpdateSkylineManager

from .conftest import random_instance


#: Every registered method that runs on the engine.
ENGINE_BACKED = sorted(spec.name for spec in REGISTRY if spec.engine_backed)


def oracle(fs, os_):
    return greedy_assign(fs, os_).matching.as_dict()


# ---------------------------------------------------------------------------
# Named configs == solver entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINE_BACKED)
def test_named_config_matches_oracle(name):
    fs, os_ = random_instance(10, 30, 3, seed=5, capacities=True)
    idx = build_object_index(os_, page_size=512, memory=(name == "sb-alt"))
    result = solve(fs, idx, method=engine_config(name))
    assert result.matching.as_dict() == oracle(fs, os_), name


@pytest.mark.parametrize("name", ["sb", "sb-update", "sb-deltasky"])
def test_figure8_variants_are_pure_configs(name):
    """Each Figure 8 ablation variant is expressible purely as an
    engine strategy config — identical output AND identical cost
    metrics to the named ``solve`` entry point."""
    fs, os_ = random_instance(12, 40, 3, seed=8)
    idx = build_object_index(os_, page_size=512, buffer_fraction=0.0)
    via_solver = solve(fs, idx, method=name)
    idx2 = build_object_index(os_, page_size=512, buffer_fraction=0.0)
    via_config = AssignmentEngine(engine_config(name)).run(fs, idx2)
    assert via_config.matching.as_dict() == via_solver.matching.as_dict()
    assert via_config.stats.loops == via_solver.stats.loops
    assert via_config.stats.io_accesses == via_solver.stats.io_accesses
    assert via_config.stats.counters == via_solver.stats.counters


@pytest.mark.parametrize("name", ["sb-alt", "sb-two-skylines", "chain"])
def test_other_solvers_are_pure_configs(name):
    """The non-Figure-8 solvers are also pure configs: config-driven
    runs carry the same matchings, loop counts, I/O and counters as
    the solver entry points."""
    fs, os_ = random_instance(12, 40, 3, seed=8, priorities=True)
    memory = name == "sb-alt"
    idx = build_object_index(os_, page_size=512, memory=memory)
    via_solver = solve(fs, idx, method=name)
    idx2 = build_object_index(os_, page_size=512, memory=memory)
    via_config = AssignmentEngine(engine_config(name)).run(fs, idx2)
    assert via_config.matching.as_dict() == via_solver.matching.as_dict()
    assert via_config.stats.loops == via_solver.stats.loops
    assert via_config.stats.io_accesses == via_solver.stats.io_accesses
    assert via_config.stats.counters == via_solver.stats.counters


def test_auxiliary_io_fold_invariant():
    """The Section 7.6 accounting identity the paper's I/O tables rely
    on: total reported physical reads = object-tree reads + auxiliary
    reads, for every mode that folds auxiliary storage traffic."""
    fs, os_ = random_instance(40, 10, 3, seed=76)

    idx = build_object_index(os_, memory=True)
    paged = solve(fs, idx, method="sb", paged_function_lists=128)
    c = paged.stats.counters
    assert paged.stats.io_accesses == c["object_reads"] + c["function_list_reads"]

    idx = build_object_index(os_, memory=True)
    alt = solve(fs, idx, method="sb-alt", page_size=128)
    c = alt.stats.counters
    assert alt.stats.io_accesses == c["object_reads"] + c["function_list_reads"]
    assert c["function_list_reads"] > 0

    idx = build_object_index(os_, memory=True)
    chain = solve(fs, idx, method="chain", disk_function_tree=True)
    c = chain.stats.counters
    assert chain.stats.io_accesses == c["object_reads"] + c["function_tree_reads"]
    assert c["function_tree_reads"] > 0


def test_custom_strategy_combination():
    """A combination no named solver ships — DeltaSky maintenance with
    the batch TA sweep and single-pair commits — still produces the
    canonical stable matching (strategies are orthogonal)."""
    fs, os_ = random_instance(10, 25, 3, seed=13)
    config = EngineConfig(
        name="custom",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "deltasky"),
        build_round=lambda ctx: MutualBestRound(
            ctx, BatchTASearch(ctx, page_size=256)
        ),
        build_commit=lambda ctx: SinglePairCommit(ctx),
    )
    idx = build_object_index(os_, page_size=512, memory=True)
    result = AssignmentEngine(config).run(fs, idx)
    assert result.matching.as_dict() == oracle(fs, os_)


def test_fsky_search_with_priorities():
    fs, os_ = random_instance(10, 25, 3, seed=21, priorities=True)
    config = EngineConfig(
        name="custom-fsky",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "update-skyline"),
        build_round=lambda ctx: MutualBestRound(ctx, FskySearch(ctx)),
        build_commit=lambda ctx: MultiPairCommit(ctx),
    )
    idx = build_object_index(os_, page_size=512)
    result = AssignmentEngine(config).run(fs, idx)
    assert result.matching.as_dict() == oracle(fs, os_)


# ---------------------------------------------------------------------------
# Dispatcher / config plumbing
# ---------------------------------------------------------------------------


def test_unknown_engine_config_rejected():
    with pytest.raises(ValueError, match="unknown engine config"):
        engine_config("nope")


def test_engine_config_rejects_solve_kwargs():
    fs, os_ = random_instance(3, 6, 2, seed=1)
    idx = build_object_index(os_, page_size=512)
    with pytest.raises(TypeError, match="EngineConfig"):
        solve(fs, idx, method=engine_config("sb"), multi_pair=False)


def test_unknown_maintenance_strategy_rejected():
    fs, os_ = random_instance(3, 6, 2, seed=2)
    idx = build_object_index(os_, page_size=512)
    config = EngineConfig(
        name="bad",
        build_maintenance=lambda ctx: build_object_skyline(ctx, "bogus"),
        build_round=lambda ctx: MutualBestRound(
            ctx, ReverseTASearch(ctx, resume=True, biased=True, omega=None)
        ),
        build_commit=lambda ctx: MultiPairCommit(ctx),
    )
    with pytest.raises(ValueError, match="unknown maintenance"):
        AssignmentEngine(config).run(fs, idx)


def test_empty_functions_early_return():
    fs = FunctionSet([])
    _, os_ = random_instance(1, 5, 2, seed=3)
    idx = build_object_index(os_, page_size=512)
    for name in ENGINE_BACKED:
        result = AssignmentEngine(engine_config(name)).run(fs, idx)
        assert len(result.matching) == 0
        assert result.stats.loops == 0


# ---------------------------------------------------------------------------
# Protocol conformance
# ---------------------------------------------------------------------------


def test_skyline_managers_satisfy_protocol():
    for cls in (UpdateSkylineManager, DeltaSkyManager, NoSkyline):
        assert issubclass(cls, SkylineMaintenance), cls.__name__


def test_searches_satisfy_protocol():
    for cls in (ReverseTASearch, BatchTASearch, FskySearch):
        assert issubclass(cls, BestPairSearch), cls.__name__
