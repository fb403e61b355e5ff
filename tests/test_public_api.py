"""The public API surface: exports, result unpacking, docstrings."""

import importlib

import pytest

import repro
from repro.core import build_object_index, solve
from repro.core.registry import REGISTRY


def test_version():
    assert repro.__version__ == "6.0.0"


def test_top_level_exports():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_api_facade_exports():
    """The repro.api surface re-exports everything it documents."""
    import repro.api

    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name
    # The facade value objects are also re-exported at top level.
    for name in ("Problem", "ProblemBuilder", "AssignmentSession",
                 "Solution", "SolutionDiff", "ReproError"):
        assert getattr(repro, name) is getattr(repro.api, name), name


def test_readme_quickstart_runs():
    objects = repro.ObjectSet(
        [(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)]
    )
    functions = repro.FunctionSet([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
    index = build_object_index(objects)
    matching, stats = solve(functions, index, method="sb")
    assert {(p.fid, p.oid) for p in matching.pairs} == {(0, 2), (1, 1), (2, 0)}
    assert stats.io_accesses >= 0


def test_result_unpacking_and_fields():
    objects = repro.ObjectSet([(0.5, 0.5)])
    functions = repro.FunctionSet([(1.0, 0.0)])
    index = build_object_index(objects)
    result = solve(functions, index)
    matching, stats = result  # tuple-style unpacking
    assert result.matching is matching and result.stats is stats
    pair = matching.pairs[0]
    assert (pair.fid, pair.oid, pair.count) == (0, 0, 1)


def test_every_solver_name_is_callable():
    objects = repro.ObjectSet([(0.3, 0.7), (0.6, 0.4)])
    functions = repro.FunctionSet([(0.5, 0.5)])
    for name in REGISTRY.names():
        index = build_object_index(
            objects, memory=(name == "sb-alt")
        )
        matching, _ = solve(functions, index, method=name)
        assert matching.num_units == 1, name


@pytest.mark.parametrize(
    "module",
    [
        "repro.core", "repro.core.brute_force", "repro.core.registry",
        "repro.core.reference", "repro.core.validate", "repro.core.index",
        "repro.core.capacity", "repro.core.types", "repro.core.vectorized",
        "repro.storage", "repro.storage.buffer", "repro.storage.pagefile",
        "repro.storage.stats",
        "repro.rtree", "repro.rtree.tree", "repro.rtree.bulk",
        "repro.rtree.geometry", "repro.rtree.encoding", "repro.rtree.store",
        "repro.skyline", "repro.skyline.bbs", "repro.skyline.maintenance",
        "repro.skyline.deltasky", "repro.skyline.inmemory",
        "repro.skyline.dominance", "repro.skyline.reference",
        "repro.topk", "repro.topk.brs",
        "repro.topk.reverse", "repro.topk.sorted_lists", "repro.topk.knapsack",
        "repro.data", "repro.data.generators", "repro.data.instances",
        "repro.data.real",
        "repro.bench", "repro.bench.config", "repro.bench.harness",
        "repro.bench.reporting",
        "repro.ordering", "repro.scoring", "repro.errors",
        "repro.api", "repro.api.errors", "repro.api.events",
        "repro.api.problem", "repro.api.serde", "repro.api.session",
        "repro.api.solution",
    ],
)
def test_module_has_docstring(module):
    mod = importlib.import_module(module)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module
