"""SB-alt: batch best-pair search over disk-resident functions (7.6)."""

import pytest

from repro.core import build_object_index, solve
from repro.core.reference import greedy_assign
from repro.data.generators import make_functions, make_objects
from repro.data.instances import FunctionSet

from .conftest import random_instance


@pytest.mark.parametrize("seed", range(4))
def test_matches_oracle(seed):
    fs, os_ = random_instance(15, 20, 3, seed=seed, tie_heavy=(seed % 2 == 0))
    idx = build_object_index(os_, memory=True)
    got = solve(fs, idx, method="sb-alt", page_size=128)
    assert got.matching.as_dict() == greedy_assign(fs, os_).matching.as_dict()


def test_function_list_io_counted():
    fs, os_ = random_instance(50, 30, 3, seed=9)
    idx = build_object_index(os_, memory=True)
    result = solve(fs, idx, method="sb-alt", page_size=128)
    assert result.stats.counters["function_list_reads"] > 0
    # Object side is memory-resident: zero page I/O from it.
    assert result.stats.counters["object_reads"] == 0


def test_block_reads_bounded_per_skyline_version():
    """Each coefficient is accessed at most once per batch scan, so
    list I/O per scan cannot exceed (pages + random accesses) and in
    total is far below per-object repeated scanning."""
    functions = make_functions(200, 3, seed=3)
    objects = make_objects(300, 3, "independent", seed=4)
    idx = build_object_index(objects, memory=True)
    result = solve(functions, idx, method="sb-alt", page_size=4096)
    scans = result.stats.counters["batch_scans"]
    # With 4 KB pages (256 entries) the 3 lists fit in 3 pages; a full
    # scan with all random accesses costs at most 3 + 200*2 pages.
    per_scan_cap = 3 + len(functions) * 2
    assert result.stats.counters["function_list_reads"] <= scans * per_scan_cap


def test_priorities_supported(rng):
    fs, os_ = random_instance(12, 15, 3, seed=5, priorities=True)
    idx = build_object_index(os_, memory=True)
    got = solve(fs, idx, method="sb-alt", page_size=128)
    assert got.matching.as_dict() == greedy_assign(fs, os_).matching.as_dict()


def test_capacities_supported(rng):
    fs, os_ = random_instance(8, 10, 2, seed=6, capacities=True)
    idx = build_object_index(os_, memory=True)
    got = solve(fs, idx, method="sb-alt", page_size=128)
    assert got.matching.as_dict() == greedy_assign(fs, os_).matching.as_dict()


def test_more_functions_than_objects():
    """The Section 7.6 setting has |F| >> |O|."""
    fs, os_ = random_instance(60, 8, 3, seed=7)
    idx = build_object_index(os_, memory=True)
    got = solve(fs, idx, method="sb-alt", page_size=256)
    assert got.matching.num_units == 8
    assert got.matching.as_dict() == greedy_assign(fs, os_).matching.as_dict()


def test_empty_functions():
    fs = FunctionSet([])
    _, os_ = random_instance(1, 5, 2, seed=8)
    idx = build_object_index(os_, memory=True)
    assert len(solve(fs, idx, method="sb-alt").matching) == 0
