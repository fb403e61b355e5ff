"""Section 7.6 solver modes: paged lists in SB, disk function tree in
Chain, scan charging in Brute Force — correctness and accounting."""

import pytest

from repro.core import build_object_index, solve
from repro.core.brute_force import brute_force_assign
from repro.core.reference import greedy_assign

from .conftest import random_instance


@pytest.fixture
def swapped_instance():
    # |F| >> |O|, the 7.6 storage setting.
    return random_instance(80, 12, 3, seed=76)


def test_sb_paged_lists_correct_and_charged(swapped_instance):
    fs, os_ = swapped_instance
    ref = greedy_assign(fs, os_).matching.as_dict()
    idx = build_object_index(os_, memory=True)
    result = solve(fs, idx, method="sb", paged_function_lists=128)
    assert result.matching.as_dict() == ref
    assert result.stats.counters["function_list_reads"] > 0
    # Object tree is in memory: all reported I/O is list traffic.
    assert result.stats.counters["object_reads"] == 0
    assert result.stats.io_accesses == result.stats.counters[
        "function_list_reads"
    ]


def test_sb_paged_lists_more_io_than_sb_alt(swapped_instance):
    """The point of SB-alt (Figure 17): per-object TA over disk lists
    re-reads pages; the batch sweep does not."""
    fs, os_ = swapped_instance
    idx = build_object_index(os_, memory=True)
    per_object = solve(fs, idx, method="sb", paged_function_lists=128)
    idx2 = build_object_index(os_, memory=True)
    batch = solve(fs, idx2, method="sb-alt", page_size=128)
    assert batch.matching.as_dict() == per_object.matching.as_dict()
    assert batch.stats.io_accesses < per_object.stats.io_accesses


def test_chain_disk_function_tree(swapped_instance):
    fs, os_ = swapped_instance
    ref = greedy_assign(fs, os_).matching.as_dict()
    idx = build_object_index(os_, memory=True)
    result = solve(fs, idx, method="chain", disk_function_tree=True)
    assert result.matching.as_dict() == ref
    assert result.stats.counters["function_tree_reads"] > 0
    assert result.stats.io_accesses >= result.stats.counters[
        "function_tree_reads"
    ]


def test_brute_force_scan_charge(swapped_instance):
    fs, os_ = swapped_instance
    idx = build_object_index(os_, memory=True)
    plain = brute_force_assign(fs, idx)
    idx.reset_for_run()
    charged = brute_force_assign(fs, idx, function_scan_pages=7)
    assert charged.matching.as_dict() == plain.matching.as_dict()
    assert charged.stats.io_accesses == plain.stats.io_accesses + 7
