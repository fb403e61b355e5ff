"""SB ablation variants (Figure 8) and their cost relationships."""

import pytest

from repro.core import build_object_index, solve
from repro.data.generators import make_functions, make_objects
from repro.engine import sb_config

from .conftest import random_instance


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        sb_config("sb-bogus")


def test_unknown_method_rejected():
    fs, os_ = random_instance(3, 5, 2, seed=0)
    idx = build_object_index(os_, page_size=512)
    with pytest.raises(ValueError):
        solve(fs, idx, method="nope")


def test_unknown_maintenance_rejected():
    fs, os_ = random_instance(3, 5, 2, seed=0)
    idx = build_object_index(os_, page_size=512)
    with pytest.raises(ValueError):
        solve(fs, idx, method="sb", maintenance="bogus")


def test_empty_function_set():
    fs, os_ = random_instance(0, 5, 2, seed=1)
    idx = build_object_index(os_, page_size=512)
    matching, _ = solve(fs, idx, method="sb")
    assert len(matching) == 0


class TestCostRelationships:
    """The measurable claims behind Figure 8, asserted at test scale.
    Each variant runs once per class, on its own fresh zero-buffer
    index, and every claim reads those runs."""

    @pytest.fixture(scope="class")
    def medium(self):
        objects = make_objects(3000, 3, "anti-correlated", seed=11)
        functions = make_functions(150, 3, seed=12)
        return functions, objects

    @pytest.fixture(scope="class")
    def runs(self, medium):
        """``{variant: (result, index)}`` for sb, sb-update and
        sb-deltasky."""
        functions, objects = medium
        out = {}
        for variant in ("sb", "sb-update", "sb-deltasky"):
            idx = build_object_index(objects, buffer_fraction=0.0)
            out[variant] = (solve(functions, idx, method=variant), idx)
        return out

    def test_sb_and_sb_update_share_io(self, runs):
        """The 5.1/5.3 optimizations are CPU-only: SB and
        SB-UpdateSkyline must read identical page counts
        (paper: "SB and SB-UpdateSkyline have the same I/O cost")."""
        io_sb = runs["sb"][0].stats.io_accesses
        io_up = runs["sb-update"][0].stats.io_accesses
        assert io_sb == io_up

    def test_deltasky_costs_more_io(self, runs):
        """UpdateSkyline saves an order of magnitude of I/O vs
        DeltaSky (Figure 8(a))."""
        io_up = runs["sb-update"][0].stats.io_accesses
        io_ds = runs["sb-deltasky"][0].stats.io_accesses
        assert io_ds > 2 * io_up

    def test_multi_pair_reduces_loops(self, runs):
        """Section 5.3: emitting multiple stable pairs per loop cuts
        the number of skyline-maintenance rounds."""
        loops_multi = runs["sb"][0].stats.loops
        loops_single = runs["sb-update"][0].stats.loops
        assert loops_multi < loops_single

    def test_sb_ta_work_is_lower(self, runs):
        """Resume + bias must reduce total sorted-list accesses vs
        fresh round-robin searches (the 5.1 CPU claim)."""
        opt = runs["sb"][0].stats.counters
        base = runs["sb-update"][0].stats.counters
        assert opt["ta_sorted_accesses"] < base["ta_sorted_accesses"]

    def test_read_once_no_page_reread(self, runs):
        """Theorem 1 at the solver level: with a zero buffer, SB's
        logical reads equal physical reads equal <= pages in the tree."""
        result, idx = runs["sb"]
        io = result.stats.io
        assert io.physical_reads == io.logical_reads
        assert io.physical_reads <= idx.tree.store.num_pages

    def test_omega_fraction_none_works(self, medium):
        functions, objects = medium
        idx = build_object_index(objects, buffer_fraction=0.0)
        a = solve(functions, idx, method="sb", omega_fraction=None)
        idx2 = build_object_index(objects, buffer_fraction=0.0)
        b = solve(functions, idx2, method="sb", omega_fraction=0.01)
        assert a.matching.as_dict() == b.matching.as_dict()
        # Smaller omega trades restarts for memory.
        assert b.stats.peak_memory_bytes <= a.stats.peak_memory_bytes
