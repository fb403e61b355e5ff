"""Capacity semantics (Section 6.1): tracker + unit-expansion law."""

import pytest

from repro.core import build_object_index, solve
from repro.core.capacity import CapacityTracker
from repro.core.reference import greedy_assign
from repro.data.instances import FunctionSet, ObjectSet

from .conftest import random_instance


class TestCapacityTracker:
    def _tracker(self, fcaps, ocaps):
        nf, no = len(fcaps), len(ocaps)
        fs = FunctionSet([(0.5, 0.5)] * nf, capacities=fcaps)
        os_ = ObjectSet([(0.5, 0.5)] * no, capacities=ocaps)
        return CapacityTracker(fs, os_)

    def test_min_decrement(self):
        t = self._tracker([3], [2])
        units, f_died, o_died = t.assign(0, 0)
        assert units == 2
        assert not f_died and o_died
        assert t.function_capacity(0) == 1
        assert t.object_capacity(0) == 0

    def test_both_die_on_equal_capacity(self):
        t = self._tracker([2], [2])
        units, f_died, o_died = t.assign(0, 0)
        assert units == 2 and f_died and o_died
        assert t.exhausted

    def test_assign_exhausted_rejected(self):
        t = self._tracker([1], [1])
        t.assign(0, 0)
        with pytest.raises(ValueError):
            t.assign(0, 0)

    def test_alive_counts(self):
        t = self._tracker([1, 1], [1])
        assert t.alive_functions == 2 and t.alive_objects == 1
        t.assign(0, 0)
        assert t.alive_functions == 1 and t.alive_objects == 0
        assert t.exhausted

    def test_default_capacity_is_one(self):
        fs = FunctionSet([(1.0,)])
        os_ = ObjectSet([(0.5,)])
        t = CapacityTracker(fs, os_)
        units, f_died, o_died = t.assign(0, 0)
        assert units == 1 and f_died and o_died


class TestUnitExpansionLaw:
    """A capacitated instance must solve identically to the expanded
    instance where every capacity unit is a distinct clone."""

    @pytest.mark.parametrize("seed", range(5))
    def test_expansion_equivalence(self, seed):
        fs, os_ = random_instance(5, 8, 3, seed=seed, capacities=True)

        # Expanded instance: clones with capacity 1.
        f_map, exp_w = [], []
        for fid in range(len(fs)):
            for _ in range(fs.capacity(fid)):
                f_map.append(fid)
                exp_w.append(fs.weights[fid])
        o_map, exp_p = [], []
        for oid in range(len(os_)):
            for _ in range(os_.capacity(oid)):
                o_map.append(oid)
                exp_p.append(os_.points[oid])

        capacitated = greedy_assign(fs, os_).matching.as_dict()
        expanded_raw = greedy_assign(
            FunctionSet(exp_w), ObjectSet(exp_p)
        ).matching.as_dict()

        # Aggregate clone pairs back to original ids.
        aggregated: dict = {}
        for (fc, oc), units in expanded_raw.items():
            key = (f_map[fc], o_map[oc])
            aggregated[key] = aggregated.get(key, 0) + units
        assert aggregated == capacitated

    def test_paper_example_identical_positions(self):
        """10 identical internship positions == one position with
        capacity 10 (Section 6.1's motivating case)."""
        fs = FunctionSet([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
        one = ObjectSet([(0.6, 0.7)], capacities=[10])
        many = ObjectSet([(0.6, 0.7)] * 10)

        m_one = greedy_assign(fs, one).matching
        m_many = greedy_assign(fs, many).matching
        assert m_one.num_units == m_many.num_units == 3
        # Same functions served, same scores.
        assert sorted(p.fid for p in m_one.pairs) == sorted(
            p.fid for p in m_many.pairs
        )


class TestCapacitatedSolvers:
    def test_function_capacity_grows_problem(self):
        """Figure 14(a,b): function capacity k multiplies the number of
        assigned units (k·|F| pairs when objects suffice)."""
        base_f, os_ = random_instance(5, 200, 3, seed=1)
        for k in (1, 2, 4):
            fs = FunctionSet(base_f.weights, capacities=[k] * len(base_f))
            idx = build_object_index(os_, page_size=512)
            matching, _ = solve(fs, idx, method="sb")
            assert matching.num_units == k * len(fs)

    def test_object_capacity_reduces_loops(self):
        """Figure 14(c,d): higher object capacity means fewer skyline
        updates (an object serves several functions before leaving)."""
        fs, base_o = random_instance(30, 60, 3, seed=2)
        loops = {}
        for k in (1, 8):
            os_ = ObjectSet(base_o.points, capacities=[k] * len(base_o))
            idx = build_object_index(os_, page_size=512)
            _, stats = solve(fs, idx, method="sb")
            loops[k] = stats.loops
        assert loops[8] <= loops[1]
