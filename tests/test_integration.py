"""End-to-end integration: the paper's headline cost shapes, at test
scale, plus determinism and the priority/two-skyline relationships."""

import pytest

from repro.core import assert_valid_matching, build_object_index, solve
from repro.data.generators import make_functions, make_objects, random_priorities


@pytest.fixture(scope="module")
def medium_instance():
    objects = make_objects(4000, 3, "anti-correlated", seed=21)
    functions = make_functions(120, 3, seed=22)
    return functions, objects


def run(functions, objects, method, **kw):
    idx = build_object_index(objects, buffer_fraction=0.02)
    return solve(functions, idx, method=method, **kw)


class TestHeadlineShapes:
    """The paper's Section 7 claims, as order relations."""

    @pytest.fixture(scope="class")
    def results(self, medium_instance):
        functions, objects = medium_instance
        return {
            m: run(functions, objects, m)
            for m in ("sb", "brute-force", "chain")
        }

    def test_all_agree(self, results, medium_instance):
        functions, objects = medium_instance
        ref = results["sb"].matching.as_dict()
        for m, r in results.items():
            assert r.matching.as_dict() == ref
        assert_valid_matching(results["sb"].matching, functions, objects)

    def test_sb_io_beats_brute_force_by_an_order(self, results):
        assert results["sb"].stats.io_accesses * 10 < (
            results["brute-force"].stats.io_accesses
        )

    def test_brute_force_io_beats_chain(self, results):
        """Brute Force resumes searches; Chain cannot (Section 7.2)."""
        assert (
            results["brute-force"].stats.io_accesses
            < results["chain"].stats.io_accesses
        )

    def test_brute_force_memory_is_largest(self, results):
        """One retained search heap per function (Figure 9(g-i))."""
        bf = results["brute-force"].stats.peak_memory_bytes
        assert bf > results["sb"].stats.peak_memory_bytes
        assert bf > results["chain"].stats.peak_memory_bytes


class TestBufferBehaviour:
    """Figure 13: buffers help BF/Chain, never SB (read-once)."""

    def test_sb_flat_buffer_curve(self, medium_instance):
        functions, objects = medium_instance
        io = []
        for frac in (0.0, 0.10):
            idx = build_object_index(objects, buffer_fraction=frac)
            io.append(solve(functions, idx, method="sb").stats.io_accesses)
        assert io[0] == io[1]

    def test_brute_force_benefits_from_buffer(self, medium_instance):
        functions, objects = medium_instance
        io = []
        for frac in (0.0, 0.10):
            idx = build_object_index(objects, buffer_fraction=frac)
            io.append(
                solve(functions, idx, method="brute-force").stats.io_accesses
            )
        assert io[1] < io[0]


class TestDeterminism:
    def test_same_seed_same_everything(self, medium_instance):
        functions, objects = medium_instance
        a = run(functions, objects, "sb")
        b = run(functions, objects, "sb")
        assert a.matching.as_dict() == b.matching.as_dict()
        assert a.stats.io_accesses == b.stats.io_accesses
        assert a.stats.loops == b.stats.loops


class TestPriorities:
    def test_two_skylines_matches_sb_under_priorities(self):
        objects = make_objects(1500, 3, "anti-correlated", seed=31)
        functions = make_functions(
            60, 3, seed=32, gammas=random_priorities(60, 4, seed=33)
        )
        a = run(functions, objects, "sb")
        b = run(functions, objects, "sb-two-skylines")
        assert a.matching.as_dict() == b.matching.as_dict()
        # Identical I/O: both maintain the object skyline identically
        # (Figure 15(a): "the disk accesses of the two SB versions are
        # identical").
        assert a.stats.io_accesses == b.stats.io_accesses

    def test_priority_changes_winners(self):
        """A high-priority function displaces an equal-weight rival."""
        from repro.data.instances import FunctionSet, ObjectSet

        fs_flat = FunctionSet([(0.5, 0.5), (0.5, 0.5)])
        fs_prio = FunctionSet([(0.5, 0.5), (0.5, 0.5)], gammas=[1.0, 3.0])
        os_ = ObjectSet([(0.9, 0.9), (0.1, 0.1)])
        idx = build_object_index(os_)
        flat = solve(fs_flat, idx, method="sb").matching.as_dict()
        idx = build_object_index(os_)
        prio = solve(fs_prio, idx, method="sb").matching.as_dict()
        assert flat == {(0, 0): 1, (1, 1): 1}  # fid tie-break
        assert prio == {(1, 0): 1, (0, 1): 1}  # γ=3 wins the good object


class TestScaleSanity:
    def test_more_functions_needs_no_more_object_io(self):
        """Figure 10's key trend at test scale: SB's I/O grows only
        marginally with |F| (skyline work dominates)."""
        objects = make_objects(3000, 3, "anti-correlated", seed=41)
        io = {}
        for nf in (50, 200):
            functions = make_functions(nf, 3, seed=42)
            io[nf] = run(functions, objects, "sb").stats.io_accesses
        assert io[200] < io[50] * 4  # sub-linear growth in |F|
