"""BRS against exhaustive oracles."""

from hypothesis import given, settings

from repro.ordering import object_key
from repro.rtree.store import DiskNodeStore
from repro.rtree.tree import RTree
from repro.scoring import score
from repro.topk.brs import BRSSearch

from .conftest import points_strategy, random_points, random_weights


def exhaustive_order(items, weights):
    return [
        oid
        for _, oid in sorted(
            (object_key(score(weights, p), p, oid), oid) for oid, p in items
        )
    ]


def build_tree(items, dims):
    store = DiskNodeStore(dims, page_size=256, buffer_capacity=10**6)
    return RTree.bulk_load(store, dims, items)


class TestBRS:
    def test_incremental_emission_is_canonical_order(self, rng):
        items = list(enumerate(random_points(300, 3, rng, tie_heavy=True)))
        tree = build_tree(items, 3)
        w = tuple(random_weights(1, 3, rng)[0])
        search = BRSSearch(tree, w)
        got = []
        while (r := search.next()) is not None:
            got.append(r[0])
        assert got == exhaustive_order(items, w)

    def test_exclusions_applied_lazily(self, rng):
        items = list(enumerate(random_points(100, 2, rng)))
        tree = build_tree(items, 2)
        w = (0.6, 0.4)
        order = exhaustive_order(items, w)
        excluded = set()
        search = BRSSearch(tree, w, excluded)
        assert search.next()[0] == order[0]
        excluded.update(order[1:5])  # removed while search is paused
        assert search.next()[0] == order[5]

    def test_scores_reported(self, rng):
        items = list(enumerate(random_points(50, 2, rng)))
        tree = build_tree(items, 2)
        w = (0.5, 0.5)
        search = BRSSearch(tree, w)
        oid, point, s = search.next()
        assert s == score(w, point)

    def test_empty_tree(self):
        tree = build_tree([], 2)
        assert BRSSearch(tree, (0.5, 0.5)).next() is None

    def test_memory_grows_then_reports(self, rng):
        items = list(enumerate(random_points(500, 3, rng)))
        tree = build_tree(items, 3)
        search = BRSSearch(tree, (0.4, 0.3, 0.3))
        search.next()
        assert search.memory_bytes() > 0
        assert search.heap_size() > 0

    @given(points_strategy(2, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_full_order(self, pts):
        items = list(enumerate(pts))
        tree = build_tree(items, 2)
        w = (0.25, 0.75)
        search = BRSSearch(tree, w)
        got = []
        while (r := search.next()) is not None:
            got.append(r[0])
        assert got == exhaustive_order(items, w)
