"""Reference (naive) skyline.

Ground truth for every other skyline implementation: a point survives
iff no other point dominates it (paper Section 2.2's definition —
coincident points do not dominate each other, so duplicates are all
skyline members).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.rtree.geometry import dominates

Point = tuple[float, ...]


def naive_skyline(items: Sequence[tuple[int, Point]]) -> dict[int, Point]:
    """O(n²) skyline of ``(id, point)`` pairs -> ``{id: point}``."""
    out: dict[int, Point] = {}
    for oid, p in items:
        if not any(dominates(q, p) for qid, q in items if qid != oid):
            out[oid] = p
    return out

