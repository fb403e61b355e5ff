"""Capacity bookkeeping (Section 6.1).

Multiple identical objects/functions are modeled as one entity with a
capacity.  A stable pair ``(f, o)`` consumes ``min(cap_f, cap_o)``
units at once: repeating the paper's decrement-by-1 (Lines 15–17 of
Algorithm 3) leaves the pair mutually best until one side's capacity
reaches zero, so the batch is provably equivalent and loop counts stay
proportional to the number of *distinct* pairs.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.instances import FunctionSet, ObjectSet


def _seed(capacities: Sequence[int] | None, n: int) -> list[int]:
    return [1] * n if capacities is None else list(capacities)


class CapacityTracker:
    """Remaining capacities of both sides of the assignment."""

    def __init__(self, functions: FunctionSet, objects: ObjectSet):
        self._f_left = _seed(functions.capacities, len(functions))
        self._o_left = _seed(objects.capacities, len(objects))
        self.alive_functions = len(functions)
        self.alive_objects = len(objects)

    def function_alive(self, fid: int) -> bool:
        return self._f_left[fid] > 0

    def object_alive(self, oid: int) -> bool:
        return self._o_left[oid] > 0

    def function_capacity(self, fid: int) -> int:
        return self._f_left[fid]

    def object_capacity(self, oid: int) -> int:
        return self._o_left[oid]

    def assign(self, fid: int, oid: int) -> tuple[int, bool, bool]:
        """Consume ``min`` capacity between ``fid`` and ``oid``.

        Returns ``(units, function_died, object_died)``.
        """
        units = min(self._f_left[fid], self._o_left[oid])
        if units <= 0:
            raise ValueError(
                f"assigning exhausted pair (f={fid}, o={oid}): "
                f"{self._f_left[fid]} x {self._o_left[oid]}"
            )
        self._f_left[fid] -= units
        self._o_left[oid] -= units
        f_died = self._f_left[fid] == 0
        o_died = self._o_left[oid] == 0
        if f_died:
            self.alive_functions -= 1
        if o_died:
            self.alive_objects -= 1
        return units, f_died, o_died

    @property
    def exhausted(self) -> bool:
        """True when no further pair can be formed."""
        return self.alive_functions == 0 or self.alive_objects == 0
