"""LRU result cache keyed by :meth:`Problem.solve_key`.

The engine is deterministic: one ``(instance_digest, method, options)``
key has exactly one solution, so serving a cached :class:`Solution` is
bit-identical to re-solving.  This is the second cache tier of the
serving stack — the first (the session's
:class:`~repro.core.index.ObjectIndexCache`) saves the catalogue's
index build, this one saves the whole engine run for repeat queries.

Counters (``hits`` / ``misses`` / ``evictions``) feed ``/metrics``.
The cache is lock-guarded: handlers run on the event loop, but tests
and embedding code may poke it from other threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.api.solution import Solution

SolveKey = tuple[str, str, str]


class SolutionCache:
    """Bounded LRU of solved results; ``max_entries=0`` disables it."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = max_entries
        self._entries: OrderedDict[SolveKey, Solution] = OrderedDict()
        self._guard = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, key: SolveKey) -> Solution | None:
        if not self.enabled:
            # A disabled cache must not count misses: every lookup would
            # miss by construction, and ``/metrics`` would report a 0%
            # hit rate that reads as cache *failure* rather than
            # cache-*off*.  Skip the lookup (and the lock) entirely.
            return None
        with self._guard:
            solution = self._entries.get(key)
            if solution is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return solution

    def put(self, key: SolveKey, solution: Solution) -> None:
        if not self.enabled:
            return
        with self._guard:
            self._entries[key] = solution
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def info(self) -> dict[str, int]:
        with self._guard:
            return {
                "enabled": self.enabled,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }


__all__ = ["SolutionCache", "SolveKey"]
