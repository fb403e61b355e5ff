"""Result types shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.stats import IOStats


@dataclass(frozen=True)
class AssignedPair:
    """One stable (function, object) pair.

    ``count`` > 1 aggregates the capacitated case: it is the number of
    units matched between the two (Section 6.1's repeated Line 15–17
    decrements, batched into one pair).
    """

    fid: int
    oid: int
    score: float
    count: int = 1


@dataclass
class Matching:
    """A stable assignment: the ordered list of emitted pairs.

    ``object_of`` / ``function_of`` lookups go through lazily built
    per-side index maps instead of scanning ``pairs``; the maps are
    extended incrementally as pairs are appended (via :meth:`add` or
    directly on ``pairs``) and rebuilt from scratch when ``pairs``
    shrinks or its first/last element is replaced.  The one mutation
    the heuristic cannot see is an in-place replacement of a *middle*
    element with both ends left intact — call :meth:`invalidate_index`
    after such surgery (every solver in this package only appends).
    """

    pairs: list[AssignedPair] = field(default_factory=list)
    _by_fid: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _by_oid: dict[int, list[tuple[int, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _indexed: int = field(default=0, init=False, repr=False, compare=False)
    _first_indexed_pair: AssignedPair | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _last_indexed_pair: AssignedPair | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.pairs)

    def add(self, fid: int, oid: int, score: float, count: int = 1) -> None:
        self.pairs.append(AssignedPair(fid, oid, score, count))

    def invalidate_index(self) -> None:
        """Force a rebuild of the lookup maps on next access (needed
        only after replacing a middle element of ``pairs`` in place)."""
        self._by_fid.clear()
        self._by_oid.clear()
        self._indexed = 0
        self._first_indexed_pair = None
        self._last_indexed_pair = None

    def _refresh_index(self) -> None:
        stale = self._indexed > len(self.pairs) or (
            self._indexed > 0
            and (
                self.pairs[self._indexed - 1] is not self._last_indexed_pair
                or self.pairs[0] is not self._first_indexed_pair
            )
        )
        if stale:
            self.invalidate_index()
        for p in self.pairs[self._indexed :]:
            self._by_fid.setdefault(p.fid, []).append((p.oid, p.count))
            self._by_oid.setdefault(p.oid, []).append((p.fid, p.count))
        self._indexed = len(self.pairs)
        self._first_indexed_pair = self.pairs[0] if self.pairs else None
        self._last_indexed_pair = self.pairs[-1] if self.pairs else None

    def as_dict(self) -> dict[tuple[int, int], int]:
        """``{(fid, oid): units}`` — order-independent comparison form."""
        out: dict[tuple[int, int], int] = {}
        for p in self.pairs:
            out[(p.fid, p.oid)] = out.get((p.fid, p.oid), 0) + p.count
        return out

    @property
    def num_units(self) -> int:
        return sum(p.count for p in self.pairs)

    def total_score(self) -> float:
        return sum(p.score * p.count for p in self.pairs)

    def object_of(self, fid: int) -> list[tuple[int, int]]:
        """``(oid, units)`` partners of a function (O(1) map lookup)."""
        self._refresh_index()
        return list(self._by_fid.get(fid, ()))

    def function_of(self, oid: int) -> list[tuple[int, int]]:
        """``(fid, units)`` partners of an object (O(1) map lookup)."""
        self._refresh_index()
        return list(self._by_oid.get(oid, ()))


@dataclass
class RunStats:
    """The paper's three metrics plus algorithm-specific work counters."""

    io: IOStats = field(default_factory=IOStats)
    cpu_seconds: float = 0.0
    peak_memory_bytes: int = 0
    loops: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds per engine round-loop phase (skyline_initial,
    #: search, commit, skyline_repair).  Timing data, so excluded from
    #: equality: bit-identity checks compare results across runs and
    #: processes, and wall clocks never agree.
    phases: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def io_accesses(self) -> int:
        """The paper's "I/O accesses": physical page reads."""
        return self.io.physical_reads


@dataclass
class AssignmentResult:
    """A matching together with the cost of computing it."""

    matching: Matching
    stats: RunStats

    def __iter__(self):
        # Allows ``matching, stats = solve(...)`` unpacking.
        yield self.matching
        yield self.stats
