"""The rich :class:`Solution` result returned by the session facade.

Wraps the engine's :class:`~repro.core.types.AssignmentResult` with
O(1) partner lookups, stability certification against the owning
:class:`~repro.api.problem.Problem`, diffing against a previous
solution (for dynamic updates), and versioned JSON serde (including a
full round trip of the run's cost statistics).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.api.problem import Problem
from repro.api.serde import (
    SCHEMA_KEY,
    SOLUTION_SCHEMA,
    check_payload,
    from_json,
    to_canonical_json,
)
from repro.core.registry import Plan
from repro.core.types import AssignedPair, AssignmentResult, Matching, RunStats
from repro.core.validate import assert_stable
from repro.data.instances import FunctionSet, ObjectSet
from repro.errors import ReproError, SerdeError
from repro.storage.stats import IOStats


@dataclass(frozen=True)
class SolutionDiff:
    """Unit-level delta between two solutions.

    ``added`` / ``removed`` hold ``(fid, oid, units)`` triples: the
    matched units present only in the newer / only in the older
    solution.  Falsy when the two assignments are identical.
    """

    added: tuple[tuple[int, int, int], ...]
    removed: tuple[tuple[int, int, int], ...]

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    @property
    def units_changed(self) -> int:
        return sum(u for _, _, u in self.added) + sum(u for _, _, u in self.removed)


@dataclass(frozen=True)
class Solution:
    """An immutable solved assignment.

    Equality compares the assignment itself (``pairs`` and ``method``);
    the run statistics, the planner's :class:`~repro.core.registry.Plan`
    (present when the solve was routed via ``method="auto"``) and the
    back-reference to the solved problem are carried but not compared.
    ``method`` is always the *resolved* concrete method that ran — a
    planner-routed solution is indistinguishable from a hand-routed
    one except for the attached ``plan``.
    """

    pairs: tuple[AssignedPair, ...]
    method: str = "sb"
    stats: RunStats | None = field(default=None, compare=False)
    problem: Problem | None = field(default=None, compare=False, repr=False)
    plan: Plan | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_result(
        cls,
        result: AssignmentResult,
        method: str,
        problem: Problem | None = None,
        plan: Plan | None = None,
    ) -> "Solution":
        return cls(
            pairs=tuple(result.matching.pairs),
            method=method,
            stats=result.stats,
            problem=problem,
            plan=plan,
        )

    def explain(self) -> str:
        """One line saying which method ran and why."""
        return (self.plan or Plan(self.method, self.method)).explain()

    # -- lookups -------------------------------------------------------

    @cached_property
    def _by_fid(self) -> dict[int, tuple[tuple[int, int], ...]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for p in self.pairs:
            out.setdefault(p.fid, []).append((p.oid, p.count))
        return {fid: tuple(v) for fid, v in out.items()}

    @cached_property
    def _by_oid(self) -> dict[int, tuple[tuple[int, int], ...]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for p in self.pairs:
            out.setdefault(p.oid, []).append((p.fid, p.count))
        return {oid: tuple(v) for oid, v in out.items()}

    def partner_of(self, fid: int) -> tuple[tuple[int, int], ...]:
        """``(oid, units)`` partners of a function — O(1)."""
        return self._by_fid.get(fid, ())

    def partners_of(self, oid: int) -> tuple[tuple[int, int], ...]:
        """``(fid, units)`` partners of an object — O(1)."""
        return self._by_oid.get(oid, ())

    def __iter__(self) -> Iterator[AssignedPair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def matching(self) -> Matching:
        """The assignment as the engine-level :class:`Matching`."""
        return Matching(pairs=list(self.pairs))

    def as_dict(self) -> dict[tuple[int, int], int]:
        """``{(fid, oid): units}`` — order-independent comparison form."""
        return self.matching.as_dict()

    @property
    def num_units(self) -> int:
        return sum(p.count for p in self.pairs)

    def total_score(self) -> float:
        return sum(p.score * p.count for p in self.pairs)

    # -- certification -------------------------------------------------

    def verify(
        self,
        functions: FunctionSet | None = None,
        objects: ObjectSet | None = None,
    ) -> "Solution":
        """Certify stability (no blocking pair); returns ``self``.

        Uses the attached problem's instance when ``functions`` /
        ``objects`` are not given; raises
        :class:`~repro.errors.ReproError` if neither is available and
        ``AssertionError`` if a blocking pair exists.
        """
        if functions is None or objects is None:
            if self.problem is None:
                raise ReproError(
                    "cannot verify a detached Solution: pass the instance "
                    "(functions, objects) or attach the Problem"
                )
            if functions is None:
                functions = self.problem.function_set
            if objects is None:
                objects = self.problem.object_set
        assert_stable(self.matching, functions, objects)
        return self

    # -- diffing -------------------------------------------------------

    def diff(self, previous: "Solution | None") -> SolutionDiff:
        """Unit-level changes relative to ``previous`` (``None`` =
        everything is new)."""
        mine = self.as_dict()
        theirs = previous.as_dict() if previous is not None else {}
        added: list[tuple[int, int, int]] = []
        removed: list[tuple[int, int, int]] = []
        for key in sorted(set(mine) | set(theirs)):
            delta = mine.get(key, 0) - theirs.get(key, 0)
            if delta > 0:
                added.append((key[0], key[1], delta))
            elif delta < 0:
                removed.append((key[0], key[1], -delta))
        return SolutionDiff(added=tuple(added), removed=tuple(removed))

    # -- serde ---------------------------------------------------------

    def to_dict(self) -> dict:
        stats = None
        if self.stats is not None:
            stats = {
                "io": {
                    "physical_reads": self.stats.io.physical_reads,
                    "logical_reads": self.stats.io.logical_reads,
                    "physical_writes": self.stats.io.physical_writes,
                },
                "cpu_seconds": self.stats.cpu_seconds,
                "peak_memory_bytes": self.stats.peak_memory_bytes,
                "loops": self.stats.loops,
                "counters": dict(self.stats.counters),
                "phases": dict(self.stats.phases),
            }
        payload = {
            SCHEMA_KEY: SOLUTION_SCHEMA,
            "method": self.method,
            "pairs": [[p.fid, p.oid, p.score, p.count] for p in self.pairs],
            "stats": stats,
        }
        if self.plan is not None:
            payload["plan"] = self.plan.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Solution":
        check_payload(
            payload,
            SOLUTION_SCHEMA,
            required={"method", "pairs"},
            optional={"stats", "plan"},
        )
        try:
            pairs = tuple(
                AssignedPair(int(fid), int(oid), float(score), int(count))
                for fid, oid, score, count in payload["pairs"]
            )
        except (TypeError, ValueError) as exc:
            raise SerdeError(f"malformed pairs in solution payload: {exc}") from exc
        raw = payload.get("stats")
        stats = None
        if raw is not None:
            if not isinstance(raw, Mapping):
                raise SerdeError("solution 'stats' must be a mapping or null")
            io = raw.get("io") or {}
            stats = RunStats(
                io=IOStats(
                    physical_reads=int(io.get("physical_reads", 0)),
                    logical_reads=int(io.get("logical_reads", 0)),
                    physical_writes=int(io.get("physical_writes", 0)),
                ),
                cpu_seconds=float(raw.get("cpu_seconds", 0.0)),
                peak_memory_bytes=int(raw.get("peak_memory_bytes", 0)),
                loops=int(raw.get("loops", 0)),
                counters=dict(raw.get("counters") or {}),
                phases=dict(raw.get("phases") or {}),
            )
        raw_plan = payload.get("plan")
        plan = Plan.from_dict(raw_plan) if raw_plan is not None else None
        return cls(pairs=pairs, method=payload["method"], stats=stats, plan=plan)

    def to_json(self) -> str:
        return to_canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str | bytes) -> "Solution":
        return cls.from_dict(from_json(text))

    def to_file(self, path: str | Path) -> Path:
        """Write the canonical JSON payload to ``path``; returns it."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_file(cls, path: str | Path) -> "Solution":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise SerdeError(f"cannot read solution file {path!s}: {exc}") from exc
        return cls.from_json(text)


__all__ = ["Solution", "SolutionDiff"]
