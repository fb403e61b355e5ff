"""The unified assignment engine — one round loop for every solver.

``AssignmentEngine`` owns the skeleton that SB, its Figure 8
ablations, SB-alt, the two-skyline prioritized variant and Chain all
used to re-implement privately:

1. **emit** — ask the round strategy for this round's stable pairs
   (mutually-best search over the skyline, or a chase step);
2. **commit** — apply the :class:`~repro.engine.protocols.CommitPolicy`
   selection under capacities/priorities through the
   :class:`~repro.core.capacity.CapacityTracker`, recording pairs into
   the :class:`~repro.core.types.Matching` and notifying the strategy
   of exhausted functions/objects;
3. **repair** — hand removed objects to the configured
   :class:`~repro.engine.protocols.SkylineMaintenance`.

Termination mirrors the paper's Algorithm 3: the loop runs while some
capacity remains on both sides, the skyline is non-empty and the pair
source is not exhausted.  Instrumentation (timing, I/O deltas, peak
memory, loop counts) lives in one place —
:class:`~repro.engine.instrumentation.Instrumentation` — instead of
five copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.capacity import CapacityTracker
from repro.core.index import ObjectIndex
from repro.core.types import AssignmentResult, Matching, RunStats
from repro.data.instances import FunctionSet, ObjectSet
from repro.engine.instrumentation import Instrumentation
from repro.engine.protocols import CommitPolicy, RoundStrategy, SkylineMaintenance
from repro.storage.stats import MemoryTracker


@dataclass
class EngineContext:
    """Everything a strategy may need while solving one instance."""

    functions: FunctionSet
    objects: ObjectSet
    index: ObjectIndex
    caps: CapacityTracker
    matching: Matching
    mem: MemoryTracker


@dataclass(frozen=True)
class EngineConfig:
    """A named solver = three strategy factories over the round loop.

    The factories receive the run's :class:`EngineContext` so strategy
    state (coefficient lists, TA searches, function trees) can be
    sized to the instance.  Configs are cheap, declarative values —
    the Figure 8 ablation variants are just different configs (see
    :mod:`repro.engine.configs`).
    """

    name: str
    build_maintenance: Callable[[EngineContext], SkylineMaintenance]
    build_round: Callable[[EngineContext], RoundStrategy]
    build_commit: Callable[[EngineContext], CommitPolicy]


class AssignmentEngine:
    """Runs one :class:`EngineConfig` on one (functions, index) pair."""

    def __init__(self, config: EngineConfig):
        self.config = config

    def run(
        self, functions: FunctionSet, index: ObjectIndex
    ) -> AssignmentResult:
        inst = Instrumentation(index)
        matching = Matching()
        # Degenerate instances short-circuit with zeroed stats and no
        # strategy-specific counters, uniformly for every config (the
        # pre-refactor chain_assign instead crashed on an empty
        # FunctionSet while reading functions.dims).
        if len(functions) == 0 or len(index.objects) == 0:
            return AssignmentResult(matching, RunStats())

        ctx = EngineContext(
            functions=functions,
            objects=index.objects,
            index=index,
            caps=CapacityTracker(functions, index.objects),
            matching=matching,
            mem=inst.mem,
        )
        maintenance = self.config.build_maintenance(ctx)
        round_strategy = self.config.build_round(ctx)
        commit = self.config.build_commit(ctx)

        phase_start = inst.clock()
        skyline = maintenance.compute_initial()
        inst.phase("skyline_initial", inst.clock() - phase_start)
        loops, skyline = self._round_loop(
            ctx, maintenance, round_strategy, commit, skyline, inst
        )

        stats = inst.finish(loops)
        round_strategy.finalize(stats, skyline)
        return AssignmentResult(matching, stats)

    # ------------------------------------------------------------------
    # The round loop (Algorithm 3's skeleton)
    # ------------------------------------------------------------------

    def _round_loop(
        self,
        ctx: EngineContext,
        maintenance: SkylineMaintenance,
        round_strategy: RoundStrategy,
        commit: CommitPolicy,
        skyline,
        inst: Instrumentation,
    ) -> tuple[int, object]:
        caps = ctx.caps
        loops = 0
        # Local accumulators, folded into ``inst.phases`` once at loop
        # exit — two clock reads per phase per round, no dict
        # traffic on the hot path.
        search_seconds = commit_seconds = repair_seconds = 0.0
        clock = inst.clock
        while not caps.exhausted and skyline:
            loops += 1
            tick = clock()
            proposed = round_strategy.propose(skyline)
            search_seconds += clock() - tick
            if proposed is None:
                break  # pair source exhausted (no alive functions seen)
            if not proposed:
                continue  # non-emitting round (e.g. a chase step)

            tick = clock()
            dead_objects: list[int] = []
            dead_functions: list[int] = []
            for fid, oid, s in commit.select(proposed):
                units, f_died, o_died = caps.assign(fid, oid)
                ctx.matching.add(fid, oid, s, units)
                round_strategy.on_pair_committed(fid, oid, units, f_died, o_died)
                if f_died:
                    dead_functions.append(fid)
                if o_died:
                    dead_objects.append(oid)
            commit_seconds += clock() - tick

            if caps.exhausted:
                break
            if dead_objects:
                tick = clock()
                skyline = maintenance.remove(dead_objects)
                repair_seconds += clock() - tick
            round_strategy.on_round_end(dead_functions)
        inst.phase("search", search_seconds)
        inst.phase("commit", commit_seconds)
        inst.phase("skyline_repair", repair_seconds)
        return loops, skyline
