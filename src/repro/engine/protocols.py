"""Strategy protocols of the unified assignment engine.

The paper's solvers all share one skeleton — the *round loop* of
Algorithm 3: find mutually-best (function, object) pairs, commit them
under capacities/priorities, repair the skyline of the surviving
objects.  What differs between SB, its Figure 8 ablations, SB-alt,
the two-skyline prioritized variant and Chain is *how* each step is
carried out.  These protocols name the three seams:

- :class:`SkylineMaintenance` — owns the object skyline across
  removals (UpdateSkyline, DeltaSky, in-memory plists, or the trivial
  "no skyline" of Chain);
- :class:`BestPairSearch` — produces the best alive function of every
  skyline object (resumable reverse-TA, one batch TA sweep, or an
  exhaustive vectorized Fsky scan);
- :class:`CommitPolicy` — selects which of the round's mutually-best
  pairs are committed (all of them, Section 5.3, or only the globally
  best one, Algorithm 1).

A fourth seam, :class:`RoundStrategy`, covers solvers whose pair
*production* does not follow the fbest/obest shape: Chain's mutual
top-1 chasing plugs in here while still sharing the engine's commit,
instrumentation and termination machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.core.types import RunStats

Point = tuple[float, ...]
#: ``{oid: point}`` — the engine's view of the current object skyline.
#: Strategies that need no skyline (Chain, the columnar configs)
#: supply a truthy sentinel.
SkylineState = dict[int, Point]


class StablePair(NamedTuple):
    """One mutually-best pair proposed by a round."""

    fid: int
    oid: int
    score: float


@runtime_checkable
class SkylineMaintenance(Protocol):
    """Maintains the skyline of a logically shrinking object set."""

    def compute_initial(self) -> SkylineState:
        """Compute the skyline of the full object set."""
        ...

    def remove(self, oids) -> SkylineState:
        """Remove assigned skyline members and repair the skyline."""
        ...


@runtime_checkable
class BestPairSearch(Protocol):
    """Best-alive-function search for the objects of the skyline."""

    def best_functions(
        self, skyline: SkylineState
    ) -> dict[int, tuple[int, float]] | None:
        """``{oid: (fid, score)}`` for every skyline object, or ``None``
        when no alive function remains (terminates the round loop)."""
        ...

    def on_function_dead(self, fid: int) -> None:
        """A function's capacity reached zero during the commit step."""
        ...

    def on_object_dead(self, oid: int) -> None:
        """An object's capacity reached zero during the commit step."""
        ...

    def on_round_end(self, dead_fids: list[int]) -> None:
        """Round finished (skyline already repaired); batch cleanup."""
        ...

    def finalize(self, stats: "RunStats", skyline: SkylineState) -> None:
        """Contribute work counters / I/O adjustments to the run stats."""
        ...


@runtime_checkable
class CommitPolicy(Protocol):
    """Selects which mutually-best pairs a round commits."""

    def select(self, stable: list[StablePair]) -> list[StablePair]:
        ...


class RoundStrategy:
    """One engine round: propose stable pairs, observe their commit.

    Base class with no-op hooks; :class:`~repro.engine.rounds.MutualBestRound`
    is the canonical skyline-driven implementation and
    :class:`~repro.engine.rounds.ChainRound` the mutual-top-1 chase.
    """

    def propose(self, skyline: SkylineState) -> list[StablePair] | None:
        """Stable pairs found this round; ``[]`` to continue without a
        commit (e.g. a non-emitting chase step), ``None`` to terminate
        the loop (pair source exhausted)."""
        raise NotImplementedError

    def on_pair_committed(
        self, fid: int, oid: int, units: int, f_died: bool, o_died: bool
    ) -> None:
        pass

    def on_round_end(self, dead_fids: list[int]) -> None:
        pass

    def finalize(self, stats: "RunStats", skyline: SkylineState) -> None:
        pass
