"""The unified assignment engine.

One round loop — emit mutually-best pairs, commit under capacities
and priorities, repair the skyline — parameterized by three strategy
seams, replacing the five hand-rolled solver loops that used to live
in :mod:`repro.core`:

- :class:`~repro.engine.engine.AssignmentEngine` — runs an
  :class:`~repro.engine.engine.EngineConfig` on one instance;
- :mod:`repro.engine.protocols` — the ``SkylineMaintenance``,
  ``BestPairSearch`` and ``CommitPolicy`` strategy protocols plus the
  ``RoundStrategy`` seam;
- :mod:`repro.engine.search` — reverse-TA, batch-TA and Fsky-scan
  best-pair searches;
- :mod:`repro.engine.rounds` — the shared mutual-best round and
  Chain's top-1 chase;
- :mod:`repro.engine.configs` — every solver (and every Figure 8
  ablation variant) as a declarative config factory; the registry of
  :mod:`repro.core.registry` names them.
"""

from repro.engine.configs import (
    chain_config,
    sb_alt_config,
    sb_config,
    two_skyline_config,
)
from repro.engine.engine import AssignmentEngine, EngineConfig, EngineContext
from repro.engine.instrumentation import Instrumentation
from repro.engine.protocols import (
    BestPairSearch,
    CommitPolicy,
    RoundStrategy,
    SkylineMaintenance,
    StablePair,
)

__all__ = [
    "AssignmentEngine",
    "BestPairSearch",
    "CommitPolicy",
    "EngineConfig",
    "EngineContext",
    "Instrumentation",
    "RoundStrategy",
    "SkylineMaintenance",
    "StablePair",
    "chain_config",
    "sb_alt_config",
    "sb_config",
    "two_skyline_config",
]
