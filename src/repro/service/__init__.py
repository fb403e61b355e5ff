"""Batched solve service — many assignment workloads, one harness.

The first serving layer on the road to the ROADMAP's heavy-traffic
story: :class:`~repro.service.batch.BatchSolver` accepts many
(FunctionSet, ObjectSet) jobs, reuses built object R-trees across
jobs through an instance-hash cache, runs the jobs on a worker pool
and returns per-job :class:`~repro.core.types.AssignmentResult`\\ s.
Two execution backends: the default thread pool over one shared index
cache, and :class:`~repro.service.pool.ProcessPoolSolver`
(``executor="process"``) with per-worker index replicas for true
multi-core parallelism over a shared catalogue.
"""

from repro.data.instances import object_set_fingerprint
from repro.service.batch import (
    BatchSolver,
    JobResult,
    ObjectIndexCache,
    ResolvedJob,
    SolveJob,
)
from repro.service.pool import EXECUTORS, ProcessPoolSolver

__all__ = [
    "EXECUTORS",
    "BatchSolver",
    "JobResult",
    "ObjectIndexCache",
    "ProcessPoolSolver",
    "ResolvedJob",
    "SolveJob",
    "object_set_fingerprint",
]
