"""Batched solve service — many assignment workloads, one harness.

The first serving layer on the road to the ROADMAP's heavy-traffic
story: :class:`~repro.service.batch.BatchSolver` accepts many
(FunctionSet, ObjectSet) jobs, reuses object indexes across jobs
through an instance-hash cache, runs the jobs on a thread pool
over that one shared cache and returns per-job
:class:`~repro.core.types.AssignmentResult`\\ s.
"""

from repro.data.instances import object_set_fingerprint
from repro.service.batch import (
    BatchSolver,
    JobResult,
    ObjectIndexCache,
    ResolvedJob,
    SolveJob,
)

__all__ = [
    "BatchSolver",
    "JobResult",
    "ObjectIndexCache",
    "ResolvedJob",
    "SolveJob",
    "object_set_fingerprint",
]
