"""repro.server — the network-facing front of the assignment stack.

A stdlib-only asyncio JSON-over-HTTP server that makes the ROADMAP's
"heavy traffic" story executable end to end::

    api (Problem/Session/Solution)  ←  this layer serves it over HTTP
      └─ core / engine (solvers + the session's ObjectIndex cache)

Run it standalone::

    python -m repro.server --port 8000        # or the repro-server script

or embed it (tests, examples, benchmarks)::

    from repro.server import Client, ServerConfig, serve_in_thread

    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(handle.base_url) as client:
            problem_id = client.register(problem)
            solution = client.solve(problem_id)

Endpoints: catalogue registration (by fingerprint, so later problems
can name their catalogue instead of carrying it), problem registration
(deduplicated by content digest), synchronous solve, async job
submission + polling, solution retrieval/diff, ``/metrics`` and
``/healthz``.  Overload answers
HTTP 429 with ``Retry-After`` (see
:class:`~repro.server.jobs.AdmissionController`).
"""

from repro.server.app import (
    ReproServer,
    ServerConfig,
    serve_in_thread,
)
from repro.server.cache import SolutionCache
from repro.server.client import Client
from repro.server.jobs import AdmissionController, Job, JobStore
from repro.server.metrics import LatencyHistogram, ServerMetrics

__all__ = [
    "AdmissionController",
    "Client",
    "Job",
    "JobStore",
    "LatencyHistogram",
    "ReproServer",
    "ServerConfig",
    "ServerMetrics",
    "SolutionCache",
    "serve_in_thread",
]
