"""Serving quickstart: the Figure 1 instance over HTTP.

Boots an embedded repro-server on an ephemeral port (the same server
``python -m repro.server`` runs standalone), registers a problem,
solves it synchronously and as an async job, and prints the serving
metrics.  Run with::

    PYTHONPATH=src python examples/server_quickstart.py
"""

from repro.api import Problem
from repro.server import Client, ServerConfig, serve_in_thread


def main() -> None:
    problem = (
        Problem.builder()
        .add_objects([(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)])
        .add_functions([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
        .solver("sb")
        .build()
    )

    with serve_in_thread(ServerConfig(port=0)) as handle:
        print(f"serving on {handle.base_url}")
        with Client(handle.base_url) as client:
            problem_id = client.register(problem)
            print(f"registered problem {problem_id[:16]}…")

            # Synchronous solve; the solution verifies client-side.
            solution = client.solve(problem_id).verify()
            for pair in solution:
                print(f"  user {pair.fid} -> object {pair.oid} ({pair.score:.2f})")

            # Async job: submit, then poll to completion.  A second
            # method over the same catalogue reuses the cached R-tree.
            job_id = client.submit(problem_id, method="chain")
            chain_solution = client.result(job_id)
            assert chain_solution.as_dict() == solution.as_dict()
            print(f"job {job_id} (chain) matches the sb solution")

            metrics = client.metrics()
            print(
                "index cache:", metrics["index_cache"],
                "| solution cache hits:", metrics["solution_cache"]["hits"],
            )
    print("done")


if __name__ == "__main__":
    main()
