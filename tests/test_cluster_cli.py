"""Console-path smoke for the cluster: boot two ``python -m
repro.server`` backends and a ``python -m repro.cluster`` gateway as
real subprocesses, solve through the gateway, kill one backend, and
verify service continues — the CI cluster-smoke job runs exactly
this test."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.api import Problem
from repro.server import Client

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _spawn(module, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", module, "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _read_port(process, prefix, timeout=30.0) -> int:
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    line = ""
    while time.monotonic() < deadline:
        if process.poll() is not None:
            stderr = process.stderr.read() if process.stderr else ""
            raise AssertionError(
                f"process exited early (rc={process.returncode}): {stderr}"
            )
        line = process.stdout.readline()
        if line:
            break
    assert line.startswith(prefix), line
    authority = line[len(prefix) :].split()[0]
    return int(authority.rstrip("/").rsplit(":", 1)[1])


def _terminate(process):
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def _problem(seed_shift: float) -> Problem:
    return (
        Problem.builder()
        .add_objects(
            [
                (0.5 + seed_shift, 0.6),
                (0.2, 0.7 - seed_shift),
                (0.8, 0.2 + seed_shift),
                (0.4, 0.4),
            ]
        )
        .add_functions([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
        .solver("sb")
        .build()
    )


def test_gateway_console_smoke_survives_backend_kill():
    backends = [_spawn("repro.server") for _ in range(2)]
    gateway = None
    try:
        ports = [
            _read_port(p, "repro-server listening on http://")
            for p in backends
        ]
        gateway = _spawn(
            "repro.cluster",
            "--backend", f"127.0.0.1:{ports[0]}",
            "--backend", f"127.0.0.1:{ports[1]}",
            "--probe-interval", "0.2",
            "--retry-after", "0.05",
        )
        gateway_port = _read_port(
            gateway, "repro-gateway listening on http://"
        )
        problems = [_problem(i * 0.01) for i in range(6)]
        with Client(host="127.0.0.1", port=gateway_port) as client:
            health = client.health()
            assert health["role"] == "gateway"
            assert health["ring"]["alive"] == 2
            expected = {}
            for problem in problems:
                pid = client.register(problem)
                solution = client.solve(pid)
                solution.verify()
                expected[pid] = solution.to_dict()["pairs"]
            # Async round trip through the console gateway too.
            job_id = client.submit(problems[0].digest())
            assert "@" in job_id
            client.result(job_id)

            # Kill a backend that took forwards: the ring follows the
            # random ports and may give every problem to one backend,
            # and killing the other would leave only the prober to
            # notice, after the assertions below.
            forwards = client.metrics()["backends"]
            victim = next(
                process
                for process, port in zip(backends, ports)
                if forwards[f"127.0.0.1:{port}"]["forwards"] > 0
            )
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            # Every catalogue—including those owned by the dead
            # backend—still solves, re-sharded, with identical pairs.
            for problem in problems:
                replayed = client.solve(problem.digest())
                assert replayed.to_dict()["pairs"] == expected[problem.digest()]
            metrics = client.metrics()
            assert metrics["gateway"]["backends_alive"] == 1
            assert metrics["gateway"]["reshards_total"] >= 1
            assert client.health()["status"] == "degraded"
    finally:
        if gateway is not None:
            _terminate(gateway)
        for process in backends:
            _terminate(process)
