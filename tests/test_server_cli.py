"""Console-path smoke: boot ``python -m repro.server`` as a real
subprocess on an ephemeral port, register a problem, solve it via the
blocking Client, and certify the solution — the CI server-smoke job
runs exactly this test."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import Problem
from repro.server import Client

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _spawn_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _read_port(process, timeout=30.0) -> int:
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    line = ""
    while time.monotonic() < deadline:
        if process.poll() is not None:
            stderr = process.stderr.read() if process.stderr else ""
            raise AssertionError(
                f"server exited early (rc={process.returncode}): {stderr}"
            )
        line = process.stdout.readline()
        if line:
            break
    assert line.startswith("repro-server listening on http://"), line
    return int(line.rstrip().rsplit(":", 1)[1])


@pytest.fixture()
def server_process():
    process = _spawn_server()
    try:
        yield process
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)


def test_console_entry_point_serves_solves(server_process):
    port = _read_port(server_process)
    problem = (
        Problem.builder()
        .add_objects([(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)])
        .add_functions([(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)])
        .solver("sb")
        .build()
    )
    with Client(host="127.0.0.1", port=port) as client:
        assert client.health()["status"] == "ok"
        problem_id = client.register(problem)
        solution = client.solve(problem_id)
        solution.verify()                      # certified stable
        job_id = client.submit(problem_id, method="chain")
        assert client.result(job_id).as_dict() == solution.as_dict()
        assert client.metrics()["solves"]["total"] >= 2

