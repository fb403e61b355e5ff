"""``fleet_wire``: ``repro-gateway`` in front of two ``repro-server``
backends, driven over HTTP by two closed-loop clients.

Each fleet member is its own subprocess with shipped defaults (thread
executor, solution cache on, tracing on); only the port is chosen
(``--port 0``, read back from the "listening" announcement).  The load
process is ``run.py`` itself, whose CPU is not counted.
"""

from __future__ import annotations

import itertools
import json
import selectors
import signal
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    STATE,
    SpanRecorder,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    program_env,
)

#: Closed-loop clients: one per core of the 2-core reference host.
CLIENTS = 2
BACKENDS = 2
BOOT_TIMEOUT_S = 120.0


class Fleet:
    """One gateway and its backends; as a context manager it always
    stops (and reaps) every process it started."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.members: list[dict] = []  # role, proc, url, boot_s
        self.gateway_url = ""
        self.backend_urls: list[str] = []

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _spawn(self, role: str, args: list[str]) -> dict:
        logs = STATE / "logs"
        logs.mkdir(parents=True, exist_ok=True)
        with open(logs / f"{self.tag}-{role}-{len(self.members)}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", *args, "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=log,
                cwd=ROOT,
                env=program_env(),
            )
        member = {"role": role, "proc": proc, "spawned": time.perf_counter()}
        self.members.append(member)
        return member

    @staticmethod
    def _await_listening(member: dict) -> str:
        proc = member["proc"]
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=BOOT_TIMEOUT_S):
                raise RuntimeError(f"{member['role']} did not announce itself")
            line = proc.stdout.readline().decode()
        if "listening on http://" not in line:
            raise RuntimeError(f"{member['role']} failed to start: {line!r}")
        member["boot_s"] = time.perf_counter() - member["spawned"]
        return "http://" + line.split("http://", 1)[1].split()[0]

    def start(self) -> None:
        backends = [self._spawn("backend", ["repro.server"]) for _ in range(BACKENDS)]
        self.backend_urls = [self._await_listening(m) for m in backends]
        flags = [f for url in self.backend_urls for f in ("--backend", url[7:])]
        gateway = self._spawn("gateway", ["repro.cluster", *flags])
        self.gateway_url = self._await_listening(gateway)

    @property
    def pids(self) -> dict[str, int]:
        return {f"{m['role']}{i}": m["proc"].pid for i, m in enumerate(self.members)}

    def boot_seconds(self) -> list[float]:
        return [m["boot_s"] for m in self.members if "boot_s" in m]

    def stop(self) -> None:
        for m in self.members:
            if m["proc"].poll() is None:
                m["proc"].send_signal(signal.SIGINT)
        for m in self.members:
            try:
                m["proc"].wait(timeout=15)
            except subprocess.TimeoutExpired:
                m["proc"].kill()
                m["proc"].wait()
            m["proc"].stdout.close()
        self.members = []


def boot(tag: str, catalogue_problems: list) -> tuple[Fleet, float]:
    """Start a fleet and make it ready for the first op: every backend
    holds every catalogue's index (routing hashes the whole instance,
    so any backend may serve any catalogue) and the gateway path has
    served one request.  Returns the fleet and its set-up seconds."""
    from repro.server.client import Client

    start = time.perf_counter()
    fleet = Fleet(tag)
    try:
        fleet.start()
        for url in fleet.backend_urls:
            with Client(url) as client:
                for problem in catalogue_problems:
                    client.solve(problem)
        with Client(fleet.gateway_url) as client:
            client.solve(catalogue_problems[0])
    except BaseException:
        fleet.stop()
        raise
    return fleet, time.perf_counter() - start


def fleet_metrics(fleet: Fleet) -> dict:
    from repro.server.client import Client

    with Client(fleet.gateway_url) as client:
        return client.metrics()


def run_phase(fleet: Fleet, problems: list, rec: SpanRecorder | None) -> dict:
    """Send every request once, from ``CLIENTS`` closed-loop clients.

    Untraced, an op is ``Client.solve(problem)`` (a register round trip
    then a solve round trip).  Traced, the same two round trips go
    through the client's public ``request()`` so the op splits into
    encode, register, solve and decode spans.  The fleet's CPU time
    (gateway + backends) is read from ``/proc`` around the timed phase.
    """
    from repro.api import Solution
    from repro.server.client import Client

    n = len(problems)
    answers: list = [None] * n
    latencies: list = [None] * n
    sent = [0] * n
    bodies: list = [()] * n
    errors: list = []
    counter = itertools.count()
    barrier = threading.Barrier(CLIENTS + 1)
    client = Client(fleet.gateway_url)

    def traced_op(i: int):
        problem = problems[i]
        with rec.span("op", i):
            with rec.span("client.encode", i):
                payload = problem.to_dict()
                sent[i] = len(json.dumps(payload))
            with rec.span("client.register", i):
                _, registered = client.request("POST", "/v1/problems", payload)
            with rec.span("client.solve", i):
                _, solved = client.request(
                    "POST", f"/v1/problems/{registered['problem_id']}/solve"
                )
            with rec.span("client.decode", i):
                solution = Solution.from_dict(solved["solution"])
        bodies[i] = (registered, solved)
        return solution

    op = traced_op if rec is not None else (lambda i: client.solve(problems[i]))

    def loop() -> None:
        barrier.wait()
        while (i := next(counter)) < n:
            start = time.perf_counter()
            try:
                answer = op(i)
            # A raised op is a failed op, counted against the attempts.
            except Exception as exc:
                errors.append([i, f"{type(exc).__name__}: {exc}"])
                continue
            latencies[i] = time.perf_counter() - start
            answers[i] = answer

    before = fleet_metrics(fleet)
    pids = fleet.pids
    cpu0 = {name: proc_cpu_seconds(pid) for name, pid in pids.items()}
    threads = [threading.Thread(target=loop) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    cpu1 = {name: proc_cpu_seconds(pid) for name, pid in pids.items()}
    rss = {name: proc_peak_rss_mb(pid) for name, pid in pids.items()}
    after = fleet_metrics(fleet)
    client.close()
    return {
        "answers": answers,
        "latencies": latencies,
        "wall_s": wall,
        "cpu_s": sum(cpu1.values()) - sum(cpu0.values()),
        "cpu_by_process_s": {name: cpu1[name] - cpu0[name] for name in pids},
        "peak_rss_mb": sum(rss.values()),
        "metrics_before": before,
        "metrics_after": after,
        # Response bodies re-encoded as the server encodes them,
        # after the timed phase.
        "wire_bytes": sum(sent)
        + sum(len(json.dumps(b, sort_keys=True)) + 1 for pair in bodies for b in pair),
        "errors": errors,
    }
