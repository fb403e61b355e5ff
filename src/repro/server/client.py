"""Blocking HTTP client for :mod:`repro.server` — stdlib only.

Speaks the server's JSON protocol over keep-alive
:class:`http.client.HTTPConnection` transports (reconnecting
transparently when the peer drops one), translates error responses
into the :class:`~repro.errors.ServerError` hierarchy, and re-hydrates
wire payloads into the same :class:`Problem` / :class:`Solution` value
objects the in-process API returns — a solution fetched over the wire
is ``==`` to one solved locally.

A :class:`Problem` goes over the wire one way: by catalogue reference.
The client sends each catalogue to its base URL once
(``POST /v1/catalogues``) and remembers which fingerprints the base URL
holds; ``solve``, ``submit`` and ``register`` then send the
``repro.problem/v3`` payload, which names the catalogue by fingerprint,
so a solve or a job is one round trip whose body is O(cohort).  A
server or gateway that no longer holds the catalogue (restarted, or
evicted it) answers a typed 404; the client sends the catalogue again
and retries once.

Thread-safe: each thread gets its own keep-alive connection (held in
``threading.local`` storage), so one ``Client`` may be shared by any
number of concurrent callers — the cluster gateway forwards every
in-flight request for a backend through one shared ``Client``.  The
problem and catalogue memories are guarded by a lock.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from collections import OrderedDict

from repro.api.problem import Problem, catalogue_to_dict
from repro.api.solution import Solution
from repro.data.instances import ObjectSet, object_set_fingerprint
from repro.errors import (
    ServerBusyError,
    ServerError,
    ServerUnavailableError,
    UnknownCatalogueError,
)
from repro.obs.trace import TRACE_HEADER, current_context, span
from repro.server.base import CATALOGUE_STORE_SIZE

#: Statuses whose ``Retry-After`` the polite-retry loop honours.
_RETRYABLE = (ServerBusyError, ServerUnavailableError)

#: How many registered problems a client remembers for re-attaching
#: fetched solutions (LRU) — the server's default registry size
#: (``ServerConfig.problem_registry_size``), past which the server
#: forgets them too.
KNOWN_PROBLEMS = 4096

#: How many catalogue fingerprints a client remembers its base URL
#: holding (LRU) — the services' catalogue store bound, past which they
#: forget them too.
KNOWN_CATALOGUES = CATALOGUE_STORE_SIZE


def _retry_after_seconds(response) -> float:
    try:
        return float(response.headers.get("Retry-After", "1"))
    except ValueError:
        return 1.0


def _error_message(decoded, default: str) -> str:
    """The ``error`` string of an error envelope, or ``default`` when
    the body is no envelope or its ``error`` is not a string."""
    message = decoded.get("error") if isinstance(decoded, dict) else None
    return message if isinstance(message, str) else default


class Client:
    """Blocking client bound to one server base URL."""

    def __init__(
        self,
        base_url: str | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout: float = 60.0,
    ):
        if base_url is not None:
            if not base_url.startswith("http://"):
                raise ValueError(f"expected an http:// base URL, got {base_url!r}")
            authority = base_url[len("http://") :].rstrip("/")
            host, _, port_text = authority.partition(":")
            port = int(port_text) if port_text else 80
        self.host = host
        self.port = port
        self.timeout = timeout
        # One keep-alive connection per calling thread: HTTPConnection
        # is a single request/response state machine, so interleaved
        # use from two threads corrupts the stream.  Thread-local
        # storage gives every caller its own; ``_conns`` remembers
        # them all so close() can drop every socket.
        self._local = threading.local()
        self._guard = threading.Lock()
        self._conns: set[http.client.HTTPConnection] = set()
        # The problems this client registered or fetched last (LRU,
        # KNOWN_PROBLEMS), for re-attaching to solutions so
        # ``.verify()`` works without another fetch.
        self._known: OrderedDict[str, Problem] = OrderedDict()
        # The catalogue fingerprints the base URL holds, as far as this
        # client knows (LRU, KNOWN_CATALOGUES).
        self._catalogues: OrderedDict[str, None] = OrderedDict()
        #: Trace id the server echoed on the most recent response from
        #: this thread's connection (``X-Repro-Trace``), for feeding
        #: ``repro-admin trace`` after an interesting call.
        self.last_trace_id: str | None = None

    # -- transport -----------------------------------------------------

    def _get_conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        # (Re-)track on every use: a cross-thread close() untracks the
        # connection, but HTTPConnection auto-reopens on the next
        # request — it must come back under close()'s control.
        with self._guard:
            self._conns.add(conn)
        return conn

    def _drop_conn(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            return
        self._local.conn = None
        with self._guard:
            self._conns.discard(conn)
        conn.close()

    def close(self) -> None:
        """Close every connection this client has opened, across all
        threads (safe to call while other threads are idle; a thread
        mid-request simply reconnects on its next call)."""
        with self._guard:
            conns, self._conns = self._conns, set()
        self._local.conn = None
        for conn in conns:
            conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, payload=None):
        """One JSON round trip: ``(status, decoded body)``.

        ``payload`` is a JSON-compatible value, or ``bytes`` already
        encoded as JSON, which are sent as they are (the gateway relays
        request bodies it has validated this way).

        Raises the typed :class:`~repro.errors.ServerError` hierarchy
        for non-success statuses (429 → :class:`ServerBusyError`,
        503 → :class:`ServerUnavailableError`), and a
        :class:`ServerError` with status 502 for a success whose body
        is not a JSON object.  Reconnects once, transparently, when a
        keep-alive connection went stale.
        """
        with span(
            "http.request",
            method=method,
            path=path,
            backend=f"{self.host}:{self.port}",
        ):
            return self._round_trip(method, path, payload)

    def _round_trip(self, method: str, path: str, payload):
        body = None
        # ``span`` above guarantees a current context, so every request
        # carries the trace header — the server adopts it as its root
        # span's parent and the trees stitch across the wire.
        headers = {TRACE_HEADER: current_context().header()}
        if payload is not None:
            body = (
                payload
                if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8")
            )
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            conn = self._get_conn()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                break
            except (
                http.client.RemoteDisconnected,
                http.client.CannotSendRequest,
                http.client.BadStatusLine,
                BrokenPipeError,
                ConnectionResetError,
            ):
                # A keep-alive connection the server has since closed;
                # reconnect once, then let the failure surface.
                self._drop_conn()
                if attempt == 2:
                    raise
        if response.will_close:
            self._drop_conn()
        echoed = response.headers.get(TRACE_HEADER)
        trace_id = echoed.partition(":")[0] if echoed else None
        if trace_id:
            self.last_trace_id = trace_id
        trace_suffix = f" [trace {trace_id}]" if trace_id else ""
        decoded = None
        if data:
            try:
                decoded = json.loads(data)
            except ValueError as exc:
                # A success status with a body that is no answer is a
                # bad gateway, so no caller reads it as a success.
                raise ServerError(
                    f"non-JSON response body from {method} {path}: {exc}"
                    f"{trace_suffix}",
                    status=502 if response.status < 300 else response.status,
                    trace_id=trace_id,
                ) from exc
        if response.status == 429:
            raise ServerBusyError(
                _error_message(decoded, "server busy") + trace_suffix,
                retry_after=_retry_after_seconds(response),
                payload=decoded,
                trace_id=trace_id,
            )
        if response.status == 503:
            raise ServerUnavailableError(
                _error_message(decoded, "service unavailable") + trace_suffix,
                retry_after=_retry_after_seconds(response),
                payload=decoded,
                trace_id=trace_id,
            )
        if response.status >= 400:
            raise ServerError(
                _error_message(decoded, f"{method} {path} -> HTTP {response.status}")
                + trace_suffix,
                status=response.status,
                payload=decoded,
                trace_id=trace_id,
            )
        if not isinstance(decoded, dict):
            # Every server and gateway endpoint answers an object, so an
            # empty body or another JSON value is a bad gateway too.
            raise ServerError(
                f"response body from {method} {path} is not a JSON object"
                f"{trace_suffix}",
                status=502,
                trace_id=trace_id,
            )
        return response.status, decoded

    # -- protocol ------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")[1]

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")[1]

    def register(self, problem: Problem) -> str:
        """Register (or re-find) a problem; returns its server id."""
        _, body = self._by_reference(
            problem, lambda payload: self.request("POST", "/v1/problems", payload)
        )
        problem_id = body["problem_id"]
        self._remember(problem_id, problem)
        return problem_id

    def problem(self, problem_id: str) -> Problem:
        _, body = self.request("GET", f"/v1/problems/{problem_id}")
        problem = Problem.from_dict(body)
        self._remember(problem_id, problem)
        return problem

    def _remember(self, problem_id: str, problem: Problem) -> None:
        with self._guard:
            self._known[problem_id] = problem
            self._known.move_to_end(problem_id)
            while len(self._known) > KNOWN_PROBLEMS:
                self._known.popitem(last=False)

    def _known_problem(self, problem_id: str) -> Problem | None:
        with self._guard:
            return self._known.get(problem_id)

    # -- catalogues ----------------------------------------------------

    def _send_catalogue(self, objects: ObjectSet, fingerprint: str) -> None:
        self.request("POST", "/v1/catalogues", catalogue_to_dict(objects))
        with self._guard:
            self._catalogues[fingerprint] = None
            self._catalogues.move_to_end(fingerprint)
            while len(self._catalogues) > KNOWN_CATALOGUES:
                self._catalogues.popitem(last=False)

    def _by_reference(self, problem: Problem, send):
        """``send(payload)`` with ``problem``'s ``repro.problem/v3``
        payload, once the base URL holds its catalogue: sent first when
        this client has not sent it, and again, with one retry, when
        the base URL answers that it does not hold it."""
        objects = problem.object_set
        fingerprint = object_set_fingerprint(objects)
        with self._guard:
            held = fingerprint in self._catalogues
            if held:
                self._catalogues.move_to_end(fingerprint)
        if not held:
            self._send_catalogue(objects, fingerprint)
        payload = problem.to_reference_dict()
        try:
            return send(payload)
        except ServerError as exc:
            if exc.error_type != UnknownCatalogueError.__name__:
                raise
        self._send_catalogue(objects, fingerprint)
        return send(payload)

    def _post_problem(
        self,
        path: str,
        problem: Problem | str,
        method: str | None,
        options: dict | None,
    ):
        """One ``POST path`` naming ``problem`` — inline by catalogue
        reference, or by id — with any ``method`` / ``options``
        overrides in the same body."""
        overrides: dict = {}
        if method is not None:
            overrides["method"] = method
        if options is not None:
            overrides["options"] = options
        if not isinstance(problem, Problem):
            return self.request("POST", path, {"problem_id": problem, **overrides})
        return self._by_reference(
            problem,
            lambda payload: self.request(
                "POST", path, {"problem": payload, **overrides}
            ),
        )

    @staticmethod
    def _attach(
        solution: Solution,
        base: Problem | None,
        method: str | None = None,
        options: dict | None = None,
    ) -> Solution:
        """Re-attach the registered base :class:`Problem` so
        ``solution.verify()`` works — but only when the solve actually
        used that problem's solver selection (``method`` / ``options``
        are what the server reports it solved with; ``None`` = no
        check).  An overridden solve stays detached: attaching the
        base would misreport which options produced the result."""
        if base is None:
            return solution
        if method is not None and method != base.method:
            return solution
        if options is not None and dict(options) != dict(base.options):
            return solution
        return dataclasses.replace(solution, problem=base)

    def solve(
        self,
        problem: Problem | str,
        *,
        method: str | None = None,
        options: dict | None = None,
        timeout: float = 120.0,
    ) -> Solution:
        """Synchronous solve in one round trip; retries politely on
        429/503 until ``timeout``."""
        body = self._retry_busy(
            lambda: self._post_problem("/v1/solve", problem, method, options),
            timeout,
        )
        solution = Solution.from_dict(body["solution"])
        if isinstance(problem, Problem):
            self._remember(body["problem_id"], problem)
            base = problem  # what the caller sent
        else:
            base = self._known_problem(problem)
        if method is not None or options is not None:
            return solution  # detached: the base Problem would lie
        return self._attach(solution, base)

    def submit(
        self,
        problem: Problem | str,
        *,
        method: str | None = None,
        options: dict | None = None,
        timeout: float | None = None,
    ) -> str:
        """Enqueue an async solve in one round trip; returns the job id.

        With ``timeout=None`` a saturated queue raises
        :class:`~repro.errors.ServerBusyError` immediately (the caller
        owns backoff); with a timeout the client honours ``Retry-After``
        and retries until admitted or out of time.
        """

        def request():
            return self._post_problem("/v1/jobs", problem, method, options)

        if timeout is None:
            _, body = request()
        else:
            body = self._retry_busy(request, timeout)
        if isinstance(problem, Problem):
            self._remember(body["problem_id"], problem)
        return body["job_id"]

    def job(self, job_id: str, *, include_solution: bool = True) -> dict:
        suffix = "" if include_solution else "?solution=0"
        return self.request("GET", f"/v1/jobs/{job_id}{suffix}")[1]

    def result(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        poll_interval: float = 0.02,
    ) -> Solution:
        """Poll a job to completion; returns its :class:`Solution`."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id, include_solution=False)
            if status["status"] == "done":
                _, payload = self.request("GET", f"/v1/jobs/{job_id}/solution")
                solution = Solution.from_dict(payload)
                return self._attach(
                    solution,
                    self._known_problem(status["problem_id"]),
                    status["method"],
                    status.get("options"),
                )
            if status["status"] == "failed":
                raise ServerError(
                    f"job {job_id} failed: {status['error']}",
                    status=409,
                    payload=status,
                )
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['status']} after {timeout}s"
                )
            time.sleep(poll_interval)

    def diff(self, job_a: str, job_b: str) -> dict:
        """Unit-level delta between two completed jobs' solutions."""
        return self.request("GET", f"/v1/diff?a={job_a}&b={job_b}")[1]

    # ------------------------------------------------------------------

    @staticmethod
    def _retry_busy(request, timeout: float):
        """Run ``request`` honouring 429/503 ``Retry-After`` backoff."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                _, body = request()
                return body
            except _RETRYABLE as busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(max(busy.retry_after, 0.01), remaining))


__all__ = ["Client", "ServerBusyError", "ServerError", "ServerUnavailableError"]
