"""The HTTP service shell that ``repro-server`` and ``repro-gateway`` share.

Both front ends answer one JSON-over-HTTP protocol on one asyncio
event loop, so everything that does not depend on what a request
*means* lives here, once:

- the settings both services take (:class:`ServiceConfig`) and their
  validation;
- the catalogue store (:class:`CatalogueStore`) and its endpoint,
  ``POST /v1/catalogues``, which lets a request name its catalogue by
  fingerprint instead of carrying it;
- the route table and the rule for which paths are never traced;
- dispatch: the root span, the ``X-Repro-Trace`` echo and the one
  translation of raised errors into HTTP statuses;
- the keep-alive connection loop with its per-request read deadline;
- start, stop and serve, and hosting a service on a background thread;
- the console flags both entry points accept.

A service subclasses :class:`HttpService`: it names itself, implements
the route handlers, and builds up and tears down its own state in the
:meth:`~HttpService._open` / :meth:`~HttpService._close` hooks around
the listening socket.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import logging
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.api.problem import catalogue_from_dict
from repro.api.solution import SolutionDiff
from repro.data.instances import ObjectSet, object_set_fingerprint
from repro.errors import (
    InvalidProblemError,
    InvalidSolverOptionError,
    SerdeError,
    ServerError,
    UnknownCatalogueError,
    UnknownSolverError,
)
from repro.obs.log import LogRing, RingHandler, StructuredLogger, configure_logging
from repro.obs.prom import PROMETHEUS_CONTENT_TYPE, render_prometheus, wants_prometheus
from repro.obs.store import TraceStore
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    SpanCollector,
    TraceContext,
    collecting,
    span,
)
from repro.server.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    Request,
    Response,
    read_request,
)
from repro.server.metrics import HttpMetrics
from repro.server.router import Handler, Router

#: LRU bound of a service's catalogue store (beside the trace store's
#: ``RECENT_TRACES`` / ``SLOW_TRACES``).  An evicted catalogue costs a
#: typed 404 that the sender heals by sending it again.
CATALOGUE_STORE_SIZE = 64

#: Paths outside the trace pipeline: probe/scrape traffic would churn
#: the trace store, and the observability endpoints must not trace
#: themselves.
_UNTRACED_PREFIXES = ("/healthz", "/metrics", "/v1/traces", "/v1/logs")

#: Read-only paths whose GETs skip tracing: async-job status polls
#: arrive tens of times per solve, so tracing them would both dominate
#: the per-request overhead and evict the solve traces an operator
#: actually wants from the recent store.  The job's own ``job.solve``
#: trace (recorded by the server's pump) is the inspectable artifact.
_UNTRACED_GET_PREFIXES = ("/v1/jobs",)


def _is_traced(method: str, path: str) -> bool:
    if path.startswith(_UNTRACED_PREFIXES):
        return False
    return not (method == "GET" and path.startswith(_UNTRACED_GET_PREFIXES))


_BAD_REQUEST_ERRORS = (
    SerdeError,
    InvalidProblemError,
    UnknownSolverError,
    InvalidSolverOptionError,
)


class NotFound(Exception):
    """A referenced problem, job or trace id does not exist (→ 404)."""


class Conflict(Exception):
    """The resource exists but is not in a usable state (→ 409)."""


@dataclass(frozen=True, kw_only=True)
class ServiceConfig:
    """The settings every service takes."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`HttpService.port` once started).
    port: int = 8000
    #: ``Retry-After`` hint on the service's 429 (server) or 503
    #: (gateway) responses, in seconds.
    retry_after_seconds: float = 1.0
    #: Per-request read deadline; a peer that stalls mid-request (or a
    #: half-open connection) is dropped instead of pinning the task
    #: forever.  ``None`` disables the deadline.
    read_timeout_seconds: float | None = 30.0
    max_body_bytes: int = MAX_BODY_BYTES
    #: LRU bound on remembered problems: a server keeps each registered
    #: problem with its full catalogue and cohort, a gateway its routing
    #: entry and registration body.  An evicted id 404s and the client
    #: simply re-registers — registration is idempotent by content digest.
    problem_registry_size: int = 4096
    #: Master switch for request tracing + trace retention (structured
    #: logging and the log ring stay on; they replace plain logging).
    observability: bool = True
    #: Requests at or over this wall time are pinned in the slow-trace
    #: store.
    slow_trace_threshold_seconds: float = 0.25
    #: Bounded in-process log ring served at ``GET /v1/logs``.
    log_ring_size: int = 512

    def validate(self) -> None:
        """Reject settings that would break the service later, so a bad
        flag fails at startup, not as a wedged service at runtime."""
        if self.problem_registry_size < 1:
            raise ValueError("problem_registry_size must be >= 1")
        if self.retry_after_seconds < 0:
            raise ValueError("retry_after_seconds must be >= 0")
        if self.read_timeout_seconds is not None and self.read_timeout_seconds <= 0:
            raise ValueError("read_timeout_seconds must be > 0 (or None)")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.slow_trace_threshold_seconds < 0:
            raise ValueError("slow_trace_threshold_seconds must be >= 0")
        if self.log_ring_size < 1:
            raise ValueError("log_ring_size must be >= 1")


class CatalogueStore(Mapping[str, ObjectSet]):
    """The catalogues a service holds, by fingerprint, LRU-bounded.

    Each entry is the validated frozen :class:`ObjectSet`, which every
    problem naming it is built on, and the body bytes it arrived as,
    which a gateway relays to a backend that lacks it.  As a mapping it
    resolves ``repro.problem/v3`` references
    (``Problem.from_dict(payload, catalogues=store)``); a lookup
    refreshes the entry.  Registered problems keep their own reference
    to their catalogue, so eviction only costs a later reference its
    typed 404.  Event-loop state: worker threads never touch it.
    """

    def __init__(self, size: int):
        self._size = size
        self._entries: OrderedDict[str, tuple[ObjectSet, bytes]] = OrderedDict()

    def add(self, objects: ObjectSet, body: bytes) -> tuple[str, bool]:
        """``(fingerprint, created)``.  A catalogue already held keeps
        its first ``ObjectSet``, so every cohort shares one."""
        fingerprint = object_set_fingerprint(objects)
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            return fingerprint, False
        self._entries[fingerprint] = (objects, body)
        while len(self._entries) > self._size:
            self._entries.popitem(last=False)
        return fingerprint, True

    def body(self, fingerprint: str) -> bytes:
        """The bytes a held catalogue arrived as."""
        return self._entries[fingerprint][1]

    def __getitem__(self, fingerprint: str) -> ObjectSet:
        objects = self._entries[fingerprint][0]
        self._entries.move_to_end(fingerprint)
        return objects

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _decoded_catalogue(request: Request) -> ObjectSet:
    """The ``POST /v1/catalogues`` body, validated and fingerprinted
    (the hash memoizes on the frozen set, off the loop)."""
    objects = catalogue_from_dict(request.json())
    object_set_fingerprint(objects)
    return objects


# -- request helpers both services' handlers use -------------------------


def require_object(body: Any) -> Mapping:
    if not isinstance(body, Mapping):
        raise SerdeError("request body must be a JSON object")
    return body


def solve_target(body: Any) -> Mapping:
    """A ``/v1/solve`` or ``/v1/jobs`` body, checked to name exactly one
    of ``problem`` (an inline payload) or ``problem_id`` (a string)."""
    body = require_object(body)
    if ("problem" in body) == ("problem_id" in body):
        raise SerdeError("request body needs exactly one of 'problem' or 'problem_id'")
    if "problem_id" in body and not isinstance(body["problem_id"], str):
        raise SerdeError("'problem_id' must be a string")
    return body


def diff_job_ids(request: Request) -> tuple[str, str]:
    try:
        return request.query["a"], request.query["b"]
    except KeyError:
        raise SerdeError("diff needs 'a' and 'b' query parameters (job ids)") from None


def diff_envelope(id_a: str, id_b: str, diff: SolutionDiff) -> dict:
    return {
        "a": id_a,
        "b": id_b,
        "identical": not diff,
        "units_changed": diff.units_changed,
        "added": [list(t) for t in diff.added],
        "removed": [list(t) for t in diff.removed],
    }


def _query_limit(request: Request, default: int) -> int:
    try:
        limit = int(request.query.get("limit", default))
    except ValueError:
        raise SerdeError("'limit' must be an integer") from None
    if limit < 0:
        raise SerdeError("'limit' must be >= 0")
    return limit


def _stamp_trace(response: Response, trace_id: str, span_id: str) -> Response:
    """Echo the trace on the response: the header on every reply, and
    ``trace_id`` inside JSON error envelopes so a failure report
    carries its trace handle even through clients that drop headers."""
    response.headers[TRACE_HEADER] = f"{trace_id}:{span_id}"
    if response.status >= 400 and response.content_type == "application/json":
        try:
            payload = json.loads(response.body)
        except ValueError:
            return response
        if isinstance(payload, dict) and "trace_id" not in payload:
            payload["trace_id"] = trace_id
            response.body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return response


def _relay_error(exc: ServerError) -> Response:
    """A backend's HTTP error, relayed with its status and body (502 if
    it failed without a usable status).  429 and 503 keep their
    ``Retry-After``, so the caller's retry loop keeps working."""
    payload = exc.payload if isinstance(exc.payload, dict) else None
    response = Response.json(payload or {"error": str(exc)}, status=exc.status or 502)
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        response.headers["Retry-After"] = f"{retry_after:g}"
    return response


class HttpService:
    """One asyncio JSON/HTTP service; see the module docstring."""

    #: Thread name and announce-line prefix, e.g. ``repro-server``.
    name: ClassVar[str]
    #: Names the root span (``{role}.request``) and the 500 message.
    role: ClassVar[str]
    #: Receives the shell's own records (slow requests, handler crashes).
    logger: ClassVar[StructuredLogger]

    # Route handlers each service implements.
    _health: Handler
    _metrics_endpoint: Handler
    _register_endpoint: Handler
    _get_problem: Handler
    _solve_registered: Handler
    _solve_inline: Handler
    _submit_job: Handler
    _get_job: Handler
    _get_job_solution: Handler
    _diff_jobs: Handler

    def __init__(self, config: ServiceConfig, metrics: HttpMetrics):
        config.validate()
        self.config = config
        self.port: int | None = None
        self._metrics = metrics
        self._conn_tasks: set[asyncio.Task] = set()
        self._tcp: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._stopping = False
        # Retention bounds are the store's own (RECENT_TRACES / SLOW_TRACES).
        self._traces = TraceStore(
            slow_threshold_seconds=config.slow_trace_threshold_seconds
        )
        self._log_ring = LogRing(config.log_ring_size)
        self._ring_handler: RingHandler | None = None
        self._node: str | None = None
        self._catalogues = CatalogueStore(CATALOGUE_STORE_SIZE)
        self._router = self._build_router()

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._health)
        router.add("GET", "/metrics", self._metrics_endpoint)
        router.add("POST", "/v1/catalogues", self._register_catalogue)
        router.add("POST", "/v1/problems", self._register_endpoint)
        router.add("GET", "/v1/problems/{pid}", self._get_problem)
        router.add("POST", "/v1/problems/{pid}/solve", self._solve_registered)
        router.add("POST", "/v1/solve", self._solve_inline)
        router.add("POST", "/v1/jobs", self._submit_job)
        router.add("GET", "/v1/jobs/{jid}", self._get_job)
        router.add("GET", "/v1/jobs/{jid}/solution", self._get_job_solution)
        router.add("GET", "/v1/diff", self._diff_jobs)
        router.add("GET", "/v1/traces", self._list_traces)
        router.add("GET", "/v1/traces/{tid}", self._get_trace)
        router.add("GET", "/v1/logs", self._get_logs)
        return router

    # -- catalogues -----------------------------------------------------

    async def _register_catalogue(self, request: Request) -> Response:
        """Hold a catalogue under its fingerprint: 201 when it is new,
        200 when the store already held it.  Either service answers
        this itself; a gateway forwards it to no backend."""
        with span("catalogue.register") as register_span:
            objects = await asyncio.to_thread(_decoded_catalogue, request)
            fingerprint, created = self._catalogues.add(objects, request.body)
            register_span.attributes["created"] = created
        if created:
            self.logger.info(
                "catalogue registered", catalogue=fingerprint, objects=len(objects)
            )
        return Response.json(
            {"catalogue": fingerprint, "created": created},
            status=201 if created else 200,
        )

    # -- observability endpoints ---------------------------------------

    def _metrics_response(self, request: Request, snapshot: dict) -> Response:
        """``snapshot`` plus the trace-store and log-ring sections, as
        JSON or, when the scraper asks for it, Prometheus text."""
        snapshot["traces"] = self._traces.info()
        snapshot["log_ring"] = self._log_ring.info()
        if wants_prometheus(request):
            return Response(
                body=render_prometheus(snapshot).encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        return Response.json(snapshot)

    async def _list_traces(self, request: Request) -> Response:
        limit = _query_limit(request, 50)
        return Response.json(
            {"traces": self._traces.recent(limit), "info": self._traces.info()}
        )

    async def _get_trace(self, request: Request, tid: str) -> Response:
        record = self._traces.get(tid)
        if record is None:
            raise NotFound(f"unknown trace {tid!r}")
        return Response.json(record)

    async def _get_logs(self, request: Request) -> Response:
        limit = _query_limit(request, 100)
        level = request.query.get("level")
        return Response.json(
            {
                "entries": self._log_ring.tail(limit, level),
                "ring": self._log_ring.info(),
            }
        )

    def _record_trace(
        self, root: Span, spans: list[Span], slow_message: str, **fields: Any
    ) -> None:
        """Retain one finished trace, logging ``slow_message`` with
        ``fields`` when it is slow."""
        record = self._traces.record(root, spans, node=self._node)
        if record["slow"]:
            self.logger.warning(
                slow_message,
                **fields,
                trace_id=root.trace_id,
                duration_ms=round(record["duration_seconds"] * 1000, 2),
            )

    # -- dispatch --------------------------------------------------------

    async def _dispatch(self, request: Request) -> Response:
        if not self.config.observability or not _is_traced(
            request.method, request.path
        ):
            return await self._dispatch_inner(request)
        parent = TraceContext.parse(request.headers.get("x-repro-trace"))
        collector = SpanCollector()
        with collecting(collector, parent=parent):
            with span(
                f"{self.role}.request", method=request.method, path=request.path
            ) as root:
                response = await self._dispatch_inner(request)
                root.attributes["status"] = response.status
                if response.status >= 500:
                    root.status = "error"
                    root.error = f"HTTP {response.status}"
        self._record_trace(
            root,
            collector.spans,
            "slow request",
            method=request.method,
            path=request.path,
        )
        return _stamp_trace(response, root.trace_id, root.span_id)

    async def _dispatch_inner(self, request: Request) -> Response:
        routed = self._router.dispatch(request)
        if isinstance(routed, Response):
            response = routed
        else:
            handler, params = routed
            try:
                response = await handler(request, **params)
            except _BAD_REQUEST_ERRORS as exc:
                response = Response.error(400, str(exc), type=type(exc).__name__)
            except NotFound as exc:
                response = Response.error(404, str(exc))
            except UnknownCatalogueError as exc:
                response = Response.error(404, str(exc), type=type(exc).__name__)
            except Conflict as exc:
                response = Response.error(409, str(exc))
            except ServerError as exc:
                response = _relay_error(exc)
            except asyncio.CancelledError:
                raise
            except Exception:
                self.logger.exception(
                    "unhandled request error",
                    method=request.method,
                    path=request.path,
                )
                response = Response.error(500, f"internal {self.role} error")
        self._metrics.record_response(response.status)
        return response

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            # stop() cancels this task.  The flag also ends the loop when
            # Python 3.11's wait_for swallowed that cancellation because a
            # request arrived in the same instant; without it the task
            # would wait out a whole read deadline on the idle connection.
            while not self._stopping:
                try:
                    request = await asyncio.wait_for(
                        read_request(
                            reader, max_body_bytes=self.config.max_body_bytes
                        ),
                        timeout=self.config.read_timeout_seconds,
                    )
                except TimeoutError:
                    break  # stalled or idle peer: drop the connection
                except ProtocolError as exc:
                    response = Response.error(exc.status, str(exc))
                    self._metrics.record_response(response.status)
                    writer.write(response.encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        # lint: except-ok(client hung up or idled out; nothing to answer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            # stop() cancelled this connection: end normally, or
            # start_server's done-callback logs the cancellation as an
            # error with a traceback.  Any other cancellation stands.
            if not self._stopping:
                raise
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- lifecycle -------------------------------------------------------

    async def _open(self) -> None:
        """Set up the service's own state before the socket binds."""

    async def _close(self) -> None:
        """Tear the service's own state down once connections are closed."""

    async def start(self) -> None:
        """Open the service and bind the socket (call on the loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._open()
        self._tcp = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        # Node identity (host:bound-port) is per-service, not
        # per-process: embedded servers and gateways can share one
        # process, so the ring handler and trace store stamp records
        # with their owner's identity at record time.
        self._node = f"{self.config.host}:{self.port}"
        self._ring_handler = RingHandler(self._log_ring, node=self._node)
        repro_logger = logging.getLogger("repro")
        repro_logger.addHandler(self._ring_handler)
        # Embedded services run without configure_logging(); the ring
        # still captures INFO-level operational events (the last-resort
        # console handler stays WARNING+, so stdout is unchanged).
        if repro_logger.getEffectiveLevel() > logging.INFO:
            repro_logger.setLevel(logging.INFO)

    async def stop(self) -> None:
        self._stopping = True
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self._close()
        if self._ring_handler is not None:
            logging.getLogger("repro").removeHandler(self._ring_handler)
            self._ring_handler = None

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (used by :class:`ServiceHandle`)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    async def _serve_until_stopped(
        self, on_started: Callable[[Any], None] | None = None
    ) -> None:
        await self.start()
        if on_started is not None:
            on_started(self)
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    def serve_forever(self, on_started: Callable[[Any], None] | None = None) -> None:
        """Run the service on a fresh event loop until stopped."""
        asyncio.run(self._serve_until_stopped(on_started=on_started))


class ServiceHandle:
    """A service hosted on a background thread, for tests, examples and
    benchmarks; ``with`` closes it on exit."""

    def __init__(self, service: HttpService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def close(self, timeout: float = 15.0) -> None:
        self.service.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError(f"{self.service.name} thread did not stop in time")

    def __enter__(self) -> ServiceHandle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def start_in_thread(service: HttpService) -> ServiceHandle:
    """Serve ``service`` on a daemon thread; returns once the socket is
    bound (so :attr:`ServiceHandle.port` is valid)."""
    started = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        try:
            service.serve_forever(on_started=lambda _s: started.set())
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
            started.set()

    thread = threading.Thread(target=_run, name=service.name, daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError(f"{service.name} did not start within 30s")
    if failures:
        raise RuntimeError(f"{service.name} failed to start") from failures[0]
    return ServiceHandle(service, thread)


# -- the console -----------------------------------------------------------


def service_parser(
    prog: str, description: str, *, port: int, retry_status: int
) -> argparse.ArgumentParser:
    """An argument parser holding the flags every service console takes.
    A flag that sets a config field stores under the field's name."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=port,
        help="TCP port; 0 binds an ephemeral port (announced on stdout)",
    )
    parser.add_argument(
        "--retry-after", dest="retry_after_seconds", type=float, default=1.0,
        help=f"Retry-After hint (seconds) on {retry_status} responses",
    )
    parser.add_argument(
        "--log-level", default="INFO",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON-lines logs instead of key=value text",
    )
    parser.add_argument(
        "--no-observability", dest="observability", action="store_false",
        help="disable request tracing and trace retention",
    )
    parser.add_argument(
        "--slow-trace-threshold", dest="slow_trace_threshold_seconds",
        type=float, default=0.25,
        help=(
            "requests at or over this wall time (seconds) are pinned in "
            "the slow-trace store"
        ),
    )
    parser.add_argument(
        "--log-ring-size", type=int, default=512,
        help="recent log records retained for GET /v1/logs",
    )
    return parser


def serve_console(
    service_type: Callable[[Any], HttpService],
    config_type: type[ServiceConfig],
    args: argparse.Namespace,
    note: str = "",
    **settings: Any,
) -> None:
    """Serve the service ``config_type`` configures — from the flags
    named after its fields, then ``settings`` — until Ctrl-C.  Once the
    socket listens, announce ``<name> listening on http://host:port``
    (then ``note``) on stdout: ``--port 0`` picks an ephemeral port, so
    supervisors (and the CI smoke jobs) parse that line."""
    configure_logging(
        level=args.log_level,
        json_mode=args.log_json,
        node=f"{args.host}:{args.port}" if args.port else args.host,
    )
    fields = {field.name for field in dataclasses.fields(config_type)}
    flags = {key: value for key, value in vars(args).items() if key in fields}
    service = service_type(config_type(**{**flags, **settings}))

    def announce(started: HttpService) -> None:
        print(
            f"{started.name} listening on "
            f"http://{started.config.host}:{started.port}{note}",
            flush=True,
        )

    try:
        service.serve_forever(on_started=announce)
    # lint: except-ok(Ctrl-C is the operator's shutdown signal; exit clean)
    except KeyboardInterrupt:
        pass


__all__ = [
    "CATALOGUE_STORE_SIZE",
    "CatalogueStore",
    "Conflict",
    "HttpService",
    "NotFound",
    "ServiceConfig",
    "ServiceHandle",
    "diff_envelope",
    "diff_job_ids",
    "require_object",
    "serve_console",
    "service_parser",
    "solve_target",
    "start_in_thread",
]
