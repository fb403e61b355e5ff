"""The typed exception hierarchy of the public API.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers of :mod:`repro.api` can catch one base
class at a service boundary.  Each concrete error *also* derives from
the builtin it historically surfaced as (``ValueError``, ``TypeError``,
``AttributeError``), so pre-existing ``except ValueError`` call sites
keep working unchanged.

This module is dependency-free on purpose: any layer (``core``,
``data``, ``engine``, ``service``) may import it without cycles.  The
same names are re-exported from :mod:`repro.api.errors`.
"""

from __future__ import annotations

from collections.abc import Iterable


class ReproError(Exception):
    """Base class of every error deliberately raised by repro."""


class InvalidProblemError(ReproError, ValueError):
    """A problem instance is structurally invalid (mismatched
    dimensionalities, weights not summing to 1, capacities < 1, ...)."""


class UnknownSolverError(ReproError, ValueError):
    """A solver / engine-config name is not registered."""

    def __init__(
        self,
        method: object,
        known: Iterable[str],
        kind: str = "solver",
    ) -> None:
        self.method = method
        self.known = tuple(sorted(known))
        super().__init__(
            f"unknown {kind} {method!r}; expected one of {list(self.known)}"
        )


class InvalidSolverOptionError(ReproError, TypeError):
    """A keyword override is not accepted by the selected solver."""

    def __init__(
        self,
        method: str,
        unknown: Iterable[str],
        accepted: Iterable[str],
        message: str | None = None,
    ) -> None:
        self.method = method
        self.unknown = tuple(sorted(unknown))
        self.accepted = tuple(sorted(accepted))
        if message is None:
            accepts = (
                f"accepts options {list(self.accepted)}"
                if self.accepted
                else "accepts no options"
            )
            message = (
                f"solver {method!r} got unknown option(s) "
                f"{list(self.unknown)}; it {accepts}"
            )
        super().__init__(message)


class SerdeError(ReproError, ValueError):
    """A serialized payload cannot be decoded (wrong schema tag,
    missing or unknown fields, malformed values)."""


class UnknownCatalogueError(ReproError, LookupError):
    """A ``repro.problem/v3`` payload names its catalogue by a
    fingerprint the decoder does not hold.  A service answers it with
    HTTP 404 and ``"type": "UnknownCatalogueError"``; the sender then
    sends the catalogue (``POST /v1/catalogues``) and retries."""

    def __init__(self, fingerprint: object) -> None:
        self.fingerprint = fingerprint
        super().__init__(
            f"unknown catalogue {fingerprint!r}; send it with "
            "POST /v1/catalogues first"
        )


class FrozenInstanceError(ReproError, AttributeError):
    """Mutation of a frozen instance container (an :class:`ObjectSet`
    submitted to the index cache, whose fingerprint is memoized)."""


class SessionClosedError(ReproError, RuntimeError):
    """An operation was attempted on a closed :class:`AssignmentSession`."""


class ServerError(ReproError):
    """A :mod:`repro.server` request failed.

    Raised client-side for any non-success HTTP status; ``status`` is
    the numeric code (``None`` for transport failures) and ``payload``
    the decoded error body when the server sent one.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        payload: object = None,
        trace_id: str | None = None,
    ) -> None:
        self.status = status
        self.payload = payload
        #: Trace id of the failed request (when the server echoed one),
        #: for ``repro-admin trace`` / ``GET /v1/traces/{id}`` lookup.
        self.trace_id = trace_id
        super().__init__(message)

    @property
    def error_type(self) -> str | None:
        """The exception class an error envelope names in its
        ``"type"`` field, when the service sent one."""
        payload = self.payload
        kind = payload.get("type") if isinstance(payload, dict) else None
        return kind if isinstance(kind, str) else None


class ServerBusyError(ServerError):
    """The server's job queue is saturated (HTTP 429); ``retry_after``
    is the server-suggested backoff in seconds."""

    def __init__(
        self,
        message: str,
        retry_after: float = 1.0,
        payload: object = None,
        trace_id: str | None = None,
    ) -> None:
        self.retry_after = float(retry_after)
        super().__init__(message, status=429, payload=payload, trace_id=trace_id)


class ServerUnavailableError(ServerError):
    """The service cannot currently reach a solver for this request
    (HTTP 503) — raised by the cluster gateway when a shard has no
    live owner.  Transient by design: ``retry_after`` is the suggested
    backoff in seconds, honoured by the client's polite-retry loop
    exactly like a 429."""

    def __init__(
        self,
        message: str,
        retry_after: float = 1.0,
        payload: object = None,
        trace_id: str | None = None,
    ) -> None:
        self.retry_after = float(retry_after)
        super().__init__(message, status=503, payload=payload, trace_id=trace_id)


__all__ = [
    "FrozenInstanceError",
    "InvalidProblemError",
    "InvalidSolverOptionError",
    "ReproError",
    "SerdeError",
    "ServerBusyError",
    "ServerError",
    "ServerUnavailableError",
    "SessionClosedError",
    "UnknownCatalogueError",
    "UnknownSolverError",
]
