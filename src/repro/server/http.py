"""Minimal HTTP/1.1 framing over asyncio streams — stdlib only.

Just enough protocol for a JSON service: request-line + headers +
``Content-Length`` bodies on the way in, fixed-length responses with
keep-alive on the way out.  No chunked transfer, no TLS, no
multipart — payloads are JSON documents and the framing stays small
enough to audit.  Malformed input raises :class:`ProtocolError`, which
the connection loop converts into a 400/413/431 response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NoReturn
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import SerdeError

#: Default ceiling for a request body (solution/problem payloads are a
#: few MB at the scales the benchmarks use; 64 MiB leaves headroom).
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
MAX_HEADER_COUNT = 100

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} is not JSON")


class ProtocolError(Exception):
    """The peer sent something that is not parseable HTTP/1.x; carries
    the status the connection loop should answer with before closing."""

    def __init__(self, message: str, status: int = 400):
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool

    def json(self, default=None):
        """Decode the body as JSON; an empty body yields ``default``.

        Raises :class:`~repro.errors.SerdeError` on malformed JSON —
        including the ``NaN`` / ``Infinity`` / ``-Infinity`` literals
        Python's decoder would otherwise accept — so the service's one
        error-mapping path (→ 400) applies.
        """
        if not self.body:
            return default
        try:
            return json.loads(self.body, parse_constant=_reject_constant)
        except ValueError as exc:
            raise SerdeError(f"malformed JSON request body: {exc}") from exc


@dataclass
class Response:
    """One HTTP response; :meth:`encode` produces the wire bytes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload, status: int = 200, **headers: str) -> "Response":
        return cls(
            status=status,
            body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            headers=headers,
        )

    @classmethod
    def error(cls, status: int, message: str, **extra) -> "Response":
        return cls.json({"error": message, **extra}, status=status)

    def encode(self, keep_alive: bool) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def read_request(
    reader,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Request | None:
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for anything that is not a
    well-formed HTTP/1.x request within the size limits.
    """
    # StreamReader.readline raises ValueError once a line exceeds the
    # reader's buffer limit (64 KiB by default) — surface that as the
    # protocol error it is instead of crashing the connection task.
    try:
        request_line = await reader.readline()
    except ValueError:
        raise ProtocolError("request line too long", status=431) from None
    if not request_line:
        return None
    if len(request_line) > MAX_HEADER_BYTES:
        raise ProtocolError("request line too long", status=431)
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError(
            f"malformed request line {request_line!r}"
        ) from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise ProtocolError("request header line too long", status=431) from None
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ProtocolError("connection closed mid-headers")
        total += len(line)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADER_COUNT:
            raise ProtocolError("request headers too large", status=431)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        # Without chunked decoding, the unread payload would be parsed
        # as the next request and desync the keep-alive stream; reject
        # up front (RFC 7230 §3.3.3) and close.
        raise ProtocolError(
            "Transfer-Encoding is not supported; send Content-Length",
            status=411,
        )
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        # RFC 9110 §8.6: digits only.  int() would also take a sign,
        # underscores and surrounding whitespace ("+2", "0_2").
        try:
            if not (length_header.isascii() and length_header.isdigit()):
                raise ValueError
            length = int(length_header)
        except ValueError:
            raise ProtocolError(
                f"malformed Content-Length {length_header!r}"
            ) from None
        if length > max_body_bytes:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
                status=413,
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except Exception as exc:  # IncompleteReadError and friends
                raise ProtocolError("connection closed mid-body") from exc

    try:
        parts = urlsplit(target)
    except ValueError:  # e.g. "http://[": an unterminated IPv6 host
        raise ProtocolError(f"malformed request target {target!r}") from None
    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return Request(
        method=method.upper(),
        path=unquote(parts.path) or "/",
        query=dict(parse_qsl(parts.query)),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


__all__ = [
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "read_request",
]
