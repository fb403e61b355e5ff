"""Unit tests for the stdlib HTTP framing and the route table."""

import asyncio

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SerdeError
from repro.server.http import ProtocolError, Request, Response, read_request
from repro.server.router import Router


def parse(raw: bytes, **kwargs):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(run())


def test_parse_get_with_query():
    request = parse(b"GET /v1/diff?a=one&b=two%20x HTTP/1.1\r\nHost: h\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/v1/diff"
    assert request.query == {"a": "one", "b": "two x"}
    assert request.headers["host"] == "h"
    assert request.body == b""
    assert request.keep_alive  # HTTP/1.1 default


def test_parse_post_with_body_and_connection_close():
    raw = (
        b"POST /v1/problems HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 8\r\n"
        b"Connection: close\r\n"
        b"\r\n"
        b'{"a": 1}'
    )
    request = parse(raw)
    assert request.body == b'{"a": 1}'
    assert request.json() == {"a": 1}
    assert not request.keep_alive


def test_http_1_0_defaults_to_close():
    request = parse(b"GET / HTTP/1.0\r\n\r\n")
    assert not request.keep_alive
    request = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert request.keep_alive


def test_eof_before_any_byte_is_clean_none():
    assert parse(b"") is None


def test_malformed_request_line_raises():
    with pytest.raises(ProtocolError):
        parse(b"NOT-HTTP\r\n\r\n")
    with pytest.raises(ProtocolError):
        parse(b"GET / SPDY/3\r\n\r\n")


def test_header_without_colon_raises():
    with pytest.raises(ProtocolError):
        parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n")


def test_body_limit_yields_413():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
    with pytest.raises(ProtocolError) as excinfo:
        parse(raw, max_body_bytes=10)
    assert excinfo.value.status == 413


def test_truncated_body_raises():
    with pytest.raises(ProtocolError):
        parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")


def test_oversized_request_line_is_431_not_valueerror():
    """Regression: StreamReader's internal line limit raises a bare
    ValueError; read_request must convert it into a 431 protocol error
    instead of crashing the connection task."""
    raw = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
    with pytest.raises(ProtocolError) as excinfo:
        parse(raw)
    assert excinfo.value.status == 431


def test_oversized_header_line_is_431():
    raw = b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
    with pytest.raises(ProtocolError) as excinfo:
        parse(raw)
    assert excinfo.value.status == 431


def test_chunked_transfer_encoding_is_rejected_up_front():
    """Regression: an undecoded chunked body would be parsed as the
    next request on a keep-alive stream; reject with 411 and close."""
    raw = (
        b"POST /v1/solve HTTP/1.1\r\n"
        b"Transfer-Encoding: chunked\r\n"
        b"\r\n"
        b"4\r\nbody\r\n0\r\n\r\n"
    )
    with pytest.raises(ProtocolError) as excinfo:
        parse(raw)
    assert excinfo.value.status == 411


def test_malformed_json_body_is_serde_error():
    raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n{oops"[:-1]
    request = parse(raw)
    with pytest.raises(SerdeError):
        request.json()
    assert parse(b"GET / HTTP/1.1\r\n\r\n").json(default={}) == {}
    # Python's decoder accepts these non-JSON literals; the server must not.
    for literal in (b"NaN", b"Infinity", b"-Infinity"):
        body = b'{"points": [[0.5, ' + literal + b"]]}"
        raw = b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        with pytest.raises(SerdeError, match="non-finite"):
            parse(raw).json()


def test_response_encode_round_trips_through_parser():
    wire = Response.json({"x": 1}, status=201).encode(keep_alive=True)
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 201 Created")
    assert b"Connection: keep-alive" in head
    assert body == b'{"x": 1}\n'


def test_router_extracts_path_params():
    router = Router()

    async def handler(request, pid):
        return Response.json({"pid": pid})

    router.add("GET", "/v1/problems/{pid}", handler)
    request = Request("GET", "/v1/problems/abc123", {}, {}, b"", True)
    resolved = router.dispatch(request)
    assert not isinstance(resolved, Response)
    _, params = resolved
    assert params == {"pid": "abc123"}


def test_router_404_and_405():
    router = Router()

    async def handler(request):
        return Response.json({})

    router.add("POST", "/v1/solve", handler)
    missing = router.dispatch(Request("GET", "/nope", {}, {}, b"", True))
    assert isinstance(missing, Response) and missing.status == 404
    wrong_verb = router.dispatch(Request("GET", "/v1/solve", {}, {}, b"", True))
    assert isinstance(wrong_verb, Response) and wrong_verb.status == 405
    assert wrong_verb.headers["Allow"] == "POST"


def test_router_placeholder_does_not_cross_segments():
    router = Router()

    async def handler(request, jid):
        return Response.json({})

    router.add("GET", "/v1/jobs/{jid}", handler)
    nested = router.dispatch(Request("GET", "/v1/jobs/a/solution", {}, {}, b"", True))
    assert isinstance(nested, Response) and nested.status == 404


# -- fuzzing the request reader ----------------------------------------------

_TEXT = st.text(alphabet=st.characters(max_codepoint=255), max_size=12)
_TARGETS = st.builds(
    "{}{}".format,
    st.sampled_from(["/", "http://", "//", "*"]),
    st.text(alphabet="/:[]?#=&%@a1. ", max_size=6),
)
_CONTENT_LENGTHS = st.one_of(
    st.builds(
        "{}{}".format,
        st.sampled_from(["", "", "", "+", "0_", "-", " ", "0x", "²"]),
        st.integers(min_value=0, max_value=20),
    ),
    st.sampled_from(["", "9" * 30, "9" * 5000]),
    _TEXT,
)
_HEADERS = st.lists(
    st.one_of(
        st.tuples(st.just("Content-Length"), _CONTENT_LENGTHS),
        st.tuples(st.sampled_from(["Host", "Connection", "Transfer-Encoding"]), _TEXT),
        st.tuples(_TEXT, _TEXT),
    ),
    max_size=3,
)


def _rarely(draw) -> bool:
    return draw(st.integers(min_value=0, max_value=9)) == 0


@st.composite
def raw_requests(draw) -> bytes:
    """Request bytes near the grammar — a request line, headers (often
    a Content-Length, right or wrong) and a body — now and then with a
    mangled request line, truncated, or replaced by random bytes."""
    if _rarely(draw):
        return draw(st.binary(max_size=64))
    if _rarely(draw):
        line = draw(_TEXT)
    else:
        method = draw(st.sampled_from(["GET", "POST", "get"]))
        version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2"]))
        line = f"{method} {draw(_TARGETS)} {version}"
    headers = "".join(f"{name}:{value}\r\n" for name, value in draw(_HEADERS))
    raw = f"{line}\r\n{headers}\r\n".encode("latin-1") + draw(st.binary(max_size=24))
    if _rarely(draw):
        raw = raw[: draw(st.integers(min_value=0, max_value=len(raw)))]
    return raw


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw=raw_requests())
@example(raw=b"GET http://[ HTTP/1.1\r\n\r\n")
@example(raw=b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nab")
@example(raw=b"POST / HTTP/1.1\r\nContent-Length: 0_2\r\n\r\nab")
def test_read_request_answers_any_bytes_with_a_request_or_a_protocol_error(raw):
    """Whatever the peer sends, the reader returns a ``Request``, ``None``
    (clean EOF) or raises ``ProtocolError`` — the connection loop's
    answer is then a request or a 4xx, never a crashed task.  A parsed
    body is exactly as long as its all-digit Content-Length."""
    try:
        request = parse(raw)
    except ProtocolError as exc:
        assert exc.status in (400, 411, 413, 431)
        return
    if request is None:
        assert raw == b""
        return
    length = request.headers.get("content-length")
    if length is None:
        assert request.body == b""
    else:
        assert length.isascii() and length.isdigit(), length
        assert len(request.body) == int(length)
