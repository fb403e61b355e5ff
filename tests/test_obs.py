"""Tests of the :mod:`repro.obs` observability stack.

Unit tests cover the pure pieces (trace context parsing, span-tree
assembly, the log ring's bounds, Prometheus escaping/rendering); the
end-to-end tests boot a real embedded server and assert the wire
contract: ``X-Repro-Trace`` echoed on every traced response, error
envelopes carrying ``trace_id``, ``/v1/traces`` + ``/v1/logs``
queryable, ``/metrics`` content-negotiating the Prometheus text
format, and ``repro-admin`` driving all of it over HTTP.
"""

import http.client
import json
import logging
import socket

import pytest

from repro.api import Problem
from repro.errors import ServerError
from repro.obs import admin
from repro.obs.log import LogRing, RingHandler, get_logger, record_to_dict
from repro.obs.prom import (
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    render_prometheus,
)
from repro.obs.store import TraceStore, assemble_tree, render_tree
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    SpanCollector,
    TraceContext,
    collecting,
    current_context,
    new_span_id,
    new_trace_id,
    span,
)
from repro.server import Client, ServerConfig, serve_in_thread

from .conftest import SHELL_TARGETS, random_instance, serving


def make_problem(nf=5, no=24, dims=3, seed=11, method="sb", **options):
    functions, objects = random_instance(nf, no, dims, seed=seed)
    return Problem.from_sets(objects, functions, method=method, options=options)


# ---------------------------------------------------------------------------
# trace context / spans


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(new_trace_id(), new_span_id())
        parsed = TraceContext.parse(context.header())
        assert parsed == context

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "garbage",
            "abc:def",
            "g" * 32 + ":" + "0" * 16,  # non-hex
            "0" * 32 + ":" + "0" * 15,  # short span id
            ("a" * 32 + ":" + "b" * 16).upper(),  # wrong case
        ],
    )
    def test_malformed_headers_parse_to_none(self, value):
        assert TraceContext.parse(value) is None

    def test_parse_tolerates_surrounding_whitespace(self):
        context = TraceContext(new_trace_id(), new_span_id())
        assert TraceContext.parse(f"  {context.header()} ") == context


class TestSpans:
    def test_nested_spans_share_trace_and_parent_correctly(self):
        collector = SpanCollector()
        with collecting(collector):
            with span("outer") as outer:
                with span("inner") as inner:
                    assert current_context().span_id == inner.span_id
        assert current_context() is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Inner finishes (and publishes) first.
        assert [s.name for s in collector.spans] == ["inner", "outer"]
        assert all(s.duration_seconds >= 0 for s in collector.spans)

    def test_exceptions_mark_the_span_errored_and_reraise(self):
        collector = SpanCollector()
        with pytest.raises(ValueError, match="boom"):
            with collecting(collector):
                with span("doomed"):
                    raise ValueError("boom")
        (failed,) = collector.spans
        assert failed.status == "error"
        assert "ValueError: boom" in failed.error

    def test_without_a_collector_nothing_is_retained(self):
        with span("unobserved") as s:
            assert current_context().trace_id == s.trace_id
        assert current_context() is None

    def test_wire_parent_adopts_the_callers_trace(self):
        parent = TraceContext(new_trace_id(), new_span_id())
        collector = SpanCollector()
        with collecting(collector, parent=parent):
            with span("server.request") as root:
                pass
        assert root.trace_id == parent.trace_id
        assert root.parent_id == parent.span_id


class TestTreeAssembly:
    def _span(self, name, span_id, parent_id, started, **attributes):
        return {
            "trace_id": "t" * 32,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "started": started,
            "duration_seconds": 0.01,
            "status": "ok",
            "node": None,
            **({"attributes": attributes} if attributes else {}),
        }

    def test_absent_parents_become_roots(self):
        # The root's parent is the client's span — never in the list.
        spans = [
            self._span("server.request", "a" * 16, "f" * 16, 1.0),
            self._span("solve.execute", "b" * 16, "a" * 16, 2.0),
        ]
        roots = assemble_tree(spans)
        assert len(roots) == 1
        assert roots[0]["span"]["name"] == "server.request"
        assert roots[0]["children"][0]["span"]["name"] == "solve.execute"

    def test_children_sorted_by_start_with_derived_last(self):
        spans = [
            self._span("root", "a" * 16, None, 0.0),
            self._span("engine.search", "d" * 16, "a" * 16, 0.0, derived=True),
            self._span("late", "c" * 16, "a" * 16, 5.0),
            self._span("early", "b" * 16, "a" * 16, 1.0),
        ]
        (root,) = assemble_tree(spans)
        names = [child["span"]["name"] for child in root["children"]]
        assert names == ["early", "late", "engine.search"]

    def test_render_tree_header_flags(self):
        record = {
            "trace_id": "ab" * 16,
            "status": "ok",
            "duration_seconds": 0.5,
            "slow": True,
            "stitched": True,
            "nodes": ["127.0.0.1:1", "127.0.0.1:2"],
            "spans": [self._span("gateway.request", "a" * 16, None, 0.0)],
        }
        text = render_tree(record)
        assert "ab" * 16 in text
        assert "[slow]" in text
        assert "stitched: 127.0.0.1:1, 127.0.0.1:2" in text
        assert "gateway.request" in text


class TestTraceStore:
    def _root(self, duration=0.01):
        return Span(
            trace_id=new_trace_id(),
            span_id=new_span_id(),
            parent_id=None,
            name="server.request",
            started=1.0,
            duration_seconds=duration,
        )

    def test_slow_requests_are_pinned_past_recent_churn(self):
        store = TraceStore(recent_size=2, slow_size=4, slow_threshold_seconds=0.1)
        slow_root = self._root(duration=0.5)
        store.record(slow_root, [], node="n1")
        for _ in range(3):  # churn the recent ring
            store.record(self._root(duration=0.0), [])
        record = store.get(slow_root.trace_id)
        assert record is not None
        assert record["slow"] is True
        info = store.info()
        assert info["recorded_total"] == 4
        assert info["slow_total"] == 1
        assert info["recent_entries"] == 2

    def test_recent_lists_newest_first_summaries(self):
        store = TraceStore(slow_threshold_seconds=10.0)
        first, second = self._root(), self._root()
        store.record(first, [], node="n1")
        store.record(second, [])
        listing = store.recent()
        assert [r["trace_id"] for r in listing] == [
            second.trace_id,
            first.trace_id,
        ]
        assert listing[0]["spans"] == 1
        assert listing[0]["slow"] is False

    def test_record_stamps_node_and_dedupes_root(self):
        store = TraceStore()
        root = self._root()
        child = Span(
            trace_id=root.trace_id,
            span_id=new_span_id(),
            parent_id=root.span_id,
            name="solve.execute",
            started=1.0,
            duration_seconds=0.001,
        )
        record = store.record(root, [child], node="127.0.0.1:99")
        assert all(s["node"] == "127.0.0.1:99" for s in record["spans"])
        assert len(record["spans"]) == 2  # root deduped into the list

    def test_recent_zero_limit_returns_nothing(self):
        # regression: the newest-first slice [-0:] is the whole store,
        # so recent(0) used to list every retained trace
        store = TraceStore(slow_threshold_seconds=10.0)
        for _ in range(4):
            store.record(self._root(), [])
        assert store.recent(limit=0) == []
        assert len(store.recent(limit=2)) == 2
        assert len(store.recent(limit=-1)) == 4  # negative = unbounded


# ---------------------------------------------------------------------------
# structured logging


class TestLogRing:
    def test_capacity_bound_and_dropped_accounting(self):
        ring = LogRing(capacity=4)
        for i in range(10):
            ring.append({"level": "INFO", "message": f"m{i}"})
        assert len(ring) == 4
        assert [r["message"] for r in ring.tail()] == ["m6", "m7", "m8", "m9"]
        info = ring.info()
        assert info == {"capacity": 4, "entries": 4, "total": 10, "dropped": 6}

    def test_tail_filters_by_minimum_severity(self):
        ring = LogRing(capacity=8)
        for level in ("DEBUG", "INFO", "WARNING", "ERROR"):
            ring.append({"level": level, "message": level.lower()})
        assert [r["level"] for r in ring.tail(level="warning")] == [
            "WARNING",
            "ERROR",
        ]
        assert len(ring.tail(limit=2)) == 2

    def test_tail_zero_limit_returns_nothing(self):
        # regression: records[-0:] is records[:], so tail(0) used to
        # return the whole ring instead of an empty slice
        ring = LogRing(capacity=4)
        for i in range(3):
            ring.append({"level": "INFO", "message": f"m{i}"})
        assert ring.tail(limit=0) == []
        assert ring.tail(limit=0, level="info") == []
        assert len(ring.tail(limit=-1)) == 3  # negative = unbounded

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LogRing(capacity=0)


class TestStructuredLogging:
    @pytest.fixture()
    def captured(self):
        """A private logger wired to a fresh ring."""
        ring = LogRing(capacity=16)
        handler = RingHandler(ring, node="test-node")
        logger = logging.getLogger("repro.test_obs_logging")
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(handler)
        try:
            yield get_logger("repro.test_obs_logging"), ring
        finally:
            logger.removeHandler(handler)

    def test_keyword_fields_ride_on_the_record(self, captured):
        log, ring = captured
        log.warning("backend marked down", backend="127.0.0.1:1", reason="boom")
        (entry,) = ring.tail()
        assert entry["level"] == "WARNING"
        assert entry["message"] == "backend marked down"
        assert entry["backend"] == "127.0.0.1:1"
        assert entry["reason"] == "boom"
        assert entry["node"] == "test-node"

    def test_records_inside_a_span_carry_the_trace_id(self, captured):
        log, ring = captured
        with collecting(SpanCollector()):
            with span("traced-block") as s:
                log.info("inside")
        (entry,) = ring.tail()
        assert entry["trace_id"] == s.trace_id
        assert entry["span_id"] == s.span_id

    def test_exception_records_include_the_traceback(self, captured):
        log, ring = captured
        try:
            raise RuntimeError("kaput")
        except RuntimeError:
            log.exception("job failed", job_id="j1")
        (entry,) = ring.tail()
        assert "RuntimeError: kaput" in entry["exception"]
        assert entry["job_id"] == "j1"

    def test_record_to_dict_survives_plain_stdlib_records(self):
        record = logging.LogRecord(
            "other", logging.INFO, __file__, 1, "plain %s", ("msg",), None
        )
        out = record_to_dict(record)
        assert out["message"] == "plain msg"
        assert out["logger"] == "other"


# ---------------------------------------------------------------------------
# Prometheus exposition


class TestPrometheus:
    def test_label_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_gauges_and_labelled_histograms(self):
        snapshot = {
            "queue": {"depth": 3, "limit": 64},
            "uptime_seconds": 1.5,
            "latency": {
                "sb": {
                    "buckets": {"0.01": 2, "0.1": 1, "+inf": 1},
                    "count": 4,
                    "sum_seconds": 0.25,
                    "p50_seconds": 0.01,
                }
            },
            "http": {"responses_by_status": {"200": 7}},
            "label": "ignored-string",
        }
        text = render_prometheus(snapshot)
        assert "repro_queue_depth 3" in text
        assert "repro_uptime_seconds 1.5" in text
        # Per-bucket counts become cumulative ``le`` counts.
        assert 'repro_latency_bucket{method="sb",le="0.01"} 2' in text
        assert 'repro_latency_bucket{method="sb",le="0.1"} 3' in text
        assert 'repro_latency_bucket{method="sb",le="+Inf"} 4' in text
        assert 'repro_latency_count{method="sb"} 4' in text
        assert 'repro_latency_sum{method="sb"} 0.25' in text
        assert 'repro_latency_p50_seconds{method="sb"} 0.01' in text
        assert 'repro_http_responses_by_status{status="200"} 7' in text
        assert "ignored-string" not in text

    def test_booleans_render_as_zero_one(self):
        text = render_prometheus({"backends": {"127.0.0.1:1": {"alive": True}}})
        assert 'repro_backends_alive{backend="127.0.0.1:1"} 1' in text


# ---------------------------------------------------------------------------
# end-to-end over a real embedded server


@pytest.fixture(scope="module")
def obs_server():
    handle = serve_in_thread(
        ServerConfig(port=0, slow_trace_threshold_seconds=0.0)
    )
    try:
        yield handle
    finally:
        handle.close()


@pytest.fixture()
def obs_client(obs_server):
    with Client(obs_server.base_url) as client:
        yield client


def _raw_get(handle, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10.0)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


class TestServerObservability:
    def test_responses_echo_the_trace_header(self, obs_server, obs_client):
        solution = obs_client.solve(make_problem(seed=101))
        assert solution.verify()
        trace_id = obs_client.last_trace_id
        assert trace_id is not None and len(trace_id) == 32

    def test_trace_endpoint_returns_the_full_span_tree(
        self, obs_server, obs_client
    ):
        obs_client.solve(make_problem(seed=102))
        record = obs_client.request(
            "GET", f"/v1/traces/{obs_client.last_trace_id}"
        )[1]
        names = {s["name"] for s in record["spans"]}
        assert {"server.request", "solve.execute"} <= names
        # The fresh solve ran the session's path: the planner, the index
        # cache and the engine, whose span carries derived phases.
        assert {"plan.resolve", "index.lookup", "engine.solve"} <= names
        assert any(name.startswith("engine.s") for name in names - {"engine.solve"})
        assert {s["trace_id"] for s in record["spans"]} == {record["trace_id"]}
        (root,) = assemble_tree(record["spans"])
        assert root["span"]["name"] == "server.request"
        engine = [s for s in record["spans"] if s["name"] == "engine.solve"]
        assert engine[0]["attributes"]["loops"] >= 1

    def test_auto_solve_traces_carry_the_resolved_method(
        self, obs_server, obs_client
    ):
        obs_client.solve(make_problem(seed=103, method="auto"))
        record = obs_client.request(
            "GET", f"/v1/traces/{obs_client.last_trace_id}"
        )[1]
        assert record["slow"] is True  # threshold 0 pins everything
        (solve,) = [s for s in record["spans"] if s["name"] == "solve.execute"]
        assert solve["attributes"]["method"] == "auto"
        assert solve["attributes"]["resolved_method"] == "sb-vec"
        assert "solve.execute" in render_tree(record)

    def test_trace_listing_is_queryable(self, obs_server, obs_client):
        obs_client.solve(make_problem(seed=104))
        listing = obs_client.request("GET", "/v1/traces")[1]
        assert listing["info"]["recorded_total"] >= 1
        newest = listing["traces"][0]
        assert newest["trace_id"] == obs_client.last_trace_id

    @pytest.mark.parametrize("target", SHELL_TARGETS)
    def test_error_envelopes_carry_the_trace_id(self, target):
        with serving(target) as handle, Client(handle.base_url) as obs_client:
            with pytest.raises(ServerError) as excinfo:
                obs_client.request("GET", "/v1/problems/no-such-problem")
        error = excinfo.value
        assert error.status == 404
        assert error.trace_id is not None
        assert error.payload["trace_id"] == error.trace_id
        assert f"[trace {error.trace_id}]" in str(error)

    @pytest.mark.parametrize("target", SHELL_TARGETS)
    def test_listing_limits_are_bounded(self, target):
        with serving(target) as handle, Client(handle.base_url) as client:
            for seed in (106, 108):
                client.solve(make_problem(seed=seed))
            listing = client.request("GET", "/v1/traces?limit=1")[1]
            assert len(listing["traces"]) == 1
            assert client.request("GET", "/v1/traces?limit=0")[1]["traces"] == []
            assert client.request("GET", "/v1/logs?limit=0")[1]["entries"] == []
            for path in ("/v1/traces?limit=-2", "/v1/logs?limit=-1"):
                with pytest.raises(ServerError) as excinfo:
                    client.request("GET", path)
                assert excinfo.value.status == 400
                assert excinfo.value.payload["type"] == "SerdeError"

    def test_operational_events_land_in_the_ring(self, obs_server, obs_client):
        problem_id = obs_client.register(make_problem(seed=107))
        obs_client.solve(problem_id)
        body = obs_client.request("GET", "/v1/logs?limit=512")[1]
        messages = {e["message"] for e in body["entries"]}
        assert "server started" in messages
        assert "problem registered" in messages
        # Threshold 0.0 marks every request slow, so the slow-request
        # warning must fire and carry a resolvable trace id.
        slow = [e for e in body["entries"] if e["message"] == "slow request"]
        assert slow, messages
        record = obs_client.request(
            "GET", f"/v1/traces/{slow[-1]['trace_id']}"
        )[1]
        assert record["slow"] is True

    def test_log_ring_is_tailable_over_http(self, obs_server, obs_client):
        get_logger("repro.server").warning("obs test entry", probe=1)
        body = obs_client.request("GET", "/v1/logs?level=WARNING&limit=50")[1]
        entries = [
            e for e in body["entries"] if e["message"] == "obs test entry"
        ]
        assert entries, body
        assert entries[-1]["probe"] == 1
        assert entries[-1]["node"] == f"127.0.0.1:{obs_server.port}"
        assert body["ring"]["capacity"] == 512

    def test_metrics_content_negotiation(self, obs_server, obs_client):
        snapshot = obs_client.metrics()  # JSON stays the default
        assert "traces" in snapshot and "log_ring" in snapshot
        status, headers, body = _raw_get(
            obs_server, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "repro_queue_depth" in text
        assert "repro_http_requests_total" in text
        status, headers, _ = _raw_get(obs_server, "/metrics?format=prometheus")
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE

    @pytest.mark.parametrize("target", SHELL_TARGETS)
    def test_infrastructure_paths_are_not_traced(self, target):
        with serving(target) as handle:
            status, headers, _ = _raw_get(handle, "/healthz")
        assert status == 200
        assert TRACE_HEADER not in headers

    @pytest.mark.parametrize("target", SHELL_TARGETS)
    def test_observability_off_disables_tracing(self, target):
        with serving(target, observability=False) as handle:
            with Client(handle.base_url) as client:
                client.solve(make_problem(seed=105))
                assert client.last_trace_id is None
                listing = client.request("GET", "/v1/traces")[1]
                assert listing["traces"] == []


# ---------------------------------------------------------------------------
# repro-admin


class TestAdminConsole:
    def test_status_renders_a_server_summary(self, obs_server, capsys):
        assert admin.main(["--url", obs_server.base_url, "status"]) == 0
        out = capsys.readouterr().out
        assert f"repro-server @ {obs_server.base_url}" in out
        assert "solves" in out
        assert "traces:" in out

    def test_trace_last_renders_a_span_tree(
        self, obs_server, obs_client, capsys
    ):
        obs_client.solve(make_problem(seed=106))
        assert (
            admin.main(["--url", obs_server.base_url, "trace", "--last"]) == 0
        )
        out = capsys.readouterr().out
        assert "server.request" in out
        assert "ms" in out

    def test_trace_json_dumps_the_record(self, obs_server, obs_client, capsys):
        obs_client.solve(make_problem(seed=107))
        trace_id = obs_client.last_trace_id
        code = admin.main(
            ["--url", obs_server.base_url, "trace", trace_id, "--json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trace_id"] == trace_id

    def test_unknown_trace_exits_nonzero(self, obs_server, capsys):
        code = admin.main(["--url", obs_server.base_url, "trace", "0" * 32])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_logs_prints_json_lines(self, obs_server, obs_client, capsys):
        get_logger("repro.server").warning("admin logs probe")
        code = admin.main(["--url", obs_server.base_url, "logs", "--limit", "100"])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert any(e["message"] == "admin logs probe" for e in lines)

    def test_watch_refreshes_n_times_then_exits(self, obs_server, capsys):
        code = admin.main(
            [
                "--url", obs_server.base_url,
                "watch", "--count", "2", "--interval", "0.01", "--no-clear",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro-server @") == 2
        assert "req/s" in out

    def test_unreachable_server_exits_nonzero(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = admin.main(
            ["--url", f"http://127.0.0.1:{free_port}", "status"]
        )
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err
