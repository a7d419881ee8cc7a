"""Unit tests for the telemetry routes of the HTTP server (repro.serve.app).

``/metrics``, ``/healthz``, ``/varz`` and ``/debug/traces`` are entries
in :class:`~repro.serve.app.SolapServer`'s one route table; these tests
pin their documents, content types and failure handling.
"""

from __future__ import annotations

import contextlib
import json
import urllib.error
import urllib.request

import pytest

from repro import QueryService, ServiceConfig
from repro.serve import SolapServer
from repro.serve.app import PROMETHEUS_CONTENT_TYPE, respond
from tests.conftest import figure8_spec, make_figure8_db


def fetch(url: str):
    """(status, content_type, body_text) — 4xx/5xx do not raise."""
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), (
            error.read().decode("utf-8")
        )


@contextlib.contextmanager
def serving(config=None, recorder=None):
    """A started server over a fresh service (optionally with *recorder*)."""
    service = QueryService(make_figure8_db(), config)
    if recorder is not None:
        service.recorder = recorder
    try:
        with SolapServer(service) as srv:
            yield srv
    finally:
        service.shutdown()


@pytest.fixture
def server():
    with serving() as srv:
        registry = srv.service.registry
        registry.counter("demo_total", "A demo counter").inc(5)
        registry.histogram(
            "demo_seconds", "A demo histogram", buckets=(0.1, float("inf"))
        ).observe(0.05)
        yield srv


def parse_prometheus(text: str):
    """{metric name: {label part: value}} plus the set of TYPE lines."""
    samples, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            __, __, name, kind = line.split(" ")
            types[name] = kind
        elif line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value.replace("+Inf", "inf"))
    return samples, types


class TestMetricsServer:
    """The metric routes: /metrics, /healthz and /varz."""

    def test_port_zero_binds_ephemeral(self, server):
        assert server.port != 0
        assert server.running
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_metrics_parses_as_prometheus_text(self, server):
        status, ctype, body = fetch(server.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        samples, types = parse_prometheus(body)
        assert types["demo_total"] == "counter"
        assert types["demo_seconds"] == "histogram"
        assert samples["demo_total"] == 5
        # histogram triple: cumulative buckets, sum, count
        assert samples['demo_seconds_bucket{le="0.1"}'] == 1
        assert samples['demo_seconds_bucket{le="+Inf"}'] == 1
        assert samples["demo_seconds_sum"] == pytest.approx(0.05)
        assert samples["demo_seconds_count"] == 1

    def test_healthz_ok(self, server):
        status, ctype, body = fetch(server.url + "/healthz")
        assert status == 200
        assert ctype == "application/json"
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_unhealthy_is_503(self, server):
        server.service.close()
        status, __, body = fetch(server.url + "/healthz")
        assert status == 503
        assert json.loads(body) == {"status": "unhealthy"}

    def test_varz_returns_service_snapshot(self, server):
        status, ctype, body = fetch(server.url + "/varz")
        assert status == 200
        assert ctype == "application/json"
        doc = json.loads(body)
        assert set(doc) >= {"counters", "latency", "engine", "sessions"}
        __, __, stats_body = fetch(server.url + "/v1/stats")
        assert set(json.loads(stats_body)) == set(doc)

    def test_unknown_path_404(self, server):
        status, __, body = fetch(server.url + "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["paths"]

    def test_stop_is_idempotent(self):
        service = QueryService(make_figure8_db())
        server = SolapServer(service).start()
        assert server.start() is server  # idempotent
        server.stop()
        assert not server.running
        server.stop()
        service.shutdown()

    def test_handler_exception_is_500_and_server_stays_up(
        self, server, monkeypatch
    ):
        def broken_snapshot():
            raise RuntimeError("snapshot exploded")

        monkeypatch.setattr(server.service, "snapshot", broken_snapshot)
        status, ctype, body = fetch(server.url + "/varz")
        assert status == 500
        assert ctype == "application/json"
        assert json.loads(body)["error"] == "RuntimeError: snapshot exploded"
        status, __, __body = fetch(server.url + "/healthz")
        assert status == 200


class FakeWfile:
    """A response stream whose peer has hung up: every write raises."""

    def __init__(self, error=BrokenPipeError):
        self.error = error
        self.writes = 0

    def write(self, data):
        self.writes += 1
        raise self.error("client went away")

    def flush(self):
        pass


class FakeDisconnectedRequest:
    """Stub request whose socket dies once the body write starts.

    ``send_response``/``send_header``/``end_headers`` buffer like the real
    handler; the body write (``wfile.write``) raises, like a client that
    closed early.  After the first failure, even header writes fail —
    exactly the behaviour of a real dead socket, which is what made the
    old blanket-``except``-then-500 path re-raise.
    """

    close_connection = False

    def __init__(self, path="/metrics"):
        self.path = path
        self.wfile = FakeWfile()
        self.statuses = []

    def send_response(self, status):
        if self.wfile.writes:
            raise BrokenPipeError("client went away")
        self.statuses.append(status)

    def send_header(self, *args):
        if self.wfile.writes:
            raise BrokenPipeError("client went away")

    def end_headers(self):
        pass


@pytest.fixture
def unstarted():
    """A server that is never bound: ``_dispatch`` is driven directly."""
    service = QueryService(make_figure8_db())
    yield SolapServer(service)
    service.shutdown()


def sent_count(server, route, status):
    return server._requests.labels(route, "GET", str(status)).value


class TestClientDisconnects:
    """Regression: a client hanging up mid-write must not crash handlers.

    A blanket ``except`` that tries to write a 500 to the same dead
    socket re-raises, and the second raise escapes — killing the handler
    thread with a traceback on stderr.
    """

    def test_handle_swallows_broken_pipe(self, unstarted):
        request = FakeDisconnectedRequest("/metrics")
        unstarted._dispatch(request, "GET")  # must not raise
        # the handler tried exactly one response (200), never a 500 retry
        assert request.statuses == [200]
        assert sent_count(unstarted, "/metrics", 0) == 1

    def test_handle_swallows_connection_reset(self, unstarted):
        request = FakeDisconnectedRequest("/healthz")
        request.wfile = FakeWfile(ConnectionResetError)
        unstarted._dispatch(request, "GET")  # must not raise
        assert request.statuses == [200]

    def test_respond_swallows_disconnect_during_headers(self):
        request = FakeDisconnectedRequest("/metrics")
        request.send_response = FakeWfile(ConnectionResetError).write
        sent = respond(request, 200, "application/json", b"{}")  # no raise
        assert sent == 0

    def test_respond_swallows_disconnect_at_flush_time(self, unstarted):
        # A buffered wfile accepts every write; the dead socket only
        # surfaces when the response is flushed.
        class FlushFails(FakeWfile):
            def write(self, data):
                return len(data)

            def flush(self):
                raise self.error("client went away")

        for sent, error in enumerate((BrokenPipeError, ConnectionResetError)):
            request = FakeDisconnectedRequest("/metrics")
            request.wfile = FlushFails(error)
            unstarted._dispatch(request, "GET")
            assert request.statuses == [200]
            # the status recorded is the one that reached the client: none
            assert sent_count(unstarted, "/metrics", 0) == sent + 1
        assert sent_count(unstarted, "/metrics", 200) == 0

    def test_respond_returns_the_status_it_sent(self, unstarted):
        class Connected(FakeWfile):
            def write(self, data):
                self.body = data

        request = FakeDisconnectedRequest("/healthz")
        request.wfile = Connected()
        unstarted.service.close()
        unstarted._dispatch(request, "GET")
        assert request.statuses == [503]
        assert request.wfile.body == b'{"status": "unhealthy"}'
        assert sent_count(unstarted, "/healthz", 503) == 1

    def test_server_survives_early_socket_close(self, server):
        # A real socket that sends the request then resets immediately;
        # the server must stay healthy for the next client either way.
        import socket
        import struct

        for __ in range(3):
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            )
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),  # RST on close
            )
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            sock.close()
        status, __, body = fetch(server.url + "/metrics")
        assert status == 200
        assert "demo_total" in body


class TestServiceExporter:
    def test_service_serves_metrics_while_querying(self):
        with serving() as server:
            service = server.service
            service.execute(figure8_spec(("X", "Y")), "cb")
            service.execute(figure8_spec(("X", "Y")), "cb")

            status, __, body = fetch(server.url + "/metrics")
            assert status == 200
            samples, types = parse_prometheus(body)
            assert types["solap_engine_queries_total"] == "counter"
            assert samples['solap_engine_queries_total{strategy="cb"}'] == 1
            assert (
                samples['solap_engine_queries_total{strategy="cache"}'] == 1
            )
            assert samples["solap_service_requests_total"] == 2
            assert samples["solap_service_query_latency_seconds_count"] == 2

            status, __, body = fetch(server.url + "/healthz")
            assert status == 200

            status, __, body = fetch(server.url + "/varz")
            snapshot = json.loads(body)
            assert snapshot["counters"]["queries_ok"] == 2

            # a shut-down service reports itself unhealthy
            service.shutdown()
            status, __, __body = fetch(server.url + "/healthz")
            assert status == 503


class TestDebugTraces:
    def make_recorder_with_traces(self, n=3):
        from repro.obs.recorder import FlightRecorder
        from repro.obs.spans import Tracer, span

        recorder = FlightRecorder(capacity=8)
        for index in range(n):
            with Tracer("query") as tracer:
                with span("aggregation"):
                    pass

            class Stats:
                trace = tracer.root
                strategy = "CB"
                sequences_scanned = index
                extra = {"shard_fanout": 2, "scan_backend": "thread"}
                plan = None

            recorder.record(
                stats=Stats(), query_id=f"q{index}", wall_seconds=0.001
            )
        return recorder

    def test_traces_404_without_recorder(self, server):
        server.service.recorder = None
        status, __, body = fetch(server.url + "/debug/traces")
        assert status == 404
        assert "not enabled" in json.loads(body)["error"]

    def test_traces_listing_and_entry(self):
        recorder = self.make_recorder_with_traces(3)
        with serving(recorder=recorder) as srv:
            status, ctype, body = fetch(srv.url + "/debug/traces")
            assert status == 200 and ctype == "application/json"
            traces = json.loads(body)["traces"]
            assert len(traces) == 3
            # newest first
            assert traces[0]["query_id"] == "q2"
            entry_id = traces[0]["id"]

            status, __, body = fetch(srv.url + f"/debug/traces/{entry_id}")
            assert status == 200
            entry = json.loads(body)
            assert entry["summary"]["id"] == entry_id
            assert entry["trace"]["trace_schema"] == 2
            assert entry["trace"]["root"]["name"] == "query"

    def test_traces_limit_and_bad_limit(self):
        recorder = self.make_recorder_with_traces(3)
        with serving(recorder=recorder) as srv:
            status, __, body = fetch(srv.url + "/debug/traces?limit=1")
            assert status == 200
            assert len(json.loads(body)["traces"]) == 1

            for bad in ("nope", ""):
                status, __, body = fetch(
                    srv.url + f"/debug/traces?limit={bad}"
                )
                assert status == 400, bad
                assert "bad limit" in json.loads(body)["error"]

    def test_traces_zero_and_negative_limits_are_400(self):
        # limit<1 must be rejected like any other malformed limit, never
        # silently clamped to 1.
        recorder = self.make_recorder_with_traces(3)
        with serving(recorder=recorder) as srv:
            for bad in ("0", "-3"):
                status, __, body = fetch(
                    srv.url + f"/debug/traces?limit={bad}"
                )
                assert status == 400, bad
                assert "must be >= 1" in json.loads(body)["error"]

    def test_unknown_trace_id_404(self):
        recorder = self.make_recorder_with_traces(1)
        with serving(recorder=recorder) as srv:
            status, __, body = fetch(srv.url + "/debug/traces/t999999")
            assert status == 404
            assert "t999999" in json.loads(body)["error"]

    def test_lookup_by_trace_id_falls_back(self):
        recorder = self.make_recorder_with_traces(1)
        trace_id = recorder.recent()[0]["trace_id"]
        with serving(recorder=recorder) as srv:
            status, __, body = fetch(srv.url + f"/debug/traces/{trace_id}")
            assert status == 200
            assert json.loads(body)["summary"]["trace_id"] == trace_id

    def test_service_wires_recorder_into_exporter(self):
        with serving() as srv:
            srv.service.execute(figure8_spec(("X", "Y")), "cb", analyze=True)
            status, __, body = fetch(srv.url + "/debug/traces")
            assert status == 200
            traces = json.loads(body)["traces"]
            assert len(traces) >= 1
            assert traces[0]["trace_id"]

            status, __, body = fetch(srv.url + "/varz")
            assert json.loads(body)["flight_recorder"]["recorded"] >= 1

    def test_recorder_disabled_by_config(self):
        config = ServiceConfig(flight_recorder_capacity=0)
        with serving(config) as srv:
            assert srv.service.recorder is None
            status, __, __body = fetch(srv.url + "/debug/traces")
            assert status == 404
