"""Integration tests for the HTTP+JSON serving layer.

Every test drives a real :class:`~repro.serve.app.SolapServer` bound to
an ephemeral loopback port with stdlib ``urllib``/``http.client``/raw
sockets — the same way the CI smoke job and external clients do.
"""

import http.client
import json
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.ql import format_spec, parse_query
from repro.serve import SolapServer, codecs
from repro.service import QueryService
from tests.conftest import figure8_spec, make_figure8_db

TERMINAL = ("done", "error", "cancelled", "timeout")


@pytest.fixture(scope="module")
def stack():
    service = QueryService(make_figure8_db())
    server = SolapServer(service).start()
    yield service, server
    server.stop()
    service.shutdown()


@pytest.fixture()
def ql():
    return format_spec(figure8_spec(("A", "B")))


def _post(server, path, doc):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _delete(server, path):
    request = urllib.request.Request(server.url + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _poll_until_terminal(server, job_id, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        __, doc = _get(server, f"/v1/queries/{job_id}")
        if doc["status"] in TERMINAL:
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def _fetch(server, path):
    """(status, body bytes) of a GET; 4xx/5xx do not raise."""
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _stream_frames(server, body):
    request = urllib.request.Request(
        server.url + "/v1/stream",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
    )
    frames = []
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        for line in response:
            frames.append(json.loads(line))
    return frames


class TestSessions:
    def test_open_describe_close(self, stack, ql):
        service, server = stack
        status, doc = _post(server, "/v1/sessions", {"ql": ql})
        assert status == 201
        session_id = doc["session_id"]
        # The echoed QL is the canonical round-trip of the parsed spec.
        assert parse_query(doc["ql"], service.engine.db.schema) == parse_query(
            ql, service.engine.db.schema
        )
        status, doc = _get(server, f"/v1/sessions/{session_id}")
        assert status == 200
        assert doc["has_result"] is False
        assert doc["steps_executed"] == 0
        status, doc = _delete(server, f"/v1/sessions/{session_id}")
        assert status == 200 and doc["closed"] is True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, f"/v1/sessions/{session_id}")
        assert excinfo.value.code == 404

    def test_open_requires_ql(self, stack):
        __, server = stack
        for body in ({}, {"ql": ""}, {"ql": 7}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/v1/sessions", body)
            assert excinfo.value.code == 400

    def test_bad_ql_is_400(self, stack):
        __, server = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/v1/sessions", {"ql": "SELECT nonsense FROM"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())


class TestAsyncQueries:
    def test_submit_poll_paginate(self, stack, ql):
        service, server = stack
        status, doc = _post(server, "/v1/queries", {"ql": ql})
        assert status == 202
        # The figure8 workload is tiny: the job may already be done by
        # the time the submit response is serialised.
        assert doc["status"] in ("queued", "running", "done")
        job_id = doc["query_id"]
        done = _poll_until_terminal(server, job_id)
        assert done["status"] == "done"
        assert done["cell_count"] > 0
        assert done["stats"]["strategy"]

        # Cursor-walk every page and compare against the in-process
        # engine result encoded through the same codec.
        cells, offset = [], 0
        while offset is not None:
            __, page = _get(
                server, f"/v1/queries/{job_id}?offset={offset}&limit=2"
            )
            assert len(page["cells"]) <= 2
            cells.extend(page["cells"])
            offset = page["page"]["next_offset"]
        spec = parse_query(ql, service.engine.db.schema)
        exact, __ = service.engine.execute(spec)
        assert cells == codecs.encode_cells(exact)

    def test_submit_on_session_records_result(self, stack, ql):
        service, server = stack
        __, doc = _post(server, "/v1/sessions", {"ql": ql})
        session_id = doc["session_id"]
        __, doc = _post(server, "/v1/queries", {"session_id": session_id})
        done = _poll_until_terminal(server, doc["query_id"])
        assert done["status"] == "done"
        assert done["session_id"] == session_id
        __, described = _get(server, f"/v1/sessions/{session_id}")
        assert described["has_result"] is True
        assert described["result_cells"] == done["cell_count"]
        _delete(server, f"/v1/sessions/{session_id}")

    def test_cancel_inflight_query(self, stack, ql):
        """Deterministic in-flight cancel: the job blocks on the engine
        lock held by the test, the cancel lands over HTTP, and the job
        unwinds at its first checkpoint once the lock is released."""
        service, server = stack
        with service._engine_lock:
            __, doc = _post(server, "/v1/queries", {"ql": ql})
            job_id = doc["query_id"]
            status, doc = _post(server, f"/v1/queries/{job_id}/cancel", {})
            assert status == 200
            assert doc["cancelled"] is True
        done = _poll_until_terminal(server, job_id)
        assert done["status"] == "cancelled"
        assert done["error_type"] == "QueryCancelledError"

    def test_unknown_job_is_404(self, stack):
        __, server = stack
        for path in ("/v1/queries/nope", "/v1/queries/nope/cancel"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                if path.endswith("cancel"):
                    _post(server, path, {})
                else:
                    _get(server, path)
            assert excinfo.value.code == 404

    def test_bad_pagination_is_400(self, stack, ql):
        __, server = stack
        __, doc = _post(server, "/v1/queries", {"ql": ql})
        job_id = doc["query_id"]
        _poll_until_terminal(server, job_id)
        for params in ("offset=-1", "limit=0", "limit=x"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, f"/v1/queries/{job_id}?{params}")
            assert excinfo.value.code == 400

    def test_submit_needs_exactly_one_of_ql_or_session(self, stack, ql):
        __, server = stack
        for body in ({}, {"ql": ql, "session_id": "s1"}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/v1/queries", body)
            assert excinfo.value.code == 400


class TestStreaming:
    def test_progressive_frames_terminated_by_exact_final(self, stack, ql):
        service, server = stack
        frames = _stream_frames(server, {"ql": ql, "chunk_size": 1})
        assert len(frames) >= 3
        pre_final = [f for f in frames if not f["is_final"]]
        assert len(pre_final) >= 2
        assert frames[-1]["is_final"]
        fractions = [f["fraction"] for f in frames]
        assert fractions == sorted(fractions)
        # Non-final frames carry linear scale-up COUNT estimates.
        assert any(
            "estimated" in cell for f in pre_final for cell in f["cells"]
        )
        spec = parse_query(ql, service.engine.db.schema)
        exact, __ = service.engine.execute(spec)
        assert frames[-1]["cells"] == codecs.encode_cells(exact)

    def test_stream_on_session_caches_final(self, stack, ql):
        service, server = stack
        __, doc = _post(server, "/v1/sessions", {"ql": ql})
        session_id = doc["session_id"]
        frames = _stream_frames(
            server, {"session_id": session_id, "chunk_size": 2}
        )
        assert frames[-1]["is_final"]
        __, described = _get(server, f"/v1/sessions/{session_id}")
        assert described["has_result"] is True
        _delete(server, f"/v1/sessions/{session_id}")

    def test_deterministic_given_seed(self, stack, ql):
        __, server = stack
        a = _stream_frames(server, {"ql": ql, "chunk_size": 1, "seed": 3})
        b = _stream_frames(server, {"ql": ql, "chunk_size": 1, "seed": 3})
        assert a == b

    def test_stream_validates_body(self, stack, ql):
        __, server = stack
        for body in (
            {"ql": ql, "chunk_size": 0},
            {"ql": ql, "chunk_size": "x"},
            {"ql": ql, "seed": "x"},
            {"ql": ql, "timeout": -1},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/v1/stream", body)
            assert excinfo.value.code == 400

    def test_client_disconnect_cancels_server_side_work(self, stack, ql):
        """An RST mid-stream must stop the scan, release the slot and be
        accounted as a cancel — without crashing the handler thread."""
        service, server = stack
        before = service.metrics["cancelled_total"]
        dropped = server._requests.labels("/v1/stream", "POST", "0")
        dropped_before = dropped.value
        body = json.dumps({"ql": ql, "chunk_size": 1}).encode("utf-8")
        with service._engine_lock:
            # The stream admits, then blocks on the engine lock held
            # here — deterministically before the first frame.
            streams_before = service.metrics["streams_total"]
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            )
            sock.sendall(
                b"POST /v1/stream HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            deadline = time.monotonic() + 10.0
            while (
                service.metrics["streams_total"] == streams_before
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.metrics["streams_total"] == streams_before + 1
            # RST on close: the server's next write fails immediately.
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
        deadline = time.monotonic() + 10.0
        while (
            service.metrics["cancelled_total"] == before
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert service.metrics["cancelled_total"] > before
        # The wfile is buffered, so the dead socket surfaces at the first
        # frame's flush: still swallowed, still accounted as status 0 —
        # never as a 200 or a 500 written to the dead socket.
        while dropped.value == dropped_before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert dropped.value == dropped_before + 1
        assert service.inflight == 0
        # The server survived and still answers.
        status, __doc = _get(server, "/healthz")
        assert status == 200


class TestErrorMappingAndTelemetry:
    def test_unknown_path_is_404_with_route_list(self, stack):
        __, server = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/v2/nope")
        assert excinfo.value.code == 404
        assert "paths" in json.loads(excinfo.value.read())

    def test_method_not_allowed_is_405(self, stack):
        __, server = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/v1/stats", {})
        assert excinfo.value.code == 405

    def test_bad_json_body_is_400(self, stack):
        __, server = stack
        request = urllib.request.Request(
            server.url + "/v1/queries", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_oversized_body_is_rejected(self, stack):
        from repro.serve.app import MAX_BODY_BYTES

        __, server = stack
        request = urllib.request.Request(
            server.url + "/v1/queries",
            data=b"x" * (MAX_BODY_BYTES + 1),
            method="POST",
        )
        # The server answers 400 without draining the megabyte body and
        # closes the connection; depending on timing the client either
        # sees the 400 or hits the closed socket while still sending.
        with pytest.raises(urllib.error.URLError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        if isinstance(excinfo.value, urllib.error.HTTPError):
            assert excinfo.value.code == 400
        else:
            assert isinstance(
                excinfo.value.reason, (BrokenPipeError, ConnectionResetError)
            )
        # Whatever the client saw, the server survived.
        status, __doc = _get(server, "/healthz")
        assert status == 200

    def test_metrics_routes_served_from_same_port(self, stack):
        __, server = stack
        status, doc = _get(server, "/healthz")
        assert status == 200 and doc["status"] == "ok"
        status, doc = _get(server, "/varz")
        assert status == 200 and "counters" in doc
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert "solap_http_requests_total" in text
        assert "solap_http_request_seconds" in text
        assert "solap_http_stream_frames_total" in text
        assert "solap_service_requests_total" in text

    def test_traces_limit_contract_applies_on_serve_port(self, stack):
        __, server = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/debug/traces?limit=0")
        assert excinfo.value.code == 400

    def test_stats_endpoint_reflects_http_traffic(self, stack):
        __, server = stack
        status, doc = _get(server, "/v1/stats")
        assert status == 200
        assert doc["counters"]["requests_total"] >= 1

    @pytest.mark.parametrize(
        "target, expected",
        [
            ("/metrics/", 200),
            ("/healthz/", 200),
            ("/varz/", 200),
            ("/debug/traces/", 200),
            ("/v1/queries/{job}?limit=", 400),
            ("/v1/queries/{job}?offset=", 400),
        ],
    )
    def test_one_route_parser(self, stack, ql, target, expected):
        """A trailing slash and a blank parameter mean the same on every
        route: the query routes and the telemetry routes share one parse."""
        __, server = stack
        if "{job}" in target:
            __, doc = _post(server, "/v1/queries", {"ql": ql})
            _poll_until_terminal(server, doc["query_id"])
            target = target.format(job=doc["query_id"])
        status, body = _fetch(server, target)
        assert status == expected, target
        if expected == 400:
            # rejected, never silently replaced by the default window
            assert json.loads(body)["error"].startswith("bad ")
        elif target == "/debug/traces/":
            assert "traces" in json.loads(body)
        elif target == "/healthz/":
            assert json.loads(body) == {"status": "ok"}

    def test_every_method_gets_a_counted_json_reply(self, stack, monkeypatch):
        """The documented ladder: JSON errors, 405 for the wrong method on
        a known path, every request counted and logged; after a reply to
        an unimplemented method the connection closes cleanly."""
        service, server = stack
        logged = []
        monkeypatch.setattr(
            service.log,
            "event",
            lambda name, **fields: logged.append(fields)
            if name == "http_request" else None,
        )
        cases = [
            ("GET", "/v1/sessions", "/v1/sessions", 405),
            ("GET", "/v1/queries", "/v1/queries", 405),
            ("PUT", "/v1/stats", "/v1/stats", 405),
            ("PATCH", "/v1/sessions/s1", "/v1/sessions/*", 405),
            ("HEAD", "/healthz", "/healthz", 405),
            ("PUT", "/v2/nope", "other", 404),
        ]
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for method, path, route, expected in cases:
                counter = server._requests.labels(route, method, str(expected))
                before = counter.value
                connection.request(method, path)
                response = connection.getresponse()
                body = response.read()
                assert response.status == expected, (method, path)
                assert response.getheader("Content-Type") == "application/json"
                if method != "HEAD":
                    assert "error" in json.loads(body)
                implemented = method in ("GET", "POST", "DELETE")
                assert (response.getheader("Connection") == "close") != implemented
                # accounting runs just after the send, on the server thread
                deadline = time.monotonic() + 5
                while not any(fields["path"] == path for fields in logged):
                    assert time.monotonic() < deadline, "request never logged"
                    time.sleep(0.01)
                assert counter.value == before + 1
                assert [
                    (fields["method"], fields["status"])
                    for fields in logged
                    if fields["path"] == path
                ] == [(method, expected)]
            # the same client carries on: the HEAD reply did not desync it
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
        finally:
            connection.close()
