"""The serving hot path: one send per response, ``TCP_NODELAY`` on accepted
sockets, encode-once pagination, and the status the telemetry routes sent.

Socket-layer assertions count the ``send``/``sendall`` calls the server
makes on the accepted connection — no wall-clock thresholds anywhere.
"""

import gc
import http.client
import json
import socket
import threading
import weakref

import pytest

from repro.ql import format_spec
from repro.serve import SolapServer, codecs
from repro.service import QueryService
from tests.conftest import figure8_spec, make_figure8_db


class RecordingSocket(socket.socket):
    """An accepted connection that logs every payload handed to the kernel."""

    sent: list

    def send(self, data, *args):
        self.sent.append(bytes(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sent.append(bytes(data))
        return super().sendall(data, *args)


@pytest.fixture()
def service():
    svc = QueryService(make_figure8_db())
    yield svc
    svc.shutdown()


@pytest.fixture()
def wire(service):
    """(service, server, accepted sockets) with recording connections."""
    server = SolapServer(service).start()
    accepted = []
    accept = server._httpd.get_request

    def get_request():
        conn, address = accept()
        recording = RecordingSocket(
            conn.family, conn.type, conn.proto, fileno=conn.detach()
        )
        recording.sent = []
        accepted.append(recording)
        return recording, address

    server._httpd.get_request = get_request
    yield service, server, accepted
    server.stop()


@pytest.fixture()
def ql():
    return format_spec(figure8_spec(("A", "B")))


def _call(connection, method, path, doc=None):
    body = None if doc is None else json.dumps(doc)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read()


def _poll_done(connection, path):
    for __ in range(2000):
        status, body = _call(connection, "GET", path)
        if json.loads(body)["status"] == "done":
            return status, body
    raise AssertionError("job never finished")


class TestOneSendPerResponse:
    def test_every_response_and_frame_is_one_send(self, wire, ql):
        __, server, accepted = wire
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            status, body = _call(connection, "POST", "/v1/queries", {"ql": ql})
            assert status == 202
            (sock,) = accepted
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            assert len(sock.sent) == 1
            assert sock.sent[0].startswith(b"HTTP/1.1 202 ")
            assert sock.sent[0].endswith(body)

            path = f"/v1/queries/{json.loads(body)['query_id']}?limit=2"
            _poll_done(connection, path)
            for expected, method, target, doc in (
                (200, "GET", path, None),
                (400, "GET", path.replace("limit=2", "limit=0"), None),
                (404, "GET", "/v1/queries/job999999", None),
                (200, "GET", "/healthz", None),
            ):
                before = len(sock.sent)
                status, body = _call(connection, method, target, doc)
                assert status == expected
                assert len(sock.sent) == before + 1
                assert sock.sent[-1].startswith(f"HTTP/1.1 {expected} ".encode())
                assert sock.sent[-1].endswith(body)

            before = len(sock.sent)
            connection.request(
                "POST", "/v1/stream", body=json.dumps({"ql": ql, "chunk_size": 1})
            )
            response = connection.getresponse()
            frames = [json.loads(line) for line in response]
            assert len(frames) >= 3 and frames[-1]["is_final"]
            sends = sock.sent[before:]
            # headers ride with the first frame; the chunked terminator is
            # the only send that carries no frame
            assert len(sends) == len(frames) + 1
            assert sends[0].startswith(b"HTTP/1.1 200 ")
            assert sends[-1] == b"0\r\n\r\n"
            for frame, payload in zip(frames, sends):
                assert payload.endswith(b"}\n\r\n") and payload.count(b"}\n\r\n") == 1
                line = payload[:-3].rsplit(b"\r\n", 1)[1]
                assert json.loads(line) == frame
        finally:
            connection.close()

    def test_expect_100_continue_is_answered_before_the_body_is_sent(self, wire, ql):
        # curl adds "Expect: 100-continue" to bodies over 1 KiB and holds
        # the body back; a buffered wfile must not sit on the interim reply.
        __, server, __accepted = wire
        body = json.dumps({"ql": ql}).encode("utf-8")
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/queries HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            )
            assert sock.recv(4096).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            assert sock.recv(4096).startswith(b"HTTP/1.1 202 ")

    def test_streamed_final_frame_equals_the_paginated_result(self, wire, ql):
        __, server, __accepted = wire
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            __, body = _call(connection, "POST", "/v1/queries", {"ql": ql})
            path = f"/v1/queries/{json.loads(body)['query_id']}"
            __, body = _poll_done(connection, f"{path}?limit=3")
            doc = json.loads(body)
            cells = doc["cells"]
            while doc["page"]["next_offset"] is not None:
                __, body = _call(
                    connection,
                    "GET",
                    f"{path}?limit=3&offset={doc['page']['next_offset']}",
                )
                doc = json.loads(body)
                cells.extend(doc["cells"])
            assert len(cells) == doc["page"]["total_cells"] > 3
            connection.request(
                "POST", "/v1/stream", body=json.dumps({"ql": ql, "chunk_size": 2})
            )
            final = [json.loads(line) for line in connection.getresponse()][-1]
            assert final["is_final"] and final["cells"] == cells
        finally:
            connection.close()


class TestEncodeOnce:
    def _finished_job(self, server, spec):
        job = server.jobs.submit(spec)
        assert job.wait(10.0) and job.status == "done"
        return job

    def _encodes(self, server):
        family = server._page_encodes
        return family.labels("hit").value, family.labels("miss").value

    def test_second_job_on_the_same_repository_entry_encodes_nothing(self, service):
        server = SolapServer(service)
        spec = figure8_spec(("A", "B"))
        first = self._finished_job(server, spec)
        second = self._finished_job(server, spec)
        assert second.stats.cuboid_cache_hit and second.result is first.result
        encoded = server._encoded_cuboid(first.result)
        assert server._encoded_cuboid(second.result) is encoded
        assert self._encodes(server) == (1, 1)
        assert "solap_http_page_encodes_total" in service.registry.render_prometheus()

    def test_racing_first_pages_both_get_whole_pages(self, service, monkeypatch):
        server = SolapServer(service)
        cuboid = self._finished_job(server, figure8_spec(("A", "B"))).result
        barrier = threading.Barrier(2, timeout=10.0)

        class SlowEncodedCuboid(codecs.EncodedCuboid):
            def __init__(self, source):
                barrier.wait()  # both racers are past the memo lookup
                super().__init__(source)

        monkeypatch.setattr(codecs, "EncodedCuboid", SlowEncodedCuboid)
        pages, served = [], []

        def first_page():
            encoded = server._encoded_cuboid(cuboid)
            served.append(encoded)
            pages.append(json.loads(encoded.page_body({"n": 1}, 0, 4, {})))

        threads = [threading.Thread(target=first_page) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        expected = codecs.page_cells(cuboid, 0, 4)
        assert [page["cells"] for page in pages] == [expected["cells"]] * 2
        assert [page["page"] for page in pages] == [expected["page"]] * 2
        # both built (misses), one build was published, both served it
        assert self._encodes(server) == (0, 2)
        assert served[0] is served[1] is server._encoded_cuboid(cuboid)

    def test_memo_dies_with_the_cuboid(self, service):
        server = SolapServer(service, job_history_limit=1)
        job = self._finished_job(server, figure8_spec(("A", "B")))
        cuboid_ref = weakref.ref(job.result)
        encoded_ref = weakref.ref(server._encoded_cuboid(job.result))
        gc.collect()
        assert encoded_ref() is not None  # alive while the cuboid is
        service.engine.repository.clear()
        # a history of one: the next finished job prunes this one
        self._finished_job(server, figure8_spec(("X", "Y", "Z")))
        del job
        gc.collect()
        assert cuboid_ref() is None
        assert encoded_ref() is None
        assert len(server._encoded) == 0


class TestPollValidatesPageParamsWhileRunning:
    def test_bad_window_is_400_before_the_job_finishes(self, wire, ql):
        service, server, __ = wire
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            with service._engine_lock:  # the job admits, then waits here
                __, body = _call(connection, "POST", "/v1/queries", {"ql": ql})
                path = f"/v1/queries/{json.loads(body)['query_id']}"
                status, body = _call(connection, "GET", f"{path}?limit=5")
                assert status == 200
                assert json.loads(body)["status"] in ("queued", "running")
                for bad in ("limit=0", "offset=-1", "limit=x"):
                    status, body = _call(connection, "GET", f"{path}?{bad}")
                    assert status == 400, bad
                    assert "error" in json.loads(body)
            status, __ = _poll_done(connection, f"{path}?limit=5")
            assert status == 200
        finally:
            connection.close()


class TestTelemetryStatusLabel:
    def test_label_and_log_event_carry_the_status_sent(self, wire, monkeypatch):
        service, server, __ = wire
        events = []
        monkeypatch.setattr(
            service.log,
            "event",
            lambda name, **fields: events.append((name, fields)),
        )

        def count(route, status):
            return server._requests.labels(route, "GET", str(status)).value

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            cases = [
                ("/debug/traces?limit=0", "/debug/traces", 400),
                ("/debug/traces/no-such-trace", "/debug/traces", 404),
                ("/healthz", "/healthz", 200),
            ]
            for target, route, expected in cases:
                ok_before = count(route, 200)
                before = count(route, expected)
                status, __ = _call(connection, "GET", target)
                assert status == expected
                # accounting runs after the send: the next exchange on the
                # same connection orders it before the assertions
                _call(connection, "GET", "/varz")
                assert count(route, expected) == before + 1
                if expected != 200:
                    assert count(route, 200) == ok_before
            service._closed = True  # what /healthz reports on
            try:
                status, __ = _call(connection, "GET", "/healthz")
                _call(connection, "GET", "/varz")
            finally:
                service._closed = False
            assert status == 503
            assert count("/healthz", 503) == 1
        finally:
            connection.close()
        logged = [
            (fields["path"], fields["status"])
            for name, fields in events
            if name == "http_request" and fields["path"] != "/varz"
        ]
        assert logged == [
            ("/debug/traces", 400),
            ("/debug/traces/no-such-trace", 404),
            ("/healthz", 200),
            ("/healthz", 503),
        ]
