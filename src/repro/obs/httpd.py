"""Telemetry HTTP endpoint: ``/metrics``, ``/healthz`` and ``/varz``.

A tiny stdlib :mod:`http.server` exporter so any scraper (Prometheus,
curl, a load balancer's health check) can observe a running process with
zero third-party dependencies:

* ``GET /metrics`` — the registry in Prometheus text exposition format;
* ``GET /healthz`` — ``200 {"status": "ok"}`` while the health callback
  reports healthy, ``503`` otherwise (liveness/readiness probes);
* ``GET /varz``    — a JSON snapshot of every metric series (plus
  whatever richer document the owner's callback provides);
* ``GET /debug/traces`` — newest-first summaries from the service's
  flight recorder (``?limit=N`` with ``N >= 1``; a non-numeric, zero or
  negative limit is a 400), and ``GET /debug/traces/<id>`` for one full
  recorded trace — 404 when no recorder is attached.

The server runs on a daemon thread (`ThreadingHTTPServer`, one handler
thread per request) and binds to loopback by default.  Port 0 binds an
ephemeral port — ``server.port`` reports the real one, which is how
tests avoid collisions.

Usage::

    server = MetricsServer(registry, port=9464).start()
    ...
    server.stop()

or let the service own it::

    service = QueryService(db, ServiceConfig(expose_metrics_port=9464))
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: content type of the Prometheus text exposition format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: errors meaning "the client hung up mid-response": nothing can be sent
#: back on that socket, so handlers drop the response instead of crashing
#: the handler thread (and never try to write a 500 to the dead socket)
CLIENT_DISCONNECT_ERRORS = (BrokenPipeError, ConnectionResetError)

JSON_CONTENT_TYPE = "application/json"


def _json_bytes(doc: object) -> bytes:
    return json.dumps(doc, default=repr).encode("utf-8")


class _SendOnFlush(io.RawIOBase):
    """A handler ``wfile`` that hands the kernel one ``sendall`` per flush.

    The stdlib's unbuffered writer sends headers and body separately; on
    a keep-alive connection the second small segment then waits (Nagle)
    for the client's delayed ACK of the first, about 40 ms a request.
    An ``io.BufferedWriter`` would still split a response larger than
    its buffer, so this keeps whatever was written until ``flush``.
    """

    def __init__(self, sock):
        self._sock = sock
        self._parts: List[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._parts.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        if self._parts:
            # emptied first: a failed send drops the response, so the
            # flush in close() cannot raise a second time
            data, self._parts = b"".join(self._parts), []
            self._sock.sendall(data)


class SingleSendHandler(BaseHTTPRequestHandler):
    """Request handler base of both servers: one send per flushed response.

    ``TCP_NODELAY`` is set on the accepted socket as well, because the
    frames of a chunked stream are smaller than the loopback MSS and
    would otherwise each wait for the ACK of the one before.
    """

    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = _SendOnFlush(self.connection)

    def handle_expect_100(self) -> bool:
        proceed = super().handle_expect_100()
        self.wfile.flush()  # the client holds its body back until this arrives
        return proceed

    def log_message(self, *args) -> None:
        pass  # per-request lines on stderr; the owners log structured events


class MetricsServer:
    """Serves one registry (and optional health/varz callbacks) over HTTP."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        health_callback: Optional[Callable[[], bool]] = None,
        varz_callback: Optional[Callable[[], dict]] = None,
        recorder=None,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        self.health_callback = health_callback
        self.varz_callback = varz_callback
        #: the owning service's FlightRecorder (None = /debug/traces 404s)
        self.recorder = recorder
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        owner = self

        class Handler(SingleSendHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                owner._handle(self)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="solap-metrics-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _handle(self, request: BaseHTTPRequestHandler) -> int:
        """Answer one telemetry GET; returns the status actually sent."""
        try:
            status, content_type, body = self._answer(request.path)
        except Exception as error:  # noqa: BLE001 - keep the server alive
            status, content_type = 500, JSON_CONTENT_TYPE
            body = _json_bytes({"error": f"{type(error).__name__}: {error}"})
        return self._respond(request, status, content_type, body)

    def _answer(self, raw_path: str) -> Tuple[int, str, bytes]:
        """(status, content type, body) for one request path."""
        path, __, query = raw_path.partition("?")
        if path == "/metrics":
            body = self.registry.render_prometheus().encode("utf-8")
            return 200, PROMETHEUS_CONTENT_TYPE, body
        if path == "/healthz":
            healthy = self.health_callback() if self.health_callback else True
            status = 200 if healthy else 503
            doc: object = {"status": "ok" if healthy else "unhealthy"}
        elif path == "/varz":
            status = 200
            doc = (
                self.varz_callback()
                if self.varz_callback
                else self.registry.snapshot()
            )
        elif path == "/debug/traces" or path.startswith("/debug/traces/"):
            status, doc = self._traces(path, query)
        else:
            status = 404
            doc = {
                "error": f"unknown path {path!r}",
                "paths": ["/metrics", "/healthz", "/varz",
                          "/debug/traces", "/debug/traces/<id>"],
            }
        return status, JSON_CONTENT_TYPE, _json_bytes(doc)

    def _traces(self, path: str, query: str) -> Tuple[int, object]:
        """The flight-recorder routes (summaries or one entry)."""
        if self.recorder is None:
            return 404, {"error": "flight recorder not enabled"}
        if path == "/debug/traces":
            limit = 20
            for pair in query.split("&"):
                key, __, value = pair.partition("=")
                if key == "limit":
                    try:
                        limit = int(value)
                    except ValueError:
                        return 400, {"error": f"bad limit {value!r}"}
            if limit < 1:
                # limit=0 / negative limits are requests the caller never
                # meant: rejected like any other malformed limit, never
                # silently clamped.
                return 400, {"error": f"bad limit {limit!r}: must be >= 1"}
            return 200, {"traces": self.recorder.recent(limit=limit)}
        entry_id = path[len("/debug/traces/"):]
        entry = self.recorder.get(entry_id) if entry_id else None
        if entry is None:
            return 404, {"error": f"no recorded trace {entry_id!r}"}
        return 200, entry

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: bytes,
    ) -> int:
        """Write one whole response and flush it once; returns the status sent.

        The single response writer of both HTTP servers.  On a
        :class:`SingleSendHandler` status line, headers and body reach the
        kernel in one ``sendall``.  A client that hung up (the error
        surfaces at flush time on a buffered ``wfile``) gets nothing —
        retrying on the dead socket would only re-raise and kill the
        handler thread — and the status reported is 0.
        """
        try:
            request.send_response(status)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
            request.wfile.flush()
        except CLIENT_DISCONNECT_ERRORS:
            return 0
        return status

    def __repr__(self) -> str:
        state = "serving" if self.running else "stopped"
        return f"MetricsServer({self.url}, {state})"
