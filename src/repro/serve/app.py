"""The HTTP+JSON query serving front-end over one :class:`QueryService`.

``solap serve`` binds a :class:`SolapServer`: a stdlib
``ThreadingHTTPServer`` (one daemon handler thread per connection, same
plumbing as :class:`repro.obs.httpd.MetricsServer`, whose telemetry
routes are mounted unchanged) speaking the textual query language on the
way in and JSON on the way out.

Routes (see ``docs/serving.md`` for the full reference):

* ``POST /v1/sessions`` — open an exploration session (multi-tenant over
  the service's :class:`~repro.service.sessions.SessionManager`);
* ``GET/DELETE /v1/sessions/<id>`` — inspect / close one session;
* ``POST /v1/queries`` — submit an asynchronous query (HTTP 202 + job
  id); body carries QL text or a session id;
* ``GET /v1/queries/<id>`` — poll status; finished jobs paginate their
  S-cuboid cells via ``?offset=&limit=``;
* ``POST /v1/queries/<id>/cancel`` — cooperative cancellation;
* ``POST /v1/stream`` — progressive results over chunked transfer
  encoding: one JSON line per
  :class:`~repro.extensions.online_agg.OnlineEstimate`, terminated by
  the exact final frame (bit-identical to the blocking path);
* ``GET /metrics`` / ``/healthz`` / ``/varz`` / ``/debug/traces`` — the
  metrics exporter's routes, served from the same port.

Every request lands in the shared metrics registry
(``solap_http_requests_total{route,method,status}``,
``solap_http_request_seconds{route}``,
``solap_http_stream_frames_total``) and emits an ``http_request``
query-lifecycle log record, so the HTTP path is observable with the
same tools as the engine underneath it.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import (
    QueryNotFoundError,
    QueryLanguageError,
    ServiceOverloadedError,
    SessionNotFoundError,
    SOLAPError,
    SpecError,
)
from repro.obs.httpd import (
    CLIENT_DISCONNECT_ERRORS,
    JSON_CONTENT_TYPE,
    MetricsServer,
    SingleSendHandler,
)
from repro.obs.spans import span
from repro.ql import format_spec, parse_query
from repro.serve import codecs
from repro.serve.jobs import _UNSET, JobRegistry
from repro.service.deadline import CancelToken
from repro.service.service import QueryService

#: request bodies larger than this are rejected outright (HTTP 413)
MAX_BODY_BYTES = 1 << 20

#: content type of streamed progressive results (one JSON doc per line)
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: telemetry paths delegated verbatim to the metrics exporter plumbing
_METRICS_PATHS = ("/metrics", "/healthz", "/varz", "/debug/traces")


def _route_label(path: str) -> str:
    """Collapse per-resource paths onto bounded metric label values."""
    if path.startswith("/v1/sessions"):
        return "/v1/sessions" if path == "/v1/sessions" else "/v1/sessions/*"
    if path.startswith("/v1/queries"):
        if path == "/v1/queries":
            return "/v1/queries"
        return (
            "/v1/queries/*/cancel"
            if path.endswith("/cancel")
            else "/v1/queries/*"
        )
    if path.startswith("/debug/traces"):
        return "/debug/traces"
    known = ("/v1/stream", "/v1/stats", "/metrics", "/healthz", "/varz")
    return path if path in known else "other"


class SolapServer:
    """Serves one :class:`QueryService` over HTTP on a daemon thread."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        job_history_limit: int = 256,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.jobs = JobRegistry(service, history_limit=job_history_limit)
        #: the telemetry routes, reused unstarted: its ``_handle`` serves
        #: /metrics, /healthz, /varz and /debug/traces on this port
        self._telemetry = MetricsServer(
            service.registry,
            health_callback=lambda: not service._closed,
            varz_callback=service.snapshot,
            recorder=service.recorder,
        )
        registry = service.registry
        self._requests = registry.counter(
            "solap_http_requests_total",
            "HTTP requests served by the query front-end",
            labels=("route", "method", "status"),
        )
        self._latency = registry.histogram(
            "solap_http_request_seconds",
            "HTTP request wall time (streams: until the last frame)",
            labels=("route",),
        )
        self._frames = registry.counter(
            "solap_http_stream_frames_total",
            "Progressive-result frames written to streaming clients",
        ).labels()
        self._page_encodes = registry.counter(
            "solap_http_page_encodes_total",
            "Result pages served from an already encoded cuboid (hit) or "
            "after encoding it (miss)",
            labels=("result",),
        )
        #: encode-once pagination: the wire form of every cuboid a page was
        #: served from, kept exactly as long as the cuboid itself (held by
        #: the repository, a job or a session) — no size knob, no TTL
        self._encoded = weakref.WeakKeyDictionary()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle (same shape as MetricsServer)
    # ------------------------------------------------------------------
    def start(self) -> "SolapServer":
        """Bind and serve on a daemon thread; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        owner = self

        class Handler(SingleSendHandler):
            # HTTP/1.1 enables chunked transfer encoding (streams) and
            # connection keep-alive for polling clients.
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                owner._dispatch(self, "GET")

            def do_POST(self) -> None:  # noqa: N802
                owner._dispatch(self, "POST")

            def do_DELETE(self) -> None:  # noqa: N802
                owner._dispatch(self, "DELETE")

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="solap-serve-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and release the port (idempotent)."""
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

    def __enter__(self) -> "SolapServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self.running else "stopped"
        return f"SolapServer({self.url}, {state}, {len(self.jobs)} jobs)"

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: BaseHTTPRequestHandler, method: str) -> None:
        """Route one request; all accounting and error mapping lives here."""
        parts = urlsplit(request.path)
        path = parts.path.rstrip("/") or "/"
        params = dict(parse_qsl(parts.query))
        route = _route_label(path)
        started = time.perf_counter()
        status = 500
        try:
            with span("http.request", route=route, method=method):
                status = self._route(request, method, path, params)
        except CLIENT_DISCONNECT_ERRORS:
            # Satellite contract: a client hanging up mid-write must
            # never crash the handler thread (nor be answered — there is
            # no socket left).
            status = 0
        except ValueError as error:
            status = self._send_error(request, 400, str(error))
        except QueryLanguageError as error:
            status = self._send_error(request, 400, str(error))
        except SpecError as error:
            status = self._send_error(request, 400, str(error))
        except (SessionNotFoundError, QueryNotFoundError) as error:
            status = self._send_error(request, 404, str(error))
        except ServiceOverloadedError as error:
            status = self._send_error(request, 429, str(error))
        except SOLAPError as error:
            status = self._send_error(request, 400, str(error))
        except Exception as error:  # noqa: BLE001 - keep the server alive
            status = self._send_error(
                request, 500, f"{type(error).__name__}: {error}"
            )
        finally:
            elapsed = time.perf_counter() - started
            self._requests.labels(route, method, str(status)).inc()
            self._latency.labels(route).observe(elapsed)
            self.service.log.event(
                "http_request",
                method=method,
                route=route,
                path=path,
                status=status,
                duration_ms=round(elapsed * 1000.0, 3),
            )

    def _route(
        self,
        request: BaseHTTPRequestHandler,
        method: str,
        path: str,
        params: dict,
    ) -> int:
        """Returns the response status (raises for mapped error classes)."""
        if path in _METRICS_PATHS or path.startswith("/debug/traces/"):
            if method != "GET":
                return self._send_error(
                    request, 405, f"{method} not allowed on {path}"
                )
            return self._telemetry._handle(request)
        if path == "/v1/stats":
            if method != "GET":
                return self._send_error(request, 405, "use GET /v1/stats")
            return self._send_json(request, 200, self.service.snapshot())
        if path == "/v1/sessions" and method == "POST":
            return self._open_session(request)
        if path.startswith("/v1/sessions/"):
            session_id = path[len("/v1/sessions/"):]
            if method == "DELETE":
                return self._close_session(request, session_id)
            if method == "GET":
                return self._describe_session(request, session_id)
            return self._send_error(
                request, 405, "use GET or DELETE on /v1/sessions/<id>"
            )
        if path == "/v1/queries" and method == "POST":
            return self._submit_query(request)
        if path.startswith("/v1/queries/"):
            rest = path[len("/v1/queries/"):]
            if rest.endswith("/cancel") and method == "POST":
                return self._cancel_query(request, rest[: -len("/cancel")])
            if method == "GET" and "/" not in rest:
                return self._poll_query(request, rest, params)
            return self._send_error(
                request,
                405,
                "use GET /v1/queries/<id> or POST /v1/queries/<id>/cancel",
            )
        if path == "/v1/stream" and method == "POST":
            return self._stream_query(request)
        return self._send_error(
            request,
            404,
            f"unknown path {path!r}",
            paths=[
                "/v1/sessions",
                "/v1/sessions/<id>",
                "/v1/queries",
                "/v1/queries/<id>",
                "/v1/queries/<id>/cancel",
                "/v1/stream",
                "/v1/stats",
                "/metrics",
                "/healthz",
                "/varz",
                "/debug/traces",
            ],
        )

    # ------------------------------------------------------------------
    # Session routes
    # ------------------------------------------------------------------
    def _open_session(self, request: BaseHTTPRequestHandler) -> int:
        doc = self._read_json(request)
        ql = doc.get("ql")
        if not isinstance(ql, str) or not ql.strip():
            raise ValueError("body must carry a non-empty 'ql' query string")
        strategy = doc.get("strategy", "auto")
        if strategy not in ("auto", "cb", "ii", "CB", "II"):
            raise ValueError(
                f"bad strategy {strategy!r}: expected auto, cb or ii"
            )
        spec = parse_query(ql, self.service.engine.db.schema)
        session_id = self.service.open_session(spec, strategy.lower())
        return self._send_json(
            request,
            201,
            {"session_id": session_id, "ql": format_spec(spec)},
        )

    def _describe_session(
        self, request: BaseHTTPRequestHandler, session_id: str
    ) -> int:
        entry = self.service.sessions.get(session_id)
        return self._send_json(
            request,
            200,
            {
                "session_id": session_id,
                "ql": format_spec(entry.spec),
                "strategy": entry.strategy,
                "steps_executed": entry.steps_executed,
                "has_result": entry.cuboid is not None,
                "result_cells": (
                    len(entry.cuboid) if entry.cuboid is not None else 0
                ),
            },
        )

    def _close_session(
        self, request: BaseHTTPRequestHandler, session_id: str
    ) -> int:
        closed = self.service.close_session(session_id)
        if not closed:
            raise SessionNotFoundError(f"no session {session_id!r}")
        return self._send_json(
            request, 200, {"session_id": session_id, "closed": True}
        )

    # ------------------------------------------------------------------
    # Asynchronous query routes
    # ------------------------------------------------------------------
    def _resolve_spec(self, doc: dict) -> Tuple[object, Optional[str], str]:
        """(spec, session_id, strategy) from a submit/stream body."""
        ql = doc.get("ql")
        session_id = doc.get("session_id")
        if (ql is None) == (session_id is None):
            raise ValueError(
                "body must carry exactly one of 'ql' or 'session_id'"
            )
        if session_id is not None:
            entry = self.service.sessions.get(session_id)
            return entry.spec, session_id, entry.strategy
        if not isinstance(ql, str) or not ql.strip():
            raise ValueError("'ql' must be a non-empty query string")
        strategy = doc.get("strategy", "auto")
        if strategy not in ("auto", "cb", "ii", "CB", "II"):
            raise ValueError(
                f"bad strategy {strategy!r}: expected auto, cb or ii"
            )
        spec = parse_query(ql, self.service.engine.db.schema)
        return spec, None, strategy.lower()

    def _submit_query(self, request: BaseHTTPRequestHandler) -> int:
        doc = self._read_json(request)
        spec, session_id, strategy = self._resolve_spec(doc)
        timeout = codecs.parse_timeout(doc)
        job = self.jobs.submit(
            spec,
            strategy,
            timeout=_UNSET if timeout == "absent" else timeout,
            session_id=session_id,
        )
        return self._send_json(request, 202, job.describe())

    def _poll_query(
        self, request: BaseHTTPRequestHandler, job_id: str, params: dict
    ) -> int:
        job = self.jobs.get(job_id)
        # validated on every poll: a bad window is a 400 whether or not
        # the job has finished yet
        offset, limit = codecs.parse_page_params(params)
        doc = job.describe()
        if job.status != "done" or job.result is None:
            return self._send_json(request, 200, doc)
        body = self._encoded_cuboid(job.result).page_body(
            doc, offset, limit, {"stats": codecs.encode_stats(job.stats)}
        )
        return MetricsServer._respond(request, 200, JSON_CONTENT_TYPE, body)

    def _encoded_cuboid(self, cuboid) -> codecs.EncodedCuboid:
        """The cuboid's wire form, encoded on first use only.

        Two threads racing the first page may both encode; ``setdefault``
        publishes one complete object and both serve from it.
        """
        encoded = self._encoded.get(cuboid)
        self._page_encodes.labels("miss" if encoded is None else "hit").inc()
        if encoded is None:
            encoded = self._encoded.setdefault(
                cuboid, codecs.EncodedCuboid(cuboid)
            )
        return encoded

    def _cancel_query(
        self, request: BaseHTTPRequestHandler, job_id: str
    ) -> int:
        job = self.jobs.cancel(job_id)
        return self._send_json(request, 200, job.describe())

    # ------------------------------------------------------------------
    # Streaming route
    # ------------------------------------------------------------------
    def _stream_query(self, request: BaseHTTPRequestHandler) -> int:
        doc = self._read_json(request)
        spec, session_id, __ = self._resolve_spec(doc)
        chunk_size = codecs.parse_positive_int(doc, "chunk_size", 256)
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"bad seed {seed!r}: must be an integer")
        timeout = codecs.parse_timeout(doc)
        token = CancelToken()
        kwargs = {"chunk_size": chunk_size, "seed": seed, "cancel": token}
        if timeout != "absent":
            kwargs["timeout"] = timeout
        if session_id is not None:
            stream = self.service.session_stream(session_id, **kwargs)
        else:
            stream = self.service.stream_query(spec, **kwargs)
        # Fetch the first frame *before* committing to a 200: admission
        # rejection, QL/spec errors and overload still map to clean JSON
        # error responses as long as nothing has been written.
        try:
            first = next(stream)
        except StopIteration:
            first = None
        try:
            request.send_response(200)
            request.send_header("Content-Type", NDJSON_CONTENT_TYPE)
            request.send_header("Transfer-Encoding", "chunked")
            request.send_header("Cache-Control", "no-cache")
            request.end_headers()
            # every flush below is one send; the headers ride with the
            # first frame (or with the terminator of an empty stream)
            if first is not None:
                self._write_chunk(request, codecs.encode_estimate(first))
                for estimate in stream:
                    self._write_chunk(request, codecs.encode_estimate(estimate))
            request.wfile.write(b"0\r\n\r\n")
            request.wfile.flush()
        except CLIENT_DISCONNECT_ERRORS:
            # Client hung up mid-stream: trip the token and close the
            # generator so the service stops the scan and releases its
            # execution slot within one chunk of work.
            token.cancel()
            return 0
        finally:
            stream.close()
        return 200

    def _write_chunk(self, request: BaseHTTPRequestHandler, doc: dict) -> None:
        """One chunked-encoding frame: a single JSON line."""
        line = codecs.dumps(doc) + b"\n"
        request.wfile.write(b"%x\r\n%b\r\n" % (len(line), line))
        request.wfile.flush()
        self._frames.inc()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_json(self, request: BaseHTTPRequestHandler) -> dict:
        """The request body as a JSON object (ValueError → HTTP 400)."""
        raw_length = request.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise ValueError(f"bad Content-Length {raw_length!r}")
        if length < 0:
            raise ValueError(f"bad Content-Length {length!r}")
        if length > MAX_BODY_BYTES:
            # The body is rejected unread: close the connection after
            # the 400, or keep-alive would parse the unsent body bytes
            # as the next request line.
            request.close_connection = True
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = request.rfile.read(length) if length else b""
        if not body:
            raise ValueError("request body must be a JSON object")
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as error:
            raise ValueError(f"bad JSON body: {error}")
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _send_json(
        self, request: BaseHTTPRequestHandler, status: int, doc: object
    ) -> int:
        return MetricsServer._respond(
            request, status, JSON_CONTENT_TYPE, codecs.dumps(doc)
        )

    def _send_error(
        self,
        request: BaseHTTPRequestHandler,
        status: int,
        message: str,
        **fields,
    ) -> int:
        return self._send_json(
            request, status, codecs.error_doc(message, **fields)
        )
