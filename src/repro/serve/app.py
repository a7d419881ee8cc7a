"""The HTTP+JSON front-end over one :class:`QueryService`.

``solap serve`` binds a :class:`SolapServer`: a stdlib
``ThreadingHTTPServer`` (one daemon handler thread per connection)
speaking the textual query language on the way in and JSON on the way
out.  It is the only HTTP server in the package: the query API and the
telemetry routes share one route table.

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
* ``GET /v1/stats`` and ``GET /varz`` — the service snapshot (JSON);
* ``GET /metrics`` — the registry in Prometheus text exposition format;
* ``GET /healthz`` — ``200 {"status": "ok"}``, ``503`` once the service
  is closed;
* ``GET /debug/traces`` — newest-first flight-recorder summaries
  (``?limit=N``, ``N >= 1``) and ``GET /debug/traces/<id>`` for one
  recorded trace; 404 when the recorder is disabled.

Each request is parsed once — ``urlsplit``, trailing slash stripped,
``parse_qsl(..., keep_blank_values=True)`` — and whatever its method it
lands in the shared metrics registry
(``solap_http_requests_total{route,method,status}``,
``solap_http_request_seconds{route}``,
``solap_http_stream_frames_total``) and emits an ``http_request``
query-lifecycle log record, so the HTTP path is observable with the
same tools as the engine underneath it.
"""

from __future__ import annotations

import functools
import io
import json
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import (
    QueryNotFoundError,
    QueryLanguageError,
    ServiceOverloadedError,
    SessionNotFoundError,
    SOLAPError,
    SpecError,
)
from repro.obs.spans import span
from repro.ql import format_spec, parse_query
from repro.serve import codecs
from repro.serve.jobs import _UNSET, JobRegistry
from repro.service.deadline import CancelToken
from repro.service.service import QueryService

#: request bodies larger than this are rejected outright (HTTP 413)
MAX_BODY_BYTES = 1 << 20

JSON_CONTENT_TYPE = "application/json"

#: content type of the Prometheus text exposition format
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: content type of streamed progressive results (one JSON doc per line)
NDJSON_CONTENT_TYPE = "application/x-ndjson"

#: errors meaning "the client hung up mid-response": nothing can be sent
#: back on that socket, so handlers drop the response instead of crashing
#: the handler thread (and never try to write a 500 to the dead socket)
CLIENT_DISCONNECT_ERRORS = (BrokenPipeError, ConnectionResetError)

#: methods some route implements; after replying to any other method the
#: connection closes (a HEAD reply carries a body the client will not read)
_IMPLEMENTED_METHODS = ("GET", "POST", "DELETE")

#: method label values; anything else is counted as "other"
_HTTP_METHODS = _IMPLEMENTED_METHODS + (
    "HEAD", "PUT", "PATCH", "OPTIONS", "TRACE", "CONNECT"
)

#: metric labels of the per-resource route patterns (the rest are their
#: own label; an unknown path is "other")
_ROUTE_LABELS = {
    "/v1/sessions/<id>": "/v1/sessions/*",
    "/v1/queries/<id>": "/v1/queries/*",
    "/v1/queries/<id>/cancel": "/v1/queries/*/cancel",
    "/debug/traces/<id>": "/debug/traces",
}


def _match(path: str) -> Tuple[str, str]:
    """(route pattern, resource id) of a normalised path; the id may be ''."""
    for prefix in ("/v1/sessions/", "/v1/queries/", "/debug/traces/"):
        if path.startswith(prefix):
            resource, slash, action = path[len(prefix):].partition("/")
            return f"{prefix}<id>{slash}{action}", resource
    return path, ""


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
    """Request handler base: one send per flushed response.

    ``TCP_NODELAY`` is set on the accepted socket as well, because the
    frames of a chunked stream are smaller than the loopback MSS and
    would otherwise each wait for the ACK of the one before.
    """

    # HTTP/1.1 enables chunked transfer encoding (streams) and
    # connection keep-alive for polling clients.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = _SendOnFlush(self.connection)

    def handle_expect_100(self) -> bool:
        proceed = super().handle_expect_100()
        self.wfile.flush()  # the client holds its body back until this arrives
        return proceed

    def log_message(self, *args) -> None:
        pass  # per-request lines on stderr; the server logs structured events


def respond(
    request: BaseHTTPRequestHandler,
    status: int,
    content_type: str,
    body: bytes,
) -> int:
    """Write one whole response and flush it once; returns the status sent.

    On a :class:`SingleSendHandler` status line, headers and body reach
    the kernel in one ``sendall``.  A response after which the server
    closes the connection says so (``Connection: close``).  A client that
    hung up (the error surfaces at flush time on a buffered ``wfile``)
    gets nothing — retrying on the dead socket would only re-raise and
    kill the handler thread — and the status reported is 0.
    """
    try:
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        if request.close_connection:
            request.send_header("Connection", "close")
        request.end_headers()
        request.wfile.write(body)
        request.wfile.flush()
    except CLIENT_DISCONNECT_ERRORS:
        return 0
    return status


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
        #: the route table: pattern -> {method: handler}; every handler
        #: takes (request, resource id, query params) and returns the
        #: status it sent
        self._routes = {
            "/v1/sessions": {"POST": self._open_session},
            "/v1/sessions/<id>": {
                "GET": self._describe_session,
                "DELETE": self._close_session,
            },
            "/v1/queries": {"POST": self._submit_query},
            "/v1/queries/<id>": {"GET": self._poll_query},
            "/v1/queries/<id>/cancel": {"POST": self._cancel_query},
            "/v1/stream": {"POST": self._stream_query},
            "/v1/stats": {"GET": self._snapshot},
            "/varz": {"GET": self._snapshot},
            "/metrics": {"GET": self._metrics},
            "/healthz": {"GET": self._healthz},
            "/debug/traces": {"GET": self._traces},
            "/debug/traces/<id>": {"GET": self._traces},
        }
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
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolapServer":
        """Bind and serve on a daemon thread; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        owner = self

        class Handler(SingleSendHandler):
            def __getattr__(self, name: str):
                # do_GET, do_HEAD, do_PUT, ...: every method is dispatched
                if name.startswith("do_"):
                    return functools.partial(owner._dispatch, self, name[3:])
                raise AttributeError(name)

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
        """Route one request; parsing, accounting and error mapping live here."""
        parts = urlsplit(request.path)
        path = parts.path.rstrip("/") or "/"
        params = dict(parse_qsl(parts.query, keep_blank_values=True))
        pattern, resource = _match(path)
        handlers = self._routes.get(pattern)
        route = "other" if handlers is None else _ROUTE_LABELS.get(pattern, pattern)
        if method not in _IMPLEMENTED_METHODS:
            request.close_connection = True
            if method not in _HTTP_METHODS:
                method = "other"
        started = time.perf_counter()
        status = 500
        try:
            with span("http.request", route=route, method=method):
                if handlers is None:
                    status = self._send_error(
                        request, 404, f"unknown path {path!r}",
                        paths=list(self._routes),
                    )
                elif method not in handlers:
                    status = self._send_error(
                        request, 405,
                        f"{method} not allowed on {pattern}: "
                        f"use {' or '.join(handlers)}",
                    )
                else:
                    status = handlers[method](request, resource, params)
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

    # ------------------------------------------------------------------
    # Telemetry routes
    # ------------------------------------------------------------------
    def _metrics(self, request, resource: str, params: dict) -> int:
        body = self.service.registry.render_prometheus().encode("utf-8")
        return respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)

    def _healthz(self, request, resource: str, params: dict) -> int:
        if self.service._closed:
            return self._send_json(request, 503, {"status": "unhealthy"})
        return self._send_json(request, 200, {"status": "ok"})

    def _snapshot(self, request, resource: str, params: dict) -> int:
        return self._send_json(request, 200, self.service.snapshot())

    def _traces(self, request, resource: str, params: dict) -> int:
        """The flight recorder: summaries, or one entry when *resource* is set."""
        recorder = self.service.recorder
        if recorder is None:
            return self._send_error(request, 404, "flight recorder not enabled")
        if resource:
            entry = recorder.get(resource)
            if entry is None:
                return self._send_error(
                    request, 404, f"no recorded trace {resource!r}"
                )
            return self._send_json(request, 200, entry)
        limit = codecs.parse_int_param(params, "limit", 20)
        if limit < 1:
            # limit=0 / negative limits are requests the caller never
            # meant: rejected like any other malformed limit, never
            # silently clamped.
            raise ValueError(f"bad limit {limit!r}: must be >= 1")
        return self._send_json(
            request, 200, {"traces": recorder.recent(limit=limit)}
        )

    # ------------------------------------------------------------------
    # Session routes
    # ------------------------------------------------------------------
    def _open_session(self, request, resource: str, params: dict) -> int:
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

    def _describe_session(self, request, session_id: str, params: dict) -> int:
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

    def _close_session(self, request, session_id: str, params: dict) -> int:
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

    def _submit_query(self, request, resource: str, params: dict) -> int:
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

    def _poll_query(self, request, job_id: str, params: dict) -> int:
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
        return respond(request, 200, JSON_CONTENT_TYPE, body)

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

    def _cancel_query(self, request, job_id: str, params: dict) -> int:
        job = self.jobs.cancel(job_id)
        return self._send_json(request, 200, job.describe())

    # ------------------------------------------------------------------
    # Streaming route
    # ------------------------------------------------------------------
    def _stream_query(self, request, resource: str, params: dict) -> int:
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
        return respond(request, status, JSON_CONTENT_TYPE, codecs.dumps(doc))

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
