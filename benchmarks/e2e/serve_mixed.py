"""``serve_mixed``: two closed-loop HTTP clients against an in-process server.

Why: routing, job bookkeeping, JSON codecs and chunked frames (``serve``),
QL parsing (``ql``), admission and the engine lock (``service``) and the
segment store (``storage``) carry the time; the index layer and the
matcher kernels carry little, because the hot pool is warmed in set-up
and steady-state answers are repository hits — except the stream ops,
which always scan.

Closed loop, two clients (``nproc`` is 2), one keep-alive connection
each.  Per client and round, a seeded order of 12 ops:

* 7 query ops (6 light ≈ 70 cells, 1 heavy ≈ 8 k cells): ``POST
  /v1/queries`` → poll ``GET /v1/queries/<id>`` without sleeping (every
  poll is a request) → fetch every page at ``limit=2500``;
* 3 stream ops: ``POST /v1/stream`` read to the final frame;
* 2 session ops: open → submit by ``session_id`` → pages → delete.

The client sets ``TCP_NODELAY`` and writes each request with a single
``sendall``, so any per-request stall that remains is the server's; the
benchmark reports it and does not work around it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import socket
import tempfile
import threading
from dataclasses import replace
from time import perf_counter, process_time, thread_time
from typing import Dict, List, Optional, Tuple

from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.core.spec import CellRestriction, CuboidSpec
from repro.datagen import SyntheticConfig, base_spec, generate_event_database
from repro.ql import format_spec
from repro.serve import SolapServer
from repro.service import QueryService
from repro import storage

from .common import (
    REPO_ROOT,
    Round,
    Sample,
    reference_cells,
    wire_digest,
    wire_digest_of_cells,
)
from .probes import OP_HEADER, ROOT, Tracer

#: (synthetic sequences, stream chunk size, page limit).  The limit keeps
#: every seed's heavy cuboids (about 6.3 k and 7.9 k cells) well inside a
#: page count (3 and 4): a count that sits on a multiple of the limit
#: would add a page, and a tenth of the op's time, on some seeds only.
FULL = (1000, 256, 2500)
TINY = (120, 32, 200)

#: scratch space for segment stores, inside the checkout; removed on teardown
WORK_ROOT = REPO_ROOT / ".bench_work"

CLIENTS = 2
#: ops per client and round, by kind; each client owns that many specs of
#: the hot pool per kind, so every round asks for the same cuboids and only
#: the order of the ops changes with the seed and the round
OPS_PER_ROUND = (("query_light", 6), ("query_heavy", 1), ("stream", 3), ("session", 2))
STREAM_SEED = 3
#: polls of one job before the op is given up as failed
MAX_POLLS = 2000


class _Client:
    """One keep-alive connection: ``TCP_NODELAY``, one ``sendall`` a request."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.sock: Optional[socket.socket] = None
        self.reconnects = 0
        self.requests = 0
        self.bytes_in = 0
        self.http_errors = 0
        self.op_id = 0

    def _connect(self) -> None:
        self.sock = socket.create_connection((self.host, self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, method: str, path: str, doc: Optional[dict] = None):
        """Send one request; returns the open ``HTTPResponse``."""
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"{OP_HEADER}: {self.op_id}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        for attempt in (0, 1):
            if self.sock is None:
                self._connect()
                if self.requests:
                    self.reconnects += 1
            try:
                self.sock.sendall(head + body)
                response = http.client.HTTPResponse(self.sock, method=method)
                response.begin()
                break
            except (ConnectionError, http.client.HTTPException, socket.timeout):
                self.close()
                if attempt:
                    raise
        self.requests += 1
        if response.status >= 400:
            self.http_errors += 1
        return response

    def call(self, method: str, path: str, doc: Optional[dict] = None):
        """One request/response exchange: ``(status, parsed JSON body)``."""
        response = self.send(method, path, doc)
        body = response.read()
        response.close()
        self.bytes_in += len(body)
        return response.status, json.loads(body)


class ServeMixed:
    name = "serve_mixed"
    exact_repeat = ()  # two racing clients: nothing repeats bit for bit

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sizes = TINY if tiny else FULL
        self.tracer: Optional[Tracer] = None
        self.op_id = 0
        self.store_dir: Optional[str] = None
        self.server = None
        self.service = None
        self.clients: List[_Client] = []

    # -- set-up: data, segment store, service, server, warm pool --------
    def setup(self) -> None:
        sequences = self.sizes[0]
        db = generate_event_database(
            SyntheticConfig(I=100, L=20, theta=0.9, D=sequences, seed=self.seed)
        )
        self.memory_db = db
        pipeline = base_spec(("X", "Y"))
        # the benchmark writes only inside its checkout
        WORK_ROOT.mkdir(exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="segments-", dir=WORK_ROOT)
        os.rmdir(self.store_dir)  # the writer wants to create it itself
        # looked up on the module at call time, so the traced set-up times it
        storage.StorageManager.write(
            db,
            self.store_dir,
            cluster_by=pipeline.cluster_by,
            sequence_by=pipeline.sequence_by,
        )
        stored = storage.attach_store(self.store_dir)
        self.storage_bytes = stored.storage.bytes_mapped
        self.events = len(db)
        self.service = QueryService(stored)
        self.server = SolapServer(self.service).start()
        self.clients = [
            _Client(self.server.host, self.server.port) for _ in range(CLIENTS)
        ]
        self.light, self.heavy = self._pool(db)
        for spec in self.light + self.heavy:
            self.service.execute(spec, "auto")
        self.round_index = 0

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.service is not None:
            self.service.close()
            manager = getattr(self.service.engine.db, "storage", None)
            if manager is not None:
                manager.close()
            self.service = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run still has a store in it

    @staticmethod
    def _pool(db) -> Tuple[List[CuboidSpec], List[CuboidSpec]]:
        """The hot pool: 22 sliced views (light) and 6 full views (heavy).

        The heavy views are the gapped pairs ``(X, ANY, Y)`` and
        ``(X, ANY, ANY, Y)`` at symbol level under each cell restriction:
        six cache keys whose cuboids all hold about 8 k cells (4 pages),
        so the heavy ops form one latency band.
        """
        xy = base_spec(("X", "Y"))
        one_gap = ops.append_wildcard(base_spec(("X",)))
        gapped = [
            ops.append(view, "Y", "symbol", "symbol")
            for view in (one_gap, ops.append_wildcard(one_gap))
        ]
        symbols = sorted(db.distinct("symbol"))
        per_client = sum(n for kind, n in OPS_PER_ROUND if kind != "query_heavy")
        light = [
            ops.slice_pattern(xy, "X", value)
            for value in symbols[: per_client * CLIENTS]
        ]
        heavy = [
            replace(view, restriction=restriction)
            for restriction in CellRestriction
            for view in gapped
        ]
        return light, heavy

    def _plan(self, client: int) -> List[Tuple[str, CuboidSpec]]:
        """The client's ops for this round: fixed specs, seeded order."""
        light = self.light[client::CLIENTS]
        heavy = self.heavy[client::CLIENTS]
        # a client owns more heavy views than a round asks for: take turns
        turn = self.round_index % len(heavy)
        heavy = heavy[turn:] + heavy[:turn]
        plan: List[Tuple[str, CuboidSpec]] = []
        for kind, count in OPS_PER_ROUND:
            pool = heavy if kind == "query_heavy" else light
            plan.extend((kind, pool.pop(0)) for _ in range(count))
        random.Random(f"{self.seed}/{client}/{self.round_index}").shuffle(plan)
        return plan

    # -- reference answers ----------------------------------------------
    def prepare(self) -> None:
        engine = SOLAPEngine(self.memory_db, use_repository=False)
        self.ql: Dict[CuboidSpec, str] = {}
        self.digest: Dict[CuboidSpec, str] = {}
        for spec in self.light + self.heavy:
            self.ql[spec] = format_spec(spec)
            self.digest[spec] = wire_digest_of_cells(reference_cells(engine, spec))

    # -- one round: both clients run their plan concurrently ------------
    def run_round(self) -> Round:
        round_ = Round()
        rounds = [Round() for _ in range(CLIENTS)]
        plans = [self._plan(client) for client in range(CLIENTS)]
        self.round_index += 1
        before = self.service.snapshot()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(
                    self.clients[index],
                    plans[index],
                    rounds[index],
                    self.op_id + index * 1000,
                ),
                name=f"bench-client-{index}",
            )
            for index in range(CLIENTS)
        ]
        self.op_id += CLIENTS * 1000
        cpu0 = process_time()
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        round_.wall = perf_counter() - start
        round_.cpu = process_time() - cpu0
        for part in rounds:
            round_.samples.extend(part.samples)
            round_.notes.extend(part.notes)
            for key, value in part.raw.items():
                round_.bump(key, value)
            for key, values in part.series.items():
                round_.series.setdefault(key, []).extend(values)
        after = self.service.snapshot()
        round_.bump(
            "service_rejected",
            _counter(after, "overload_rejected_total")
            - _counter(before, "overload_rejected_total"),
        )
        # how the engine answered this round's submits (streams bypass it)
        for strategy, count in _strategies(after).items():
            answered = count - _strategies(before).get(strategy, 0)
            klass = {"cache": "exact", "derived": "derived"}.get(strategy, "miss")
            round_.count(f"answer_{klass}", answered)
        return round_

    def _client_loop(self, client: _Client, plan, round_, first_op: int) -> None:
        # the connection outlives the round: it is opened once per set-up
        before = (client.reconnects, client.http_errors, client.bytes_in)
        cpu0 = thread_time()
        for offset, (kind, spec) in enumerate(plan):
            client.op_id = first_op + offset
            self._op(client, round_, kind, spec)
        round_.bump("client_cpu", thread_time() - cpu0)
        round_.bump("reconnects", client.reconnects - before[0])
        round_.bump("http_errors", client.http_errors - before[1])
        round_.bump("bytes_in", client.bytes_in - before[2])

    def _op(self, client: _Client, round_: Round, kind: str, spec) -> None:
        tracer = self.tracer
        handle = None
        if tracer is not None:
            tracer.set_op(client.op_id)
            handle = tracer.open(ROOT)
        start = perf_counter()
        first = None
        ok = False
        try:
            if kind == "stream":
                first, ok = self._stream(client, round_, spec, start)
            else:
                first, ok = self._query(client, round_, spec, start, kind == "session")
        except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
            round_.notes.append(f"{kind}: {type(error).__name__}: {error}")
            client.close()
        elapsed = perf_counter() - start
        if handle is not None:
            tracer.close(handle)
        if not ok:
            round_.notes.append(f"{kind}: failed or wrong answer")
        round_.samples.append(
            Sample(kind, elapsed, elapsed if first is None else first, ok)
        )

    def _query(self, client, round_, spec, start, through_session: bool):
        series = round_.series
        session_id = None
        if through_session:
            t0 = perf_counter()
            status, doc = client.call("POST", "/v1/sessions", {"ql": self.ql[spec]})
            series.setdefault("session_open", []).append(perf_counter() - t0)
            if status != 201:
                return None, False
            session_id = doc["session_id"]
            submit = {"session_id": session_id}
        else:
            submit = {"ql": self.ql[spec]}
        t0 = perf_counter()
        status, doc = client.call("POST", "/v1/queries", submit)
        submitted = perf_counter()
        series.setdefault("submit", []).append(submitted - t0)
        if status != 202:
            return None, False
        limit = self.sizes[2]
        path = f"/v1/queries/{doc['query_id']}"
        # poll without sleeping; the poll that sees "done" carries page one
        for polls in range(1, MAX_POLLS + 1):
            t0 = perf_counter()
            status, doc = client.call("GET", f"{path}?offset=0&limit={limit}")
            if status != 200 or doc["status"] not in ("queued", "running"):
                break
        now = perf_counter()
        round_.bump("polls", polls)
        if status != 200 or doc["status"] != "done":
            return None, False
        first = now - start
        series.setdefault("done_wait", []).append(now - submitted)
        series.setdefault("page", []).append(now - t0)
        cells = list(doc["cells"])
        pages = 1
        while doc["page"]["next_offset"] is not None:
            t0 = perf_counter()
            status, doc = client.call(
                "GET", f"{path}?offset={doc['page']['next_offset']}&limit={limit}"
            )
            series.setdefault("page", []).append(perf_counter() - t0)
            if status != 200:
                return first, False
            cells.extend(doc["cells"])
            pages += 1
        round_.bump("pages", pages)
        round_.bump("cells_delivered", len(cells))
        ok = wire_digest(cells) == self.digest[spec]
        if through_session:
            status, _ = client.call("DELETE", f"/v1/sessions/{session_id}")
            ok = ok and status == 200
        return first, ok

    def _stream(self, client, round_, spec, start):
        response = client.send(
            "POST",
            "/v1/stream",
            {"ql": self.ql[spec], "chunk_size": self.sizes[1], "seed": STREAM_SEED},
        )
        if response.status != 200:
            response.read()
            response.close()
            return None, False
        first = None
        frames = 0
        last = None
        while True:
            line = response.readline()
            if not line:
                break
            if first is None:
                first = perf_counter() - start
            client.bytes_in += len(line)
            frames += 1
            last = line
        response.close()
        total = perf_counter() - start
        round_.bump("stream_frames", frames)
        round_.series.setdefault("stream_first", []).append(first or total)
        round_.series.setdefault("stream_total", []).append(total)
        if last is None:
            return first, False
        final = json.loads(last)
        round_.bump("cells_delivered", len(final["cells"]))
        ok = final["is_final"] and wire_digest(final["cells"]) == self.digest[spec]
        return first, ok


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get("counters", {}).get(name, 0)


def _strategies(snapshot: dict) -> Dict[str, int]:
    return snapshot.get("engine", {}).get("queries_by_strategy", {})
