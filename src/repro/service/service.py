"""The concurrent S-OLAP query service (the layer above Figure 6's engine).

A :class:`QueryService` owns one :class:`~repro.core.engine.SOLAPEngine`
and makes it safe and useful under concurrent load:

* **admission control** — at most ``max_concurrent`` queries execute at
  once; up to ``queue_depth`` more may wait; anything beyond is rejected
  immediately with a typed
  :class:`~repro.errors.ServiceOverloadedError` so load sheds at the door
  instead of queueing unboundedly;
* **deadlines** — every request can carry a time budget, enforced
  cooperatively inside the CB/II hot loops (see
  :mod:`repro.service.deadline`), surfacing as
  :class:`~repro.errors.QueryTimeoutError`;
* **sharded execution** — with ``shards >= 2`` every CB/II query is
  plan -> partials -> merge (:mod:`repro.shard`), its shard tasks
  running on a worker pool (:mod:`repro.service.parallel`);
* **sessions** — iterative explorations keep server-side state
  (:mod:`repro.service.sessions`) so APPEND / P-ROLL-UP / DE-TAIL steps
  reuse the engine's caches; LRU session eviction under a byte budget
  also releases orphaned pipeline state (sequence-cache entries, index
  registries);
* **metrics** — counters, latency histograms and cache hit ratios
  (:mod:`repro.service.metrics`), rendered by ``solap service-stats``.

Engine execution is serialised by one lock: the engine's caches are plain
dicts and CPython gains nothing from concurrent pure-Python cuboid
builds.  Concurrency buys admission fairness, deadline enforcement and
shared caching across sessions; the shard pool parallelises *within* a
query where it can.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterator, Optional, Tuple

from repro.core import operations as ops
from repro.core.cuboid import SCuboid
from repro.core.engine import SOLAPEngine
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    SOLAPError,
)
from repro.events.database import EventDatabase
from repro.extensions.online_agg import OnlineEstimate, online_cuboid
from repro.obs.logging import QueryLogger
from repro.obs.metrics import MetricsRegistry, register_engine_metrics
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import span
from repro.service.config import ServiceConfig
from repro.service.deadline import CancelScope, CancelToken, Deadline
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import ExecutorBackend, create_backend
from repro.service.sessions import SessionEntry, SessionManager

#: sentinel distinguishing "no timeout argument" from "explicitly None"
_UNSET = object()

#: session operations: name -> (spec transform, takes schema argument)
SESSION_OPERATIONS = {
    "append": (ops.append, False),
    "prepend": (ops.prepend, False),
    "de_tail": (ops.de_tail, False),
    "de_head": (ops.de_head, False),
    "p_roll_up": (ops.p_roll_up, True),
    "p_drill_down": (ops.p_drill_down, True),
    "slice_pattern": (ops.slice_pattern, False),
    "unslice_pattern": (ops.unslice_pattern, False),
    "roll_up": (ops.roll_up_global, True),
    "drill_down": (ops.drill_down_global, True),
    "slice_global": (ops.slice_global, False),
    "dice_global": (ops.dice_global, False),
    "unslice_global": (ops.unslice_global, False),
}


class QueryService:
    """Thread-safe, observable façade over one S-OLAP engine."""

    def __init__(
        self,
        db_or_engine,
        config: Optional[ServiceConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        query_logger: Optional[QueryLogger] = None,
    ):
        self.config = config or ServiceConfig()
        if isinstance(db_or_engine, SOLAPEngine):
            self.engine = db_or_engine
        elif isinstance(db_or_engine, EventDatabase):
            self.engine = SOLAPEngine(db_or_engine)
        else:
            raise ServiceError(
                "QueryService needs an EventDatabase or an SOLAPEngine, "
                f"got {type(db_or_engine).__name__}"
            )
        #: the shared metrics registry behind service counters, engine
        #: cache gauges, /metrics and ``service-stats --format prom``
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        register_engine_metrics(self.registry, self.engine)
        self.log = query_logger or QueryLogger(
            slow_query_seconds=self.config.slow_query_seconds
        )
        self._query_ids = itertools.count(1)
        #: the shard-task backend; None at fan-out 1 (``shards`` 0 or 1),
        #: where queries run the serial kernels and no pool exists
        self.backend: Optional[ExecutorBackend] = None
        if self.config.shards >= 2:
            # Scatter-gather execution: consistent-hash the pipeline onto
            # N logical shards and merge partial S-cuboids (repro.shard).
            from repro.shard import ScatterGatherCoordinator

            self.backend = create_backend(self.config, self.engine.db)
            # Pay worker start-up (process fork/spawn) now, not inside
            # the first admitted query's deadline; record each worker's
            # readiness time so attach cost is separable from scan cost.
            for seconds in self.backend.warm_up():
                self.metrics.observe_worker_init(seconds)
            self.engine.scatter_gather = ScatterGatherCoordinator(
                self.config.shards, self.backend, registry=self.registry
            )
        storage = getattr(self.engine.db, "storage", None)
        if storage is not None:
            # Segment-backed database: expose its attach/mapping telemetry
            # alongside the service metrics.
            from repro.storage import register_storage_metrics

            register_storage_metrics(self.registry, storage)
        self._engine_lock = threading.RLock()
        self._admission_lock = threading.Lock()
        self._inflight = 0
        self._slots = threading.Semaphore(self.config.max_concurrent)
        self.sessions = SessionManager(
            capacity=self.config.session_capacity,
            byte_budget=self.config.session_byte_budget,
            history_limit=self.config.session_history_limit,
            on_evict=self._session_evicted,
            on_pipeline_orphaned=self._pipeline_orphaned,
        )
        self._closed = False
        #: flight recorder — ring of recent completed query traces,
        #: served over /debug/traces and `solap trace` (None = disabled)
        self.recorder: Optional[FlightRecorder] = None
        if self.config.flight_recorder_capacity > 0:
            self.recorder = FlightRecorder(
                capacity=self.config.flight_recorder_capacity,
                sample_per_second=self.config.flight_recorder_sample_per_second,
                registry=self.registry,
            )
        self.registry.gauge(
            "solap_service_sessions_active", "Live sessions"
        ).set_function(lambda: len(self.sessions))
        self.registry.gauge(
            "solap_service_sessions_bytes",
            "Estimated bytes of session-cached cuboids",
        ).set_function(lambda: self.sessions.bytes_used)
        self.registry.gauge(
            "solap_service_inflight_requests",
            "Requests currently running or queued for admission",
        ).set_function(lambda: self._inflight)

    @property
    def inflight(self) -> int:
        """Requests currently running or queued for admission."""
        with self._admission_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # One-shot queries
    # ------------------------------------------------------------------
    def execute(
        self,
        spec: CuboidSpec,
        strategy: str = "auto",
        timeout: object = _UNSET,
        analyze: bool = False,
        session_id: Optional[str] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Tuple[SCuboid, QueryStats]:
        """Answer one query under admission control and a deadline.

        *timeout* is a budget in seconds; omit it to use the config
        default, pass None for unbounded.  *analyze* runs the query
        under EXPLAIN ANALYZE tracing (``stats.plan`` / ``stats.trace``)
        and folds the measured stage timings into the service metrics.
        Queries are also analyzed when a slow-query threshold is
        configured, so slow-query log records carry a measured plan.
        *session_id* only labels this query's log records.  *cancel* is
        an optional :class:`~repro.service.deadline.CancelToken`; once
        cancelled, the query unwinds with
        :class:`~repro.errors.QueryCancelledError` at its next
        cooperative checkpoint (the same sites that enforce deadlines).
        """
        if self._closed:
            raise ServiceError("service is shut down")
        self.metrics.inc("requests_total")
        query_id = f"q{next(self._query_ids):06d}"
        budget = (
            self.config.default_timeout_seconds
            if timeout is _UNSET
            else timeout
        )
        with self._admission_lock:
            if self._inflight >= self.config.admission_limit:
                self.metrics.inc("overload_rejected_total")
                self.log.query_rejected(
                    query_id, self._inflight, self.config.admission_limit
                )
                raise ServiceOverloadedError(
                    inflight=self._inflight,
                    limit=self.config.admission_limit,
                )
            self._inflight += 1
        try:
            deadline = Deadline.after(budget)  # type: ignore[arg-type]
            queued_at = time.monotonic()
            with span("service.admission") as admission_span:
                acquired = self._slots.acquire(
                    timeout=(
                        deadline.remaining() if deadline is not None else None
                    )
                )
                waited = time.monotonic() - queued_at
                admission_span.set("wait_seconds", round(waited, 6))
            self.metrics.observe_queue_wait(waited)
            if not acquired:
                # The whole budget went to waiting in the admission queue.
                self.metrics.inc("deadline_exceeded_total")
                self.log.query_timed_out(
                    query_id,
                    deadline.budget_seconds,  # type: ignore[union-attr]
                    deadline.elapsed(),  # type: ignore[union-attr]
                    session_id,
                )
                raise QueryTimeoutError(
                    "query deadline exceeded while queued",
                    budget_seconds=deadline.budget_seconds,  # type: ignore[union-attr]
                    elapsed_seconds=deadline.elapsed(),  # type: ignore[union-attr]
                )
            self.log.query_admitted(query_id, waited, session_id)
            guard = CancelScope.wrap(deadline, cancel)
            try:
                return self._run(
                    spec, strategy, guard, analyze, query_id, session_id
                )
            finally:
                self._slots.release()
        finally:
            with self._admission_lock:
                self._inflight -= 1

    def _run(
        self,
        spec: CuboidSpec,
        strategy: str,
        deadline: "Optional[Deadline | CancelScope]",
        analyze: bool = False,
        query_id: str = "",
        session_id: Optional[str] = None,
    ) -> Tuple[SCuboid, QueryStats]:
        start = time.perf_counter()
        self.log.query_started(query_id, strategy, session_id)
        # A configured slow-query threshold forces tracing so the slow
        # entry can embed the measured EXPLAIN ANALYZE plan.
        analyze = analyze or self.config.slow_query_seconds is not None
        # The flight recorder promotes a sampling-capped trickle of
        # untraced queries to tracing so /debug/traces stays populated.
        sampled = False
        if (
            not analyze
            and self.recorder is not None
            and self.recorder.should_sample()
        ):
            analyze = True
            sampled = True
        try:
            with self._engine_lock:
                # Observe a cancel (or an already-spent deadline) from
                # the time spent queued for the engine lock *before*
                # doing any work: the engine's cuboid-repository fast
                # path returns without reaching a cooperative checkpoint.
                if deadline is not None:
                    deadline.check()
                cuboid, stats = self.engine.execute(
                    spec, strategy, deadline=deadline, analyze=analyze
                )
                self._enforce_index_budget()
        except QueryCancelledError:
            self.metrics.inc("cancelled_total")
            self.log.query_cancelled(query_id, session_id)
            raise
        except QueryTimeoutError as error:
            self.metrics.inc("deadline_exceeded_total")
            self.log.query_timed_out(
                query_id,
                getattr(error, "budget_seconds", None),
                time.perf_counter() - start,
                session_id,
            )
            raise
        except SOLAPError as error:
            self.metrics.inc("queries_failed")
            self.log.query_failed(query_id, error, session_id)
            raise
        wall = time.perf_counter() - start
        self.metrics.observe_latency(wall)
        self.metrics.inc("queries_ok")
        self.metrics.count_strategy(stats.strategy)
        if stats.strategy == "CB":
            # Label which execution backend answered the scan ("serial"
            # covers fan-out 1, declined plans and the serial backend).
            self.metrics.count_scan_backend(
                stats.extra.get("scan_backend", "serial")
            )
        if stats.trace is not None:
            self._observe_stages(stats.trace)
            if self.recorder is not None:
                self.recorder.record(
                    stats=stats,
                    query_id=query_id,
                    spec=spec,
                    wall_seconds=wall,
                    sampled=sampled,
                )
        self.log.query_finished(
            query_id, stats, wall, session_id, spec=spec, cells=len(cuboid)
        )
        return cuboid, stats

    def _observe_stages(self, root) -> None:
        """Fold a trace's per-stage wall times into the service metrics."""
        from repro.obs.analyze import stage_timings

        for name, __, duration in stage_timings(root):
            self.metrics.observe_stage(name, duration)

    def _enforce_index_budget(self) -> None:
        budget = self.config.index_byte_budget
        if budget is None:
            return
        dropped, freed = self.engine.registry.evict_to_budget(budget)
        if dropped:
            self.metrics.inc("indices_evicted", dropped)
            self.metrics.inc("index_bytes_evicted", freed)

    # ------------------------------------------------------------------
    # Progressive (streamed) queries
    # ------------------------------------------------------------------
    def stream_query(
        self,
        spec: CuboidSpec,
        chunk_size: int = 256,
        seed: int = 0,
        timeout: object = _UNSET,
        cancel: Optional[CancelToken] = None,
        session_id: Optional[str] = None,
    ) -> Iterator[OnlineEstimate]:
        """Progressively answer one query, yielding an
        :class:`~repro.extensions.online_agg.OnlineEstimate` per chunk.

        Runs under the same admission control and deadline regime as
        :meth:`execute`; the final estimate (``is_final``) is the exact
        cuboid, bit-identical to the CB result.  The whole stream holds
        one execution slot; closing the generator early (e.g. the HTTP
        client disconnected) releases it and is accounted as a cancel.
        Streamed results bypass the cuboid repository: partial cuboids
        are never cached.
        """
        if self._closed:
            raise ServiceError("service is shut down")
        self.metrics.inc("requests_total")
        self.metrics.inc("streams_total")
        query_id = f"q{next(self._query_ids):06d}"
        budget = (
            self.config.default_timeout_seconds
            if timeout is _UNSET
            else timeout
        )
        with self._admission_lock:
            if self._inflight >= self.config.admission_limit:
                self.metrics.inc("overload_rejected_total")
                self.log.query_rejected(
                    query_id, self._inflight, self.config.admission_limit
                )
                raise ServiceOverloadedError(
                    inflight=self._inflight,
                    limit=self.config.admission_limit,
                )
            self._inflight += 1
        try:
            deadline = Deadline.after(budget)  # type: ignore[arg-type]
            queued_at = time.monotonic()
            acquired = self._slots.acquire(
                timeout=(
                    deadline.remaining() if deadline is not None else None
                )
            )
            waited = time.monotonic() - queued_at
            self.metrics.observe_queue_wait(waited)
            if not acquired:
                self.metrics.inc("deadline_exceeded_total")
                self.log.query_timed_out(
                    query_id,
                    deadline.budget_seconds,  # type: ignore[union-attr]
                    deadline.elapsed(),  # type: ignore[union-attr]
                    session_id,
                )
                raise QueryTimeoutError(
                    "query deadline exceeded while queued",
                    budget_seconds=deadline.budget_seconds,  # type: ignore[union-attr]
                    elapsed_seconds=deadline.elapsed(),  # type: ignore[union-attr]
                )
            self.log.query_admitted(query_id, waited, session_id)
            guard = CancelScope.wrap(deadline, cancel)
            try:
                yield from self._stream(
                    spec, chunk_size, seed, guard, query_id, session_id
                )
            finally:
                self._slots.release()
        finally:
            with self._admission_lock:
                self._inflight -= 1

    def _stream(
        self,
        spec: CuboidSpec,
        chunk_size: int,
        seed: int,
        guard: "Optional[Deadline | CancelScope]",
        query_id: str,
        session_id: Optional[str],
    ) -> Iterator[OnlineEstimate]:
        start = time.perf_counter()
        self.log.stream_started(query_id, chunk_size, session_id)
        stats = QueryStats(deadline=guard)
        estimates = 0
        last: Optional[OnlineEstimate] = None
        try:
            spec.validate(self.engine.db.schema)
            # Group construction reuses the engine's sequence cache, so
            # it runs under the engine lock like every cache-touching
            # path; the chunked scan itself owns only its execution slot.
            with self._engine_lock:
                if guard is not None:
                    guard.check()
                groups = self.engine.sequence_groups(spec, stats)
            for estimate in online_cuboid(
                self.engine.db,
                groups,
                spec,
                chunk_size=chunk_size,
                seed=seed,
                stats=stats,
                cancel=guard,
            ):
                estimates += 1
                last = estimate
                self.metrics.inc("stream_chunks_total")
                yield estimate
        except GeneratorExit:
            # The consumer abandoned the stream (client disconnect):
            # account it as a cancel and let the generator unwind.
            self.metrics.inc("cancelled_total")
            self.log.query_cancelled(query_id, session_id)
            raise
        except QueryCancelledError:
            self.metrics.inc("cancelled_total")
            self.log.query_cancelled(query_id, session_id)
            raise
        except QueryTimeoutError as error:
            self.metrics.inc("deadline_exceeded_total")
            self.log.query_timed_out(
                query_id,
                getattr(error, "budget_seconds", None),
                time.perf_counter() - start,
                session_id,
            )
            raise
        except SOLAPError as error:
            self.metrics.inc("queries_failed")
            self.log.query_failed(query_id, error, session_id)
            raise
        wall = time.perf_counter() - start
        self.metrics.observe_latency(wall)
        self.metrics.inc("queries_ok")
        self.log.stream_finished(
            query_id,
            estimates,
            last.processed if last is not None else 0,
            wall,
            session_id,
        )

    def session_stream(
        self,
        session_id: str,
        chunk_size: int = 256,
        seed: int = 0,
        timeout: object = _UNSET,
        cancel: Optional[CancelToken] = None,
    ) -> Iterator[OnlineEstimate]:
        """Stream the session's current spec; cache the final cuboid.

        The exact final cuboid is recorded into the session exactly as a
        blocking :meth:`session_run` would, so later session operations
        (APPEND, P-ROLL-UP, ...) continue from the streamed result.
        """
        entry = self.sessions.get(session_id)
        spec = entry.spec
        final: Optional[OnlineEstimate] = None
        for estimate in self.stream_query(
            spec,
            chunk_size=chunk_size,
            seed=seed,
            timeout=timeout,
            cancel=cancel,
            session_id=session_id,
        ):
            yield estimate
            final = estimate
        if final is not None and final.is_final:
            stats = QueryStats()
            stats.strategy = "online"
            stats.sequences_scanned = final.processed
            self.sessions.record(session_id, spec, final.partial, stats)

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(self, spec: CuboidSpec, strategy: str = "auto") -> str:
        """Register a new iterative exploration; returns its session id."""
        spec.validate(self.engine.db.schema)
        session_id = self.sessions.open(spec, strategy)
        self.metrics.inc("sessions_opened")
        return session_id

    def session_run(
        self, session_id: str, timeout: object = _UNSET
    ) -> Tuple[SCuboid, QueryStats]:
        """Execute the session's current spec and cache the result."""
        entry = self.sessions.get(session_id)
        spec, strategy = entry.spec, entry.strategy
        cuboid, stats = self.execute(
            spec, strategy, timeout, session_id=session_id
        )
        self.sessions.record(session_id, spec, cuboid, stats)
        return cuboid, stats

    def session_apply(
        self,
        session_id: str,
        operation: str,
        *args,
        timeout: object = _UNSET,
        **kwargs,
    ) -> Tuple[SCuboid, QueryStats]:
        """Apply one S-OLAP operation to the session's spec, then execute.

        *operation* is a name from :data:`SESSION_OPERATIONS` (the six
        pattern operations plus the classical ones).
        """
        try:
            transform, needs_schema = SESSION_OPERATIONS[operation]
        except KeyError:
            raise ServiceError(
                f"unknown session operation {operation!r}; expected one of "
                f"{sorted(SESSION_OPERATIONS)}"
            ) from None
        entry = self.sessions.get(session_id)
        if needs_schema:
            new_spec = transform(
                entry.spec, *args, self.engine.db.schema, **kwargs
            )
        else:
            new_spec = transform(entry.spec, *args, **kwargs)
        cuboid, stats = self.execute(
            new_spec, entry.strategy, timeout, session_id=session_id
        )
        self.sessions.record(session_id, new_spec, cuboid, stats)
        return cuboid, stats

    def session_result(self, session_id: str) -> Optional[SCuboid]:
        """The session's last cuboid (None before its first run)."""
        return self.sessions.get(session_id).cuboid

    def close_session(self, session_id: str) -> bool:
        closed = self.sessions.close(session_id)
        if closed:
            self.metrics.inc("sessions_closed")
        return closed

    def _session_evicted(self, entry: SessionEntry) -> None:
        self.metrics.inc("sessions_evicted")
        self.log.session_evicted(entry.session_id, entry.steps_executed)

    def _pipeline_orphaned(self, pipeline_key: object) -> None:
        """No live session references this pipeline: release its state."""
        with self._engine_lock:
            self.engine.drop_pipeline(pipeline_key)
        self.metrics.inc("session_pipelines_dropped")

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics counters + engine cache state + session occupancy."""
        with self._engine_lock:
            engine_stats = self.engine.cache_stats()
        snap = self.metrics.snapshot(engine_stats)
        snap["sessions"] = {
            "active": len(self.sessions),
            "capacity": self.sessions.capacity,
            "bytes": self.sessions.bytes_used,
            "byte_budget": self.sessions.byte_budget,
        }
        if self.recorder is not None:
            snap["flight_recorder"] = self.recorder.snapshot()
        return snap

    def render_report(self) -> str:
        """The ``solap service-stats`` text report."""
        with self._engine_lock:
            engine_stats = self.engine.cache_stats()
        report = self.metrics.render(engine_stats)
        sessions = self.sessions
        return (
            f"{report}\n"
            f"  sessions: {len(sessions)}/{sessions.capacity} active, "
            f"{sessions.bytes_used / 1e6:.3f} MB cached, "
            f"evicted={sessions.evicted}"
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and release the shard backend (idempotent)."""
        self._closed = True
        self.engine.scatter_gather = None
        if self.backend is not None:
            self.backend.shutdown(wait=wait)

    def close(self) -> None:
        """Alias for :meth:`shutdown` (graceful, waits for workers)."""
        self.shutdown()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        backend = self.backend.name if self.backend is not None else "serial"
        return (
            f"QueryService({self.engine!r}, {len(self.sessions)} sessions, "
            f"workers={self.config.max_workers}, backend={backend})"
        )
