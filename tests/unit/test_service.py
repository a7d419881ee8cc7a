"""Unit tests for the concurrent query service (repro.service)."""

from __future__ import annotations

import operator
import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro import (
    Comparison,
    EventField,
    Literal,
    QueryService,
    ServiceConfig,
    SOLAPEngine,
    build_sequence_groups,
)
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    SessionNotFoundError,
    WorkerLostError,
)
from repro.obs.metrics import BucketHistogram
from repro.service.deadline import Deadline
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import (
    ProcessExecutorBackend,
    SerialExecutorBackend,
    _collect_or_cancel,
)
from repro.shard import ScatterGatherCoordinator
from tests.conftest import figure8_spec, make_figure8_db


@pytest.fixture
def service():
    svc = QueryService(make_figure8_db(), ServiceConfig(max_workers=2))
    yield svc
    svc.shutdown()


class TestDeadline:
    def test_unbounded_is_none(self):
        assert Deadline.after(None) is None

    def test_fresh_deadline_passes_check(self):
        deadline = Deadline(60.0)
        deadline.check()
        assert not deadline.expired()
        assert deadline.remaining() > 0

    def test_expired_deadline_raises_typed_error(self):
        deadline = Deadline(1e-9)
        with pytest.raises(QueryTimeoutError) as excinfo:
            while True:
                deadline.check()
        assert excinfo.value.budget_seconds == pytest.approx(1e-9)
        assert excinfo.value.elapsed_seconds >= 0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            Deadline(0)


class TestExecute:
    def test_execute_matches_bare_engine(self, service):
        spec = figure8_spec(("X", "Y"))
        cuboid, stats = service.execute(spec, "cb")
        bare, __ = SOLAPEngine(make_figure8_db()).execute(spec, "cb")
        assert cuboid.cells == bare.cells
        assert service.metrics["queries_ok"] == 1
        assert service.metrics["requests_total"] == 1

    def test_deadline_exceeded_increments_metric(self, service):
        spec = figure8_spec(("X", "Y"))
        with pytest.raises(QueryTimeoutError):
            service.execute(spec, "cb", timeout=1e-9)
        assert service.metrics["deadline_exceeded_total"] == 1
        assert service.metrics["queries_ok"] == 0

    def test_failed_query_counted(self, service):
        spec = figure8_spec(("X", "Y"))
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            service.execute(spec, "bogus")
        assert service.metrics["queries_failed"] == 1

    def test_default_timeout_from_config(self):
        svc = QueryService(
            make_figure8_db(),
            ServiceConfig(max_workers=1, default_timeout_seconds=1e-9),
        )
        try:
            with pytest.raises(QueryTimeoutError):
                svc.execute(figure8_spec(("X", "Y")), "cb")
        finally:
            svc.shutdown()

    def test_execute_after_shutdown_rejected(self, service):
        service.shutdown()
        with pytest.raises(ServiceError):
            service.execute(figure8_spec(("X", "Y")))

    def test_strategy_counters(self, service):
        spec = figure8_spec(("X", "Y"))
        service.execute(spec, "cb")
        service.execute(spec, "cb")  # repository hit
        assert service.metrics["strategy_cb"] == 1
        assert service.metrics["strategy_cache"] == 1


class TestOverload:
    def test_overflowing_admission_queue_rejects(self):
        release = threading.Event()
        started = threading.Event()
        config = ServiceConfig(max_workers=1, max_concurrent=1, queue_depth=0)
        svc = QueryService(make_figure8_db(), config)
        spec = figure8_spec(("X", "Y"))

        # Occupy the only execution slot with a query blocked inside the
        # engine lock.
        def blocker():
            with svc._engine_lock:
                started.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=blocker)
        thread.start()
        started.wait(timeout=10)

        errors = []
        done = threading.Event()

        def occupant():
            try:
                svc.execute(spec, "cb")
            except Exception as error:  # pragma: no cover - defensive
                errors.append(error)
            finally:
                done.set()

        # First request occupies the slot (waiting on the engine lock)...
        occupant_thread = threading.Thread(target=occupant)
        occupant_thread.start()
        while svc._inflight < 1:
            pass
        # ... so the next is over the admission limit and must be rejected
        # immediately with the typed error.
        try:
            with pytest.raises(ServiceOverloadedError) as excinfo:
                svc.execute(spec, "cb")
            assert excinfo.value.inflight == 1
            assert excinfo.value.limit == 1
            assert svc.metrics["overload_rejected_total"] == 1
        finally:
            release.set()
            done.wait(timeout=10)
            thread.join(timeout=10)
            occupant_thread.join(timeout=10)
            svc.shutdown()
        assert not errors

    def test_queued_request_times_out_waiting(self):
        release = threading.Event()
        config = ServiceConfig(max_workers=1, max_concurrent=1, queue_depth=4)
        svc = QueryService(make_figure8_db(), config)
        spec = figure8_spec(("X", "Y"))
        # Hold the only slot directly so the next request must queue.
        assert svc._slots.acquire(timeout=1)
        try:
            with pytest.raises(QueryTimeoutError):
                svc.execute(spec, "cb", timeout=0.05)
            assert svc.metrics["deadline_exceeded_total"] == 1
        finally:
            svc._slots.release()
            release.set()
            svc.shutdown()


class TestSessions:
    def test_open_run_apply(self, service):
        sid = service.open_session(figure8_spec(("X", "Y")), "cb")
        cuboid, __ = service.session_run(sid)
        assert len(cuboid) > 0
        assert service.session_result(sid) is cuboid
        bigger, __ = service.session_apply(
            sid, "append", "Z", "location", "station"
        )
        assert service.sessions.get(sid).spec.template.length == 3
        assert service.sessions.get(sid).steps_executed == 2

    def test_unknown_operation(self, service):
        sid = service.open_session(figure8_spec(("X", "Y")))
        with pytest.raises(ServiceError):
            service.session_apply(sid, "frobnicate")

    def test_missing_session(self, service):
        with pytest.raises(SessionNotFoundError):
            service.session_run("nope")

    def test_close_session(self, service):
        sid = service.open_session(figure8_spec(("X", "Y")))
        assert service.close_session(sid)
        assert not service.close_session(sid)
        assert service.metrics["sessions_closed"] == 1

    def test_schema_operation(self, service):
        sid = service.open_session(figure8_spec(("X", "Y")), "cb")
        service.session_run(sid)
        service.session_apply(sid, "p_roll_up", "X")
        spec = service.sessions.get(sid).spec
        assert spec.template.symbol("X").level == "district"

    def test_session_eviction_drops_pipeline_state(self):
        config = ServiceConfig(max_workers=1, session_capacity=1)
        svc = QueryService(make_figure8_db(), config)
        try:
            spec_a = figure8_spec(("X", "Y"))
            sid_a = svc.open_session(spec_a, "ii")
            svc.session_run(sid_a)
            assert len(svc.engine.registry) > 0
            # A session over a *different* pipeline (different cluster-by)
            # evicts the first and orphans its pipeline state.
            spec_b = figure8_spec(("X", "Y"), group_by=(("card", "card"),))
            svc.open_session(spec_b, "cb")
            assert sid_a not in svc.sessions
            assert svc.metrics["sessions_evicted"] == 1
            assert svc.metrics["session_pipelines_dropped"] == 1
            # the evicted session's registry and sequence-cache entry died
            assert spec_a.pipeline_key() not in svc.engine.sequence_cache
            assert len(svc.engine.registry) == 0
            with pytest.raises(SessionNotFoundError):
                svc.session_run(sid_a)
        finally:
            svc.shutdown()

    def test_shared_pipeline_survives_one_eviction(self):
        config = ServiceConfig(max_workers=1, session_capacity=2)
        svc = QueryService(make_figure8_db(), config)
        try:
            spec = figure8_spec(("X", "Y"))
            sid_a = svc.open_session(spec, "ii")
            svc.session_run(sid_a)
            svc.open_session(spec, "ii")  # same pipeline
            # Third session (any pipeline) evicts sid_a, but the pipeline is
            # still referenced by the second session: state must survive.
            svc.open_session(figure8_spec(("X", "Y", "Z")), "cb")
            assert svc.metrics["sessions_evicted"] == 1
            assert svc.metrics["session_pipelines_dropped"] == 0
            assert len(svc.engine.registry) > 0
        finally:
            svc.shutdown()


class TestIndexBudget:
    def test_index_eviction_under_budget(self):
        config = ServiceConfig(max_workers=1, index_byte_budget=0)
        svc = QueryService(make_figure8_db(), config)
        try:
            svc.execute(figure8_spec(("X", "Y")), "ii")
            # a zero budget forces every index built by the query out again
            assert len(svc.engine.registry) == 0
            assert svc.metrics["indices_evicted"] > 0
            assert svc.metrics["index_bytes_evicted"] > 0
        finally:
            svc.shutdown()


class TestMetrics:
    def test_histogram_quantiles(self):
        histogram = BucketHistogram()
        for __ in range(90):
            histogram.observe(0.0009)
        for __ in range(10):
            histogram.observe(7.0)
        assert histogram.count == 100
        assert histogram.quantile(0.5) == 0.001
        assert histogram.quantile(0.99) == 10.0
        assert histogram.mean() == pytest.approx((90 * 0.0009 + 70.0) / 100)
        assert histogram.snapshot()["max_seconds"] == 7.0

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            BucketHistogram(buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            BucketHistogram().quantile(1.5)

    def test_histogram_merge(self):
        a = BucketHistogram()
        b = BucketHistogram()
        for __ in range(3):
            a.observe(0.0009)
        b.observe(0.0009)
        b.observe(7.0)
        a.merge(b)
        assert a.count == 5
        assert a.total == pytest.approx(4 * 0.0009 + 7.0)
        assert a.max_observed == 7.0
        assert a.quantile(0.5) == 0.001
        # the source histogram is left untouched
        assert b.count == 2

    def test_histogram_merge_rejects_mismatched_buckets(self):
        a = BucketHistogram()
        b = BucketHistogram(buckets=(0.5, float("inf")))
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(b)

    def test_metrics_render_includes_engine(self, service):
        service.execute(figure8_spec(("X", "Y")), "cb")
        report = service.render_report()
        assert "requests_total: 1" in report
        assert "sequence cache" in report
        assert "sessions:" in report

    def test_unknown_counter_reads_zero(self):
        metrics = ServiceMetrics()
        assert metrics["nonexistent"] == 0
        metrics.inc("nonexistent")
        assert metrics["nonexistent"] == 1

    def test_snapshot_shape(self, service):
        snap = service.snapshot()
        assert set(snap) >= {"counters", "latency", "engine", "sessions"}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"max_concurrent": 0},
            {"queue_depth": -1},
            {"session_capacity": 0},
            {"default_timeout_seconds": 0},
            {"index_byte_budget": -1},
            {"shards": -1},
            {"session_byte_budget": -1},
            {"executor_backend": "bogus"},
            {"process_start_method": "bogus"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_field_count(self):
        # every field is a configuration axis tests and benches must cover
        assert len(ServiceConfig.__dataclass_fields__) == 14

    def test_service_rejects_bad_target(self):
        with pytest.raises(ServiceError):
            QueryService("not a db")


class _AlmostSpent:
    """A deadline with budget left at submission that dies in the worker."""

    def remaining(self):
        return 1e-6

    def check(self):
        pass


class TestExecutorBackends:
    def _serial_cells(self, db, spec):
        cuboid, __ = SOLAPEngine(db).execute(spec, "cb")
        return cuboid.cells

    def _groups(self, db, spec):
        return build_sequence_groups(
            db, spec.where, spec.cluster_by, spec.sequence_by, spec.group_by
        )

    def _sharded(self, backend, db, spec, shards=2):
        engine = SOLAPEngine(db, use_repository=False)
        engine.scatter_gather = ScatterGatherCoordinator(
            shards, backend, min_sequences=1
        )
        return engine.execute(spec, "cb")

    def _tasks(self, groups):
        sids = sorted(sequence.sid for sequence in groups.all_sequences())
        return [(0, tuple(sids[::2])), (1, tuple(sids[1::2]))]

    def test_collect_or_cancel_cancels_pending_siblings(self):
        gate = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(gate.wait, 10)  # hold the only worker slot
            failed = Future()
            failed.set_exception(ValueError("shard failed"))
            pending = [pool.submit(time.sleep, 0) for __ in range(3)]
            # release the worker shortly after collection blocks in wait()
            threading.Timer(0.2, gate.set).start()
            with pytest.raises(ValueError):
                _collect_or_cancel([failed] + pending)
            gate.set()
            # the fix: siblings must not keep running/holding slots after
            # one shard fails — every queued future was cancelled
            assert all(f.cancelled() for f in pending)

    def test_collect_or_cancel_drains_real_pool(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            futures = [pool.submit(operator.truediv, 1, 0)]
            futures += [pool.submit(time.sleep, 0.01) for __ in range(3)]
            with pytest.raises(ZeroDivisionError):
                _collect_or_cancel(futures)
            assert all(f.done() for f in futures)

    def test_failing_shard_leaves_pool_quiescent(self):
        # A shard raising must cancel and drain its siblings, so the
        # one-worker pool is free to answer the next query normally.
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        backend = ProcessExecutorBackend(db, 1)
        try:
            groups = self._groups(db, spec)
            with pytest.raises(QueryTimeoutError):
                backend.run_partial_shards(
                    db, groups, spec, self._tasks(groups), "cb", _AlmostSpent()
                )
            cuboid, __ = self._sharded(backend, db, spec)
            assert cuboid.cells == self._serial_cells(db, spec)
        finally:
            backend.shutdown()

    def test_empty_selection_schedules_no_task(self):
        db = make_figure8_db()
        spec = figure8_spec(
            ("X", "Y"),
            where=Comparison(EventField("card"), "=", Literal(-1)),
        )

        class Untouchable(SerialExecutorBackend):
            def run_partial_shards(self, *args, **kwargs):
                raise AssertionError("an empty selection scheduled a task")

        cuboid, stats = self._sharded(Untouchable(), db, spec, shards=4)
        assert len(cuboid) == 0
        assert "shard_fanout" not in stats.extra

    def test_coordinator_needs_two_shards(self):
        for shards in (0, 1):
            with pytest.raises(ValueError):
                ScatterGatherCoordinator(shards, SerialExecutorBackend())

    def test_sharded_backends_match_serial(self):
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        expected = self._serial_cells(db, spec)
        backends = [SerialExecutorBackend(), ProcessExecutorBackend(db, 2)]
        try:
            for backend in backends:
                cuboid, stats = self._sharded(backend, db, spec)
                assert cuboid.cells == expected, backend.name
                assert stats.extra["scan_backend"] == backend.name
        finally:
            for backend in backends:
                backend.shutdown()

    def test_process_backend_spawn_context(self):
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        backend = ProcessExecutorBackend(db, 2, start_method="spawn")
        try:
            backend.warm_up()
            cuboid, __ = self._sharded(backend, db, spec)
            assert cuboid.cells == self._serial_cells(db, spec)
        finally:
            backend.shutdown()

    def test_process_backend_rejects_foreign_db(self):
        db = make_figure8_db()
        backend = ProcessExecutorBackend(db, 1)
        try:
            with pytest.raises(ServiceError):
                backend.run_partial_shards(
                    make_figure8_db(), None, figure8_spec(("X", "Y")),
                    [], "cb", None,
                )
        finally:
            backend.shutdown()

    def test_worker_side_deadline_expiry_is_a_timeout(self):
        # Budgets cross the process boundary as floats; a budget that
        # runs out inside the worker must come back as the typed error.
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        backend = ProcessExecutorBackend(db, 1)
        try:
            groups = self._groups(db, spec)
            with pytest.raises(QueryTimeoutError):
                backend.run_partial_shards(
                    db, groups, spec, self._tasks(groups), "cb", _AlmostSpent()
                )
        finally:
            backend.shutdown()

    def test_spent_deadline_times_out_before_submission(self):
        # A non-positive budget cannot be rebuilt into a worker Deadline
        # (ValueError): the coordinator side must raise the typed error.
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        backend = ProcessExecutorBackend(db, 1)
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        try:
            groups = self._groups(db, spec)
            with pytest.raises(QueryTimeoutError):
                backend.run_partial_shards(
                    db, groups, spec, self._tasks(groups), "cb", deadline
                )
        finally:
            backend.shutdown()

    def test_service_wires_process_backend(self):
        config = ServiceConfig(
            max_workers=2, shards=2, executor_backend="process"
        )
        svc = QueryService(make_figure8_db(), config)
        try:
            spec = figure8_spec(("X", "Y"))
            cuboid, stats = svc.execute(spec, "cb")
            bare, __ = SOLAPEngine(make_figure8_db()).execute(spec, "cb")
            assert cuboid.cells == bare.cells
            assert stats.extra["scan_backend"] == "process"
            assert svc.metrics.scan_backend_counts() == {"process": 1}
            assert "backend=process" in repr(svc)
        finally:
            svc.close()

    @pytest.mark.parametrize("shards", [0, 1])
    def test_fan_out_one_is_the_bare_kernel(self, shards):
        # shards 0 and 1 install no seam and create no pool, whatever
        # backend and worker count are configured.
        svc = QueryService(
            make_figure8_db(),
            ServiceConfig(
                max_workers=4, shards=shards, executor_backend="process"
            ),
        )
        try:
            assert svc.backend is None
            assert svc.engine.scatter_gather is None
            spec = figure8_spec(("X", "Y"))
            __, stats = svc.execute(spec, "cb")
            assert "scan_backend" not in stats.extra
            assert "shard_fanout" not in stats.extra
            assert svc.metrics.scan_backend_counts() == {"serial": 1}
        finally:
            svc.close()


class _DiesInWorker:
    """Stands in for a spec: kills the worker process that touches it."""

    def pipeline_key(self):
        os._exit(1)


class TestWorkerLoss:
    """ROADMAP 4c: a dead process worker yields a typed error, frees the
    admission slot, and the retried query answers bit-identically."""

    def test_worker_dying_mid_task_rebuilds_the_pool(self):
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        groups = build_sequence_groups(
            db, spec.where, spec.cluster_by, spec.sequence_by, spec.group_by
        )
        tasks = [(0, tuple(s.sid for s in groups.all_sequences()))]
        backend = ProcessExecutorBackend(db, 1)
        try:
            with pytest.raises(WorkerLostError):
                backend.run_partial_shards(
                    db, groups, _DiesInWorker(), tasks, "cb", None
                )
            (partial,) = backend.run_partial_shards(
                db, groups, spec, tasks, "cb", None
            )
            expected, __ = SOLAPEngine(db).execute(spec, "cb")
            assert partial.cells == expected.cells
        finally:
            backend.shutdown()

    def test_killed_workers_fail_one_query_not_the_service(self):
        db = make_figure8_db()
        spec = figure8_spec(("X", "Y"))
        expected, __ = SOLAPEngine(db).execute(spec, "cb")
        svc = QueryService(
            SOLAPEngine(db, use_repository=False),
            ServiceConfig(
                max_workers=2,
                shards=2,
                executor_backend="process",
                max_concurrent=1,
            ),
        )
        try:
            for pid in list(svc.backend.executor._processes):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                svc.execute(spec, "cb")
            assert svc.metrics["queries_failed"] == 1
            assert svc.inflight == 0
            assert svc._slots.acquire(blocking=False)  # slot was released
            svc._slots.release()
            cuboid, stats = svc.execute(spec, "cb")
            assert cuboid.cells == expected.cells
            assert stats.extra["scan_backend"] == "process"
        finally:
            svc.close()
