"""Execution backends for scatter-gather shard tasks.

A sharded query is plan -> partials -> merge (:mod:`repro.shard`): the
coordinator consistent-hashes the selected sequences onto shards and
hands the per-shard tasks to an :class:`ExecutorBackend`, whose single
work method runs a full CB or II kernel over each shard's slice of the
pipeline and returns transport-form partial cells for the merge.

Two backends exist (selected by ``ServiceConfig.executor_backend``):

* ``serial`` — shard tasks run inline on the calling thread (baseline
  and debugging aid: same plan, same merge, no pool);
* ``process`` — shard tasks run on a ``ProcessPoolExecutor``.  The
  :class:`EventDatabase` is shipped **once per worker** through the pool
  initializer (a no-op copy under ``fork``, one pickle — or one mmap
  attach for segment stores — per worker under ``spawn``); each task
  then carries only the picklable spec and a shard of sequence ids, and
  deadline budgets travel as plain floats because worker processes
  cannot share the coordinator's Deadline.

A service only owns a backend when ``ServiceConfig.shards >= 2``; fan-out
1 is the serial kernel itself and creates no pool.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.matcher import get_default_occurrence_limit, occurrence_limit
from repro.core.spec import CuboidSpec
from repro.errors import ServiceError, WorkerLostError
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroupSet, build_sequence_groups
from repro.obs.spans import SpanContext
from repro.service.config import EXECUTOR_BACKENDS, ServiceConfig
from repro.service.deadline import Deadline
from repro.shard.executor import (
    ShardPartial,
    ShardTask,
    filter_groups,
    run_traced_shard_partial,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "ExecutorBackend",
    "ProcessExecutorBackend",
    "SerialExecutorBackend",
    "create_backend",
]


def _collect_or_cancel(futures: List[Future]) -> List:
    """Results of *futures* in submission order, cancelling on first failure.

    Without this, one shard raising (e.g. :class:`QueryTimeoutError`)
    would leave its sibling futures running and holding executor slots
    while the error propagates.  On failure every outstanding future is
    cancelled (pending ones never run) and the already-running ones are
    drained before the error is re-raised, so the pool is quiescent by
    the time the caller sees the exception.
    """
    results = []
    try:
        for future in futures:
            results.append(future.result())
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise
    return results


class ExecutorBackend:
    """One way of executing the shard tasks of a scatter-gather plan.

    Concrete backends say where the per-shard kernels run — inline or on
    worker processes — and own whatever pool that requires.  Every
    backend returns the partials in task (ascending shard) order, so the
    coordinator's merge is identical across backends and across runs.
    """

    #: label used on metrics, trace spans and ``stats.extra``
    name: str = "?"

    def run_partial_shards(
        self,
        db: EventDatabase,
        groups: SequenceGroupSet,
        transport: CuboidSpec,
        tasks: List[ShardTask],
        strategy: str,
        deadline,
        trace_ctx: Optional[SpanContext] = None,
    ) -> List[ShardPartial]:
        """Run one CB or II kernel per task; partial cuboids in task order.

        Each task covers its shard's slice of *groups* with the
        *transport* spec (AVG already rewritten to AVGPAIR).  A non-None
        *trace_ctx* makes each shard record its stage spans and resource
        profile onto the returned partials.
        """
        raise NotImplementedError

    def warm_up(self) -> List[float]:
        """Pay worker start-up cost now instead of inside the first query.

        Returns the seconds-until-ready of each worker (ascending: the
        k-th entry is when the k-th worker finished its warm-up ping).
        For the process backend under ``spawn`` this is where the
        database ships — pickled per worker, or mmap-attached by path
        for segment-backed databases — so the durations separate attach
        cost from scan cost.  The service records them in the
        ``solap_service_worker_init_seconds`` histogram.
        """
        return []

    def shutdown(self, wait: bool = True) -> None:
        """Release pool resources (idempotent)."""


def _worker_ping(token: int) -> int:
    """No-op task used by warm-up to force worker start-up."""
    return token


def _timed_warm_up(executor: Executor, workers: int) -> List[float]:
    """Submit one ping per worker; return each completion's elapsed time."""
    start = time.monotonic()
    futures = [executor.submit(_worker_ping, index) for index in range(workers)]
    durations: List[float] = []
    for future in as_completed(futures):
        future.result()
        durations.append(time.monotonic() - start)
    return durations


class SerialExecutorBackend(ExecutorBackend):
    """Run every shard task inline on the calling thread (no pool)."""

    name = "serial"

    def run_partial_shards(
        self, db, groups, transport, tasks, strategy, deadline, trace_ctx=None
    ) -> List[ShardPartial]:
        # Inline shards still run under a RemoteSpanCollector when traced,
        # so both backends produce the same origin-marked worker subtrees.
        # The pipeline is sliced inside the task (so ``worker.rebuild``
        # measures it) and the query's Deadline object is checked directly.
        return [
            run_traced_shard_partial(
                db, transport, strategy, shard, deadline, trace_ctx, self.name,
                lambda sids=sids: filter_groups(groups, frozenset(sids)),
            )
            for shard, sids in tasks
        ]


# ---------------------------------------------------------------------------
# Process backend: worker-side state and entry point
# ---------------------------------------------------------------------------

#: the EventDatabase this worker process serves (set by the initializer)
_worker_db: Optional[EventDatabase] = None
#: per-pipeline rebuilt SequenceGroupSets
_worker_groups: Dict[Tuple, SequenceGroupSet] = {}
#: pipelines memoised per worker before the table is reset
_WORKER_PIPELINE_MEMO_MAX = 8


def _process_worker_init(db: EventDatabase) -> None:
    """Pool initializer: receive the database once per worker process.

    Under the ``fork`` start method the database arrives by address-space
    copy (no pickling); under ``spawn``/``forkserver`` it is pickled once
    per worker — never once per task.
    """
    global _worker_db
    _worker_db = db
    _worker_groups.clear()


def _worker_groups_for(spec: CuboidSpec) -> SequenceGroupSet:
    """This worker's rebuilt SequenceGroupSet for *spec*'s pipeline.

    Sequence formation is deterministic (sorted cluster-key order, dense
    sid assignment), so rebuilding here reproduces exactly the
    coordinator's groups and sid numbering — that is what lets tasks
    ship sequence *ids* instead of sequences.
    """
    key = spec.pipeline_key()
    groups = _worker_groups.get(key)
    if groups is None:
        groups = build_sequence_groups(
            _worker_db, spec.where, spec.cluster_by,
            spec.sequence_by, spec.group_by,
        )
        if len(_worker_groups) >= _WORKER_PIPELINE_MEMO_MAX:
            _worker_groups.clear()
        _worker_groups[key] = groups
    return groups


@dataclass(frozen=True)
class _PartialShardTask:
    """The picklable payload of one process-backend shard task."""

    spec: CuboidSpec
    sids: Tuple[int, ...]
    strategy: str
    shard: int
    #: seconds of deadline budget left at submission (None = unbounded);
    #: a plain float because Deadline objects cannot cross processes
    budget_seconds: Optional[float]
    #: the coordinator's effective occurrence cap (process-global state
    #: does not propagate to spawn-started workers)
    occurrence_cap: Optional[int]
    #: the coordinator's open-span identity; None means "untraced" and
    #: keeps the worker on the NULL_SPAN fast path
    trace_ctx: Optional[SpanContext] = None


def _process_partial_shard(task: _PartialShardTask) -> ShardPartial:
    """Worker entry point: run one shard's CB/II kernel over its slice."""
    db = _worker_db
    if db is None:
        raise ServiceError("scan worker used before initialization")
    deadline = Deadline.after(task.budget_seconds)
    with occurrence_limit(task.occurrence_cap):
        return run_traced_shard_partial(
            db, task.spec, task.strategy, task.shard, deadline,
            task.trace_ctx, "process",
            lambda: filter_groups(
                _worker_groups_for(task.spec), frozenset(task.sids)
            ),
        )


class ProcessExecutorBackend(ExecutorBackend):
    """Run shard tasks on a process pool (true multi-core scans).

    The backend is bound to one :class:`EventDatabase` at construction:
    the pool initializer delivers it to every worker exactly once.
    Tasks then carry only the spec and a shard of sequence ids, and each
    worker rebuilds the (deterministic) pipeline itself, memoised across
    tasks.
    """

    name = "process"

    def __init__(
        self,
        db: EventDatabase,
        max_workers: int,
        start_method: Optional[str] = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.workers = max_workers
        self.db = db
        self.start_method = start_method
        self.executor = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_process_worker_init,
            initargs=(self.db,),
        )

    def warm_up(self) -> List[float]:
        # One ping per worker forces every process to start (and, under
        # spawn, to unpickle — or mmap-attach — the database) before the
        # first real scan; the timed completions expose that cost.
        return _timed_warm_up(self.executor, self.workers)

    def run_partial_shards(
        self, db, groups, transport, tasks, strategy, deadline, trace_ctx=None
    ) -> List[ShardPartial]:
        if db is not self.db:
            raise ServiceError(
                "process backend is bound to a different EventDatabase; "
                "construct one backend per database"
            )
        # Workers rebuild the (deterministic) pipeline themselves, so each
        # task ships only sequence ids; deadline budgets travel as floats
        # and the occurrence cap rides along because process-global state
        # does not propagate to spawn-started workers.
        budget = deadline.remaining() if deadline is not None else None
        if budget is not None and budget <= 0:
            deadline.check()  # spent: time out here, not as a bad budget
        cap = get_default_occurrence_limit()
        try:
            futures = [
                self.executor.submit(
                    _process_partial_shard,
                    _PartialShardTask(
                        transport, sids, strategy, shard, budget, cap, trace_ctx
                    ),
                )
                for shard, sids in tasks
            ]
            return _collect_or_cancel(futures)
        except BrokenExecutor as error:
            # A worker died (OOM kill, segfault, SIGKILL): the pool is
            # permanently broken and fails every later submit.  Replace
            # it so only this query is lost, and surface a typed error.
            self.executor.shutdown(wait=False)
            self.executor = self._new_pool()
            raise WorkerLostError(
                f"a process-backend worker died mid-query ({error}); "
                "the pool was rebuilt — retry the query"
            ) from error

    def shutdown(self, wait: bool = True) -> None:
        self.executor.shutdown(wait=wait)


def create_backend(config: ServiceConfig, db: EventDatabase) -> ExecutorBackend:
    """The shard-task backend *config* asks for."""
    if config.executor_backend == "process":
        return ProcessExecutorBackend(
            db, config.max_workers, start_method=config.process_start_method
        )
    return SerialExecutorBackend()
