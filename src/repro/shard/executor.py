"""Shard-local execution: run the CB/II kernels over a sequence subset.

A shard executes the *transport* spec (AVG already rewritten to AVGPAIR)
over the slice of the sequence pipeline that the planner assigned to it,
with the unchanged kernels — :func:`counter_based_cuboid` or
:func:`inverted_index_cuboid` over a shard-private throwaway index
registry — and ships back plain cell dictionaries plus its work counters.
Everything here is importable from worker processes: no service-layer
dependencies.

Tracing: when the task carries a :class:`~repro.obs.spans.SpanContext`
the shard records its work under a worker-local
:class:`~repro.obs.spans.RemoteSpanCollector` — stage spans
``worker.attach`` (reported: the mmap attach happened at worker init,
its cost rides in the ``seconds`` attribute), ``worker.rebuild``
(pipeline slice/rebuild), ``worker.match`` (the kernel, with its own
``cb.scan`` / ``ii.*`` child spans) and ``worker.fold`` (partial cell
assembly) — and returns the serialised subtree plus a
:class:`~repro.obs.profile.WorkerProfile` dict on the
:class:`ShardPartial`.  Without a context every ``span(...)`` call stays
on the NULL_SPAN fast path, so untraced shards do byte-for-byte the work
they always did.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Callable, Dict, Optional, Tuple

from repro.core.counter_based import counter_based_cuboid
from repro.core.inverted_index import inverted_index_cuboid
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroup, SequenceGroupSet
from repro.obs.profile import worker_profile_from_spans
from repro.obs.spans import RemoteSpanCollector, SpanContext, span
from repro.shard.merge import Cells


#: one shard task of a plan: (shard number, its sequence ids in scan order)
ShardTask = Tuple[int, Tuple[int, ...]]


@dataclass(frozen=True)
class ShardPartial:
    """One shard's contribution: transport cells plus work accounting."""

    shard: int
    cells: Cells
    sequences_scanned: int = 0
    index_bytes_built: int = 0
    rows_matched: int = 0
    #: cells the shard produced before merging (skew/telemetry only)
    cells_out: int = field(default=0)
    #: serialised worker span payload (None when the task was untraced)
    spans: Optional[dict] = field(default=None)
    #: the worker's resource profile dict (None when untraced)
    profile: Optional[dict] = field(default=None)


def filter_groups(
    groups: SequenceGroupSet, sids: AbstractSet[int]
) -> SequenceGroupSet:
    """The shard-local slice of a pipeline: only sequences in *sids*.

    Group keys (and their canonical iteration order) are preserved;
    groups left with no member sequence are dropped entirely, so empty
    shards cost nothing downstream.
    """
    picked: Dict[Tuple[object, ...], SequenceGroup] = {}
    for group in groups:
        members = [sequence for sequence in group if sequence.sid in sids]
        if members:
            picked[group.key] = SequenceGroup(group.key, members)
    return SequenceGroupSet(global_dims=groups.global_dims, groups=picked)


def report_attach_span(db: EventDatabase) -> float:
    """Emit the ``worker.attach`` marker span for this worker's store.

    Segment-backed workers pay their mmap attach at pool-init/unpickle
    time, *before* any task tracer exists, so the span cannot time it
    live: it is a zero-length marker whose ``seconds`` attribute reports
    the attach latency the store recorded.  In-memory databases report
    0.0 — the marker still appears so every traced shard shows the full
    attach/rebuild/match/fold stage set.
    """
    manager = getattr(db, "storage", None)
    seconds = float(getattr(manager, "last_attach_seconds", 0.0) or 0.0)
    with span("worker.attach", seconds=round(seconds, 6), reported=True):
        pass
    return seconds


def scan_shard_partial(
    db: EventDatabase,
    local_groups: SequenceGroupSet,
    transport: CuboidSpec,
    strategy: str,
    shard: int,
    deadline: Optional[object] = None,
) -> ShardPartial:
    """Execute one shard's slice with the requested kernel strategy.

    ``strategy`` is the engine's already-resolved choice ("cb" or "ii");
    II shards build their indices into a private registry that dies with
    the call — partial cuboids are merged, indices are not.
    """
    stats = QueryStats(deadline=deadline)
    with span("worker.match", strategy=strategy) as match_span:
        if strategy == "ii":
            from repro.index.registry import IndexRegistry

            cuboid = inverted_index_cuboid(
                db, local_groups, transport, IndexRegistry(), stats
            )
        else:
            cuboid = counter_based_cuboid(db, local_groups, transport, stats)
        match_span.set("sequences_scanned", stats.sequences_scanned)
    with span("worker.fold") as fold_span:
        rows_matched = sum(
            len(sequence.rows) for sequence in local_groups.all_sequences()
        )
        partial = ShardPartial(
            shard=shard,
            cells=cuboid.cells,
            sequences_scanned=stats.sequences_scanned,
            index_bytes_built=stats.index_bytes_built,
            rows_matched=rows_matched,
            cells_out=len(cuboid.cells),
        )
        fold_span.set("cells_out", partial.cells_out)
    return partial


def run_traced_shard_partial(
    db: EventDatabase,
    transport: CuboidSpec,
    strategy: str,
    shard: int,
    deadline: Optional[object],
    trace_ctx: Optional[SpanContext],
    backend: str,
    rebuild: Callable[[], SequenceGroupSet],
) -> ShardPartial:
    """One complete shard task: rebuild/slice, scan, collect telemetry.

    *rebuild* produces the shard-local groups (a closure over
    ``filter_groups`` for backends that share the coordinator's pipeline,
    or the per-process pipeline memo for process workers); running it
    inside the collector is what makes ``worker.rebuild`` honest on
    every backend.  With ``trace_ctx=None`` the collector is a no-op and
    the result carries no spans or profile.
    """
    collector = RemoteSpanCollector(trace_ctx, shard=shard, backend=backend)
    with collector:
        report_attach_span(db)
        with span("worker.rebuild") as rebuild_span:
            local = rebuild()
            rebuild_span.set("sequences_out", local.total_sequences())
        partial = scan_shard_partial(
            db, local, transport, strategy, shard, deadline
        )
    payload = collector.payload()
    if payload is None:
        return partial
    profile = worker_profile_from_spans(
        collector.root,
        shard=shard,
        backend=backend,
        pid=os.getpid(),
        sequences_scanned=partial.sequences_scanned,
        rows_scanned=partial.rows_matched,
        cells_out=partial.cells_out,
        index_bytes_built=partial.index_bytes_built,
    )
    return replace(partial, spans=payload, profile=profile.to_dict())
