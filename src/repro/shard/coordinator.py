"""Scatter-gather execution of one query across N logical shards.

The :class:`ScatterGatherCoordinator` is installed on the engine as
``engine.scatter_gather`` — the engine's one optional execution seam —
and called with the already-formed sequence pipeline and the
already-resolved strategy.  It:

1. rewrites the spec into transport form (AVG -> AVGPAIR pairs) — a
   holistic aggregate raises :class:`~repro.errors.NotMergeableError`
   here and the coordinator *declines*, so the engine falls back to
   single-shard execution;
2. consistent-hashes every selected sequence's cluster key onto the
   shards (:class:`~repro.shard.planner.ShardPlanner`), preserving the
   canonical scan order within each shard;
3. scatters shard tasks onto the execution backend (inline or process
   pool), each shard running the unchanged CB/II
   kernels over its slice
   (:func:`~repro.shard.executor.scan_shard_partial`);
4. gathers the partial cell tables and merges them with the per-aggregate
   merge algebra (:mod:`repro.shard.merge`), finalising AVGPAIR pairs
   back into AVG quotients.

COUNT/MIN/MAX merges are exact; SUM and the AVG numerator re-associate
float additions across shards, so they are exact for integer-valued
measures and, for float measures, deterministic: partials merge in
ascending shard order on every backend and every run.

Observability: ``shard.scan`` / ``shard.merge`` spans, ``solap_shard_*``
metrics (per-shard sequences/rows/cells, skew gauge, merge-time
histogram, fallback counter) and ``stats.extra`` keys surfaced by
EXPLAIN ANALYZE (``shard_fanout``, ``shard_skew``, ``scan_backend``).
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.counter_based import selected_sequences
from repro.core.cuboid import SCuboid
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.errors import NotMergeableError
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroupSet
from repro.obs.profile import ResourceProfile, WorkerProfile
from repro.obs.spans import current_context, graft_payload, span
from repro.shard.executor import ShardPartial, ShardTask
from repro.shard.merge import (
    finalize_transport,
    merge_partial_cells,
    transport_spec,
)
from repro.shard.planner import ShardPlanner


class ShardMetrics:
    """The ``solap_shard_*`` family bundle (no-op without a registry)."""

    def __init__(self, registry=None):
        self.registry = registry
        if registry is None:
            return
        self.scans = registry.counter(
            "solap_shard_scans_total",
            "Queries answered by scatter-gather shard execution",
        )
        self.fallbacks = registry.counter(
            "solap_shard_fallback_total",
            "Scatter-gather declines by reason (engine fell back to "
            "single-shard execution)",
            labels=("reason",),
        )
        self.sequences = registry.counter(
            "solap_shard_sequences_total",
            "Sequences scanned per logical shard",
            labels=("shard",),
        )
        self.rows = registry.counter(
            "solap_shard_rows_total",
            "Event rows covered by each logical shard's sequences",
            labels=("shard",),
        )
        self.cells = registry.counter(
            "solap_shard_cells_total",
            "Partial cuboid cells produced per logical shard",
            labels=("shard",),
        )
        self.skew = registry.gauge(
            "solap_shard_skew",
            "Max/mean shard population ratio of the last scatter (1.0 = even)",
        )
        self.merge_seconds = registry.histogram(
            "solap_shard_merge_seconds",
            "Wall time of the partial-cuboid merge phase",
        )

    def observe_fallback(self, reason: str) -> None:
        if self.registry is not None:
            self.fallbacks.labels(reason).inc()

    def observe_scan(self, partials: List[ShardPartial], skew: float) -> None:
        if self.registry is None:
            return
        self.scans.inc()
        self.skew.set(skew)
        for partial in partials:
            shard = str(partial.shard)
            self.sequences.labels(shard).inc(partial.sequences_scanned)
            self.rows.labels(shard).inc(partial.rows_matched)
            self.cells.labels(shard).inc(partial.cells_out)

    def observe_merge(self, seconds: float) -> None:
        if self.registry is not None:
            self.merge_seconds.observe(seconds)


class ScatterGatherCoordinator:
    """Engine hook (``engine.scatter_gather``) for sharded execution.

    *backend* is the :class:`~repro.service.parallel.ExecutorBackend`
    the shard tasks run on.  The coordinator declines (returns None) on
    non-mergeable aggregates and on selections below *min_sequences*
    (empty ones included, so they never schedule a task); the engine
    then runs the serial kernel.  Fan-out 1 is that kernel too: a
    coordinator needs at least two shards.
    """

    def __init__(
        self,
        shards: int,
        backend,
        min_sequences: int = 2,
        registry=None,
        planner: Optional[ShardPlanner] = None,
    ):
        if shards < 2:
            raise ValueError(
                "shards must be >= 2 (fan-out 1 is the serial kernel: "
                "install no coordinator)"
            )
        self.shards = shards
        self.backend = backend
        self.min_sequences = max(min_sequences, 1)
        self.planner = planner or ShardPlanner(shards)
        self.metrics = ShardMetrics(registry)
        self.scans_run = 0

    def __call__(
        self,
        db: EventDatabase,
        groups: SequenceGroupSet,
        spec: CuboidSpec,
        stats: QueryStats,
        strategy: str,
    ) -> Optional[SCuboid]:
        try:
            transport, restore = transport_spec(spec)
        except NotMergeableError:
            self.metrics.observe_fallback("not_mergeable")
            return None
        slices = spec.sliced_groups()
        work = [
            sequence for __, sequence in selected_sequences(groups, slices)
        ]
        if len(work) < self.min_sequences:
            self.metrics.observe_fallback("below_threshold")
            return None

        assignment = self.planner.assign(
            (sequence.cluster_key, sequence.sid) for sequence in work
        )
        skew = self.planner.skew(assignment)
        tasks: List[ShardTask] = [
            (shard, tuple(sids)) for shard, sids in sorted(assignment.items())
        ]
        deadline = stats.deadline
        with span(
            "shard.scan",
            backend=self.backend.name,
            shards=len(tasks),
            ring_shards=self.shards,
        ) as scan_span:
            trace_ctx = current_context()
            partials = self.backend.run_partial_shards(
                db, groups, transport, tasks, strategy, deadline, trace_ctx
            )
            for partial in partials:
                if partial.spans is not None:
                    graft_payload(scan_span, partial.spans)
            scan_span.set("sequences_scanned", len(work))
            scan_span.set("skew", round(skew, 3))

        merge_started = time.perf_counter()
        with span("shard.merge", shards=len(partials)) as merge_span:
            merged = merge_partial_cells(
                transport, [partial.cells for partial in partials]
            )
            cells = finalize_transport(merged, restore)
            merge_span.set("cells_out", len(cells))
        merge_seconds = time.perf_counter() - merge_started

        for partial in partials:
            stats.add_scan(partial.sequences_scanned)
            stats.index_bytes_built += partial.index_bytes_built
        stats.checkpoint()
        self.scans_run += 1
        self.metrics.observe_scan(partials, skew)
        self.metrics.observe_merge(merge_seconds)
        stats.extra["shard_fanout"] = len(tasks)
        stats.extra["shard_skew"] = round(skew, 3)
        stats.extra["scan_backend"] = self.backend.name
        if any(partial.profile is not None for partial in partials):
            profile = build_resource_profile(
                db, partials, self.backend.name, skew, merge_seconds
            )
            stats.extra["resource_profile"] = profile.to_dict()
        return SCuboid(spec, cells)


def build_resource_profile(
    db: EventDatabase,
    partials: List[ShardPartial],
    backend: str,
    skew: float,
    merge_seconds: float,
) -> ResourceProfile:
    """Fold the shards' worker profiles into one query-wide profile.

    ``bytes_scanned`` approximates encoded reads as rows x dims x 4
    (uint32 codes) — a capacity-planning estimate, not a measured count.
    """
    workers = [
        WorkerProfile(**partial.profile)
        for partial in partials
        if partial.profile is not None
    ]
    rows_scanned = sum(partial.rows_matched for partial in partials)
    n_dims = len(getattr(db.schema, "dimensions", ()) or ())
    return ResourceProfile(
        backend=backend,
        fanout=len(partials),
        skew=skew,
        sequences_scanned=sum(p.sequences_scanned for p in partials),
        rows_scanned=rows_scanned,
        bytes_scanned=rows_scanned * max(n_dims, 1) * 4,
        cells_merged=sum(partial.cells_out for partial in partials),
        merge_seconds=merge_seconds,
        workers=workers,
    )
