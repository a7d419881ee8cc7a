"""Per-query resource profiles: who scanned what, where, for how long.

A :class:`ResourceProfile` summarises one distributed query execution —
sequences/rows/approximate bytes scanned, cells produced and merged,
attach/rebuild/match/fold wall time per worker, and the planner's shard
skew.  Coordinators build one from the workers' grafted span trees plus
their :class:`~repro.shard.executor.ShardPartial` counters, store its
``to_dict()`` form in ``stats.extra["resource_profile"]``, and EXPLAIN
ANALYZE / the flight recorder / the ``solap_trace_*`` metric families all
read that one dict.

Everything here is dependency-free plain data so worker processes can
import it without dragging in the service layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.spans import Span

#: the worker-side stage spans a collector records per task (see
#: :mod:`repro.shard.executor`): attach is reported (it happened at
#: worker init, before any task), the other three are measured live
WORKER_STAGES = ("attach", "rebuild", "match", "fold")


@dataclass
class WorkerProfile:
    """One shard task's resource accounting."""

    shard: int
    pid: int = 0
    backend: str = "serial"
    attach_s: float = 0.0
    rebuild_s: float = 0.0
    match_s: float = 0.0
    fold_s: float = 0.0
    sequences_scanned: int = 0
    rows_scanned: int = 0
    cells_out: int = 0
    index_bytes_built: int = 0

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "backend": self.backend,
            "attach_s": round(self.attach_s, 6),
            "rebuild_s": round(self.rebuild_s, 6),
            "match_s": round(self.match_s, 6),
            "fold_s": round(self.fold_s, 6),
            "sequences_scanned": self.sequences_scanned,
            "rows_scanned": self.rows_scanned,
            "cells_out": self.cells_out,
            "index_bytes_built": self.index_bytes_built,
        }


@dataclass
class ResourceProfile:
    """Query-wide resource accounting across every worker and the merge."""

    backend: str = "serial"
    fanout: int = 0
    skew: float = 1.0
    sequences_scanned: int = 0
    rows_scanned: int = 0
    #: approximate encoded bytes read: rows x dims x 4 (uint32 codes);
    #: an estimate for capacity planning, not a measured byte count
    bytes_scanned: int = 0
    cells_merged: int = 0
    merge_seconds: float = 0.0
    workers: List[WorkerProfile] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "fanout": self.fanout,
            "skew": round(self.skew, 3),
            "sequences_scanned": self.sequences_scanned,
            "rows_scanned": self.rows_scanned,
            "bytes_scanned": self.bytes_scanned,
            "cells_merged": self.cells_merged,
            "merge_seconds": round(self.merge_seconds, 6),
            "workers": [worker.to_dict() for worker in self.workers],
        }


def stage_seconds_from_root(root: Optional[Span]) -> Dict[str, float]:
    """``worker.<stage>`` wall seconds recorded under one collector root.

    ``worker.attach`` is a zero-length marker whose real cost rides in
    its ``seconds`` attribute (the attach happened at worker start-up,
    before any task tracer existed), so the attribute wins over the
    span's own duration.
    """
    out: Dict[str, float] = {}
    if root is None:
        return out
    for stage in WORKER_STAGES:
        node = root.find(f"worker.{stage}")
        if node is None:
            continue
        if stage == "attach" and "seconds" in node.attrs:
            out[stage] = float(node.attrs["seconds"])  # type: ignore[arg-type]
        else:
            out[stage] = node.duration_seconds
    return out


def worker_profile_from_spans(
    root: Optional[Span],
    *,
    shard: int,
    backend: str,
    pid: int = 0,
    sequences_scanned: int = 0,
    rows_scanned: int = 0,
    cells_out: int = 0,
    index_bytes_built: int = 0,
) -> WorkerProfile:
    """Fold one collector's stage spans and counters into a WorkerProfile."""
    stages = stage_seconds_from_root(root)
    return WorkerProfile(
        shard=shard,
        pid=pid,
        backend=backend,
        attach_s=stages.get("attach", 0.0),
        rebuild_s=stages.get("rebuild", 0.0),
        match_s=stages.get("match", 0.0),
        fold_s=stages.get("fold", 0.0),
        sequences_scanned=sequences_scanned,
        rows_scanned=rows_scanned,
        cells_out=cells_out,
        index_bytes_built=index_bytes_built,
    )
