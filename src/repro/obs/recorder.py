"""The flight recorder: a bounded ring of recent completed query traces.

Always on, sampling-capped.  The :class:`~repro.service.service.QueryService`
owns one :class:`FlightRecorder`; queries the caller did not ask to
analyze are promoted to tracing at a token-bucket-limited rate (so a
busy service still records a steady trickle of full traces without
paying span overhead on every query), and every completed trace —
sampled or explicitly requested — lands in a thread-safe ring buffer of
``capacity`` entries.

Entries are browsable three ways:

* ``GET /debug/traces`` on ``solap serve`` — newest-first summary
  list (``?limit=N``);
* ``GET /debug/traces/<id>`` — one full entry: the ``trace_schema`` 2
  span tree, the query's stats, the resource profile, and the rendered
  EXPLAIN ANALYZE plan when one was built;
* ``solap trace --recent`` / ``solap trace --id <id>`` over the same
  HTTP routes.

Recording also feeds the ``solap_trace_*`` metric families: recorded /
sampled / dropped counters and per-stage worker span counts and wall
seconds aggregated from the grafted subtrees.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Callable, List, Optional

from repro.obs.spans import Span, trace_to_dict


class TraceMetrics:
    """The ``solap_trace_*`` family bundle (no-op without a registry)."""

    def __init__(self, registry=None):
        self.registry = registry
        if registry is None:
            return
        self.recorded = registry.counter(
            "solap_trace_recorded_total",
            "Query traces recorded in the flight recorder",
        )
        self.sampled = registry.counter(
            "solap_trace_sampled_total",
            "Queries promoted to tracing by the flight recorder's sampler",
        )
        self.dropped = registry.counter(
            "solap_trace_dropped_total",
            "Queries not traced because the sampling cap was exhausted",
        )
        self.worker_spans = registry.counter(
            "solap_trace_worker_spans_total",
            "Worker-side stage spans grafted into recorded traces",
            labels=("stage",),
        )
        self.worker_seconds = registry.counter(
            "solap_trace_worker_stage_seconds_total",
            "Worker-side wall seconds by stage across recorded traces",
            labels=("stage",),
        )

    def observe_sampled(self) -> None:
        if self.registry is not None:
            self.sampled.inc()

    def observe_dropped(self) -> None:
        if self.registry is not None:
            self.dropped.inc()

    def observe_recorded(self, root: Optional[Span]) -> None:
        if self.registry is None:
            return
        self.recorded.inc()
        if root is None:
            return
        from repro.obs.profile import WORKER_STAGES, stage_seconds_from_root

        for node in root.walk():
            if node.origin is None:
                continue
            stages = stage_seconds_from_root(node)
            for stage in WORKER_STAGES:
                if stage in stages:
                    self.worker_spans.labels(stage).inc()
                    self.worker_seconds.labels(stage).inc(stages[stage])


class FlightRecorder:
    """Thread-safe bounded ring buffer of recent completed query traces."""

    def __init__(
        self,
        capacity: int = 64,
        sample_per_second: float = 2.0,
        sample_burst: int = 4,
        registry=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample_per_second < 0:
            raise ValueError("sample_per_second must be >= 0")
        self.capacity = capacity
        self.sample_per_second = sample_per_second
        self.sample_burst = max(sample_burst, 1)
        self.metrics = TraceMetrics(registry)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._ids = itertools.count(1)
        # token bucket driving should_sample(): starts full so the first
        # queries after start-up are always traced
        self._tokens = float(self.sample_burst)
        self._refilled_at = clock()

    # ------------------------------------------------------------------
    def should_sample(self) -> bool:
        """Consume one sampling token; False once the cap is exhausted.

        Callers promote an untraced query to ``analyze=True`` when this
        returns True — that is what keeps the recorder "always on"
        without tracing every query under load.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                float(self.sample_burst),
                self._tokens + (now - self._refilled_at) * self.sample_per_second,
            )
            self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.metrics.observe_sampled()
                return True
            self.metrics.observe_dropped()
            return False

    # ------------------------------------------------------------------
    def record(
        self,
        *,
        stats,
        query_id: str = "",
        spec=None,
        wall_seconds: float = 0.0,
        sampled: bool = False,
    ) -> Optional[str]:
        """Store one completed query's trace; returns its recorder id.

        Needs ``stats.trace`` (queries that ran untraced return None).
        The stored entry is entirely plain data — safe to serve over
        HTTP and immune to later mutation of the live objects.
        """
        root = getattr(stats, "trace", None)
        if root is None:
            return None
        template = getattr(spec, "template", None)
        summary = {
            "query_id": query_id,
            "trace_id": trace_to_dict(root).get("trace_id", ""),
            "template": (
                f"{template.kind.value}({', '.join(template.positions)})"
                if template is not None
                else ""
            ),
            "strategy": getattr(stats, "strategy", ""),
            "wall_ms": round(wall_seconds * 1000.0, 3),
            "sequences_scanned": getattr(stats, "sequences_scanned", 0),
            "shard_fanout": stats.extra.get("shard_fanout", 0),
            "backend": stats.extra.get("scan_backend", "serial"),
            "sampled": sampled,
            "recorded_unix": round(time.time(), 3),
        }
        plan = getattr(stats, "plan", None)
        entry = {
            "summary": summary,
            "trace": trace_to_dict(root, stats),
            "profile": stats.extra.get("resource_profile"),
            "plan": plan.to_dict() if plan is not None else None,
        }
        with self._lock:
            entry_id = f"t{next(self._ids):06d}"
            summary["id"] = entry_id
            self._entries[entry_id] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        self.metrics.observe_recorded(root)
        return entry_id

    # ------------------------------------------------------------------
    def recent(self, limit: int = 20) -> List[dict]:
        """Newest-first summaries of the recorded traces."""
        with self._lock:
            entries = list(self._entries.values())
        return [dict(entry["summary"]) for entry in reversed(entries[-limit:])]

    def get(self, entry_id: str) -> Optional[dict]:
        """One full recorded entry by recorder id (or trace id); else None."""
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None:
                for candidate in self._entries.values():
                    if candidate["summary"].get("trace_id") == entry_id:
                        entry = candidate
                        break
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "recorded": len(self._entries),
                "capacity": self.capacity,
                "sample_per_second": self.sample_per_second,
            }

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self)}/{self.capacity} traces, "
            f"{self.sample_per_second}/s sampling)"
        )
