"""Service observability, backed by the shared metrics registry.

A thin façade over :class:`repro.obs.metrics.MetricsRegistry` that owns
the service's instrument names and the ``solap service-stats`` text
report, so the same state is scrapeable from ``GET /metrics`` on
``solap serve`` (see :mod:`repro.serve.app`) with no double bookkeeping.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import BucketHistogram, MetricsRegistry


#: the counters every service exports (created eagerly so snapshots are
#: stable even before the first request)
COUNTER_NAMES: Tuple[str, ...] = (
    "requests_total",
    "queries_ok",
    "queries_failed",
    "deadline_exceeded_total",
    "overload_rejected_total",
    "cancelled_total",
    "streams_total",
    "stream_chunks_total",
    "sessions_opened",
    "sessions_closed",
    "sessions_evicted",
    "session_pipelines_dropped",
    "indices_evicted",
    "index_bytes_evicted",
    "strategy_cb",
    "strategy_ii",
    "strategy_cache",
    "strategy_derived",
)

_STRATEGY_PREFIX = "strategy_"


def _prometheus_name(counter_name: str) -> str:
    """Map a short service counter name onto a Prometheus metric name."""
    base = counter_name
    if not base.endswith("_total"):
        base += "_total"
    return f"solap_service_{base}"


class ServiceMetrics:
    """Thread-safe counter/histogram façade for one service instance.

    All state lives in instruments registered on ``self.registry`` (a
    private :class:`MetricsRegistry` unless one is passed in), so the
    service, the ``/metrics`` endpoint and ``solap service-stats`` all
    read the same numbers.  The short counter names of
    :data:`COUNTER_NAMES` remain the lookup API (``metrics["queries_ok"]``);
    ``strategy_*`` counters become one labelled family
    (``solap_service_queries_by_strategy_total{strategy="cb"}``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._counters: Dict[str, object] = {}
        self._strategy_family = self.registry.counter(
            "solap_service_queries_by_strategy_total",
            "Queries answered through the service, by construction strategy",
            labels=("strategy",),
        )
        for name in COUNTER_NAMES:
            self._counter_child(name)
        self._latency = self.registry.histogram(
            "solap_service_query_latency_seconds",
            "End-to-end query wall time inside the service",
        ).labels()
        self._queue_wait = self.registry.histogram(
            "solap_service_admission_wait_seconds",
            "Time requests spent waiting for an execution slot",
        ).labels()
        self._worker_init = self.registry.histogram(
            "solap_service_worker_init_seconds",
            "Per-worker readiness time of the scan backend's warm-up "
            "(for spawn workers this includes the database ship cost: "
            "whole-DB pickle, or O(1) mmap attach for segment stores)",
        ).labels()
        self._scan_backends = self.registry.counter(
            "solap_service_scans_by_backend_total",
            "Counter-based scans answered through the service, by "
            "execution backend (serial covers declined/unsharded scans)",
            labels=("backend",),
        )
        self._stage_runs = self.registry.counter(
            "solap_service_stage_runs_total",
            "Traced pipeline-stage executions",
            labels=("stage",),
        )
        self._stage_seconds = self.registry.counter(
            "solap_service_stage_seconds_total",
            "Traced pipeline-stage wall time in seconds",
            labels=("stage",),
        )

    # ------------------------------------------------------------------
    def _counter_child(self, name: str):
        """The instrument behind one short counter name (created lazily)."""
        with self._lock:
            child = self._counters.get(name)
            if child is None:
                if name.startswith(_STRATEGY_PREFIX):
                    child = self._strategy_family.labels(
                        name[len(_STRATEGY_PREFIX):]
                    )
                else:
                    child = self.registry.counter(
                        _prometheus_name(name),
                        f"Service counter {name}",
                    ).labels()
                self._counters[name] = child
            return child

    @property
    def latency(self) -> BucketHistogram:
        return self._latency.hist

    @property
    def queue_wait(self) -> BucketHistogram:
        return self._queue_wait.hist

    @property
    def worker_init(self) -> BucketHistogram:
        return self._worker_init.hist

    def inc(self, name: str, amount: int = 1) -> None:
        self._counter_child(name).inc(amount)

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def observe_queue_wait(self, seconds: float) -> None:
        self._queue_wait.observe(seconds)

    def observe_worker_init(self, seconds: float) -> None:
        """Record one worker's warm-up readiness time."""
        self._worker_init.observe(seconds)

    def observe_stage(self, name: str, seconds: float) -> None:
        """Accumulate one pipeline-stage duration (from a tracing span)."""
        self._stage_runs.labels(name).inc()
        self._stage_seconds.labels(name).inc(seconds)

    def count_scan_backend(self, backend: str) -> None:
        """Bump the per-backend scan counter for one CB-answered query."""
        self._scan_backends.labels(backend or "serial").inc()

    def scan_backend_counts(self) -> Dict[str, int]:
        """Scans by execution backend (empty until the first CB query)."""
        return {
            labels[0]: int(child.value)
            for labels, child in self._scan_backends.children()
        }

    def count_strategy(self, strategy: str) -> None:
        """Bump the per-strategy counter from a QueryStats.strategy label."""
        label = (strategy or "").lower()
        if label in ("cb", "ii", "cache", "derived"):
            self.inc(f"strategy_{label}")

    def __getitem__(self, name: str) -> int:
        with self._lock:
            child = self._counters.get(name)
        return int(child.value) if child is not None else 0

    def _stage_snapshot(self) -> Dict[str, dict]:
        seconds_by_stage = {
            labels[0]: child.value
            for labels, child in self._stage_seconds.children()
        }
        out: Dict[str, dict] = {}
        for labels, child in self._stage_runs.children():
            stage = labels[0]
            count = int(child.value)
            total = seconds_by_stage.get(stage, 0.0)
            out[stage] = {
                "count": count,
                "total_seconds": total,
                "mean_seconds": total / count if count else 0.0,
            }
        return out

    def snapshot(self, engine_stats: Optional[dict] = None) -> dict:
        """All counters plus latency summaries (and engine cache state)."""
        with self._lock:
            names = list(self._counters)
        out: dict = {
            "counters": {name: self[name] for name in sorted(names)},
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "worker_init": self.worker_init.snapshot(),
            "stages": self._stage_snapshot(),
            "scan_backends": self.scan_backend_counts(),
        }
        if engine_stats is not None:
            out["engine"] = engine_stats
        return out

    def render(self, engine_stats: Optional[dict] = None) -> str:
        """Human-readable report (the ``solap service-stats`` payload)."""
        snap = self.snapshot(engine_stats)
        lines: List[str] = ["service metrics", "==============="]
        counters = snap["counters"]
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
        lat = snap["latency"]
        lines.append(
            "  latency: "
            f"n={lat['count']}, mean={lat['mean_seconds'] * 1000:.2f}ms, "
            f"p50={lat['p50_seconds'] * 1000:.2f}ms, "
            f"p95={lat['p95_seconds'] * 1000:.2f}ms, "
            f"p99={lat['p99_seconds'] * 1000:.2f}ms, "
            f"max={lat['max_seconds'] * 1000:.2f}ms"
        )
        init = snap.get("worker_init") or {}
        if init.get("count"):
            lines.append(
                "  worker init: "
                f"n={init['count']}, mean={init['mean_seconds'] * 1000:.2f}ms, "
                f"max={init['max_seconds'] * 1000:.2f}ms"
            )
        backends = snap.get("scan_backends") or {}
        if backends:
            mix = ", ".join(
                f"{name}={count}" for name, count in sorted(backends.items())
            )
            lines.append(f"  scans by backend: {mix}")
        stages = snap.get("stages") or {}
        if stages:
            lines.append("  stage timings (traced queries):")
            for name, entry in stages.items():
                lines.append(
                    f"    {name}: n={entry['count']}, "
                    f"mean={entry['mean_seconds'] * 1000:.2f}ms, "
                    f"total={entry['total_seconds'] * 1000:.2f}ms"
                )
        engine = snap.get("engine")
        if engine:
            seq = engine["sequence_cache"]
            repo = engine["repository"]
            reg = engine["index_registry"]
            lines.append(
                "  sequence cache: "
                f"{seq['entries']}/{seq['capacity']} entries, "
                f"hits={seq['hits']}, misses={seq['misses']}, "
                f"evictions={seq.get('evictions', 0)}, "
                f"hit-ratio={seq['hit_ratio']:.2f}"
            )
            repo_total = repo["hits"] + repo["misses"]
            repo_ratio = repo["hits"] / repo_total if repo_total else 0.0
            lines.append(
                "  cuboid repository: "
                f"{repo['entries']}/{repo['capacity']} cuboids, "
                f"{repo['bytes'] / 1e6:.3f} MB, "
                f"hits={repo['hits']}, misses={repo['misses']}, "
                f"evictions={repo.get('evictions', 0)}, "
                f"hit-ratio={repo_ratio:.2f}"
            )
            sem = engine.get("semantic_cache")
            if sem:
                lines.append(
                    "  semantic cache: "
                    f"hits={sem.get('hits_total', 0)}, "
                    f"derivations={sem.get('derivations_total', 0)}, "
                    f"rejects={sem.get('rejects_total', 0)}"
                )
            lines.append(
                "  index registries: "
                f"{reg['indices']} indices over {reg['pipelines']} "
                f"pipeline(s), {reg['bytes'] / 1e6:.3f} MB, "
                f"evictions={reg.get('evictions', 0)}"
            )
        return "\n".join(lines)
