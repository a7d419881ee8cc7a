"""Process-wide metrics: a typed registry with Prometheus exposition.

Complements the per-query layers of :mod:`repro.obs` (spans trace ONE
query, EXPLAIN ANALYZE annotates ONE plan) with *fleet-level* telemetry:
monotone counters, point-in-time gauges and fixed-bucket latency
histograms that describe every query the process has answered.  The
paper's evaluation reasons about aggregate behaviour over query streams
(CB-vs-II crossover, cache reuse across a session); a registry makes
those aggregates continuously observable in production.

Design rules:

* **Cheap on the hot path.**  Incrementing a counter is one lock-guarded
  integer add; nothing here does per-event-row work.  Expensive state
  (cache entry counts, index bytes) is *pulled* at scrape time through
  callback instruments instead of being pushed on every mutation.
* **Prometheus-compatible.**  :meth:`MetricsRegistry.render_prometheus`
  emits the text exposition format (``# HELP`` / ``# TYPE`` headers,
  labelled samples, cumulative ``_bucket``/``_sum``/``_count`` triples
  for histograms) so any scraper can consume ``/metrics`` directly.
* **No third-party client.**  Everything is stdlib.

Typical use::

    registry = MetricsRegistry()
    queries = registry.counter(
        "solap_engine_queries_total", "Queries answered", labels=("strategy",)
    )
    queries.labels("cb").inc()

    latency = registry.histogram(
        "solap_service_query_latency_seconds", "Query wall time"
    )
    latency.observe(0.0123)

    print(registry.render_prometheus())
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: default histogram bucket upper bounds in seconds (log-ish spacing,
#: +inf last)
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf"),
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[str, ...]


class BucketHistogram:
    """Fixed-bucket histogram of durations in seconds.

    The one implementation behind the registry's histogram instruments
    and the service's latency summaries.
    """

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS):
        if not buckets or buckets[-1] != float("inf"):
            raise ValueError("last histogram bucket must be +inf")
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.buckets = tuple(buckets)
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0
        self.max_observed = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect_left(self.buckets, seconds)
        self.counts[min(index, len(self.buckets) - 1)] += 1
        self.total += seconds
        self.count += 1
        if seconds > self.max_observed:
            self.max_observed = seconds

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile: the upper bound of the bucket holding it.

        The +inf bucket reports the maximum ever observed instead, so p99
        stays finite and meaningful.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            if cumulative >= target:
                return self.max_observed if bound == float("inf") else bound
        return self.max_observed

    def merge(self, other: "BucketHistogram") -> None:
        """Fold *other* into this histogram (bucket-wise sum).

        Lets per-session or per-worker histograms aggregate into a
        registry-level one.  Both histograms must share the exact bucket
        layout — summing mismatched buckets would silently misreport
        latencies.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.count += other.count
        if other.max_observed > self.max_observed:
            self.max_observed = other.max_observed

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_seconds": self.mean(),
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
            "max_seconds": self.max_observed,
        }

    def __repr__(self) -> str:
        return (
            f"BucketHistogram(n={self.count}, "
            f"mean={self.mean() * 1000:.2f}ms, "
            f"max={self.max_observed * 1000:.2f}ms)"
        )


class Counter:
    """A monotone counter child (one label combination of a family).

    With a *callback* the value is pulled at collect time instead of
    being pushed by ``inc`` — used to expose counters an object already
    keeps (cache hits, eviction totals) without double bookkeeping.
    """

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def inc(self, amount: float = 1.0) -> None:
        if self._callback is not None:
            raise ValueError("cannot inc() a callback-backed counter")
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value child; may be callback-backed."""

    __slots__ = ("_lock", "_value", "_callback")

    def __init__(self, callback: Optional[Callable[[], float]] = None):
        self._lock = threading.Lock()
        self._value = 0.0
        self._callback = callback

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._callback = None

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, callback: Callable[[], float]) -> None:
        """Pull the gauge's value from *callback* at collect time."""
        with self._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        with self._lock:
            return self._value


class Histogram:
    """A histogram child: a locked wrapper over :class:`BucketHistogram`."""

    __slots__ = ("_lock", "hist")

    def __init__(self, buckets: Tuple[float, ...]):
        self._lock = threading.Lock()
        self.hist = BucketHistogram(buckets)

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.hist.observe(seconds)

    def merge(self, other: BucketHistogram) -> None:
        with self._lock:
            self.hist.merge(other)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return self.hist.snapshot()


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label set and typed children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        label_names: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind: {kind!r}")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, object] = {}
        if not self.label_names:
            # Unlabelled families have exactly one child, created eagerly
            # so the metric appears in scrapes before its first use.
            self._children[()] = self._new_child()

    def _new_child(self, callback: Optional[Callable[[], float]] = None):
        if self.kind == "histogram":
            if callback is not None:
                raise ValueError("histograms cannot be callback-backed")
            return Histogram(self.buckets)
        return _CHILD_TYPES[self.kind](callback)

    def labels(self, *values: object, **kwvalues: object):
        """The child for one label-value combination (created on demand)."""
        if kwvalues:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            try:
                values = tuple(kwvalues[name] for name in self.label_names)
            except KeyError as missing:
                raise ValueError(
                    f"missing label {missing} for metric {self.name!r}"
                ) from None
            if len(kwvalues) != len(self.label_names):
                raise ValueError(
                    f"unexpected labels for metric {self.name!r}: "
                    f"{sorted(set(kwvalues) - set(self.label_names))}"
                )
        if len(values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label(s) {self.label_names}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def attach_callback(
        self, callback: Callable[[], float], *values: object
    ):
        """Register a callback-backed child for one label combination."""
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.label_names)} "
                f"label(s), got {len(key)}"
            )
        with self._lock:
            child = self._new_child(callback)
            self._children[key] = child
            return child

    # -- convenience for unlabelled families ---------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_function(self, callback: Callable[[], float]) -> None:
        self.labels().set_function(callback)

    def observe(self, seconds: float) -> None:
        self.labels().observe(seconds)

    @property
    def value(self) -> float:
        return self.labels().value

    def children(self) -> List[Tuple[LabelValues, object]]:
        """Stable (label values, child) pairs for collection."""
        with self._lock:
            return sorted(self._children.items(), key=lambda item: item[0])

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.name!r}, {self.kind}, "
            f"labels={self.label_names}, {len(self._children)} series)"
        )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Thread-safe collection of metric families with text exposition.

    Registration is idempotent: asking for an existing name with the same
    kind and label set returns the existing family (so several components
    can share one registry without coordination); a mismatch raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ---------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}; "
                        f"cannot re-register as {kind} with labels {labels}"
                    )
                return family
            family = MetricFamily(name, kind, help_text, labels, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help_text, labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, "histogram", help_text, labels, buckets)

    def unregister(self, name: str) -> bool:
        with self._lock:
            return self._families.pop(name, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    # -- exposition -----------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, child in family.children():
                if family.kind == "histogram":
                    lines.extend(
                        self._histogram_lines(family, label_values, child)
                    )
                else:
                    labels = _format_labels(family.label_names, label_values)
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _histogram_lines(
        family: MetricFamily, label_values: LabelValues, child: Histogram
    ) -> List[str]:
        hist = child.hist
        lines: List[str] = []
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.counts):
            cumulative += count
            labels = _format_labels(
                tuple(family.label_names) + ("le",),
                tuple(label_values) + (_format_value(bound),),
            )
            lines.append(f"{family.name}_bucket{labels} {cumulative}")
        labels = _format_labels(family.label_names, label_values)
        lines.append(f"{family.name}_sum{labels} {_format_value(hist.total)}")
        lines.append(f"{family.name}_count{labels} {hist.count}")
        return lines

    def snapshot(self) -> dict:
        """JSON-serialisable dump of every series (the ``/varz`` payload)."""
        out: dict = {}
        for family in self.families():
            series: dict = {}
            for label_values, child in family.children():
                key = (
                    ",".join(
                        f"{name}={value}"
                        for name, value in zip(family.label_names, label_values)
                    )
                    or ""
                )
                if family.kind == "histogram":
                    series[key] = child.snapshot()
                else:
                    series[key] = child.value
            out[family.name] = {"type": family.kind, "series": series}
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} families)"


#: the process-wide default registry (components may opt into sharing it;
#: QueryService creates a private one per instance by default so tests
#: and multi-service processes never collide)
GLOBAL_REGISTRY = MetricsRegistry()


def register_engine_metrics(registry: MetricsRegistry, engine) -> None:
    """Expose an engine's caches and counters on *registry* (pull-based).

    Everything here reads state the engine already maintains — cache
    hit/miss/eviction counts, entry counts, index bytes, per-strategy
    query totals — through callbacks evaluated at scrape time, so query
    execution pays nothing for being observable.
    """
    queries = registry.counter(
        "solap_engine_queries_total",
        "Queries answered by the engine, by construction strategy",
        labels=("strategy",),
    )
    for strategy in ("cb", "ii", "cache", "derived"):
        queries.attach_callback(
            lambda s=strategy: engine.strategy_counts.get(s, 0), strategy
        )
    registry.counter(
        "solap_engine_sequences_scanned_total",
        "Total sequence accesses across all queries",
    ).attach_callback(lambda: engine.sequences_scanned_total)

    from repro.optimizer.semantic_cache import REJECT_LABELS, SEMANTIC_OPS

    semantic_hits = registry.counter(
        "solap_cuboid_semantic_hits_total",
        "Queries answered by deriving from a cached cuboid, by ops in the "
        "derivation chain",
        labels=("op",),
    )
    semantic_derivations = registry.counter(
        "solap_cuboid_semantic_derivations_total",
        "Derivation steps executed on cached cells, by op",
        labels=("op",),
    )
    for op in SEMANTIC_OPS:
        semantic_hits.attach_callback(
            lambda o=op: engine.semantic_hits.get(o, 0), op
        )
        semantic_derivations.attach_callback(
            lambda o=op: engine.semantic_derivations.get(o, 0), op
        )
    semantic_rejects = registry.counter(
        "solap_cuboid_semantic_rejects_total",
        "Cached cuboids found unusable for an incoming query, by the op "
        "(or gate) separating them",
        labels=("op",),
    )
    for op in REJECT_LABELS:
        semantic_rejects.attach_callback(
            lambda o=op: engine.semantic_rejects.get(o, 0), op
        )

    from repro.core.matcher import KERNELS, matcher_kernel_counts

    kernels = registry.counter(
        "solap_matcher_kernel_total",
        "Matchers built, by the enumeration kernel they compiled to; "
        "process-local — worker processes keep their own counts",
        labels=("kernel",),
    )
    for kernel in KERNELS:
        kernels.attach_callback(lambda k=kernel.name: matcher_kernel_counts()[k], kernel.name)
    registry.counter(
        "solap_engine_rows_aggregated_total",
        "Total result cells aggregated across all queries",
    ).attach_callback(lambda: engine.rows_aggregated_total)

    cache = engine.sequence_cache
    registry.gauge(
        "solap_sequence_cache_entries",
        "Sequence-cache entries currently resident",
    ).set_function(lambda: len(cache))
    lookups = registry.counter(
        "solap_sequence_cache_lookups_total",
        "Sequence-cache lookups by outcome",
        labels=("outcome",),
    )
    lookups.attach_callback(lambda: cache.hits, "hit")
    lookups.attach_callback(lambda: cache.misses, "miss")
    registry.counter(
        "solap_sequence_cache_evictions_total",
        "Sequence-cache entries evicted by the LRU policy",
    ).attach_callback(lambda: cache.evictions)

    repo = engine.repository
    registry.gauge(
        "solap_cuboid_repository_entries",
        "Cuboids currently cached in the repository",
    ).set_function(lambda: len(repo))
    registry.gauge(
        "solap_cuboid_repository_bytes",
        "Estimated bytes of cached cuboids",
    ).set_function(lambda: repo.bytes_used)
    repo_lookups = registry.counter(
        "solap_cuboid_repository_lookups_total",
        "Cuboid-repository lookups by outcome",
        labels=("outcome",),
    )
    repo_lookups.attach_callback(lambda: repo.hits, "hit")
    repo_lookups.attach_callback(lambda: repo.misses, "miss")
    registry.counter(
        "solap_cuboid_repository_evictions_total",
        "Cuboids evicted from the repository",
    ).attach_callback(lambda: repo.evictions)

    registry.gauge(
        "solap_index_registry_indices",
        "Materialised inverted indices currently registered",
    ).set_function(lambda: len(engine.registry))
    registry.gauge(
        "solap_index_registry_pipelines",
        "Sequence-formation pipelines with at least one index",
    ).set_function(lambda: len(engine._registries))
    registry.gauge(
        "solap_index_registry_bytes",
        "Estimated bytes of materialised inverted indices",
    ).set_function(lambda: engine.registry.total_bytes())
    registry.counter(
        "solap_index_registry_evictions_total",
        "Indices evicted to fit the index byte budget",
    ).attach_callback(lambda: engine.index_evictions_total)
