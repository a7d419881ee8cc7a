"""Observability: tracing, EXPLAIN ANALYZE, metrics and logs.

The package has two per-query layers and three fleet-level ones:

* :mod:`repro.obs.spans` — context-var based tracing.  Instrumented code
  calls :func:`span` at stage boundaries; when no :class:`Tracer` is
  active the call returns a shared no-op and costs one context-var read.
  Activating a tracer (``with Tracer("query") as t: ...``) collects a
  tree of timed :class:`Span` records, exportable as JSON.
* :mod:`repro.obs.analyze` — turns a finished trace plus the query's
  :class:`~repro.core.stats.QueryStats` into an annotated
  :class:`~repro.core.explain.QueryPlan` (per-stage wall time, rows and
  sequences in/out, cache hits, strategy chosen vs cost-model
  prediction): the EXPLAIN ANALYZE output of
  ``engine.execute(spec, analyze=True)`` and ``solap query --analyze``.
* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labelled counters, gauges and fixed-bucket histograms with Prometheus
  text exposition; :func:`register_engine_metrics` exposes an engine's
  caches through pull-based callback instruments.
* :mod:`repro.obs.logging` — structured JSON logging of query-lifecycle
  events (stdlib :mod:`logging` underneath) with slow-query capture that
  embeds the EXPLAIN ANALYZE plan.
* :mod:`repro.obs.profile` / :mod:`repro.obs.recorder` — per-query
  resource profiles aggregated from worker span trees, and the bounded
  ring buffer of recent completed query traces behind ``solap trace``.
"""

from repro.obs.logging import JsonLineFormatter, QueryLogger, configure_logging
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    GLOBAL_REGISTRY,
    BucketHistogram,
    MetricsRegistry,
    register_engine_metrics,
)
from repro.obs.profile import ResourceProfile, WorkerProfile
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    RemoteSpanCollector,
    Span,
    SpanContext,
    Tracer,
    current_context,
    current_span,
    graft_payload,
    span,
    trace_from_dict,
    trace_to_dict,
    trace_to_json,
    tracing_active,
)


def __getattr__(name: str):
    # ``analyze`` depends on repro.core, which itself imports the span
    # primitives above — importing it lazily keeps the package free of
    # circular imports while ``repro.obs.explain_analyze`` still works.
    if name in ("explain_analyze", "stage_timings"):
        from repro.obs import analyze

        return getattr(analyze, name)
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")

__all__ = [
    "BucketHistogram",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "GLOBAL_REGISTRY",
    "JsonLineFormatter",
    "MetricsRegistry",
    "NULL_SPAN",
    "QueryLogger",
    "RemoteSpanCollector",
    "ResourceProfile",
    "Span",
    "SpanContext",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "WorkerProfile",
    "configure_logging",
    "current_context",
    "current_span",
    "explain_analyze",
    "graft_payload",
    "register_engine_metrics",
    "span",
    "stage_timings",
    "trace_from_dict",
    "trace_to_dict",
    "trace_to_json",
    "tracing_active",
]
