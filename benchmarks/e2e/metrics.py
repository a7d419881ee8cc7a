"""Metric names, units and bounds — and how each is computed.

``BENCHMARK.json`` at the repository root carries the same names (the
smoke test checks the two against each other).  The names are binding
for later issues: a change that claims a gain names the metrics here
that should move and the ones that should not.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Optional, Set

from .common import Round, percentile
from .probes import HARNESS_SPANS, Aggregate, own_seconds

#: name, unit, better, bound (relative worsening that counts as a regression)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("first_result_p50_ms", "ms", "lower", 0.20),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("cpu_ms_per_op", "ms", "lower", 0.15),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: name, unit, better — grouped by layer (layer = module name)
PER_LAYER = (
    # ql
    ("ql.parse_ms_per_op", "ms", "lower"),
    # events
    ("events.seqform_ms_per_call", "ms", "lower"),
    ("events.seqform_calls", "count", "lower"),
    ("events.seqcache_hit_ratio", "ratio", "higher"),
    # core.matcher
    ("matcher.compile_ms_per_call", "ms", "lower"),
    ("matcher.assign_ms_per_kseq", "ms", "lower"),
    ("matcher.compiled_share", "ratio", "higher"),
    # core.counter_based
    ("cb.scan_ms_per_call", "ms", "lower"),
    ("cb.calls", "count", "lower"),
    ("cb.seqs_scanned_per_op", "count", "lower"),
    # index
    ("index.build_ms_per_call", "ms", "lower"),
    ("index.build_calls", "count", "lower"),
    ("index.bytes_built_per_op", "B", "lower"),
    ("index.join_ms_per_call", "ms", "lower"),
    ("index.join_calls", "count", "lower"),
    ("index.rollup_ms_per_call", "ms", "lower"),
    ("index.refine_ms_per_call", "ms", "lower"),
    ("index.verify_ms_per_call", "ms", "lower"),
    ("index.registry_bytes_end", "B", "lower"),
    # core.inverted_index
    ("ii.query_ms_per_call", "ms", "lower"),
    ("ii.precompute_ms_per_chain", "ms", "lower"),
    ("ii.seqs_scanned_per_op", "count", "lower"),
    # cache: core.repository + optimizer.semantic_cache
    ("cache.exact_share", "ratio", "higher"),
    ("cache.derived_share", "ratio", "higher"),
    ("cache.miss_share", "ratio", "lower"),
    ("cache.plan_ms_per_call", "ms", "lower"),
    ("cache.derive_ms_per_call", "ms", "lower"),
    ("cache.usable_ratio", "ratio", "higher"),
    ("cache.get_us_per_call", "us", "lower"),
    ("cache.put_us_per_call", "us", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes_end", "B", "lower"),
    # core.engine
    ("engine.execute_ms_per_op", "ms", "lower"),
    ("engine.self_ms_per_op", "ms", "lower"),
    ("engine.cb_share", "ratio", "lower"),
    ("engine.ii_share", "ratio", "higher"),
    # service
    ("service.execute_ms_per_op", "ms", "lower"),
    ("service.overhead_ms_per_op", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.parallel_scan_calls", "count", "lower"),
    ("service.parallel_scan_ms_per_call", "ms", "lower"),
    # storage
    ("storage.write_ms", "ms", "lower"),
    ("storage.attach_ms", "ms", "lower"),
    ("storage.bytes_mapped", "B", "lower"),
    ("storage.bytes_per_event", "B", "lower"),
    ("storage.stored_groups_ms_per_call", "ms", "lower"),
    # serve
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.done_wait_ms_p50", "ms", "lower"),
    ("serve.polls_per_op", "count", "lower"),
    ("serve.page_ms_p50", "ms", "lower"),
    ("serve.pages_per_op", "count", "lower"),
    ("serve.bytes_per_op", "B", "lower"),
    ("serve.stream_first_frame_ms_p50", "ms", "lower"),
    ("serve.stream_total_ms_p50", "ms", "lower"),
    ("serve.stream_frames_per_op", "count", "lower"),
    ("serve.session_open_ms_p50", "ms", "lower"),
    ("serve.encode_ms_per_kcell", "ms", "lower"),
    ("serve.http_overhead_ms_per_op", "ms", "lower"),
    ("serve.http_errors", "count", "lower"),
    ("serve.reconnects", "count", "lower"),
    ("serve.client_cpu_ms_per_op", "ms", "lower"),
    # the benchmark itself
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.accounted_share", "ratio", "higher"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: span/tally name each metric needs; a missing probe turns it into ``null``
NEEDS = {
    "ql.parse_ms_per_op": "ql.parse",
    "events.seqform_ms_per_call": "events.seqform",
    "events.seqform_calls": "events.seqform",
    "matcher.compile_ms_per_call": "matcher.compile",
    "matcher.assign_ms_per_kseq": "matcher.assign",
    "cb.scan_ms_per_call": "cb.scan",
    "cb.calls": "cb.scan",
    "index.build_ms_per_call": "index.build",
    "index.build_calls": "index.build",
    "index.join_ms_per_call": "index.join",
    "index.join_calls": "index.join",
    "index.rollup_ms_per_call": "index.rollup",
    "index.refine_ms_per_call": "index.refine",
    "index.verify_ms_per_call": "index.verify",
    "ii.query_ms_per_call": "ii.query",
    "ii.precompute_ms_per_chain": "ii.precompute",
    "cache.plan_ms_per_call": "cache.plan",
    "cache.derive_ms_per_call": "cache.derive",
    "cache.get_us_per_call": "cache.get",
    "cache.put_us_per_call": "cache.put",
    "engine.execute_ms_per_op": "engine.execute",
    "engine.self_ms_per_op": "engine.execute",
    "service.execute_ms_per_op": "service.execute",
    "service.overhead_ms_per_op": "service.execute",
    "service.queue_wait_ms_p50": "service.execute",
    "service.parallel_scan_calls": "service.parallel_scan",
    "service.parallel_scan_ms_per_call": "service.parallel_scan",
    "storage.write_ms": "storage.write",
    "storage.attach_ms": "storage.attach",
    "storage.stored_groups_ms_per_call": "storage.stored_groups",
    "serve.encode_ms_per_kcell": "serve.encode_cells",
    "serve.http_overhead_ms_per_op": "service.execute",
}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: List[Round], setup_seconds: List[float]) -> Dict[str, float]:
    samples = [sample for round_ in rounds for sample in round_.samples]
    latencies = [sample.latency * 1000.0 for sample in samples]
    firsts = [sample.first_result * 1000.0 for sample in samples]
    # every round does the same ops, so the median round stands for all
    # of them and one disturbed round does not move the rate
    ops_per_round = len(rounds[0].samples)
    wall = statistics.median(round_.wall for round_ in rounds)
    cpu = statistics.median(round_.cpu for round_ in rounds)
    return {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p95_ms": percentile(latencies, 0.95),
        "first_result_p50_ms": percentile(firsts, 0.50),
        "ops_per_s": ops_per_round / wall,
        "cpu_ms_per_op": cpu * 1000.0 / ops_per_round,
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    traced: List[Round],
    untraced: List[Round],
    records: List[dict],
    dead: Set[str],
    extras: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric from the traced rounds of one run.

    *records* are the tracer's spans (set-up phase and timed phase),
    *dead* the span names none of whose probe targets resolved, and
    *extras* values only the workload knows (mapped bytes, events stored,
    the matcher's dispatch delta).
    """
    run = Aggregate(records, "run")
    setup = Aggregate(records, "setup")
    ops = sum(len(round_.samples) for round_ in traced) or 1
    kinds: Dict[str, int] = {}
    for round_ in traced:
        for sample in round_.samples:
            kinds[sample.kind] = kinds.get(sample.kind, 0) + 1
    stream_ops = kinds.get("stream", 0)
    paged_ops = sum(n for kind, n in kinds.items() if kind != "stream")
    exact: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    series: Dict[str, List[float]] = {}
    for round_ in traced:
        for key, value in round_.exact.items():
            exact[key] = exact.get(key, 0) + value
        for key, value in round_.raw.items():
            raw[key] = raw.get(key, 0) + value
        for key, values in round_.series.items():
            series.setdefault(key, []).extend(values)
    n_rounds = len(traced) or 1

    def p50_ms(key: str) -> float:
        return percentile(series.get(key, []), 0.5) * 1000.0

    # gap between entering service.execute and entering the engine:
    # admission plus the wait for the engine lock
    starts = {r["id"]: r["start"] for r in run.records if r["name"] == "service.execute"}
    waits = [
        (r["start"] - starts[r["parent"]]) * 1000.0
        for r in run.records
        if r["name"] == "engine.execute" and r["parent"] in starts
    ]
    client_seconds = sum(
        sample.latency for round_ in traced for sample in round_.samples
    )
    # what the harness waited for, and how much of it a wrapped layer covers
    harness_total = sum(run.total.get(name, 0.0) for name in HARNESS_SPANS)
    layer_self = sum(
        own_seconds(r) for r in run.records if r["name"] not in HARNESS_SPANS
    )
    answers = (
        exact.get("answer_exact", 0)
        + exact.get("answer_derived", 0)
        + exact.get("answer_miss", 0)
    )
    encode_seconds = run.total.get("serve.encode_cells", 0.0) + run.total.get(
        "serve.dumps", 0.0
    )
    events = extras.get("events", 0)
    traced_wall = statistics.median(r.wall for r in traced) if traced else 0.0
    untraced_wall = statistics.median(r.wall for r in untraced) if untraced else 0.0

    values: Dict[str, Optional[float]] = {
        "ql.parse_ms_per_op": run.total.get("ql.parse", 0.0) * 1000.0 / ops,
        "events.seqform_ms_per_call": run.ms_per_call("events.seqform"),
        "events.seqform_calls": run.n("events.seqform") / n_rounds,
        "events.seqcache_hit_ratio": _ratio(
            raw.get("seqcache_hits", 0),
            raw.get("seqcache_hits", 0) + raw.get("seqcache_misses", 0),
        ),
        "matcher.compile_ms_per_call": run.ms_per_call("matcher.compile"),
        "matcher.assign_ms_per_kseq": _ratio(
            run.total.get("matcher.assign", 0.0) * 1000.0,
            run.n("matcher.assign") / 1000.0,
        ),
        "matcher.compiled_share": extras.get("matcher_compiled_share"),
        "cb.scan_ms_per_call": run.ms_per_call("cb.scan"),
        "cb.calls": run.n("cb.scan") / n_rounds,
        "cb.seqs_scanned_per_op": exact.get("cb_seqs_scanned", 0) / ops,
        "index.build_ms_per_call": run.ms_per_call("index.build"),
        "index.build_calls": run.n("index.build") / n_rounds,
        "index.bytes_built_per_op": exact.get("index_bytes_built", 0) / ops,
        "index.join_ms_per_call": run.ms_per_call("index.join"),
        "index.join_calls": run.n("index.join") / n_rounds,
        "index.rollup_ms_per_call": run.ms_per_call("index.rollup"),
        "index.refine_ms_per_call": run.ms_per_call("index.refine"),
        "index.verify_ms_per_call": run.ms_per_call("index.verify"),
        "index.registry_bytes_end": raw.get("registry_bytes_end", 0) / n_rounds,
        "ii.query_ms_per_call": run.ms_per_call("ii.query"),
        "ii.precompute_ms_per_chain": _ratio(
            run.total.get("ii.precompute", 0.0) * 1000.0, raw.get("chains", 0)
        ),
        "ii.seqs_scanned_per_op": exact.get("ii_seqs_scanned", 0) / ops,
        "cache.exact_share": _ratio(exact.get("answer_exact", 0), answers),
        "cache.derived_share": _ratio(exact.get("answer_derived", 0), answers),
        "cache.miss_share": _ratio(exact.get("answer_miss", 0), answers),
        "cache.plan_ms_per_call": run.ms_per_call("cache.plan"),
        "cache.derive_ms_per_call": run.ms_per_call("cache.derive"),
        "cache.usable_ratio": _ratio(
            raw.get("sem_derivations", 0),
            raw.get("sem_derivations", 0) + raw.get("sem_rejects", 0),
        ),
        "cache.get_us_per_call": run.ms_per_call("cache.get") * 1000.0,
        "cache.put_us_per_call": run.ms_per_call("cache.put") * 1000.0,
        "cache.evictions": raw.get("repo_evictions", 0) / n_rounds,
        "cache.bytes_end": raw.get("repo_bytes_end", 0) / n_rounds,
        "engine.execute_ms_per_op": run.total.get("engine.execute", 0.0) * 1000.0 / ops,
        "engine.self_ms_per_op": run.self_time.get("engine.execute", 0.0) * 1000.0 / ops,
        "engine.cb_share": _ratio(exact.get("cb_ops", 0), ops),
        "engine.ii_share": _ratio(exact.get("ii_ops", 0), ops),
        "service.execute_ms_per_op": run.total.get("service.execute", 0.0) * 1000.0 / ops,
        "service.overhead_ms_per_op": run.self_time.get("service.execute", 0.0) * 1000.0 / ops,
        "service.queue_wait_ms_p50": percentile(waits, 0.5),
        "service.rejected": raw.get("service_rejected", 0) / n_rounds,
        "service.parallel_scan_calls": (
            run.n("service.parallel_scan") + setup.n("service.parallel_scan")
        ),
        "service.parallel_scan_ms_per_call": _ratio(
            (
                run.total.get("service.parallel_scan", 0.0)
                + setup.total.get("service.parallel_scan", 0.0)
            )
            * 1000.0,
            run.n("service.parallel_scan") + setup.n("service.parallel_scan"),
        ),
        "storage.write_ms": setup.ms_per_call("storage.write", self_time=False),
        "storage.attach_ms": setup.ms_per_call("storage.attach", self_time=False),
        "storage.bytes_mapped": extras.get("storage_bytes", 0),
        "storage.bytes_per_event": _ratio(extras.get("storage_bytes", 0), events),
        "storage.stored_groups_ms_per_call": _ratio(
            (
                run.total.get("storage.stored_groups", 0.0)
                + setup.total.get("storage.stored_groups", 0.0)
            )
            * 1000.0,
            run.n("storage.stored_groups") + setup.n("storage.stored_groups"),
        ),
        "serve.submit_ms_p50": p50_ms("submit"),
        "serve.done_wait_ms_p50": p50_ms("done_wait"),
        "serve.polls_per_op": _ratio(raw.get("polls", 0), paged_ops),
        "serve.page_ms_p50": p50_ms("page"),
        "serve.pages_per_op": _ratio(raw.get("pages", 0), paged_ops),
        "serve.bytes_per_op": raw.get("bytes_in", 0) / ops,
        "serve.stream_first_frame_ms_p50": p50_ms("stream_first"),
        "serve.stream_total_ms_p50": p50_ms("stream_total"),
        "serve.stream_frames_per_op": _ratio(raw.get("stream_frames", 0), stream_ops),
        "serve.session_open_ms_p50": p50_ms("session_open"),
        "serve.encode_ms_per_kcell": _ratio(
            encode_seconds * 1000.0, raw.get("cells_delivered", 0) / 1000.0
        ),
        "serve.http_overhead_ms_per_op": (
            (
                client_seconds
                - run.total.get("service.execute", 0.0)
                - run.total.get("service.stream", 0.0)
            )
            * 1000.0
            / ops
            if run.n("serve.dispatch")
            else 0.0
        ),
        "serve.http_errors": raw.get("http_errors", 0) / n_rounds,
        "serve.reconnects": raw.get("reconnects", 0) / n_rounds,
        "serve.client_cpu_ms_per_op": raw.get("client_cpu", 0.0) * 1000.0 / ops,
        "bench.trace_overhead_ratio": _ratio(traced_wall, untraced_wall),
        "bench.accounted_share": _ratio(layer_self, harness_total),
    }
    for name, needed in NEEDS.items():
        if needed in dead:
            values[name] = None
    return values
