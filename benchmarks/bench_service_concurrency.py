"""Service concurrency — QuerySet A at 1 / 4 / 16 concurrent sessions.

Measures end-to-end throughput (queries/second) and per-query latency of
the :class:`~repro.service.QueryService` serving N concurrent session
clients, against the baseline of N independent bare engines run back to
back.  Every client walks the same QuerySet A slice + APPEND chain, which
is the paper's iterative-exploration shape: under the service the clients
share one engine — sequence cache, cuboid repository, and index
registries — so all but the first execution of each chain step is served
from shared state, while the bare baseline pays the full scan cost once
per client.

Shape claims:

* the service completes N>1 identical sessions with *fewer* total
  sequence scans than N bare engines (shared caching);
* at 4 concurrent sessions service throughput is at least 2x the bare
  baseline (the ISSUE acceptance bar);
* p50 latency stays bounded: the histogram records every query and the
  cache-hit tail is far faster than the cold head.

The module doubles as the CI smoke benchmark, so the dataset is small
(D=800) and the chain short; scale ``SERVICE_BENCH_D`` up for real
measurements.  Queries run sharded (``shards=2``) on the execution
backend named by ``SOLAP_SERVICE_BACKEND`` (serial / thread / process;
default thread), which is how the CI matrix exercises both pool kinds.

Run as a script for the backend comparison table::

    PYTHONPATH=src python benchmarks/bench_service_concurrency.py \
        --backend all --workers 4

which times the same pinned-seed scan-bound workload under every backend
(one shard per worker) and prints per-query times and speedups over the
serial kernel.  Process-backend speedup needs real cores: on a
single-CPU host the table still verifies bit-identical results, it just
cannot show a win.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.bench.workloads import _CHAIN_SYMBOLS
from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.datagen import SyntheticConfig, generate_event_database
from repro.datagen.synthetic import base_spec
from repro.service import QueryService, ServiceConfig

#: sequences in the benchmark dataset (paper scale: 100k-1M)
SERVICE_BENCH_D = 800
#: length of each client's QuerySet A chain
CHAIN_LENGTH = 4
#: session counts measured (the ISSUE's 1 / 4 / 16 series)
SESSION_SERIES = (1, 4, 16)


@pytest.fixture(scope="module")
def service_db():
    return generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=SERVICE_BENCH_D)
    )


@pytest.fixture(scope="module")
def chain_specs(service_db):
    """The QuerySet A spec chain, derived once so every client runs the
    exact same queries (bare and service runs stay comparable)."""
    engine = SOLAPEngine(service_db, use_repository=False)
    spec = base_spec(("X", "Y"))
    specs = [spec]
    for index in range(CHAIN_LENGTH - 1):
        cuboid, __ = engine.execute(spec, "cb")
        top = cuboid.argmax()
        if top is None:
            break
        __, cell_key, __unused = top
        for symbol, value in zip(spec.template.symbols, cell_key):
            spec = ops.slice_pattern(spec, symbol.name, value)
        spec = ops.append(spec, _CHAIN_SYMBOLS[index], "symbol", "symbol")
        specs.append(spec)
    return specs


def run_bare(db, specs, n_sessions):
    """N clients on N independent engines, back to back (no sharing)."""
    scanned = 0
    for __ in range(n_sessions):
        engine = SOLAPEngine(db)  # fresh caches per client
        for spec in specs:
            __, stats = engine.execute(spec, "cb")
            scanned += stats.sequences_scanned
    return scanned


def run_service(db, specs, n_sessions, backend=None):
    """N client threads against one shared QueryService."""
    config = ServiceConfig(
        max_workers=2,
        shards=2,
        max_concurrent=min(n_sessions, 4),
        queue_depth=max(n_sessions, 16),
        executor_backend=backend
        or os.environ.get("SOLAP_SERVICE_BACKEND", "thread"),
    )
    service = QueryService(db, config)

    def client():
        for spec in specs:
            service.execute(spec, "cb")

    try:
        threads = [
            threading.Thread(target=client) for __ in range(n_sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = service.snapshot()
    finally:
        service.shutdown()
    return snapshot


@pytest.mark.parametrize("n_sessions", SESSION_SERIES)
def test_bare_baseline(benchmark, service_db, chain_specs, n_sessions):
    scanned = benchmark.pedantic(
        run_bare,
        args=(service_db, chain_specs, n_sessions),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["sequences_scanned"] = scanned
    benchmark.extra_info["queries"] = n_sessions * len(chain_specs)


@pytest.mark.parametrize("n_sessions", SESSION_SERIES)
def test_service_sessions(benchmark, service_db, chain_specs, n_sessions):
    snapshot = benchmark.pedantic(
        run_service,
        args=(service_db, chain_specs, n_sessions),
        rounds=1,
        iterations=1,
    )
    counters = snapshot["counters"]
    assert counters["queries_ok"] == n_sessions * len(chain_specs)
    assert counters["queries_failed"] == 0
    assert counters["overload_rejected_total"] == 0
    benchmark.extra_info["queries"] = counters["queries_ok"]
    benchmark.extra_info["p50_ms"] = snapshot["latency"]["p50_seconds"] * 1e3
    benchmark.extra_info["p99_ms"] = snapshot["latency"]["p99_seconds"] * 1e3
    benchmark.extra_info["cache_hits"] = counters["strategy_cache"]


def test_service_throughput_vs_bare(service_db, chain_specs, capsys):
    """The ISSUE acceptance bar: >= 2x throughput at 4 concurrent sessions."""
    import time

    n_sessions = 4
    n_queries = n_sessions * len(chain_specs)

    start = time.perf_counter()
    bare_scanned = run_bare(service_db, chain_specs, n_sessions)
    bare_seconds = time.perf_counter() - start

    # The 2x bar measures shared caching, so pin the thread backend: on a
    # single-CPU host the process pool's IPC overhead (not a caching
    # property) would eat into the margin.
    start = time.perf_counter()
    snapshot = run_service(service_db, chain_specs, n_sessions, backend="thread")
    service_seconds = time.perf_counter() - start

    bare_qps = n_queries / bare_seconds
    service_qps = n_queries / service_seconds
    repo = snapshot["engine"]["repository"]
    repo_total = repo["hits"] + repo["misses"]
    repo_ratio = repo["hits"] / repo_total if repo_total else 0.0
    with capsys.disabled():
        print(
            f"\nservice concurrency (D={SERVICE_BENCH_D}, "
            f"{n_sessions} sessions x {len(chain_specs)} queries):\n"
            f"  bare    {bare_qps:8.1f} q/s  ({bare_seconds * 1e3:.0f} ms, "
            f"{bare_scanned} sequences scanned)\n"
            f"  service {service_qps:8.1f} q/s  ({service_seconds * 1e3:.0f} ms, "
            f"repository hit-ratio {repo_ratio:.2f})\n"
        )

    # Clients 2..N are served from the shared cuboid repository.
    assert snapshot["counters"]["strategy_cache"] >= (
        (n_sessions - 1) * len(chain_specs)
    )
    assert service_qps >= 2.0 * bare_qps


def test_backends_agree(service_db, chain_specs):
    """Thread and process scans return the serial engine's exact cells."""
    spec = chain_specs[0]
    expected, __ = SOLAPEngine(service_db, use_repository=False).execute(
        spec, "cb"
    )
    for backend in ("thread", "process"):
        config = ServiceConfig(
            max_workers=2, shards=2, executor_backend=backend
        )
        service = QueryService(
            SOLAPEngine(service_db, use_repository=False), config
        )
        try:
            cuboid, stats = service.execute(spec, "cb")
        finally:
            service.close()
        assert cuboid.cells == expected.cells, backend
        assert stats.extra.get("scan_backend") == backend


# ---------------------------------------------------------------------------
# Script mode: the backend comparison table
# ---------------------------------------------------------------------------

def _bench_one_backend(db, spec, backend, workers, repeat):
    """Per-query seconds (and the result) for one backend configuration."""
    import time

    config = ServiceConfig(
        max_workers=workers,
        # the baseline row is the serial kernel itself (fan-out 1)
        shards=0 if backend == "serial" else workers,
        executor_backend=backend,
    )
    # use_repository=False keeps every repeat scan-bound (no cuboid cache)
    service = QueryService(SOLAPEngine(db, use_repository=False), config)
    try:
        service.execute(spec, "cb")  # warm: sequence formation + pools
        start = time.perf_counter()
        for __ in range(repeat):
            cuboid, stats = service.execute(spec, "cb")
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    return elapsed / repeat, cuboid, stats


def main(argv=None):
    """Compare scan backends on a pinned-seed scan-bound workload."""
    import argparse

    parser = argparse.ArgumentParser(
        description="shard-task backend comparison"
    )
    parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process", "all"),
        default="all",
        help="backend(s) to time (serial always runs as the baseline)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--sequences", type=int, default=SERVICE_BENCH_D,
        help="synthetic dataset size D (pinned seed)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timed scans per backend"
    )
    args = parser.parse_args(argv)

    db = generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=args.sequences, seed=42)
    )
    spec = base_spec(("X", "Y"))
    if args.backend == "all":
        backends = ["serial", "thread", "process"]
    elif args.backend == "serial":
        backends = ["serial"]
    else:
        backends = ["serial", args.backend]

    print(
        f"backend comparison: D={args.sequences}, seed=42, "
        f"workers={args.workers}, repeat={args.repeat}, "
        f"cpus={os.cpu_count()}"
    )
    results = {}
    baseline_cells = None
    for backend in backends:
        seconds, cuboid, stats = _bench_one_backend(
            db, spec, backend, args.workers, args.repeat
        )
        results[backend] = seconds
        if baseline_cells is None:
            baseline_cells = cuboid.cells
        elif cuboid.cells != baseline_cells:
            print(f"FAIL: {backend} cells differ from serial")
            return 1
        label = stats.extra.get("scan_backend", "serial")
        speedup = results["serial"] / seconds if seconds else float("inf")
        print(
            f"  {backend:8s} {seconds * 1e3:9.1f} ms/query  "
            f"{speedup:5.2f}x vs serial  (scan={label}, "
            f"shards={stats.extra.get('shard_fanout', 1)})"
        )
    print("all backends returned bit-identical cells")
    if os.cpu_count() == 1 and "process" in results:
        print(
            "note: single-CPU host — process-backend speedup needs "
            "multiple cores"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
