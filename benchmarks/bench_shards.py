"""Scatter-gather sharding — fan-out 1 / 2 / 4 / 8 on a pinned workload.

Measures the :mod:`repro.shard` scatter-gather path: one CB query over a
pinned-seed synthetic dataset, consistent-hashed onto N logical shards
and merged back under the aggregate algebra.  Shape claims:

* **bit-identity** — every fan-out, on every backend, returns exactly the
  single-shard serial cells (COUNT and integer measures merge exactly);
* **zero work drift** — the merged ``sequences_scanned`` equals the
  serial scan's (every sequence scanned once, on exactly one shard);
* **near-linear scaling** on the process backend when cores are
  available: with W workers, fan-out N <= W should approach min(N, cores)
  speedup over N=1 (the bare serial kernel — fan-out 1 installs no
  seam).  On a single-CPU host the speedup column degenerates to ~1.0x
  and only the identity/drift claims are asserted.

The pytest half doubles as the CI smoke benchmark (small D); script mode
prints the speedup table::

    PYTHONPATH=src python benchmarks/bench_shards.py --workers 4
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import SOLAPEngine
from repro.datagen import SyntheticConfig, generate_event_database
from repro.datagen.synthetic import base_spec
from repro.service import QueryService, SerialExecutorBackend, ServiceConfig
from repro.shard import ScatterGatherCoordinator

#: sequences in the benchmark dataset (pinned seed)
SHARD_BENCH_D = 800
#: the fan-out series (the ISSUE's N in {1, 2, 4, 8})
SHARD_SERIES = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def shard_db():
    return generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=SHARD_BENCH_D)
    )


@pytest.fixture(scope="module")
def serial_result(shard_db):
    spec = base_spec(("X", "Y"))
    cuboid, stats = SOLAPEngine(shard_db, use_repository=False).execute(
        spec, "cb"
    )
    return spec, cuboid, stats


@pytest.mark.parametrize("shards", SHARD_SERIES)
def test_scatter_gather_fanout(benchmark, shard_db, serial_result, shards):
    spec, serial_cuboid, serial_stats = serial_result

    def run():
        engine = SOLAPEngine(shard_db, use_repository=False)
        if shards >= 2:  # fan-out 1 is the bare kernel: no seam to install
            engine.scatter_gather = ScatterGatherCoordinator(
                shards, SerialExecutorBackend(), min_sequences=1
            )
        return engine.execute(spec, "cb")

    cuboid, stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cuboid.to_dict() == serial_cuboid.to_dict()
    assert stats.sequences_scanned == serial_stats.sequences_scanned
    assert stats.extra.get("shard_fanout", 1) == min(shards, SHARD_BENCH_D)
    benchmark.extra_info["fanout"] = stats.extra.get("shard_fanout", 1)
    benchmark.extra_info["skew"] = stats.extra.get("shard_skew", 1.0)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_backends_bit_identical(shard_db, serial_result, backend):
    spec, serial_cuboid, serial_stats = serial_result
    config = ServiceConfig(
        max_workers=2,
        executor_backend=backend,
        shards=4,
    )
    service = QueryService(SOLAPEngine(shard_db, use_repository=False), config)
    try:
        cuboid, stats = service.execute(spec, "cb")
    finally:
        service.close()
    assert cuboid.to_dict() == serial_cuboid.to_dict(), backend
    assert stats.sequences_scanned == serial_stats.sequences_scanned
    assert stats.extra.get("shard_fanout") == 4
    assert stats.extra.get("scan_backend") == backend


# ---------------------------------------------------------------------------
# Script mode: the fan-out speedup table
# ---------------------------------------------------------------------------

def _bench_one_fanout(db, spec, shards, workers, backend, repeat):
    """Per-query seconds (and result) for one fan-out configuration."""
    import time

    config = ServiceConfig(
        max_workers=workers,
        executor_backend=backend,
        shards=shards,
    )
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
    """Print the fan-out speedup table and verify bit-identity."""
    import argparse

    parser = argparse.ArgumentParser(
        description="scatter-gather shard fan-out benchmark"
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--backend",
        choices=("serial", "thread", "process"),
        default="process",
        help="executor backend the shard tasks scatter onto",
    )
    parser.add_argument(
        "--sequences", type=int, default=4000,
        help="synthetic dataset size D (pinned seed)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="timed scans per fan-out"
    )
    args = parser.parse_args(argv)

    db = generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=args.sequences, seed=42)
    )
    spec = base_spec(("X", "Y"))
    serial, serial_stats = SOLAPEngine(db, use_repository=False).execute(
        spec, "cb"
    )
    print(
        f"shard fan-out: D={args.sequences}, seed=42, "
        f"backend={args.backend}, workers={args.workers}, "
        f"repeat={args.repeat}, cpus={os.cpu_count()}"
    )
    baseline = None
    for shards in SHARD_SERIES:
        seconds, cuboid, stats = _bench_one_fanout(
            db, spec, shards, args.workers, args.backend, args.repeat
        )
        if cuboid.to_dict() != serial.to_dict():
            print(f"FAIL: N={shards} cells differ from serial")
            return 1
        if stats.sequences_scanned != serial_stats.sequences_scanned:
            print(f"FAIL: N={shards} work-counter drift")
            return 1
        if baseline is None:
            baseline = seconds
        speedup = baseline / seconds if seconds else float("inf")
        print(
            f"  N={shards}  {seconds * 1e3:9.1f} ms/query  "
            f"{speedup:5.2f}x vs N=1  "
            f"(skew={stats.extra.get('shard_skew', 1.0):.2f})"
        )
    print("all fan-outs returned bit-identical cells, zero work drift")
    if os.cpu_count() == 1:
        print(
            "note: single-CPU host — near-linear speedup needs real cores; "
            "identity and drift claims still verified"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
