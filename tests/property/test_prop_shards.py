"""Property: sharded execution (plan -> partials -> merge) is invisible.

One suite for the one parallel path.  An S-cuboid merged from N per-shard
partials must equal the serial kernel's — for every template, both kernel
strategies, all three cell restrictions, every execution backend and
fan-outs 1/2/4 — under the contract ``docs/sharding.md`` states:

* COUNT/MIN/MAX are exact at every fan-out;
* SUM/AVG are bit-identical to serial at fan-out 1 (which *is* the serial
  kernel: no seam is installed) and for integer-valued measures at any
  fan-out;
* float SUM/AVG at fan-out >= 2 are deterministic: partials merge in
  ascending shard order, so the result is identical across backends and
  across runs, and equal to serial up to float re-association;
* iceberg CB (``min_support``) is the same aggregation plus a post-merge
  ``HAVING COUNT(*) >= n``, so it is exact at every fan-out too.

Random databases run on the inline (serial) backend; the backend matrix
runs over one fixed database so a single process pool, bound to it, can
serve every example.  ``SOLAP_SHARD_START_METHOD`` selects the process
pool's start method so CI can sweep fork and spawn.
"""

import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CellRestriction,
    Dimension,
    EventDatabase,
    Hierarchy,
    Schema,
    SOLAPEngine,
)
from repro.core.spec import AggregateScope, AggregateSpec, PatternKind
from repro.events.schema import Measure
from repro.service import QueryService, ServiceConfig
from repro.service.parallel import ProcessExecutorBackend, SerialExecutorBackend
from repro.shard import ScatterGatherCoordinator
from tests.property.conftest import (
    ALPHABET,
    GROUP_OF,
    make_db,
    sequences_strategy,
    shape_strategy,
    spec_for,
    template_from,
    template_strategy,
)

RESTRICTIONS = st.sampled_from(
    [
        CellRestriction.LEFT_MAXIMALITY,
        CellRestriction.LEFT_MAXIMALITY_DATA,
        CellRestriction.ALL_MATCHED,
    ]
)
FANOUTS = (1, 2, 4)
BACKENDS = ("serial", "process")
STRATEGIES = ("cb", "ii")

_INLINE = SerialExecutorBackend()


def _serial(db, spec, strategy):
    return SOLAPEngine(db, use_repository=False).execute(spec, strategy)


def _sharded(db, spec, strategy, shards, backend=_INLINE):
    """Execute with *shards* logical shards; fan-out 1 installs no seam."""
    engine = SOLAPEngine(db, use_repository=False)
    if shards >= 2:
        engine.scatter_gather = ScatterGatherCoordinator(
            shards, backend, min_sequences=1
        )
    return engine.execute(spec, strategy)


# ---------------------------------------------------------------------------
# Random databases, inline backend
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
    shards=st.sampled_from(FANOUTS),
    strategy=st.sampled_from(STRATEGIES),
)
def test_sharded_equals_serial(sequences, template, restriction, shards, strategy):
    db = make_db(sequences)
    spec = replace(spec_for(template), restriction=restriction)
    serial, serial_stats = _serial(db, spec, strategy)
    merged, merged_stats = _sharded(db, spec, strategy, shards)
    assert merged.to_dict() == serial.to_dict()
    if shards >= 2:
        assert "shard_fanout" in merged_stats.extra, "scatter-gather declined"
    if strategy == "cb":
        # zero work-counter drift: every selected sequence scanned once
        assert merged_stats.sequences_scanned == serial_stats.sequences_scanned


@settings(max_examples=60, deadline=None)
@given(
    sequences=sequences_strategy,
    template=template_strategy,
    restriction=RESTRICTIONS,
    shards=st.sampled_from(FANOUTS),
    strategy=st.sampled_from(STRATEGIES),
    min_support=st.integers(min_value=1, max_value=4),
)
def test_sharded_iceberg_equals_serial(
    sequences, template, restriction, shards, strategy, min_support
):
    """``min_support`` answers are exact at every fan-out: CB (and every
    ALL-MATCHED query) filters after the merge, II keeps its pruned join
    chain single-shard."""
    db = make_db(sequences)
    spec = replace(
        spec_for(template), restriction=restriction, min_support=min_support
    )
    serial, serial_stats = _serial(db, spec, strategy)
    merged, merged_stats = _sharded(db, spec, strategy, shards)
    assert merged.to_dict() == serial.to_dict()
    assert merged_stats.strategy == serial_stats.strategy
    if shards >= 2 and merged_stats.strategy == "iceberg-CB":
        assert "shard_fanout" in merged_stats.extra, "iceberg CB ran unsharded"
    unfiltered, __ = _serial(db, replace(spec, min_support=None), "cb")
    assert merged.to_dict() == {
        key: values
        for key, values in unfiltered.to_dict().items()
        if values["COUNT(*)"] >= min_support
    }


def _measure_db(sequences) -> EventDatabase:
    db = EventDatabase(
        Schema(
            [Dimension("seq"), Dimension("ts"), Dimension("symbol")],
            [Measure("amount")],
        )
    )
    for seq_id, symbols in enumerate(sequences):
        for position, (symbol, amount) in enumerate(symbols):
            db.append(
                {"seq": seq_id, "ts": position, "symbol": symbol, "amount": amount}
            )
    return db


measured_sequences_strategy = st.lists(
    st.lists(
        st.tuples(st.sampled_from(ALPHABET), st.integers(0, 100)),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
)

ALL_AGGREGATES = (
    AggregateSpec("COUNT", None),
    AggregateSpec("SUM", "amount"),
    AggregateSpec("AVG", "amount"),
    AggregateSpec("MIN", "amount"),
    AggregateSpec("MAX", "amount"),
)


@settings(max_examples=60, deadline=None)
@given(
    sequences=measured_sequences_strategy,
    restriction=RESTRICTIONS,
    shards=st.sampled_from(FANOUTS),
    strategy=st.sampled_from(STRATEGIES),
)
def test_sharded_aggregates_equal_serial(sequences, restriction, shards, strategy):
    """All five aggregate functions survive the merge — AVG through its
    (sum, count) transport pair — over integer measures, where the
    partial-sum re-association is exact."""
    db = _measure_db(sequences)
    template = template_from((0, 1), PatternKind.SUBSEQUENCE, "symbol")
    spec = replace(
        spec_for(template), restriction=restriction, aggregates=ALL_AGGREGATES
    )
    serial, __ = _serial(db, spec, strategy)
    merged, __ = _sharded(db, spec, strategy, shards)
    assert merged.to_dict() == serial.to_dict()


# ---------------------------------------------------------------------------
# Backend matrix over one fixed database with a float and an integer measure
# ---------------------------------------------------------------------------

def _matrix_db() -> EventDatabase:
    schema = Schema(
        [
            Dimension("seq"),
            Dimension("ts"),
            Dimension(
                "symbol",
                Hierarchy("symbol", ("symbol", "group"), {"group": GROUP_OF}),
            ),
        ],
        [Measure("dwell"), Measure("clicks")],
    )
    rng = random.Random(13)
    db = EventDatabase(schema)
    index = 0
    for seq_id in range(60):
        for position in range(rng.randint(3, 10)):
            db.append(
                {
                    "seq": seq_id,
                    "ts": position,
                    "symbol": rng.choice(ALPHABET),
                    # irregular magnitudes make float addition order
                    # observable
                    "dwell": (index % 17 + 1) * 0.37 + index * 0.0010000001,
                    "clicks": index % 7,
                }
            )
            index += 1
    return db


_DB = _matrix_db()

#: exact at every fan-out: counts, extrema, integer-valued sums
EXACT_AGGREGATES = (
    AggregateSpec("COUNT"),
    AggregateSpec("MIN", "dwell"),
    AggregateSpec("MAX", "dwell"),
    AggregateSpec("SUM", "clicks", AggregateScope.MATCHED),
    AggregateSpec("AVG", "clicks", AggregateScope.SEQUENCE),
)
#: re-associated across shards at fan-out >= 2
FLOAT_AGGREGATES = (
    AggregateSpec("SUM", "dwell", AggregateScope.MATCHED),
    AggregateSpec("AVG", "dwell", AggregateScope.SEQUENCE),
)


@pytest.fixture(scope="module")
def backends():
    pool = {
        "serial": _INLINE,
        "process": ProcessExecutorBackend(
            _DB, 2, start_method=os.environ.get("SOLAP_SHARD_START_METHOD")
        ),
    }
    pool["process"].warm_up()
    yield pool
    for backend in pool.values():
        backend.shutdown()


def _split(cuboid):
    """A cuboid's cells as (exact part, float part) dictionaries."""
    exact_names = {aggregate.name for aggregate in EXACT_AGGREGATES}
    exact, floats = {}, {}
    for key, values in cuboid.cells.items():
        exact[key] = {n: v for n, v in values.items() if n in exact_names}
        floats[key] = {n: v for n, v in values.items() if n not in exact_names}
    return exact, floats


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shards", FANOUTS)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=6, deadline=None)
@given(
    shape=shape_strategy,
    kind=st.sampled_from([PatternKind.SUBSTRING, PatternKind.SUBSEQUENCE]),
    level=st.sampled_from(["symbol", "group"]),
)
def test_backend_matrix(backends, backend, shards, strategy, shape, kind, level):
    spec = replace(
        spec_for(template_from(shape, kind, level)),
        aggregates=EXACT_AGGREGATES + FLOAT_AGGREGATES,
    )
    kernel, kernel_stats = _serial(_DB, spec, strategy)
    first, stats = _sharded(_DB, spec, strategy, shards, backends[backend])
    if shards == 1:
        # fan-out 1 is the kernel itself: bit-identical, floats included
        assert first.cells == kernel.cells
        assert "shard_fanout" not in stats.extra
        return
    assert stats.extra["shard_fanout"] == shards
    assert stats.extra["scan_backend"] == backend
    if strategy == "cb":
        assert stats.sequences_scanned == kernel_stats.sequences_scanned
    exact, floats = _split(first)
    kernel_exact, kernel_floats = _split(kernel)
    assert exact == kernel_exact
    assert floats.keys() == kernel_floats.keys()
    for key, values in floats.items():
        assert values == pytest.approx(kernel_floats[key], rel=1e-9)
    # deterministic: a second run and the inline backend agree bit-for-bit
    second, __ = _sharded(_DB, spec, strategy, shards, backends[backend])
    inline, __ = _sharded(_DB, spec, strategy, shards)
    assert first.cells == second.cells == inline.cells


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("shards", FANOUTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_service_wiring(backend, shards, strategy):
    """``ServiceConfig(shards=N)`` on every executor backend: fan-out 1
    creates no pool and no seam; fan-out N scans each sequence exactly
    once on the configured backend."""
    spec = replace(
        spec_for(template_from((0, 1), PatternKind.SUBSTRING, "symbol")),
        aggregates=EXACT_AGGREGATES,
    )
    serial, serial_stats = _serial(_DB, spec, strategy)
    config = ServiceConfig(
        max_workers=2,
        executor_backend=backend,
        shards=shards,
        process_start_method=os.environ.get("SOLAP_SHARD_START_METHOD"),
    )
    svc = QueryService(SOLAPEngine(_DB, use_repository=False), config)
    try:
        assert (svc.backend is None) == (shards == 1)
        cuboid, stats = svc.execute(spec, strategy)
    finally:
        svc.close()
    assert cuboid.cells == serial.cells
    assert stats.extra.get("shard_fanout") == (shards if shards > 1 else None)
    assert stats.extra.get("scan_backend") == (backend if shards > 1 else None)
    if strategy == "cb":
        assert stats.sequences_scanned == serial_stats.sequences_scanned


# ---------------------------------------------------------------------------
# Declines: the coordinator hands the query back to the serial kernel
# ---------------------------------------------------------------------------

def test_group_level_template_survives_sharding():
    """Hierarchy-level matching (symbols rolled up to groups) is a
    per-sequence concern and must not change under partitioning."""
    template = template_from((0, 0, 1), PatternKind.SUBSEQUENCE, "group")
    spec = spec_for(template)
    serial, __ = _serial(_DB, spec, "cb")
    merged, __ = _sharded(_DB, spec, "cb", 4)
    assert merged.to_dict() == serial.to_dict()
    assert set(GROUP_OF.values()) >= {
        value for key in merged.cells for value in key[1]
    }


def test_holistic_aggregate_runs_the_kernel(monkeypatch):
    """A NotMergeableError from the transport rewrite must make the
    coordinator decline, not fail the query."""
    from repro.errors import NotMergeableError
    from repro.shard import coordinator as coordinator_module

    def raising_transport_spec(spec):
        raise NotMergeableError("MEDIAN(m)")

    monkeypatch.setattr(
        coordinator_module, "transport_spec", raising_transport_spec
    )
    spec = spec_for(template_from((0, 1), PatternKind.SUBSTRING, "symbol"))
    serial, __ = _serial(_DB, spec, "cb")
    cuboid, stats = _sharded(_DB, spec, "cb", 4)
    assert cuboid.to_dict() == serial.to_dict()
    assert "shard_fanout" not in stats.extra  # the kernel answered


def test_below_min_sequences_runs_the_kernel():
    db = make_db([["a", "b"], ["b", "a"]])
    spec = spec_for(template_from((0, 1), PatternKind.SUBSTRING))
    engine = SOLAPEngine(db, use_repository=False)
    engine.scatter_gather = ScatterGatherCoordinator(
        4, _INLINE, min_sequences=100
    )
    cuboid, stats = engine.execute(spec, "cb")
    assert cuboid.to_dict() == _serial(db, spec, "cb")[0].to_dict()
    assert "shard_fanout" not in stats.extra
