"""The evaluation's work counters, pinned exactly at a small fixed scale.

The paper's Section 5 claims (Table 1, Figure 16, QuerySets A-C) are
about work that does not depend on the machine: sequences scanned,
inverted-index bytes built and cells produced.  Each section below runs
one driver once over a pinned-seed dataset and asserts its counters
exactly; a change there means the *work* changed, not the machine's
speed.  The sections cover the iterative workloads under both
strategies, the matcher and join kernels, scatter-gather fan-outs,
tracing levels, the segment store and the semantic-cache replay.

The module also states QuerySet A's CB-vs-II crossover in cumulative
sequences scanned, and gates the cache replay: every exact or derived
answer is bit-identical to a cold recomputation and does no scan work.
"""

from __future__ import annotations

from itertools import accumulate

import pytest

from repro import SOLAPEngine, build_sequence_groups
from repro.core.matcher import make_matcher
from repro.datagen import (
    ClickstreamConfig,
    SyntheticConfig,
    generate_clickstream,
    generate_event_database,
    remove_crawler_sessions,
)
from repro.datagen.synthetic import base_spec
from repro.index.inverted import build_index, join_indices, pair_template, prefix_template
from repro.obs.recorder import FlightRecorder
from repro.optimizer import semantic_cache
from repro.service import SerialExecutorBackend
from repro.shard import ScatterGatherCoordinator
from repro.storage import StorageManager
from tests.paper_workloads import (
    build_replay_db,
    run_clickstream_exploration,
    run_queryset_a,
    run_queryset_b,
    run_queryset_c,
    run_replay,
    verify_bit_identity,
)

#: QuerySet A chain length for the counter sections and the crossover
QA_QUERIES = 4
#: sequences in the synthetic dataset every CB step scans in full
SYNTHETIC_D = 500


@pytest.fixture(scope="module")
def synthetic():
    return generate_event_database(
        SyntheticConfig(I=100, L=20, theta=0.9, D=SYNTHETIC_D)
    )


@pytest.fixture(scope="module")
def clickstream():
    return remove_crawler_sessions(
        generate_clickstream(
            ClickstreamConfig(
                n_sessions=1200,
                seed=2000,
                p_start_assortment=0.18,
                p_assortment_to_legwear=0.28,
            )
        )
    )


@pytest.fixture(scope="module")
def storage_memory():
    return generate_event_database(SyntheticConfig(I=100, L=10, theta=0.9, D=2000))


@pytest.fixture(scope="module")
def storage_segment(storage_memory, tmp_path_factory):
    spec = base_spec(("X", "Y"))
    manager = StorageManager.write(
        storage_memory,
        tmp_path_factory.mktemp("store") / "store",
        cluster_by=spec.cluster_by,
        sequence_by=spec.sequence_by,
    )
    return manager.attach()


@pytest.fixture(scope="module")
def replay_db():
    return build_replay_db()


# --------------------------------------------------------------------------
# Section drivers: dataset -> counters
# --------------------------------------------------------------------------


def _totals(steps) -> dict:
    return {
        "sequences_scanned": sum(step.sequences_scanned for step in steps),
        "index_bytes_built": sum(step.index_bytes_built for step in steps),
        "cells": sum(step.cells for step in steps),
    }


def _chain(runner, strategy, **kwargs):
    def run(db):
        result = runner(db, strategy, **kwargs)
        return _totals(result[0] if isinstance(result, tuple) else result)

    return run


def _matcher_scan(db) -> dict:
    spec = base_spec(("X", "Y", "Z"))
    groups = build_sequence_groups(
        db, None, list(spec.cluster_by), list(spec.sequence_by)
    )
    sequences = list(groups.all_sequences())
    matcher = make_matcher(spec.template, db)
    cells = sum(len(matcher.assignments(sequence)) for sequence in sequences)
    return {"sequences_scanned": len(sequences), "cells": cells}


def _join(kernel):
    """One L2 ⋈ L2 join with the intersection kernel pinned."""

    def run(db) -> dict:
        spec = base_spec(("X", "Y", "Z"))
        group = build_sequence_groups(
            db, None, list(spec.cluster_by), list(spec.sequence_by)
        ).single_group()
        left = build_index(group, prefix_template(spec.template, 2), db.schema)
        pair = build_index(group, pair_template(spec.template, 1), db.schema)
        joined = join_indices(
            left, pair, prefix_template(spec.template, 3), db.schema, kernel=kernel
        )
        return {"cells": len(joined), "index_bytes_built": joined.size_bytes()}

    return run


def _sharded(shards):
    """The CB query through N inline shards (1 = the bare kernel)."""

    def run(db) -> dict:
        engine = SOLAPEngine(db, use_repository=False)
        if shards >= 2:
            engine.scatter_gather = ScatterGatherCoordinator(
                shards, SerialExecutorBackend(), min_sequences=1
            )
        cuboid, stats = engine.execute(base_spec(("X", "Y")), "cb")
        return {
            "sequences_scanned": stats.sequences_scanned,
            "cells": len(cuboid),
            "fanout": stats.extra.get("shard_fanout", 1),
        }

    return run


def _traced(analyze, record):
    """The CB query untraced, traced, or traced into a flight recorder."""

    def run(db) -> dict:
        engine = SOLAPEngine(db, use_repository=False)
        cuboid, stats = engine.execute(base_spec(("X", "Y")), "cb", analyze=analyze)
        if record:
            assert FlightRecorder(capacity=4).record(stats=stats) is not None
        return {"sequences_scanned": stats.sequences_scanned, "cells": len(cuboid)}

    return run


def _scan(db) -> dict:
    cuboid, stats = SOLAPEngine(db).execute(base_spec(("X", "Y")), "cb")
    return {"sequences_scanned": stats.sequences_scanned, "cells": len(cuboid)}


def _replay_report(db, semantic, cost_gate=True) -> dict:
    """The replay session; without *cost_gate* every usable derivation is
    taken, since no recomputation is priced below any derivation."""
    with pytest.MonkeyPatch.context() as patch:
        if not cost_gate:
            patch.setattr(semantic_cache, "MIN_RECOMPUTE_SECONDS", float("inf"))
        return run_replay(db, semantic)


def _replay(semantic, cost_gate=True):
    def run(db) -> dict:
        report = _replay_report(db, semantic, cost_gate)
        keys = ("exact_hits", "derived_hits", "sequences_scanned", "cells", "work_drift")
        return {key: report[key] for key in keys}

    return run


#: section -> (dataset fixture, driver)
SECTIONS = {
    "table1_clickstream_cb": ("clickstream", _chain(run_clickstream_exploration, "cb")),
    "table1_clickstream_ii": ("clickstream", _chain(run_clickstream_exploration, "ii")),
    "queryset_a_cb": ("synthetic", _chain(run_queryset_a, "cb", n_queries=QA_QUERIES)),
    "queryset_a_ii": ("synthetic", _chain(run_queryset_a, "ii", n_queries=QA_QUERIES)),
    "queryset_b_cb": ("synthetic", _chain(run_queryset_b, "cb")),
    "queryset_b_ii": ("synthetic", _chain(run_queryset_b, "ii")),
    "queryset_c_cb": ("synthetic", _chain(run_queryset_c, "cb")),
    "queryset_c_ii": ("synthetic", _chain(run_queryset_c, "ii")),
    "matcher_kernel_compiled": ("synthetic", _matcher_scan),
    "join_intersect_sorted": ("synthetic", _join("sorted")),
    "join_intersect_bitmap": ("synthetic", _join("bitmap")),
    "shards_scatter_gather_n1": ("synthetic", _sharded(1)),
    "shards_scatter_gather_n2": ("synthetic", _sharded(2)),
    "shards_scatter_gather_n4": ("synthetic", _sharded(4)),
    "shards_scatter_gather_n8": ("synthetic", _sharded(8)),
    "tracing_overhead_disabled": ("synthetic", _traced(False, False)),
    "tracing_overhead_spans": ("synthetic", _traced(True, False)),
    "tracing_overhead_recorder": ("synthetic", _traced(True, True)),
    "cache_replay_lru": ("replay_db", _replay(False)),
    # The cost gate prices derivation against the source's measured
    # compute seconds, so with it on the hit mix follows the clock.
    "cache_replay_semantic": ("replay_db", _replay(True, cost_gate=False)),
    "storage_scan_memory": ("storage_memory", _scan),
    "storage_scan_segment": ("storage_segment", _scan),
}

#: the exact counters of every section
EXPECTED = {
    "table1_clickstream_cb": {"sequences_scanned": 3588, "index_bytes_built": 0, "cells": 1070},
    "table1_clickstream_ii": {
        "sequences_scanned": 1619,
        "index_bytes_built": 83836,
        "cells": 1070,
    },
    "queryset_a_cb": {"sequences_scanned": 2000, "index_bytes_built": 0, "cells": 4332},
    "queryset_a_ii": {"sequences_scanned": 42, "index_bytes_built": 2448, "cells": 4332},
    "queryset_b_cb": {"sequences_scanned": 1500, "index_bytes_built": 0, "cells": 4983},
    "queryset_b_ii": {"sequences_scanned": 494, "index_bytes_built": 112604, "cells": 4983},
    "queryset_c_cb": {"sequences_scanned": 1500, "index_bytes_built": 0, "cells": 4364},
    "queryset_c_ii": {"sequences_scanned": 64, "index_bytes_built": 4652, "cells": 4364},
    "matcher_kernel_compiled": {"sequences_scanned": 500, "cells": 8985},
    "join_intersect_sorted": {"cells": 9785, "index_bytes_built": 747024},
    "join_intersect_bitmap": {"cells": 9785, "index_bytes_built": 747024},
    "shards_scatter_gather_n1": {"sequences_scanned": 500, "cells": 4303, "fanout": 1},
    "shards_scatter_gather_n2": {"sequences_scanned": 500, "cells": 4303, "fanout": 2},
    "shards_scatter_gather_n4": {"sequences_scanned": 500, "cells": 4303, "fanout": 4},
    "shards_scatter_gather_n8": {"sequences_scanned": 500, "cells": 4303, "fanout": 8},
    "tracing_overhead_disabled": {"sequences_scanned": 500, "cells": 4303},
    "tracing_overhead_spans": {"sequences_scanned": 500, "cells": 4303},
    "tracing_overhead_recorder": {"sequences_scanned": 500, "cells": 4303},
    "cache_replay_lru": {
        "exact_hits": 3,
        "derived_hits": 0,
        "sequences_scanned": 807,
        "cells": 14572,
        "work_drift": 0,
    },
    "cache_replay_semantic": {
        "exact_hits": 3,
        "derived_hits": 7,
        "sequences_scanned": 240,
        "cells": 14572,
        "work_drift": 0,
    },
    "storage_scan_memory": {"sequences_scanned": 2000, "cells": 6034},
    "storage_scan_segment": {"sequences_scanned": 2000, "cells": 6034},
}


@pytest.mark.parametrize("section", list(SECTIONS))
def test_section_counters(section, request):
    dataset, driver = SECTIONS[section]
    assert driver(request.getfixturevalue(dataset)) == EXPECTED[section]


def test_queryset_a_crossover_in_sequences_scanned(synthetic):
    """Figure 16's shape: CB rescans the whole dataset at every step while
    II answers QA1 from the precomputed L2 index and scans few sequences
    afterwards, so II's cumulative work is below CB's from the first
    step — and from the second even when the offline precompute scan is
    charged to II."""
    cb, __ = run_queryset_a(synthetic, "cb", n_queries=QA_QUERIES)
    ii, precompute = run_queryset_a(synthetic, "ii", n_queries=QA_QUERIES)
    cb_cumulative = list(accumulate(step.sequences_scanned for step in cb))
    ii_cumulative = list(accumulate(step.sequences_scanned for step in ii))
    assert cb_cumulative == [SYNTHETIC_D * k for k in range(1, QA_QUERIES + 1)]
    assert ii_cumulative == [0, 34, 40, 42]
    assert precompute.sequences_scanned == SYNTHETIC_D

    def crossover(ii_work):
        return next(
            step
            for step, (cb_total, ii_total) in enumerate(zip(cb_cumulative, ii_work), 1)
            if ii_total < cb_total
        )

    assert crossover(ii_cumulative) == 1
    assert crossover([SYNTHETIC_D + total for total in ii_cumulative]) == 2


@pytest.mark.parametrize(
    "semantic, cost_gate",
    [(False, True), (True, True), (True, False)],
    ids=["lru", "semantic", "semantic-no-cost-gate"],
)
def test_cache_replay_answers_are_bit_identical(replay_db, semantic, cost_gate):
    """Every exact or derived answer equals a cold, repository-free
    recomputation of the same spec, and no cache answer scans.  The cost
    gate may only trade derivations for scans: the revisits and the
    answers stay the same."""
    report = _replay_report(replay_db, semantic, cost_gate)
    assert verify_bit_identity(replay_db, report) == []
    assert report["work_drift"] == 0
    assert report["exact_hits"] == 3
    assert report["cells"] == 14572
