"""The matcher's kernel table and the four places that name the kernel.

``KERNELS`` is tried in order and the first kernel that accepts a
template enumerates it.  Which kernel answered a query is recorded in
``QueryStats.kernel``, on the ``match.encoded`` span, as the
``matcher kernel:`` line of EXPLAIN ANALYZE, and counted by the
``solap_matcher_kernel_total{kernel}`` metric family.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from benchmarks.e2e.scan_cold import ScanCold
from repro import CellRestriction, SOLAPEngine
from repro.core.matcher import KERNELS, make_matcher
from repro.core.stats import QueryStats
from repro.obs.metrics import MetricsRegistry, register_engine_metrics
from repro.events.sequence import build_sequence_groups
from repro.service import QueryService, ServiceConfig
from tests.conftest import figure8_spec, make_figure8_db
from tests.reference_matcher import TemplateMatcher

#: the kernel each ``scan_cold`` shape compiles to, as documented in
#: docs/performance.md ("Matcher kernels")
SCAN_COLD_KERNELS = {
    "sub_xy_symbol": "windows",
    "sub_xy_group": "windows",
    "sub_xyz_symbol": "windows",
    "sub_xyz_group": "windows",
    "all_matched": "windows",
    "left_max_data": "windows",
    "sliced_x": "windows",
    "within_x": "windows",
    "repeat_xyyx": "enumerate",
    "subseq_xy": "greedy_embedding",
    "any_gap": "enumerate",
    "inout_trip": "enumerate",
    "inout_round_trip": "enumerate",
    "sum_avg_amount": "enumerate",
    "where_later_days": "enumerate",
    "group_by_fare_day": "enumerate",
}


def test_kernel_order():
    assert [kernel.name for kernel in KERNELS] == ["windows", "greedy_embedding", "enumerate"]


@pytest.fixture(scope="module")
def scan_cold_ops():
    workload = ScanCold(seed=7, tiny=True)
    workload.setup()
    return workload.ops


def test_scan_cold_shapes_select_documented_kernel(scan_cold_ops):
    selected = {
        name: make_matcher(
            spec.template, db, spec.restriction, spec.predicate
        ).kernel.name
        for name, db, spec in scan_cold_ops
    }
    assert selected == SCAN_COLD_KERNELS
    per_op = Counter(SCAN_COLD_KERNELS[name] for name, __, __ in scan_cold_ops)
    assert per_op == {"windows": 8, "greedy_embedding": 2, "enumerate": 7}


def test_scan_cold_shapes_match_the_reference(scan_cold_ops):
    """Each shape's cells equal the value-space reference's on every
    sequence CB scans for it.  The benchmark checks its answers against
    the same engine, so it cannot catch a kernel bug; this can, on data
    with hierarchies, transit predicates and repeated symbols."""
    shapes = {name: (db, spec) for name, db, spec in scan_cold_ops}
    diverging = []
    for name, (db, spec) in sorted(shapes.items()):
        groups = build_sequence_groups(
            db, spec.where, spec.cluster_by, spec.sequence_by, spec.group_by
        )
        sequences = list(groups.all_sequences())
        assert sequences, name
        compiled = make_matcher(spec.template, db, spec.restriction, spec.predicate)
        reference = TemplateMatcher(
            spec.template, db.schema, spec.restriction, spec.predicate
        )
        if any(
            compiled.assignments(sequence) != reference.assignments(sequence)
            for sequence in sequences
        ):
            diverging.append(name)
    assert diverging == []


def _kernel_totals(registry: MetricsRegistry) -> dict:
    return {
        kernel: int(float(value))
        for kernel, value in re.findall(
            r'^solap_matcher_kernel_total\{kernel="(\w+)"\} (\S+)$',
            registry.render_prometheus(),
            re.MULTILINE,
        )
    }


LEFT_MAX = CellRestriction.LEFT_MAXIMALITY
ALL = CellRestriction.ALL_MATCHED

#: case -> (strategy, template positions, kind, restriction, expected
#: kernel); the II cases are ALL-MATCHED so counting folds the listed
#: sequences
CASES = {
    "cb-windows": ("cb", ("X", "Y"), "substring", LEFT_MAX, "windows"),
    "cb-greedy_embedding": (
        "cb", ("X", "Y"), "subsequence", LEFT_MAX, "greedy_embedding",
    ),
    "cb-enumerate": ("cb", ("X", "Y", "Y", "X"), "substring", LEFT_MAX, "enumerate"),
    "ii-windows": ("ii", ("X", "Y"), "substring", ALL, "windows"),
    "ii-enumerate": ("ii", ("X", "Y", "Y", "X"), "substring", ALL, "enumerate"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_query_names_its_kernel(case):
    strategy, positions, kind, restriction, kernel = CASES[case]
    engine = SOLAPEngine(make_figure8_db())
    registry = MetricsRegistry()
    register_engine_metrics(registry, engine)
    before = _kernel_totals(registry)
    assert set(before) == {kernel.name for kernel in KERNELS}

    spec = figure8_spec(positions, kind, restriction=restriction)
    __, stats = engine.execute(spec, strategy, analyze=True)

    assert stats.kernel == kernel
    assert f"matcher kernel: {kernel}" in stats.plan
    assert _kernel_totals(registry)[kernel] > before[kernel]
    if strategy == "cb":
        assert stats.trace.find("match.encoded").attrs["kernel"] == kernel
        # CB compiles exactly one matcher: the query's own
        assert _kernel_totals(registry) == {**before, kernel: before[kernel] + 1}


def test_list_length_counting_runs_no_kernel():
    # II COUNT under left-maximality answers from index list lengths
    engine = SOLAPEngine(make_figure8_db())
    __, stats = engine.execute(figure8_spec(("X", "Y")), "ii", analyze=True)
    assert stats.kernel == ""
    assert "matcher kernel: none (no fold ran)" in stats.plan


def test_merge_carries_the_kernel():
    total = QueryStats()
    for kernel in ("windows", "", "enumerate", "windows"):
        total.merge(QueryStats(kernel=kernel))
    assert total.kernel == "windows+enumerate"


def test_shard_fan_out_reports_the_kernel():
    service = QueryService(
        make_figure8_db(), ServiceConfig(shards=2, executor_backend="serial")
    )
    try:
        __, stats = service.execute(figure8_spec(("X", "Y", "Y", "X")), "cb")
    finally:
        service.close()
    assert stats.extra["shard_fanout"] >= 1
    assert stats.kernel == "enumerate"
