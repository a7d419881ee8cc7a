"""``scan_cold``: every op is a cold counter-based scan.

Why: sequence formation (selection → clustering → ordering → encoding),
the matcher and the CB fold do all the work; the index layer, every
cache, the service and the HTTP front-end do none.  The op list puts the
matcher's three enumeration strategies side by side (plain substring
windows, accept-filtered windows for sliced / ``within`` symbols, and
the generic backtracker for repeated symbols, SUBSEQUENCE, ANY and the
in/out predicate), so a gain for one shape that costs another shows up
as ``op_p50_ms`` and ``op_p95_ms`` moving apart.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import List, Tuple

from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.core.spec import (
    COUNT_ALL,
    AggregateSpec,
    CellRestriction,
    CuboidSpec,
    PatternKind,
)
from repro.datagen import (
    SyntheticConfig,
    TransitConfig,
    base_spec,
    generate_event_database,
    generate_transit,
    round_trip_spec,
    single_trip_spec,
)
from repro.events.expression import Comparison, EventField, Literal

from .common import InProcess, Round, reference_cells

#: (synthetic sequences, transit cards, transit days)
FULL = (1000, 300, 7)
TINY = (120, 30, 3)


class ScanCold(InProcess):
    name = "scan_cold"
    exact_repeat = ("cb_seqs_scanned", "index_bytes_built", "answer_miss")

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.sizes = TINY if tiny else FULL

    # -- set-up: data generation and the op list ------------------------
    def setup(self) -> None:
        sequences, cards, days = self.sizes
        self.synthetic = generate_event_database(
            SyntheticConfig(I=100, L=20, theta=0.9, D=sequences, seed=self.seed)
        )
        self.transit = generate_transit(
            TransitConfig(n_cards=cards, n_days=days, seed=self.seed)
        )
        self.ops = self._op_list()

    def teardown(self) -> None:
        pass

    def _op_list(self) -> List[Tuple[str, object, CuboidSpec]]:
        syn, transit = self.synthetic, self.transit
        schema = syn.schema
        hot = Counter(syn.column("symbol")).most_common(1)[0][0]
        hot_group = schema.hierarchy("symbol").map_value(hot, "group")
        xy = base_spec(("X", "Y"))
        xy_group = base_spec(("X", "Y"), level="group")
        trip = single_trip_spec()
        subsequence = base_spec(
            ("X", "Y"), level="supergroup", kind=PatternKind.SUBSEQUENCE
        )
        shapes = [
            # simple substring windows, symbol and group level
            ("sub_xy_symbol", syn, xy),
            ("sub_xy_group", syn, xy_group),
            ("sub_xyz_symbol", syn, base_spec(("X", "Y", "Z"))),
            ("sub_xyz_group", syn, base_spec(("X", "Y", "Z"), level="group")),
            # accept-filtered windows: a slice, and a drill-down ``within``
            ("sliced_x", syn, ops.slice_pattern(xy, "X", hot)),
            (
                "within_x",
                syn,
                ops.p_drill_down(
                    ops.slice_pattern(xy_group, "X", hot_group), "X", schema
                ),
            ),
            # the generic matcher: repeats, SUBSEQUENCE, ANY, a predicate
            ("repeat_xyyx", syn, base_spec(("X", "Y", "Y", "X"), level="group")),
            ("subseq_xy", syn, subsequence),
            (
                "any_gap",
                syn,
                ops.append(
                    ops.append_wildcard(base_spec(("X",), level="group")),
                    "Y",
                    "symbol",
                    "group",
                ),
            ),
            ("inout_trip", transit, trip),
            ("inout_round_trip", transit, round_trip_spec(group_by_fare=False)),
            # the other two cell restrictions
            (
                "all_matched",
                syn,
                replace(xy_group, restriction=CellRestriction.ALL_MATCHED),
            ),
            (
                "left_max_data",
                syn,
                replace(xy_group, restriction=CellRestriction.LEFT_MAXIMALITY_DATA),
            ),
            # measures, WHERE, SEQUENCE GROUP BY
            (
                "sum_avg_amount",
                transit,
                replace(
                    trip,
                    aggregates=(
                        COUNT_ALL,
                        AggregateSpec("SUM", "amount"),
                        AggregateSpec("AVG", "amount"),
                    ),
                ),
            ),
            (
                "where_later_days",
                transit,
                replace(
                    trip,
                    where=Comparison(EventField("time"), ">=", Literal(1440)),
                ),
            ),
            ("group_by_fare_day", transit, round_trip_spec(group_by_fare=True)),
        ]
        # The slowest shape runs twice a round so the 95th percentile sits
        # inside its band (2 of 17 ops) instead of on the band's edge, and
        # 17 is odd so the median sits inside one shape's band too.
        shapes.append(("subseq_xy", syn, subsequence))
        random.Random(self.seed).shuffle(shapes)
        return shapes

    # -- reference answers ----------------------------------------------
    def prepare(self) -> None:
        engines = {
            id(db): SOLAPEngine(db, use_repository=False)
            for db in (self.synthetic, self.transit)
        }
        self.expected = {}
        for _, db, spec in self.ops:
            if spec not in self.expected:
                self.expected[spec] = reference_cells(engines[id(db)], spec)

    # -- one round -------------------------------------------------------
    def run_round(self) -> Round:
        round_ = Round()
        engines = {
            id(db): SOLAPEngine(db, use_repository=False)
            for db in (self.synthetic, self.transit)
        }
        for kind, db, spec in self.ops:
            engine = engines[id(db)]
            engine.invalidate_caches()
            self.execute(round_, engine, spec, "cb", self.expected[spec], kind)
        for engine in engines.values():
            self.engine_counters(round_, engine)
        return round_
