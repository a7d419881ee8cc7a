"""``nav_index``: the paper's iterative chains on the inverted-index strategy.

Why: index build / join / roll-up / refine / verify and the II query
loop dominate; sequence formation is cached within a chain and the
matcher only verifies candidates — the mirror image of ``scan_cold``,
with the same matcher used for verification instead of enumeration.
One round runs ``variants`` copies of QuerySet A (5 steps), B (3), C (3)
on synthetic data and Table 1's Qa → Qb → Qc on the clickstream
analogue; variant *r* slices the *r*-th heaviest cell, so posting-list
sizes vary.  Each chain gets a fresh engine and, as in Section 5.2, the
base L2 index precomputed: that time counts toward ``ops_per_s`` but not
toward step latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.core import operations as ops
from repro.core.engine import SOLAPEngine
from repro.core.spec import CuboidSpec, PatternSymbol, PatternTemplate
from repro.datagen import (
    ClickstreamConfig,
    SyntheticConfig,
    base_spec,
    generate_clickstream,
    generate_event_database,
    remove_crawler_sessions,
    two_step_spec,
)
from repro.index.registry import base_template

from .common import InProcess, Round, reference_cells

#: (synthetic sequences, clickstream sessions, variants per round)
FULL = (2000, 2000, 4)
TINY = (150, 200, 2)

_APPENDED = ("Z", "A", "B", "C")


@dataclass
class Chain:
    label: str
    dataset: str
    #: (spec, templates) handed to ``engine.precompute`` before step 1
    precompute: Optional[Tuple[CuboidSpec, list]] = None
    steps: List[Tuple[str, CuboidSpec]] = field(default_factory=list)


def _heaviest(cuboid, rank: int):
    """The (group key, cell key) of the *rank*-th heaviest cell."""
    ordered = sorted(
        cuboid.cells.items(),
        key=lambda item: (-int(item[1].get("COUNT(*)", 0) or 0), repr(item[0])),
    )
    return ordered[min(rank, len(ordered) - 1)][0]


def _l2_pair(spec: CuboidSpec) -> PatternTemplate:
    """The size-two template over the spec's leading symbol domain."""
    first = spec.template.symbols[0]
    domain = (first.attribute, first.level)
    return base_template(
        PatternTemplate.build(
            spec.template.kind, ("X", "Y"), {"X": domain, "Y": domain}
        )
    )


Run = Callable[[str, CuboidSpec], object]


def _queryset_a(run: Run, chain: Chain, rank: int) -> None:
    spec = base_spec(("X", "Y"))
    chain.precompute = (spec, [_l2_pair(spec)])
    for index in range(5):
        cuboid = run(f"A{index + 1}", spec)
        if index == 4 or not len(cuboid):
            break
        _, cell_key = _heaviest(cuboid, rank)
        for symbol, value in zip(spec.template.symbols, cell_key):
            spec = ops.slice_pattern(spec, symbol.name, value)
        spec = ops.append(spec, _APPENDED[index], "symbol", "symbol")


def _queryset_b(run: Run, chain: Chain, rank: int, schema) -> None:
    qb1 = base_spec(("X", "Y", "Z"), level="group")
    chain.precompute = (qb1, [base_template(qb1.template)])
    cuboid = run("B1", qb1)
    totals: dict = {}
    for (_, cell_key), values in cuboid.cells.items():
        totals[cell_key[0]] = totals.get(cell_key[0], 0) + int(values["COUNT(*)"])
    if not totals:
        return
    ranked = sorted(totals, key=lambda value: (-totals[value], repr(value)))
    top_x = ranked[min(rank, len(ranked) - 1)]
    sliced = ops.slice_pattern(qb1, "X", top_x)
    run("B2_drill_down", ops.p_drill_down(sliced, "X", schema))
    run("B3_roll_up", ops.p_roll_up(sliced, "Y", schema))


def _queryset_c(run: Run, chain: Chain) -> None:
    spec = base_spec(("X", "Y"))
    chain.precompute = (spec, [_l2_pair(spec)])
    run("C1", spec)
    spec = ops.append(spec, "Y")
    run("C2", spec)
    run("C3", ops.append(spec, "X"))


def _table1(run: Run, rank: int, schema) -> None:
    # Table 1 precomputes nothing ("we did not precompute any inverted
    # index in advance").
    qa = two_step_spec()
    cuboid = run("Qa", qa)
    if not len(cuboid):
        return
    _, (first, second) = _heaviest(cuboid, rank)
    qb = ops.slice_pattern(ops.slice_pattern(qa, "X", first), "Y", second)
    qb = ops.p_drill_down(qb, "Y", schema)
    run("Qb", qb)
    qc = ops.append(qb, "Z", "page", "raw-page")
    same_category = PatternSymbol(
        "Z", "page", "raw-page", within=("page-category", second)
    )
    qc = replace(qc, template=qc.template.replace_symbol("Z", same_category))
    run("Qc", qc)


class NavIndex(InProcess):
    name = "nav_index"
    exact_repeat = (
        "cb_seqs_scanned",
        "ii_seqs_scanned",
        "index_bytes_built",
        "precompute_index_bytes",
        "answer_miss",
    )

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.sizes = TINY if tiny else FULL

    def setup(self) -> None:
        sequences, sessions, _ = self.sizes
        self.dbs = {
            "synthetic": generate_event_database(
                SyntheticConfig(I=100, L=20, theta=0.9, D=sequences, seed=self.seed)
            ),
            "clickstream": remove_crawler_sessions(
                generate_clickstream(
                    ClickstreamConfig(
                        n_sessions=sessions,
                        seed=self.seed,
                        p_start_assortment=0.18,
                        p_assortment_to_legwear=0.28,
                    )
                )
            ),
        }

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        """Walk every chain once on a counter-based engine.

        Navigation is data dependent (slice the r-th heaviest cell), so
        this pass both discovers each chain's spec list and records the
        reference cell table of every step.
        """
        engines = {
            name: SOLAPEngine(db, use_repository=False)
            for name, db in self.dbs.items()
        }
        self.expected: dict = {}
        self.chains: List[Chain] = []

        def walker(chain: Chain) -> Run:
            def run(kind: str, spec: CuboidSpec):
                if spec not in self.expected:
                    self.expected[spec] = reference_cells(
                        engines[chain.dataset], spec
                    )
                chain.steps.append((kind, spec))
                return _Cells(self.expected[spec])

            return run

        synthetic_schema = self.dbs["synthetic"].schema
        click_schema = self.dbs["clickstream"].schema
        for rank in range(self.sizes[2]):
            chain = Chain(f"A/{rank}", "synthetic")
            _queryset_a(walker(chain), chain, rank)
            self.chains.append(chain)
            chain = Chain(f"B/{rank}", "synthetic")
            _queryset_b(walker(chain), chain, rank, synthetic_schema)
            self.chains.append(chain)
            chain = Chain(f"C/{rank}", "synthetic")
            _queryset_c(walker(chain), chain)
            self.chains.append(chain)
            chain = Chain(f"T1/{rank}", "clickstream")
            _table1(walker(chain), rank, click_schema)
            self.chains.append(chain)

    def run_round(self) -> Round:
        round_ = Round()
        for chain in self.chains:
            engine = SOLAPEngine(self.dbs[chain.dataset], use_repository=False)
            if chain.precompute is not None:
                spec, templates = chain.precompute
                built = self.timed(
                    round_, lambda: engine.precompute(spec, templates)
                )
                round_.count("precompute_index_bytes", built.index_bytes_built)
            round_.bump("chains")
            for kind, spec in chain.steps:
                _, stats = self.execute(
                    round_, engine, spec, "ii", self.expected[spec], kind
                )
                if stats is not None and stats.strategy != "II":
                    round_.notes.append(
                        f"{chain.label} {kind} fell back to {stats.strategy}"
                    )
            self.engine_counters(round_, engine)
        return round_


class _Cells:
    """Just enough of an S-cuboid for the chain walkers: its cell table."""

    def __init__(self, cells: dict):
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)
