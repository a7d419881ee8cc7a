"""The paper's iterative workloads and the cache replay, as test drivers.

Each ``run_*`` function executes one of Section 5's iterative workloads
against a fresh engine with a chosen strategy and returns per-query
:class:`StepResult` work counters:

* **QuerySet A** — a slice + APPEND chain growing the template from
  (X, Y) to size six (Figure 16);
* **QuerySet B** — subcube + P-DRILL-DOWN / P-ROLL-UP over a 3-level
  hierarchy;
* **QuerySet C** — the restricted template chain ending at (X, Y, Y, X);
* **Clickstream exploration** — the real-data session Qa → Qb → Qc of
  Table 1.

Engines are fresh per run so CB and II start from identical cold states;
II runs optionally precompute the paper's base L2 index first ("three
size-two inverted indices at the finest level of abstraction were
precomputed", Section 5.2).

:func:`run_replay` replays one pinned-seed exploration session against
a plain exact-key LRU repository or the semantic cuboid cache, and
:func:`verify_bit_identity` recomputes every answer on a cold engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core import operations as ops
from repro.core.cuboid import SCuboid
from repro.core.engine import SOLAPEngine
from repro.core.spec import (
    CellRestriction,
    CuboidSpec,
    PatternKind,
    PatternSymbol,
    PatternTemplate,
)
from repro.core.stats import QueryStats
from repro.datagen.clickstream import two_step_spec
from repro.datagen.synthetic import SyntheticConfig, base_spec, generate_event_database
from repro.events.database import EventDatabase
from repro.index.registry import base_template

#: fresh symbol names used by the APPEND chains (after X, Y)
_CHAIN_SYMBOLS = ("Z", "A", "B", "C", "D", "E")


@dataclass
class StepResult:
    """Work counters for one query of an iterative experiment."""

    label: str
    strategy: str
    sequences_scanned: int
    index_bytes_built: int
    cells: int
    #: positions in the query's pattern template
    template_length: int


def _step(
    engine: SOLAPEngine, spec: CuboidSpec, label: str, strategy: str
) -> Tuple[SCuboid, StepResult]:
    cuboid, stats = engine.execute(spec, strategy)
    return cuboid, StepResult(
        label=label,
        strategy=stats.strategy,
        sequences_scanned=stats.sequences_scanned,
        index_bytes_built=stats.index_bytes_built,
        cells=len(cuboid),
        template_length=spec.template.length,
    )


def _precompute_l2(engine: SOLAPEngine, spec: CuboidSpec) -> QueryStats:
    """Precompute the base size-2 index for the spec's leading pair domain."""
    first = spec.template.symbols[0]
    domain = (first.attribute, first.level)
    pair = PatternTemplate.build(
        spec.template.kind, ("X", "Y"), {"X": domain, "Y": domain}
    )
    return engine.precompute(spec, [base_template(pair)])


# --------------------------------------------------------------------------
# QuerySet A (Figure 16): slice + APPEND chain
# --------------------------------------------------------------------------


def run_queryset_a(
    db: EventDatabase,
    strategy: str,
    n_queries: int = 5,
    level: str = "symbol",
    precompute: bool = True,
    kind: PatternKind = PatternKind.SUBSTRING,
) -> Tuple[List[StepResult], QueryStats]:
    """QA1..QAn: start at (X, Y); each next query slices the heaviest cell
    and APPENDs a fresh symbol.  Returns per-step results and the
    precomputation stats (zero when *precompute* is false or strategy=cb).
    """
    engine = SOLAPEngine(db, use_repository=False)
    spec = base_spec(("X", "Y"), level=level, kind=kind)
    pre_stats = QueryStats(strategy="precompute")
    if precompute and strategy == "ii":
        pre_stats = _precompute_l2(engine, spec)
    steps: List[StepResult] = []
    for query_index in range(n_queries):
        label = f"QA{query_index + 1}"
        cuboid, result = _step(engine, spec, label, strategy)
        steps.append(result)
        if query_index == n_queries - 1:
            break
        top = cuboid.argmax()
        if top is None:
            break
        __, cell_key, __unused = top
        for symbol, value in zip(spec.template.symbols, cell_key):
            spec = ops.slice_pattern(spec, symbol.name, value)
        attribute = spec.template.symbols[0].attribute
        spec = ops.append(spec, _CHAIN_SYMBOLS[query_index], attribute, level)
    return steps, pre_stats


# --------------------------------------------------------------------------
# QuerySet B: subcube + P-DRILL-DOWN / P-ROLL-UP
# --------------------------------------------------------------------------


def run_queryset_b(
    db: EventDatabase,
    strategy: str,
    mid_level: str = "group",
    precompute: bool = True,
) -> Tuple[List[StepResult], QueryStats]:
    """QB1 = (X, Y, Z) at the middle level; QB2 = subcube on the heaviest X
    then P-DRILL-DOWN X; QB3 = the same subcube on QB1 then P-ROLL-UP Y."""
    engine = SOLAPEngine(db, use_repository=False)
    qb1 = base_spec(("X", "Y", "Z"), level=mid_level)
    pre_stats = QueryStats(strategy="precompute")
    if precompute and strategy == "ii":
        pre_stats = engine.precompute(qb1, [base_template(qb1.template)])
    steps: List[StepResult] = []

    cuboid1, result1 = _step(engine, qb1, "QB1", strategy)
    steps.append(result1)

    # Subcube: the X value with the highest total count.
    totals: Dict[object, int] = {}
    for __, cell_key, values in cuboid1:
        totals[cell_key[0]] = totals.get(cell_key[0], 0) + int(
            values.get("COUNT(*)", 0) or 0
        )
    if not totals:
        return steps, pre_stats
    top_x = max(sorted(totals, key=repr), key=lambda v: totals[v])

    schema = db.schema
    qb2 = ops.slice_pattern(qb1, "X", top_x)
    qb2 = ops.p_drill_down(qb2, "X", schema)
    __, result2 = _step(engine, qb2, "QB2 (drill-down X)", strategy)
    steps.append(result2)

    qb3 = ops.slice_pattern(qb1, "X", top_x)
    qb3 = ops.p_roll_up(qb3, "Y", schema)
    __, result3 = _step(engine, qb3, "QB3 (roll-up Y)", strategy)
    steps.append(result3)
    return steps, pre_stats


# --------------------------------------------------------------------------
# QuerySet C: restricted template (X, Y, Y, X)
# --------------------------------------------------------------------------


def run_queryset_c(
    db: EventDatabase,
    strategy: str,
    level: str = "symbol",
    precompute: bool = True,
    kind: PatternKind = PatternKind.SUBSTRING,
) -> Tuple[List[StepResult], QueryStats]:
    """QC1 = (X, Y), QC2 = APPEND Y -> (X, Y, Y), QC3 = APPEND X ->
    (X, Y, Y, X): the repeated-symbol join chain of Section 4.2.2."""
    engine = SOLAPEngine(db, use_repository=False)
    spec = base_spec(("X", "Y"), level=level, kind=kind)
    pre_stats = QueryStats(strategy="precompute")
    if precompute and strategy == "ii":
        pre_stats = _precompute_l2(engine, spec)
    steps: List[StepResult] = []
    __, result = _step(engine, spec, "QC1 (X,Y)", strategy)
    steps.append(result)
    spec = ops.append(spec, "Y")
    __, result = _step(engine, spec, "QC2 (X,Y,Y)", strategy)
    steps.append(result)
    spec = ops.append(spec, "X")
    __, result = _step(engine, spec, "QC3 (X,Y,Y,X)", strategy)
    steps.append(result)
    return steps, pre_stats


# --------------------------------------------------------------------------
# Clickstream exploration (Table 1): Qa -> Qb -> Qc
# --------------------------------------------------------------------------


def run_clickstream_exploration(
    db: EventDatabase,
    strategy: str,
) -> List[StepResult]:
    """The published Gazelle exploration.

    Qa: two-step page accesses at page-category level.
    Qb: slice the (Assortment, Legwear) cell, P-DRILL-DOWN Y to raw pages.
    Qc: APPEND Z (another Legwear page) — comparison shopping.

    No indices are precomputed, matching Table 1's setup ("in this
    experiment we did not precompute any inverted index in advance").
    """
    engine = SOLAPEngine(db, use_repository=False)
    schema = db.schema
    steps: List[StepResult] = []

    qa = two_step_spec()
    __, result = _step(engine, qa, "Qa", strategy)
    steps.append(result)

    qb = ops.slice_pattern(qa, "X", "Assortment")
    qb = ops.slice_pattern(qb, "Y", "Legwear")
    qb = ops.p_drill_down(qb, "Y", schema)
    __, result = _step(engine, qb, "Qb", strategy)
    steps.append(result)

    qc = ops.append(qb, "Z", "page", "raw-page")
    # The appended page must also be Legwear-related (comparison shopping).
    restricted_z = PatternSymbol(
        "Z", "page", "raw-page", within=("page-category", "Legwear")
    )
    qc = replace(qc, template=qc.template.replace_symbol("Z", restricted_z))
    __, result = _step(engine, qc, "Qc", strategy)
    steps.append(result)
    return steps


# --------------------------------------------------------------------------
# Iterative-exploration replay: semantic cuboid cache vs plain LRU
# --------------------------------------------------------------------------

def build_replay_db() -> EventDatabase:
    """120 pinned-seed sequences: the whole replay session derives from them."""
    return generate_event_database(SyntheticConfig(I=100, L=20, theta=0.9, D=120, seed=42))


def build_replay_session(db: EventDatabase) -> List[Tuple[str, CuboidSpec]]:
    """The exploration session: 12 queries, deterministic given the db.

    Mix: 2 cold misses (the base view and an APPEND extension), 3 exact
    repeats (revisits), and 7 steps that are semantically derivable from
    earlier answers (pattern/global roll-ups, slices, a dice).  Slice
    values come from the first events, never from timing or randomness.
    """
    schema = db.schema
    hierarchy = schema.hierarchy("symbol")
    symbols = db.column("symbol")
    first_symbol = symbols[0]
    first_group = hierarchy.map_value(first_symbol, "group")
    second_group = hierarchy.map_value(symbols[1], "group")

    base = replace(
        base_spec(("X", "Y")),
        group_by=(("symbol", "group"),),
        restriction=CellRestriction.ALL_MATCHED,
    )
    rolled_x = ops.p_roll_up(base, "X", schema)
    rolled_xy = ops.p_roll_up(rolled_x, "Y", schema)
    global_up = ops.roll_up_global(base, "symbol", schema)
    sliced = ops.slice_global(base, "symbol", first_group)
    extended = ops.append(base, "Z", "symbol", "symbol")
    sliced_rolled = ops.p_roll_up(sliced, "X", schema)
    diced = ops.dice_global(base, "symbol", (first_group, second_group))
    pattern_sliced = ops.slice_pattern(base, "X", first_symbol)

    return [
        ("base L2 view", base),  # cold
        ("P-ROLL-UP X", rolled_x),  # derivable
        ("P-ROLL-UP X,Y", rolled_xy),  # derivable (from the previous step)
        ("revisit base", base),  # exact repeat
        ("ROLL-UP group dim", global_up),  # derivable
        ("SLICE group dim", sliced),  # derivable
        ("APPEND Z", extended),  # cold — never derivable
        ("DE-TAIL back", ops.de_tail(extended)),  # == base: exact repeat
        ("SLICE + P-ROLL-UP X", sliced_rolled),  # derivable (2 hops from base)
        ("revisit P-ROLL-UP X", rolled_x),  # exact repeat
        ("DICE group dim", diced),  # derivable
        ("pattern SLICE X", pattern_sliced),  # derivable
    ]


def run_replay(db: EventDatabase, semantic: bool) -> Dict:
    """Run the session once on a fresh engine; returns the steps + counters.

    ``work_drift`` counts exact/derived answers that report scan or
    index-build work: cache answers never touch base data, so it is 0.
    """
    engine = SOLAPEngine(
        db,
        semantic_cache=semantic,
        repository_policy="benefit" if semantic else "lru",
    )
    steps: List[Dict] = []
    for label, spec in build_replay_session(db):
        cuboid, stats = engine.execute(spec)
        steps.append(
            {
                "label": label,
                "spec": spec,
                "cuboid": cuboid,
                "answer": stats.extra.get("cache_answer", "miss").split(":", 1)[0],
                "sequences_scanned": stats.sequences_scanned,
                "index_bytes_built": stats.index_bytes_built,
            }
        )
    answers = [step["answer"] for step in steps]
    return {
        "steps": steps,
        "exact_hits": answers.count("exact"),
        "derived_hits": answers.count("derived"),
        "sequences_scanned": sum(step["sequences_scanned"] for step in steps),
        "cells": sum(len(step["cuboid"]) for step in steps),
        "work_drift": sum(
            1
            for step in steps
            if step["answer"] in ("exact", "derived")
            and (step["sequences_scanned"] or step["index_bytes_built"])
        ),
    }


def verify_bit_identity(db: EventDatabase, report: Dict) -> List[str]:
    """Recompute every answered step cold; return labels that mismatch."""
    mismatches = []
    for step in report["steps"]:
        cold, __ = SOLAPEngine(db, use_repository=False).execute(step["spec"])
        if cold.to_dict() != step["cuboid"].to_dict():
            mismatches.append(step["label"])
    return mismatches
