"""The counter-based (CB) S-cuboid construction strategy (Section 4.2.1).

CB is the paper's baseline (procedure CounterBased, Figure 7): one pass over
every sequence of every selected sequence group, enumerating each sequence's
qualifying cell assignments and bumping per-cell accumulators.  It builds no
auxiliary structures, so every query — including each step of an iterative
session — rescans the whole dataset.  Its strength is simplicity and
single-pass behaviour when the counter space fits in memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.aggregates import CellAccumulator
from repro.core.cuboid import SCuboid
from repro.core.matcher import CompiledMatcher, make_matcher
from repro.core.spec import AggregateSpec, CuboidSpec
from repro.core.stats import QueryStats
from repro.events.database import EventDatabase
from repro.events.sequence import Sequence, SequenceGroupSet
from repro.obs.spans import span

#: cells accumulator table: (group key, cell key) -> CellAccumulator
CellTable = Dict[Tuple[Tuple[object, ...], Tuple[object, ...]], CellAccumulator]


def group_is_selected(
    group_key: Tuple[object, ...], slices: Dict[int, object]
) -> bool:
    """Apply global-dimension slices/dices to a sequence-group key.

    A scalar slice value requires equality; a tuple (from dice) requires
    membership.
    """
    for index, value in slices.items():
        if isinstance(value, tuple):
            if group_key[index] not in value:
                return False
        elif group_key[index] != value:
            return False
    return True


def selected_sequences(
    groups: SequenceGroupSet, slices: Dict[int, object]
) -> Iterator[Tuple[Tuple[object, ...], Sequence]]:
    """The canonical scan order of the CB procedure: ``(group key,
    sequence)`` for every sequence of every selected group, group-major.

    The serial scan below folds exactly this order, and the shard
    planner (:mod:`repro.shard`) preserves it within each shard, so
    shard-local scans replay the same per-sequence fold order.
    """
    for group in groups:
        if not group_is_selected(group.key, slices):
            continue
        key = group.key
        for sequence in group:
            yield key, sequence


def fold(
    db: EventDatabase,
    aggregates: Tuple[AggregateSpec, ...],
    matcher: CompiledMatcher,
    pairs: Iterable[Tuple[Tuple[object, ...], Sequence]],
    stats: QueryStats,
    cells: Optional[CellTable] = None,
) -> CellTable:
    """Fold each sequence's cell assignments into per-cell accumulators.

    This is the loop body of procedure CounterBased (Figure 7): for every
    ``(group key, sequence)`` in *pairs*, count one scan and add each
    assigned content to the accumulator of its ``(group key, cell key)``.
    CB folds :func:`selected_sequences`, II counting folds the sequences
    its index lists, and online aggregation folds one shuffled chunk at a
    time into the same *cells* table.  COUNT/SUM/MIN/MAX and AVG as its
    (sum, count) pair are distributive or algebraic, so tables folded over
    disjoint inputs merge (:mod:`repro.shard.merge`).
    """
    if cells is None:
        cells = {}
    for group_key, sequence in pairs:
        stats.add_scan()
        for cell_key, contents in matcher.assignments(sequence).items():
            accumulator = cells.get((group_key, cell_key))
            if accumulator is None:
                accumulator = CellAccumulator(aggregates)
                cells[(group_key, cell_key)] = accumulator
            for content in contents:
                accumulator.add_assignment(db, sequence, content)
    return cells


def finish(
    cells: CellTable,
) -> Dict[Tuple[Tuple[object, ...], Tuple[object, ...]], Dict[str, object]]:
    """Final aggregate values per cell of a folded table."""
    return {key: accumulator.results() for key, accumulator in cells.items()}


def counter_based_cuboid(
    db: EventDatabase,
    groups: SequenceGroupSet,
    spec: CuboidSpec,
    stats: Optional[QueryStats] = None,
) -> SCuboid:
    """Compute an S-cuboid by scanning every sequence (procedure Figure 7).

    The paper's procedure runs once per sequence group; here the group loop
    is internal so one call yields the full (q+n)-dimensional cuboid.
    """
    stats = stats if stats is not None else QueryStats()
    stats.strategy = stats.strategy or "CB"
    matcher = make_matcher(spec.template, db, spec.restriction, spec.predicate)
    with span("cb.scan") as scan_span:
        scanned_before = stats.sequences_scanned
        with span("match.encoded") as m_span:
            cells = fold(
                db,
                spec.aggregates,
                matcher,
                selected_sequences(groups, spec.sliced_groups()),
                stats,
            )
            m_span.set(
                "sequences_scanned", stats.sequences_scanned - scanned_before
            )
        scan_span.set(
            "sequences_scanned", stats.sequences_scanned - scanned_before
        )
        scan_span.set("cells_out", len(cells))

    stats.checkpoint()
    return SCuboid(spec, finish(cells))
