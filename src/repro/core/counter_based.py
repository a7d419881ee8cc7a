"""The counter-based (CB) S-cuboid construction strategy (Section 4.2.1).

CB is the paper's baseline (procedure CounterBased, Figure 7): one pass over
every sequence of every selected sequence group, enumerating each sequence's
qualifying cell assignments and bumping per-cell accumulators.  It builds no
auxiliary structures, so every query — including each step of an iterative
session — rescans the whole dataset.  Its strength is simplicity and
single-pass behaviour when the counter space fits in memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.aggregates import CellAccumulator
from repro.core.cuboid import SCuboid
from repro.core.matcher import make_matcher
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.events.database import EventDatabase
from repro.events.sequence import Sequence, SequenceGroup, SequenceGroupSet
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
) -> Iterator[Tuple[SequenceGroup, Sequence]]:
    """The canonical scan order of the CB procedure: every sequence of every
    selected group, group-major.

    The serial scan below iterates exactly this order, and the shard
    planner (:mod:`repro.shard`) preserves it within each shard, so
    shard-local scans replay the same per-sequence fold order.
    """
    for group in groups:
        if not group_is_selected(group.key, slices):
            continue
        for sequence in group:
            yield group, sequence


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
    matcher = make_matcher(
        spec.template, db.schema, spec.restriction, spec.predicate,
        db=db, stats=stats,
    )
    slices = spec.sliced_groups()
    cells: CellTable = {}

    kernel = stats.extra.get("matcher", "legacy")
    match_span = "match.encoded" if kernel == "compiled" else "match.legacy"
    with span("cb.scan") as scan_span:
        scan_span.set("kernel", kernel)
        scanned_before = stats.sequences_scanned
        with span(match_span) as m_span:
            for group, sequence in selected_sequences(groups, slices):
                stats.add_scan()
                assignments = matcher.assignments(sequence)
                for cell_key, contents in assignments.items():
                    accumulator = cells.get((group.key, cell_key))
                    if accumulator is None:
                        accumulator = CellAccumulator(spec.aggregates)
                        cells[(group.key, cell_key)] = accumulator
                    for content in contents:
                        accumulator.add_assignment(db, sequence, content)
            m_span.set(
                "sequences_scanned", stats.sequences_scanned - scanned_before
            )
        scan_span.set(
            "sequences_scanned", stats.sequences_scanned - scanned_before
        )
        scan_span.set("cells_out", len(cells))

    stats.checkpoint()
    return SCuboid(
        spec,
        {key: accumulator.results() for key, accumulator in cells.items()},
    )
