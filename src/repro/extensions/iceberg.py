"""Iceberg S-cuboids (Section 6, Performance discussion).

"Many S-cuboid cells are often sparsely distributed within the S-cuboid
space ... introducing an iceberg condition (a minimum support threshold)
to filter out cells with low-support count would increase both S-OLAP
performance and usability as well as reduce space."

Two implementations:

* :func:`iceberg_counter_based` — CB with output filtering (the threshold
  cannot prune a full scan, only the result);
* :func:`iceberg_inverted_index` — II with *anti-monotone list pruning*:
  under left-maximality a cell's count is bounded by its list length, and
  a pattern's list is a subset of every prefix's list, so any intermediate
  list shorter than the threshold can be discarded before further joins —
  the classical iceberg-cube idea ([4] in the paper) transplanted onto the
  inverted-index chain.

Pruned intermediate indices are deliberately *not* registered in the
engine's registry: they are incomplete below the threshold and would
corrupt non-iceberg queries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.counter_based import counter_based_cuboid, group_is_selected
from repro.core.cuboid import SCuboid
from repro.core.inverted_index import count_index
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.errors import SpecError
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroup, SequenceGroupSet
from repro.index.inverted import (
    InvertedIndex,
    build_index,
    join_indices,
    pair_template,
    prefix_template,
    verify_index,
)
from repro.index.registry import base_template


def filter_min_support(cuboid: SCuboid, min_support: int) -> SCuboid:
    """``HAVING COUNT(*) >= min_support`` over a finished cuboid."""
    count_name = "COUNT(*)"
    kept = {
        key: values
        for key, values in cuboid.cells.items()
        if int(values.get(count_name, 0) or 0) >= min_support
    }
    return SCuboid(cuboid.spec, kept)


def iceberg_counter_based(
    db: EventDatabase,
    groups: SequenceGroupSet,
    spec: CuboidSpec,
    min_support: int,
    stats: Optional[QueryStats] = None,
) -> SCuboid:
    """CB baseline: full scan, then drop cells below *min_support*."""
    if min_support < 1:
        raise SpecError("min_support must be >= 1")
    stats = stats if stats is not None else QueryStats()
    stats.strategy = "iceberg-CB"
    cuboid = counter_based_cuboid(db, groups, spec, stats)
    return filter_min_support(cuboid, min_support)


def _prune(index: InvertedIndex, min_support: int, stats: QueryStats) -> InvertedIndex:
    pruned = {
        values: sids
        for values, sids in index.lists.items()
        if len(sids) >= min_support
    }
    stats.extra["lists_pruned"] = (
        int(stats.extra.get("lists_pruned", 0)) + len(index.lists) - len(pruned)
    )
    return InvertedIndex(index.template, index.group_key, pruned, index.verified)


def _iceberg_index(
    group: SequenceGroup,
    spec: CuboidSpec,
    db: EventDatabase,
    min_support: int,
    stats: QueryStats,
) -> InvertedIndex:
    """A support-pruned join chain for one group (never registered)."""
    template = spec.template
    schema = db.schema
    m = template.length
    if m == 1:
        base = build_index(group, base_template(template), schema, stats)
        return _prune(base.filter_for(template, schema), min_support, stats)
    first_pair = prefix_template(template, 2)
    base = build_index(group, base_template(first_pair), schema, stats)
    current = _prune(base.filter_for(first_pair, schema), min_support, stats)
    current_length = 2
    while current_length < m:
        target = prefix_template(template, current_length + 1)
        pair = pair_template(template, current_length - 1)
        pair_index = build_index(
            group, pair, schema, stats, restrict_sids=current.all_sids()
        )
        candidate = join_indices(current, pair_index, target, schema, stats)
        candidate = _prune(candidate, min_support, stats)
        current = _prune(
            verify_index(candidate, group, schema, stats), min_support, stats
        )
        current_length += 1
    return current


def iceberg_inverted_index(
    db: EventDatabase,
    groups: SequenceGroupSet,
    spec: CuboidSpec,
    min_support: int,
    stats: Optional[QueryStats] = None,
) -> SCuboid:
    """II with anti-monotone list pruning between join steps.

    Sound for COUNT under left-maximality restrictions: a cell's count
    never exceeds its list length, and list lengths never grow along the
    join chain.  ALL-MATCHED counts can exceed list lengths (one sequence
    may contribute several occurrences), so that restriction is rejected.
    """
    if min_support < 1:
        raise SpecError("min_support must be >= 1")
    from repro.core.spec import CellRestriction

    if spec.restriction is CellRestriction.ALL_MATCHED:
        raise SpecError(
            "iceberg pruning by list length is unsound under ALL-MATCHED"
        )
    stats = stats if stats is not None else QueryStats()
    stats.strategy = "iceberg-II"
    slices = spec.sliced_groups()
    cells: Dict[Tuple[Tuple[object, ...], Tuple[object, ...]], Dict[str, object]] = {}
    for group in groups:
        if not group_is_selected(group.key, slices):
            continue
        index = _iceberg_index(group, spec, db, min_support, stats)
        for cell_key, values in count_index(index, group, spec, db, stats).items():
            cells[(group.key, cell_key)] = values
    return filter_min_support(SCuboid(spec, cells), min_support)
