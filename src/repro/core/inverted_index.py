"""The inverted-index (II) S-cuboid construction strategy (Section 4.2.2).

Implements the paper's QueryIndices procedure (Figure 15) plus the
index-aware fast paths of the six S-OLAP operations:

* the *join chain*: starting from the longest available verified prefix
  index, repeatedly join with a size-2 index over the next position pair,
  verify candidates against the base sequences, and cache the result —
  so APPEND/PREPEND reuse everything built by earlier queries;
* *P-ROLL-UP by list merging* when the template has no repeated and no
  restricted symbols (the paper's validity condition — see the s6
  counter-example of Section 4.2.2), with automatic fallback otherwise;
* *P-DRILL-DOWN by list refinement*: rebuild at the finer level scanning
  only sequences listed under the relevant coarse lists;
* *domain-restricted on-demand builds*: any index built mid-chain only
  scans sequences already known to be candidates.

Counting (QueryIndices lines 10-11) has a constant-time fast path: with a
COUNT-only aggregate, no matching predicate and a left-maximality
restriction, a cell's count is simply its list length — no sequence access
at all.  Otherwise each distinct listed sequence is scanned exactly once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.aggregates import needs_contents
from repro.core.counter_based import finish, fold, group_is_selected
from repro.core.cuboid import SCuboid
from repro.core.matcher import make_matcher
from repro.core.spec import (
    CellRestriction,
    CuboidSpec,
    PatternSymbol,
    PatternTemplate,
)
from repro.core.stats import QueryStats
from repro.errors import EngineError, IndexError_
from repro.events.database import EventDatabase
from repro.events.schema import Schema
from repro.events.sequence import SequenceGroup, SequenceGroupSet
from repro.index.inverted import (
    InvertedIndex,
    build_index,
    join_indices,
    pair_template,
    prefix_template,
    refine_index,
    verify_index,
)
from repro.index.registry import IndexRegistry, base_template
from repro.obs.spans import span


def rollup_by_merge_is_valid(template: PatternTemplate) -> bool:
    """Validity of P-ROLL-UP by list merging (Section 4.2.2, operation 4).

    Merging is sound only when every coarse-level occurrence is witnessed
    by some fine-level list.  That fails for repeated symbols — the paper's
    s6 example: under (X, Y, Y, X), the sequence <Pentagon, Wheaton,
    Wheaton, Clarendon> occurs at the district level (D10 contains both
    Pentagon and Clarendon) but in no station-level list of the template.
    Without repeated symbols every position maps up independently, so a
    witness always exists; sliced symbols are then handled by filtering
    the fine lists through an ancestor constraint before merging.
    """
    return not template.has_repeated_symbols


def refine_template_to_levels(
    template: PatternTemplate,
    source_levels: Dict[str, str],
    schema: Schema,
) -> PatternTemplate:
    """The fine-level counterpart of *template* used before a merge roll-up.

    Each symbol moves down to its source-index level; a ``fixed`` value at
    the coarse level becomes a ``within`` ancestor constraint so the fine
    lists can be filtered by it.
    """
    out = template
    for symbol in template.symbols:
        src_level = source_levels.get(symbol.name, symbol.level)
        if src_level == symbol.level:
            continue
        within = None
        if symbol.fixed is not None:
            within = (symbol.level, symbol.fixed)
        elif symbol.within is not None:
            within = symbol.within
        out = out.replace_symbol(
            symbol.name,
            PatternSymbol(symbol.name, symbol.attribute, src_level, None, within),
        )
    return out


def coarsen_template(
    fine: PatternTemplate,
    coarse_levels: Dict[str, str],
    schema: Schema,
) -> PatternTemplate:
    """Map a template's symbols up to coarser levels, translating restrictions.

    *coarse_levels* maps symbol name -> target level.  A ``fixed`` value is
    translated up; a ``within`` constraint collapses to ``fixed`` when its
    anchor level equals the target level, and is kept when the anchor is
    still coarser than the target.
    """
    template = fine
    for symbol in fine.symbols:
        target_level = coarse_levels.get(symbol.name, symbol.level)
        if target_level == symbol.level:
            continue
        hierarchy = schema.hierarchy(symbol.attribute)
        fixed: Optional[object] = None
        within: Optional[Tuple[str, object]] = None
        if symbol.fixed is not None:
            fixed = hierarchy.translate(symbol.fixed, symbol.level, target_level)
        elif symbol.within is not None:
            anchor_level, anchor_value = symbol.within
            if anchor_level == target_level:
                fixed = anchor_value
            elif hierarchy.is_coarser(anchor_level, target_level):
                within = symbol.within
            # anchor finer than target: constraint dissolves at this level
        template = template.replace_symbol(
            symbol.name,
            PatternSymbol(
                symbol.name, symbol.attribute, target_level, fixed, within
            ),
        )
    return template


# --------------------------------------------------------------------------
# Index acquisition
# --------------------------------------------------------------------------


def _positions_compatible(
    candidate: PatternTemplate, target: PatternTemplate
) -> bool:
    """Same kind, same symbol-identity pattern, same attributes per position."""
    if candidate.kind != target.kind:
        return False
    if candidate.symbol_ids() != target.symbol_ids():
        return False
    return all(
        c.attribute == t.attribute
        for c, t in zip(candidate.symbols, target.symbols)
    )


def _find_rollup_source(
    group: SequenceGroup,
    template: PatternTemplate,
    schema: Schema,
    registry: IndexRegistry,
) -> Optional[InvertedIndex]:
    """A verified finer-level index the target can be merged from."""
    if not rollup_by_merge_is_valid(template):
        return None
    for index in registry.indices_for_group(group.key):
        source = index.template
        if not index.verified or not _positions_compatible(source, template):
            continue
        if source.has_restricted_symbols:
            continue
        strictly_finer = False
        ok = True
        for src_symbol, dst_symbol in zip(source.symbols, template.symbols):
            if dst_symbol.wildcard or src_symbol.wildcard:
                if dst_symbol.wildcard != src_symbol.wildcard:
                    ok = False
                    break
                continue
            hierarchy = schema.hierarchy(dst_symbol.attribute)
            if src_symbol.level == dst_symbol.level:
                continue
            if hierarchy.is_coarser(dst_symbol.level, src_symbol.level):
                strictly_finer = True
            else:
                ok = False
                break
        if ok and strictly_finer:
            return index
    return None


def _find_refine_source(
    group: SequenceGroup,
    template: PatternTemplate,
    schema: Schema,
    registry: IndexRegistry,
) -> Optional[InvertedIndex]:
    """A verified coarser-level index the target can be refined from."""
    for index in registry.indices_for_group(group.key):
        source = index.template
        if not index.verified or not _positions_compatible(source, template):
            continue
        if source.has_restricted_symbols:
            continue
        strictly_coarser = False
        ok = True
        for src_symbol, dst_symbol in zip(source.symbols, template.symbols):
            if dst_symbol.wildcard or src_symbol.wildcard:
                if dst_symbol.wildcard != src_symbol.wildcard:
                    ok = False
                    break
                continue
            hierarchy = schema.hierarchy(dst_symbol.attribute)
            if src_symbol.level == dst_symbol.level:
                continue
            if hierarchy.is_coarser(src_symbol.level, dst_symbol.level):
                strictly_coarser = True
            else:
                ok = False
                break
        if ok and strictly_coarser:
            return index
    return None


def acquire_index(
    group: SequenceGroup,
    template: PatternTemplate,
    schema: Schema,
    registry: IndexRegistry,
    stats: QueryStats,
) -> InvertedIndex:
    """Obtain a verified index for *template* over *group*.

    Strategy order (cheapest first):

    1. exact / base-filtered registry hit;
    2. P-ROLL-UP merge from a finer-level index (when valid);
    3. P-DRILL-DOWN refinement from a coarser-level index (restricted scan);
    4. the QueryIndices join chain from the longest available prefix;
    5. a from-scratch base build.
    """
    found = registry.find(group.key, template, schema)
    if found is not None and found.verified:
        stats.index_reused = True
        return found

    rollup_source = _find_rollup_source(group, template, schema, registry)
    if rollup_source is not None:
        with span("ii.rollup_merge") as merge_span:
            source_levels = {
                dst.name: src.level
                for src, dst in zip(
                    rollup_source.template.symbols, template.symbols
                )
            }
            fine_template = refine_template_to_levels(
                template, source_levels, schema
            )
            filtered = rollup_source.filter_for(fine_template, schema)
            position_levels = tuple(
                (symbol.attribute, symbol.level)
                for symbol in template.position_symbols()
            )
            merged = filtered.rollup(position_levels, schema, template, stats)
            merge_span.set("lists_out", len(merged))
        registry.put(merged)
        stats.index_reused = True
        return merged

    refine_source = _find_refine_source(group, template, schema, registry)
    if refine_source is not None:
        with span("ii.refine") as refine_span:
            coarse_levels = {
                dst.name: src.level
                for src, dst in zip(
                    refine_source.template.symbols, template.symbols
                )
            }
            coarsened = coarsen_template(template, coarse_levels, schema)
            try:
                filtered = refine_source.filter_for(coarsened, schema)
            except IndexError_:  # pragma: no cover - incompatible shapes
                filtered = refine_source
            refined = refine_index(filtered, template, group, schema, stats)
            refine_span.set("lists_out", len(refined))
        registry.put(refined)
        stats.index_reused = True
        return refined

    return _join_chain(group, template, schema, registry, stats)


def _join_chain(
    group: SequenceGroup,
    template: PatternTemplate,
    schema: Schema,
    registry: IndexRegistry,
    stats: QueryStats,
) -> InvertedIndex:
    """QueryIndices lines 5-9: extend the longest prefix index to length m."""
    m = template.length
    if m == 1:
        with span("ii.build_index", length=1):
            base = build_index(group, base_template(template), schema, stats)
        registry.put(base)
        return base.filter_for(template, schema)

    prefix_hit = registry.longest_prefix(group.key, template, schema)
    if prefix_hit is not None and prefix_hit[0] >= 2:
        current_length, current = prefix_hit
        stats.index_reused = True
    else:
        first_pair = prefix_template(template, 2)
        with span("ii.build_index", length=2):
            base = build_index(group, base_template(first_pair), schema, stats)
        registry.put(base)
        current = base.filter_for(first_pair, schema)
        current_length = 2

    while current_length < m:
        stats.checkpoint()  # cancellation point per join-chain step
        target_prefix = prefix_template(template, current_length + 1)
        pair = pair_template(template, current_length - 1)
        pair_index = registry.find(group.key, pair, schema)
        if pair_index is None:
            # Domain-restricted on-demand build: only candidate sequences
            # (those containing the current prefix) are scanned.
            with span("ii.build_index", length=2, restricted=True):
                pair_index = build_index(
                    group, pair, schema, stats, restrict_sids=current.all_sids()
                )
        with span("ii.join", target_length=current_length + 1):
            candidate = join_indices(
                current, pair_index, target_prefix, schema, stats
            )
        with span("ii.verify", target_length=current_length + 1) as verify_span:
            current = verify_index(candidate, group, schema, stats)
            verify_span.set("lists_out", len(current))
        registry.put(current)
        current_length += 1
    return current


# --------------------------------------------------------------------------
# Counting (QueryIndices lines 10-11)
# --------------------------------------------------------------------------


def count_index(
    index: InvertedIndex,
    group: SequenceGroup,
    spec: CuboidSpec,
    db: EventDatabase,
    stats: QueryStats,
) -> Dict[Tuple[object, ...], Dict[str, object]]:
    """Aggregate each index list into cuboid cell values for one group."""
    matcher = make_matcher(spec.template, db, spec.restriction, spec.predicate)
    fast_count = (
        not needs_contents(spec.aggregates)
        and spec.predicate is None
        and spec.restriction is not CellRestriction.ALL_MATCHED
    )
    cells: Dict[Tuple[object, ...], Dict[str, object]] = {}
    if fast_count:
        # Every listed sequence contains the pattern and there is nothing
        # further to verify: COUNT is the list length.
        count_name = spec.aggregates[0].name
        for values, sids in index.lists.items():
            if not sids:
                continue
            cell_key = matcher.cell_key(values)
            entry = cells.setdefault(cell_key, {count_name: 0})
            entry[count_name] += len(sids)  # type: ignore[operator]
        return cells

    # General path: fold each distinct listed sequence once, then keep
    # only the cells whose patterns the index lists.
    folded = fold(
        db,
        spec.aggregates,
        matcher,
        ((group.key, group.by_sid(sid)) for sid in sorted(index.all_sids())),
        stats,
    )
    wanted = set(index.lists)
    return {
        cell_key: values
        for (__, cell_key), values in finish(folded).items()
        if matcher.positions_key(cell_key) in wanted
    }


# --------------------------------------------------------------------------
# Top-level strategy
# --------------------------------------------------------------------------


def inverted_index_cuboid(
    db: EventDatabase,
    groups: SequenceGroupSet,
    spec: CuboidSpec,
    registry: IndexRegistry,
    stats: Optional[QueryStats] = None,
) -> SCuboid:
    """Compute an S-cuboid with the inverted-index strategy."""
    stats = stats if stats is not None else QueryStats()
    stats.strategy = stats.strategy or "II"
    if registry is None:
        raise EngineError("inverted-index strategy requires an index registry")
    slices = spec.sliced_groups()
    cells: Dict[Tuple[Tuple[object, ...], Tuple[object, ...]], Dict[str, object]] = {}
    for group in groups:
        if not group_is_selected(group.key, slices):
            continue
        stats.checkpoint()  # cancellation point per sequence group
        with span("ii.group", key=group.key) as group_span:
            index = acquire_index(
                group, spec.template, db.schema, registry, stats
            )
            with span("ii.count") as count_span:
                group_cells = count_index(index, group, spec, db, stats)
                count_span.set("cells_out", len(group_cells))
            group_span.set("lists", len(index))
        for cell_key, values in group_cells.items():
            cells[(group.key, cell_key)] = values
    return SCuboid(spec, cells)


def precompute_indices(
    groups: SequenceGroupSet,
    templates: List[PatternTemplate],
    schema: Schema,
    registry: IndexRegistry,
) -> QueryStats:
    """Offline precomputation of base indices (the experiments' setup step).

    For each template, the all-distinct unrestricted base variant is built
    per sequence group and registered.  Returns the build statistics.
    """
    stats = QueryStats(strategy="precompute")
    for group in groups:
        for template in templates:
            base = base_template(template)
            if registry.get_exact(group.key, base) is None:
                registry.put(build_index(group, base, schema, stats))
    return stats
