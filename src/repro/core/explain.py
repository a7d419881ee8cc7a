"""EXPLAIN: a human-readable execution plan for an S-OLAP query.

``explain(engine, spec)`` describes, without executing the query, how the
engine would answer it: the sequence-formation pipeline (and whether its
result is cached), which indices exist for the template, the acquisition
path the inverted-index strategy would take (exact hit / roll-up merge /
drill-down refinement / join chain / cold build), the counting mode, and
the cost model's CB-vs-II estimates with the recommended strategy.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.aggregates import needs_contents
from repro.core.engine import SOLAPEngine
from repro.core.inverted_index import (
    _find_refine_source,
    _find_rollup_source,
    rollup_by_merge_is_valid,
)
from repro.core.spec import CellRestriction, CuboidSpec
from repro.optimizer.cost_model import CostModel, profile_groups


class QueryPlan:
    """A structured explanation; renders as indented text."""

    def __init__(self) -> None:
        self.lines: List[Tuple[int, str]] = []
        #: structured side-channel (e.g. the query's resource profile);
        #: everything here must already be JSON-serialisable
        self.extra: dict = {}

    def add(self, text: str, depth: int = 0) -> None:
        self.lines.append((depth, text))

    def render(self) -> str:
        return "\n".join("  " * depth + text for depth, text in self.lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form (embedded in slow-query log entries)."""
        doc = {
            "plan_schema": 1,
            "lines": [
                {"depth": depth, "text": text} for depth, text in self.lines
            ],
        }
        if self.extra:
            doc["extra"] = dict(self.extra)
        return doc

    def __str__(self) -> str:
        return self.render()

    def __contains__(self, text: str) -> bool:
        return any(text in line for __, line in self.lines)


def explain(engine: SOLAPEngine, spec: CuboidSpec) -> QueryPlan:
    """Build the execution plan for *spec* on *engine* (does not execute)."""
    spec.validate(engine.db.schema)
    schema = engine.db.schema
    plan = QueryPlan()
    template = spec.template

    plan.add("S-OLAP query plan")
    plan.add(
        f"template: {template.kind.value}({', '.join(template.positions)}) "
        f"[m={template.length}, n={template.n_dims}"
        + (", wildcards" if template.has_wildcards else "")
        + "]",
        1,
    )

    # -- repository -------------------------------------------------------
    if engine.use_repository and spec.cache_key() in engine.repository:
        plan.add("cuboid repository: HIT — returned without computation", 1)
        return plan
    plan.add("cuboid repository: miss", 1)
    if engine.use_repository and getattr(engine, "semantic_cache", False):
        try:
            result = engine._derivation_planner().plan(spec, engine.repository)
        except Exception:  # pragma: no cover — explain must never fail a query
            result = None
        if result is not None and result.plan is not None:
            plan.add(
                "semantically derivable from cached cuboid via "
                + " → ".join(result.plan.describe()),
                2,
            )

    # -- pipeline ----------------------------------------------------------
    cached = spec.pipeline_key() in engine.sequence_cache
    plan.add(
        "sequence pipeline (select/cluster/order/group): "
        + ("cached" if cached else "will run"),
        1,
    )
    groups = engine.sequence_groups(spec)
    plan.add(
        f"{len(groups)} sequence group(s), {groups.total_sequences()} sequences",
        2,
    )

    # -- index situation ---------------------------------------------------
    plan.add("inverted-index acquisition per group:", 1)
    registry = engine.registry_for(spec)
    for group in groups:
        label = f"group {group.key!r}" if group.key else "the single group"
        exact = registry.find(group.key, template, schema)
        if exact is not None and exact.verified:
            plan.add(f"{label}: exact index hit ({len(exact)} lists)", 2)
            continue
        if rollup_by_merge_is_valid(template) and _find_rollup_source(
            group, template, schema, registry
        ):
            plan.add(f"{label}: P-ROLL-UP merge from a finer index (no scans)", 2)
            continue
        if _find_refine_source(group, template, schema, registry):
            plan.add(
                f"{label}: P-DRILL-DOWN refinement (scan only listed sequences)",
                2,
            )
            continue
        prefix = registry.longest_prefix(group.key, template, schema)
        if prefix is not None and prefix[0] >= 2:
            steps = template.length - prefix[0]
            plan.add(
                f"{label}: join chain from cached L{prefix[0]} "
                f"({steps} join+verify step(s))",
                2,
            )
        else:
            plan.add(
                f"{label}: cold — build base index scanning "
                f"{len(group)} sequences, then join chain",
                2,
            )

    # -- counting mode ------------------------------------------------------
    fast = (
        not needs_contents(spec.aggregates)
        and spec.predicate is None
        and spec.restriction is not CellRestriction.ALL_MATCHED
    )
    plan.add(
        "counting: "
        + (
            "list lengths (no sequence access)"
            if fast
            else "scan each listed sequence once (predicate/aggregate/"
            "ALL-MATCHED requires contents)"
        ),
        1,
    )

    # -- cost model ----------------------------------------------------------
    domains = tuple(
        (s.attribute, s.level) for s in template.symbols if not s.wildcard
    )
    profile = profile_groups(engine.db, groups, domains)
    model = CostModel(profile)
    group_key = next(iter(groups)).key if len(groups) else ()
    choice, cb, ii = model.choose(spec, registry, group_key, schema)
    plan.add("cost model:", 1)
    plan.add(f"CB : {cb.scan_equivalents:10.0f} scan-eq — {cb.detail}", 2)
    plan.add(f"II : {ii.scan_equivalents:10.0f} scan-eq — {ii.detail}", 2)
    plan.add(f"recommended strategy: {choice.upper()}", 1)
    return plan
