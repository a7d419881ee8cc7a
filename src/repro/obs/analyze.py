"""EXPLAIN ANALYZE: annotate an executed query's plan with measured cost.

Where :func:`repro.core.explain.explain` predicts what the engine *would*
do, :func:`explain_analyze` reports what it *did*: per-stage wall time
for the five S-cuboid construction stages (selection, clustering,
sequence formation, grouping, aggregation), rows/sequences flowing
between them, cache outcomes, the II build/join/verify chain, and the
strategy actually chosen next to the cost model's prediction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.explain import QueryPlan
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.obs.spans import Span

#: canonical display order of the construction stages (paper Section 3.2
#: steps 1-4 plus the strategy's aggregation pass)
STAGE_NAMES: Tuple[str, ...] = (
    "selection",
    "clustering",
    "sequence_formation",
    "grouping",
    "aggregation",
)


def stage_timings(
    root: Span, include_remote: bool = False
) -> List[Tuple[str, float, float]]:
    """Per-stage ``(name, start_offset_seconds, duration_seconds)`` records.

    Stages are returned in execution order (by start time).  A cached
    sequence pipeline contributes no selection/clustering/... stages —
    only the stages that actually ran appear.  Grafted worker subtrees
    (nodes carrying an ``origin``) are skipped unless *include_remote*:
    their wall time already lives inside the coordinator-side stage that
    scattered them, so counting both would double-book ``accounted``.
    """
    found: List[Tuple[str, float, float]] = []

    def visit(node: Span) -> None:
        if not include_remote and node.origin is not None:
            return
        if node.name in STAGE_NAMES:
            found.append(
                (node.name, node.start - root.start, node.duration_seconds)
            )
        for child in node.children:
            visit(child)

    visit(root)
    found.sort(key=lambda item: item[1])
    return found


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f} ms"


def _stage_detail(root: Span, name: str) -> str:
    node = root.find(name)
    if node is None:
        return ""
    parts = []
    for key in (
        "rows_in",
        "rows_out",
        "clusters_out",
        "sequences_out",
        "groups_out",
        "sequences_scanned",
        "cells_out",
        "strategy",
    ):
        if key in node.attrs:
            parts.append(f"{key.replace('_', ' ')}={node.attrs[key]}")
    return ", ".join(parts)


def _cost_prediction(engine, spec: CuboidSpec) -> Optional[Tuple[str, float, float]]:
    """(predicted strategy, cb scan-eq, ii scan-eq), or None on any failure."""
    try:
        from repro.optimizer.cost_model import CostModel, profile_groups

        groups = engine.sequence_groups(spec)
        key = spec.pipeline_key()
        profile = engine._profiles.get(key)
        if profile is None:
            domains = tuple(
                (symbol.attribute, symbol.level)
                for symbol in spec.template.symbols
                if not symbol.wildcard
            )
            profile = profile_groups(engine.db, groups, domains)
            engine._profiles[key] = profile
        model = CostModel(profile)
        group_key = next(iter(groups)).key if len(groups) else ()
        choice, cb, ii = model.choose(
            spec, engine.registry_for(spec), group_key, engine.db.schema
        )
        return choice, cb.scan_equivalents, ii.scan_equivalents
    except Exception:  # noqa: BLE001 - analysis must never fail the query
        return None


def explain_analyze(
    engine,
    spec: CuboidSpec,
    stats: QueryStats,
    root: Span,
) -> QueryPlan:
    """Build the annotated (measured) plan for one executed query."""
    plan = QueryPlan()
    template = spec.template
    total = root.duration_seconds or stats.runtime_seconds

    plan.add("EXPLAIN ANALYZE — S-OLAP query")
    plan.add(
        f"template: {template.kind.value}({', '.join(template.positions)}) "
        f"[m={template.length}, n={template.n_dims}]",
        1,
    )
    plan.add(f"total: {_fmt_ms(total)}", 1)

    if stats.cuboid_cache_hit:
        plan.add("cuboid repository: HIT — returned without computation", 1)
        return plan
    cache_answer = stats.extra.get("cache_answer", "")
    if isinstance(cache_answer, str) and cache_answer.startswith("derived:"):
        plan.add(
            "cuboid repository: semantic HIT — derived via "
            f"{cache_answer[len('derived:'):]} (no scan, no aggregation)",
            1,
        )
        for step in stats.extra.get("derivation_chain", ()):
            plan.add(f"derive: {step}", 2)
        return plan
    plan.add("cuboid repository: miss", 1)

    # -- strategy: chosen vs cost-model prediction -----------------------
    chosen = (stats.strategy or "?").upper()
    prediction = _cost_prediction(engine, spec)
    if prediction is not None:
        predicted, cb_cost, ii_cost = prediction
        verdict = "agrees" if predicted.upper() == chosen else "disagrees"
        plan.add(
            f"strategy: {chosen} (cost model predicts {predicted.upper()} "
            f"[CB {cb_cost:.0f} vs II {ii_cost:.0f} scan-eq] — {verdict})",
            1,
        )
    else:
        plan.add(f"strategy: {chosen}", 1)

    # -- kernels actually used -------------------------------------------
    plan.add(f"matcher kernel: {stats.kernel or 'none (no fold ran)'}", 1)
    join_kernel = stats.extra.get("join_kernel")
    if join_kernel is not None:
        plan.add(f"join intersection kernel: {join_kernel}", 1)

    # -- scatter-gather shard fan-out -------------------------------------
    fanout = stats.extra.get("shard_fanout")
    if fanout is not None:
        backend = stats.extra.get("scan_backend", "serial")
        skew = stats.extra.get("shard_skew")
        skew_text = f", skew {skew:.2f}" if skew is not None else ""
        plan.add(
            f"shard fan-out: {fanout} shard(s) on {backend} backend"
            f"{skew_text} — partial S-cuboids merged",
            1,
        )

    # -- distributed execution: per-worker stage breakdown -----------------
    profile = stats.extra.get("resource_profile")
    if profile:
        plan.extra["resource_profile"] = profile
        plan.add("distributed execution:", 1)
        plan.add(
            f"backend {profile.get('backend', '?')}, "
            f"fanout {profile.get('fanout', 0)}, "
            f"skew {profile.get('skew', 1.0):.2f}, "
            f"{profile.get('sequences_scanned', 0)} sequences / "
            f"{profile.get('rows_scanned', 0)} rows scanned "
            f"(~{profile.get('bytes_scanned', 0) / 1e6:.2f} MB encoded)",
            2,
        )
        plan.add(
            f"merge: {profile.get('cells_merged', 0)} partial cells in "
            f"{_fmt_ms(profile.get('merge_seconds', 0.0))}",
            2,
        )
        for worker in profile.get("workers", ()):
            plan.add(
                f"shard {worker.get('shard', '?')} "
                f"(pid {worker.get('pid', 0)}): "
                f"attach {_fmt_ms(worker.get('attach_s', 0.0))}, "
                f"rebuild {_fmt_ms(worker.get('rebuild_s', 0.0))}, "
                f"match {_fmt_ms(worker.get('match_s', 0.0))}, "
                f"fold {_fmt_ms(worker.get('fold_s', 0.0))} — "
                f"{worker.get('sequences_scanned', 0)} seq, "
                f"{worker.get('cells_out', 0)} cells",
                2,
            )
    remote_roots = [node for node in root.walk() if node.origin is not None]
    if remote_roots and not profile:
        plan.add(
            f"distributed execution: {len(remote_roots)} worker span "
            "subtree(s) grafted (see trace export for stage detail)",
            1,
        )

    # -- the five stages, measured ---------------------------------------
    stages = stage_timings(root)
    plan.add("stages:", 1)
    if stats.sequence_cache_hit:
        plan.add(
            "selection/clustering/sequence formation/grouping: "
            "SKIPPED (sequence-cache hit)",
            2,
        )
    for name, __, duration in stages:
        detail = _stage_detail(root, name)
        label = name.replace("_", " ")
        plan.add(
            f"{label}: {_fmt_ms(duration)}" + (f" — {detail}" if detail else ""),
            2,
        )
    if stages:
        accounted = sum(duration for __, __unused, duration in stages)
        plan.add(
            f"accounted: {_fmt_ms(accounted)} of {_fmt_ms(total)} "
            f"({100.0 * accounted / total if total else 0.0:.1f}%)",
            2,
        )

    # -- II chain ---------------------------------------------------------
    builds = root.find_all("ii.build_index")
    joins = root.find_all("ii.join")
    verifies = root.find_all("ii.verify")
    transforms = root.find_all("ii.rollup_merge") + root.find_all("ii.refine")
    if builds or joins or verifies or transforms:
        plan.add("inverted-index chain:", 1)
        for label, nodes in (
            ("BuildIndex", builds),
            ("join", joins),
            ("verify", verifies),
            ("merge/refine", transforms),
        ):
            if nodes:
                spent = sum(node.duration_seconds for node in nodes)
                plan.add(f"{label}: {len(nodes)} step(s), {_fmt_ms(spent)}", 2)

    # -- caches and counters ----------------------------------------------
    plan.add(
        "caches: "
        f"sequence-cache hit={stats.sequence_cache_hit}, "
        f"index reused={stats.index_reused}",
        1,
    )
    plan.add(
        "counters: "
        f"{stats.sequences_scanned} sequences scanned, "
        f"{stats.indices_built} indices built "
        f"({stats.index_bytes_built / 1e6:.3f} MB), "
        f"{stats.index_joins} joins",
        1,
    )

    # -- service-side waits (present when traced through the service) -----
    admission = root.find("service.admission")
    if admission is not None:
        plan.add(
            f"service admission wait: {_fmt_ms(admission.duration_seconds)}", 1
        )
    return plan
