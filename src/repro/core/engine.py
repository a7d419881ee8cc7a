"""The S-OLAP engine (architecture of Figure 6).

The engine owns the event database plus the three auxiliary stores —
sequence cache, cuboid repository, inverted-index registry — and answers
:class:`~repro.core.spec.CuboidSpec` queries with either construction
strategy:

* ``"cb"`` — counter-based full scan (Section 4.2.1),
* ``"ii"`` — inverted-index join/merge/refine (Section 4.2.2),
* ``"auto"`` — II when any useful index exists for the template's group
  set, CB otherwise (a first-cut of the query optimiser the paper leaves
  as future work).

Every execution returns ``(SCuboid, QueryStats)``; stats carry wall time,
sequences scanned and index bytes built — the quantities the paper reports.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

from repro.core.counter_based import counter_based_cuboid
from repro.core.cuboid import SCuboid
from repro.core.inverted_index import inverted_index_cuboid, precompute_indices
from repro.core.repository import CuboidRepository
from repro.core.spec import CellRestriction, CuboidSpec, PatternTemplate
from repro.core.stats import QueryStats
from repro.errors import EngineError
from repro.events.cache import SequenceCache
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroupSet, build_sequence_groups
from repro.index.registry import IndexRegistry
from repro.obs.spans import Tracer, span, tracing_active

STRATEGIES = ("auto", "cb", "ii", "cost")


class RegistryView:
    """Read-only aggregate over the engine's per-pipeline index registries.

    Indices are only valid for the sequence-formation pipeline they were
    built over (a WHERE clause changes which sequences exist, clustering
    changes what a sequence *is*), so the engine keeps one
    :class:`IndexRegistry` per pipeline key.  This view exists for
    introspection and maintenance across all of them; index lookups that
    matter for correctness go through :meth:`SOLAPEngine.registry_for`.
    """

    def __init__(self, registries: dict):
        self._registries = registries

    def __len__(self) -> int:
        return sum(len(registry) for registry in self._registries.values())

    def __iter__(self):
        for registry in self._registries.values():
            yield from registry

    def total_bytes(self) -> int:
        return sum(r.total_bytes() for r in self._registries.values())

    def clear(self) -> None:
        self._registries.clear()

    def evict_to_budget(self, byte_budget: int) -> Tuple[int, int]:
        """LRU-evict indices across every pipeline until bytes fit the budget.

        Index ticks are process-wide (see :class:`IndexRegistry`), so the
        coldest index overall goes first regardless of which pipeline owns
        it.  Returns ``(indices_dropped, bytes_freed)``.
        """
        over = self.total_bytes() - byte_budget
        if over <= 0:
            return 0, 0
        entries = []
        for registry in self._registries.values():
            for tick, group_key, signature, size in registry.lru_entries():
                entries.append((tick, registry, group_key, signature, size))
        entries.sort(key=lambda entry: entry[0])
        dropped = 0
        freed = 0
        for __, registry, group_key, signature, size in entries:
            if over <= 0:
                break
            if registry.drop(group_key, signature):
                registry.evictions += 1
                dropped += 1
                freed += size
                over -= size
        return dropped, freed

    def find(self, group_key, template, schema):
        """First hit across pipelines (introspection only)."""
        for registry in self._registries.values():
            hit = registry.find(group_key, template, schema)
            if hit is not None:
                return hit
        return None

    def get_exact(self, group_key, template):
        for registry in self._registries.values():
            hit = registry.get_exact(group_key, template)
            if hit is not None:
                return hit
        return None

    def longest_prefix(self, group_key, template, schema):
        best = None
        for registry in self._registries.values():
            hit = registry.longest_prefix(group_key, template, schema)
            if hit is not None and (best is None or hit[0] > best[0]):
                best = hit
        return best

    def indices_for_group(self, group_key):
        out = []
        for registry in self._registries.values():
            out.extend(registry.indices_for_group(group_key))
        return out

    def __repr__(self) -> str:
        return (
            f"RegistryView({len(self)} indices over "
            f"{len(self._registries)} pipelines)"
        )


class SOLAPEngine:
    """Query engine over one event database."""

    def __init__(
        self,
        db: EventDatabase,
        sequence_cache_size: int = 16,
        repository_size: int = 64,
        use_repository: bool = True,
        repository_policy: str = "benefit",
        semantic_cache: bool = True,
    ):
        self.db = db
        self.sequence_cache = SequenceCache(sequence_cache_size)
        self.repository = CuboidRepository(repository_size, policy=repository_policy)
        #: consult the semantic cache (derive answers from cached cuboids)
        #: on exact-key misses; requires use_repository
        self.semantic_cache = semantic_cache
        #: per-op semantic-cache telemetry, exported as the
        #: solap_cuboid_semantic_{hits,derivations,rejects}_total families
        self.semantic_hits: dict = {}
        self.semantic_derivations: dict = {}
        self.semantic_rejects: dict = {}
        self._planner = None
        #: one IndexRegistry per pipeline key — indices built over one
        #: sequence formation must never serve another (different WHERE /
        #: CLUSTER BY produce different sequences under the same group key)
        self._registries: dict = {}
        self.use_repository = use_repository
        self.queries_executed = 0
        #: cumulative query telemetry (one cheap add per query, never
        #: per-row) — exported by obs.metrics.register_engine_metrics
        self.strategy_counts: dict = {}
        self.sequences_scanned_total = 0
        self.rows_aggregated_total = 0
        #: index evictions carried over from dropped pipeline registries
        self._index_evictions_carried = 0
        self._profiles: dict = {}
        #: the one optional execution seam (``repro.shard``), installed by
        #: the service layer when ``shards >= 2``: ``(db, groups, spec,
        #: stats, strategy) -> Optional[SCuboid]``.  Consulted before the
        #: serial CB/II kernels; a None return means "declined — run the
        #: kernel" (fan-out 1).
        self.scatter_gather: Optional[
            Callable[
                [EventDatabase, SequenceGroupSet, CuboidSpec, QueryStats, str],
                Optional[SCuboid],
            ]
        ] = None

    @property
    def registry(self) -> RegistryView:
        """Aggregate, read-only view over all per-pipeline registries."""
        return RegistryView(self._registries)

    def registry_for(self, spec: CuboidSpec) -> IndexRegistry:
        """The index registry of *spec*'s sequence-formation pipeline."""
        key = spec.pipeline_key()
        registry = self._registries.get(key)
        if registry is None:
            registry = IndexRegistry()
            self._registries[key] = registry
        return registry

    # ------------------------------------------------------------------
    # Pipeline steps 1-4, cached
    # ------------------------------------------------------------------
    def sequence_groups(
        self, spec: CuboidSpec, stats: Optional[QueryStats] = None
    ) -> SequenceGroupSet:
        """Sequence groups for a spec, served from the sequence cache."""
        key = spec.pipeline_key()
        groups = self.sequence_cache.get(key)
        if groups is not None:
            if stats is not None:
                stats.sequence_cache_hit = True
            return groups
        groups = build_sequence_groups(
            self.db, spec.where, spec.cluster_by, spec.sequence_by, spec.group_by
        )
        self.sequence_cache.put(key, groups)
        return groups

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        spec: CuboidSpec,
        strategy: str = "auto",
        deadline: Optional[object] = None,
        analyze: bool = False,
    ) -> Tuple[SCuboid, QueryStats]:
        """Answer one S-cuboid query.

        Checks the cuboid repository first (Figure 6's flow); on a miss,
        builds the cuboid with the selected strategy and stores it.
        *deadline* (any object with a ``check()`` raising on expiry, e.g.
        :class:`repro.service.deadline.Deadline`) is threaded through the
        strategies' hot loops for cooperative cancellation.

        With ``analyze=True`` the query runs under a tracing span tree
        (EXPLAIN ANALYZE): the returned stats carry ``stats.trace`` (the
        root :class:`~repro.obs.spans.Span`) and ``stats.plan`` (an
        annotated :class:`~repro.core.explain.QueryPlan` with per-stage
        wall times, row flow, cache outcomes and the strategy chosen
        next to the cost model's prediction).
        """
        if not analyze:
            return self._execute(spec, strategy, deadline)
        from repro.obs.analyze import explain_analyze

        if tracing_active():
            # Join the caller's trace (e.g. ``solap trace`` wrapping the
            # whole service call) instead of starting a nested one.
            with span("query") as root:
                cuboid, stats = self._execute(spec, strategy, deadline)
        else:
            with Tracer("query") as tracer:
                cuboid, stats = self._execute(spec, strategy, deadline)
            root = tracer.root
        stats.trace = root
        stats.plan = explain_analyze(self, spec, stats, root)
        return cuboid, stats

    def _execute(
        self,
        spec: CuboidSpec,
        strategy: str,
        deadline: Optional[object] = None,
    ) -> Tuple[SCuboid, QueryStats]:
        if strategy not in STRATEGIES:
            raise EngineError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        spec.validate(self.db.schema)
        stats = QueryStats(deadline=deadline)
        start = time.perf_counter()
        self.queries_executed += 1

        cache_key = spec.cache_key()
        if self.use_repository:
            cached = self.repository.get(cache_key)
            if cached is not None:
                stats.strategy = "cache"
                stats.cuboid_cache_hit = True
                stats.extra["cache_answer"] = "exact"
                stats.runtime_seconds = time.perf_counter() - start
                self._count_query(stats, cached)
                return cached, stats
            derived = self._try_derive(spec, cache_key, stats)
            if derived is not None:
                stats.runtime_seconds = time.perf_counter() - start
                self._count_query(stats, derived)
                return derived, stats
        stats.extra["cache_answer"] = "miss"

        groups = self.sequence_groups(spec, stats)
        stats.checkpoint()  # sequence formation can itself be slow
        if strategy == "auto":
            strategy = self._choose_strategy(spec, groups)
        elif strategy == "cost":
            strategy = self._choose_by_cost(spec, groups, stats)
        stats.strategy = strategy.upper()

        with span("aggregation", strategy=stats.strategy) as agg_span:
            if spec.min_support is None:
                cuboid = self._aggregate(groups, spec, stats, strategy)
            else:
                cuboid = self._iceberg(groups, spec, stats, strategy)
            agg_span.set("sequences_scanned", stats.sequences_scanned)
            agg_span.set("cells_out", len(cuboid))

        if self.use_repository:
            self.repository.put(
                cache_key, cuboid, cost_seconds=time.perf_counter() - start
            )
        stats.runtime_seconds = time.perf_counter() - start
        self._count_query(stats, cuboid)
        return cuboid, stats

    def _aggregate(
        self,
        groups: SequenceGroupSet,
        spec: CuboidSpec,
        stats: QueryStats,
        strategy: str,
    ) -> SCuboid:
        """Build the cuboid: the sharded seam first, else the serial kernel."""
        if self.scatter_gather is not None:
            cuboid = self.scatter_gather(self.db, groups, spec, stats, strategy)
            if cuboid is not None:
                return cuboid
        if strategy == "cb":
            return counter_based_cuboid(self.db, groups, spec, stats)
        return inverted_index_cuboid(
            self.db, groups, spec, self.registry_for(spec), stats
        )

    def _iceberg(
        self,
        groups: SequenceGroupSet,
        spec: CuboidSpec,
        stats: QueryStats,
        strategy: str,
    ) -> SCuboid:
        """Answer a ``HAVING COUNT(*) >= n`` (``min_support``) query."""
        from repro.extensions.iceberg import (
            filter_min_support,
            iceberg_inverted_index,
        )

        if strategy == "ii" and spec.restriction is not CellRestriction.ALL_MATCHED:
            # II prunes sub-threshold lists between join steps; the pruned
            # chain is per-group state, so it stays single-shard.
            return iceberg_inverted_index(
                self.db, groups, spec, spec.min_support, stats
            )
        # CB — and ALL-MATCHED, whose counts list lengths cannot bound —
        # is the ordinary aggregation with the filter applied after the
        # merge: COUNT merges exactly, so this is sound at any fan-out.
        cuboid = self._aggregate(groups, spec, stats, "cb")
        stats.strategy = "iceberg-CB"
        return filter_min_support(cuboid, spec.min_support)

    # ------------------------------------------------------------------
    # Semantic cache (derive from cached cuboids on exact-key miss)
    # ------------------------------------------------------------------
    def _derivation_planner(self):
        if self._planner is None:
            from repro.optimizer.semantic_cache import DerivationPlanner

            self._planner = DerivationPlanner(self.db.schema)
        return self._planner

    def _try_derive(
        self, spec: CuboidSpec, cache_key, stats: QueryStats
    ) -> Optional[SCuboid]:
        """Answer *spec* by transforming a cached cuboid, if soundly possible.

        On success the derived cuboid is stored back under the query's own
        cache key (a later verbatim repeat is then an exact hit) and the
        query is accounted under the ``derived`` strategy with zero scan /
        aggregation work — derivation only touches cached cells.
        """
        if not self.semantic_cache or not len(self.repository):
            return None
        with span("cuboid.derive") as derive_span:
            result = self._derivation_planner().plan(spec, self.repository)
            for op, n in result.rejects.items():
                self.semantic_rejects[op] = self.semantic_rejects.get(op, 0) + n
            plan = result.plan
            if plan is None:
                derive_span.set("outcome", "miss")
                return None
            source = self.repository.get(plan.source_key)
            if source is None:  # pragma: no cover — concurrent eviction race
                derive_span.set("outcome", "miss")
                return None
            try:
                from repro.optimizer.semantic_cache import execute_chain

                derived = execute_chain(source, plan.chain, spec, self.db.schema)
            except Exception:
                self.semantic_rejects["error"] = (
                    self.semantic_rejects.get("error", 0) + 1
                )
                derive_span.set("outcome", "error")
                return None
            chain_ops = [step.op for step in plan.chain]
            for op in dict.fromkeys(chain_ops):
                self.semantic_hits[op] = self.semantic_hits.get(op, 0) + 1
            for op in chain_ops:
                self.semantic_derivations[op] = (
                    self.semantic_derivations.get(op, 0) + 1
                )
            stats.strategy = "derived"
            stats.extra["cache_answer"] = "derived:" + plan.op_chain
            stats.extra["derivation_chain"] = plan.describe()
            derive_span.set("outcome", "derived")
            derive_span.set("chain", plan.op_chain)
            derive_span.set("cells_out", len(derived))
            self.repository.put(
                cache_key, derived, cost_seconds=plan.derive_cost_seconds
            )
            return derived

    def _count_query(self, stats: QueryStats, cuboid: SCuboid) -> None:
        """Fold one finished query into the engine's cumulative telemetry."""
        label = (stats.strategy or "?").lower()
        self.strategy_counts[label] = self.strategy_counts.get(label, 0) + 1
        self.sequences_scanned_total += stats.sequences_scanned
        if not stats.cuboid_cache_hit and label != "derived":
            self.rows_aggregated_total += len(cuboid)

    def _choose_strategy(self, spec: CuboidSpec, groups: SequenceGroupSet) -> str:
        """First-cut optimiser: II when prior index work can be reused."""
        registry = self.registry_for(spec)
        for group in groups:
            hit = registry.longest_prefix(
                group.key, spec.template, self.db.schema
            )
            if hit is not None:
                return "ii"
        return "cb"

    def _choose_by_cost(
        self,
        spec: CuboidSpec,
        groups: SequenceGroupSet,
        stats: QueryStats,
    ) -> str:
        """Cost-model-based choice (the §4.2.2 optimisation problem).

        Profiles are cached per pipeline key so repeated queries over the
        same sequence formation pay the profiling pass only once.
        """
        from repro.optimizer.cost_model import CostModel, profile_groups

        key = spec.pipeline_key()
        profile = self._profiles.get(key)
        if profile is None:
            domains = tuple(
                (symbol.attribute, symbol.level)
                for symbol in spec.template.symbols
            )
            profile = profile_groups(self.db, groups, domains)
            self._profiles[key] = profile
        model = CostModel(profile)
        group_key = next(iter(groups)).key if len(groups) else ()
        choice, cb, ii = model.choose(
            spec, self.registry_for(spec), group_key, self.db.schema
        )
        stats.extra["cost_cb"] = cb.scan_equivalents
        stats.extra["cost_ii"] = ii.scan_equivalents
        return choice

    # ------------------------------------------------------------------
    # Offline precomputation (experiment setup)
    # ------------------------------------------------------------------
    def precompute(
        self, spec: CuboidSpec, templates: List[PatternTemplate]
    ) -> QueryStats:
        """Build base indices for *templates* over the spec's sequence groups.

        Mirrors the experiments' setup step ("three size-two inverted
        indices at the finest level of abstraction were precomputed").
        """
        groups = self.sequence_groups(spec)
        return precompute_indices(
            groups, templates, self.db.schema, self.registry_for(spec)
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop every cache (after base-data mutation)."""
        self.sequence_cache.clear()
        self.repository.clear()
        self.registry.clear()
        self._profiles.clear()

    def drop_pipeline(self, pipeline_key) -> int:
        """Release everything owned by one sequence-formation pipeline.

        Used by the service layer when the last session over a pipeline is
        evicted: the cached sequence groups, the pipeline's index registry
        and its cost-model profile all become unreachable work.  Returns
        the number of indices dropped.
        """
        self.sequence_cache.invalidate(pipeline_key)
        self._profiles.pop(pipeline_key, None)
        registry = self._registries.pop(pipeline_key, None)
        if registry is None:
            return 0
        self._index_evictions_carried += registry.evictions
        return len(registry)

    @property
    def index_evictions_total(self) -> int:
        """Budget evictions across live and already-dropped registries."""
        return self._index_evictions_carried + sum(
            registry.evictions for registry in self._registries.values()
        )

    def cache_stats(self) -> dict:
        """One snapshot of every cache/registry counter the engine keeps."""
        return {
            "sequence_cache": self.sequence_cache.stats(),
            "repository": {
                "entries": len(self.repository),
                "capacity": self.repository.capacity,
                "bytes": self.repository.bytes_used,
                "hits": self.repository.hits,
                "misses": self.repository.misses,
                "evictions": self.repository.evictions,
                "policy": self.repository.policy,
            },
            "semantic_cache": {
                "enabled": self.semantic_cache and self.use_repository,
                "hits": dict(self.semantic_hits),
                "derivations": dict(self.semantic_derivations),
                "rejects": dict(self.semantic_rejects),
                "hits_total": sum(self.semantic_hits.values()),
                "derivations_total": sum(self.semantic_derivations.values()),
                "rejects_total": sum(self.semantic_rejects.values()),
            },
            "index_registry": {
                "indices": len(self.registry),
                "pipelines": len(self._registries),
                "bytes": self.registry.total_bytes(),
                "evictions": self.index_evictions_total,
            },
            "queries_executed": self.queries_executed,
            "queries_by_strategy": dict(self.strategy_counts),
            "sequences_scanned_total": self.sequences_scanned_total,
            "rows_aggregated_total": self.rows_aggregated_total,
        }

    def __repr__(self) -> str:
        return (
            f"SOLAPEngine({len(self.db)} events, {self.queries_executed} queries, "
            f"{len(self.registry)} indices)"
        )
