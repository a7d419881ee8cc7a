"""Core S-OLAP machinery: specs, matching, strategies, engine, lattice."""

from repro.core.counter_based import counter_based_cuboid
from repro.core.cube import (
    SCube,
    detail_summarization_counterexample,
    spec_coarser_or_equal,
)
from repro.core.cuboid import SCuboid
from repro.core.engine import SOLAPEngine
from repro.core.explain import QueryPlan, explain
from repro.core.inverted_index import (
    inverted_index_cuboid,
    precompute_indices,
    rollup_by_merge_is_valid,
)
from repro.core.repository import CuboidRepository
from repro.core.session import Session
from repro.core.spec import (
    AggregateScope,
    AggregateSpec,
    COUNT_ALL,
    CellRestriction,
    CuboidSpec,
    MatchingPredicate,
    PatternKind,
    PatternSymbol,
    PatternTemplate,
)
from repro.core.stats import QueryStats

__all__ = [
    "AggregateScope",
    "AggregateSpec",
    "COUNT_ALL",
    "CellRestriction",
    "CuboidRepository",
    "CuboidSpec",
    "MatchingPredicate",
    "PatternKind",
    "PatternSymbol",
    "PatternTemplate",
    "QueryPlan",
    "QueryStats",
    "SCube",
    "SCuboid",
    "SOLAPEngine",
    "Session",
    "counter_based_cuboid",
    "detail_summarization_counterexample",
    "explain",
    "inverted_index_cuboid",
    "precompute_indices",
    "rollup_by_merge_is_valid",
    "spec_coarser_or_equal",
]
