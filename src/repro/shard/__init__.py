"""Sharded scatter-gather execution of S-cuboid queries.

N logical shards, each running the unchanged CompiledMatcher + CB/II
kernels over a consistent-hashed slice of the sequence pipeline, with a
coordinator that merges partial S-cuboids under the Gray-et-al. aggregate
algebra (SUM/COUNT/MIN/MAX fold directly, AVG ships (sum, count) pairs,
holistic aggregates fall back to single-shard execution).  See
``docs/sharding.md``.
"""

from repro.shard.coordinator import ScatterGatherCoordinator, ShardMetrics
from repro.shard.executor import ShardPartial, filter_groups, scan_shard_partial
from repro.shard.merge import (
    MERGEABLE_FUNCS,
    check_mergeable,
    finalize_transport,
    merge_partial_cells,
    transport_spec,
)
from repro.shard.planner import DEFAULT_REPLICAS, ShardPlanner, stable_hash

__all__ = [
    "DEFAULT_REPLICAS",
    "MERGEABLE_FUNCS",
    "ScatterGatherCoordinator",
    "ShardMetrics",
    "ShardPartial",
    "ShardPlanner",
    "check_mergeable",
    "filter_groups",
    "finalize_transport",
    "merge_partial_cells",
    "scan_shard_partial",
    "stable_hash",
    "transport_spec",
]
