"""Auxiliary index structures: inverted lists and the index registry."""

from repro.index.inverted import (
    InvertedIndex,
    build_index,
    join_indices,
    pair_template,
    prefix_template,
    refine_index,
    union_indices,
    unrestricted_template,
    verify_index,
)
from repro.index.registry import IndexRegistry, base_template

__all__ = [
    "IndexRegistry",
    "InvertedIndex",
    "base_template",
    "build_index",
    "join_indices",
    "pair_template",
    "prefix_template",
    "refine_index",
    "union_indices",
    "unrestricted_template",
    "verify_index",
]
