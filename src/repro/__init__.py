"""repro — S-OLAP: pattern-based OLAP on sequence data.

A from-scratch Python reproduction of *OLAP on Sequence Data*
(Lo, Kao, Ho, Lee, Chui, Cheung — SIGMOD 2008): sequence cuboids over
event databases, pattern-based grouping and aggregation, the six S-OLAP
operations, and both the counter-based and inverted-index construction
strategies of the paper's prototype.

Quickstart::

    from repro import (
        Dimension, EventDatabase, Measure, Schema,
        CuboidSpec, PatternTemplate, SOLAPEngine,
    )

    schema = Schema([Dimension("time"), Dimension("card"),
                     Dimension("location")], [Measure("amount")])
    db = EventDatabase.from_records(schema, events)
    spec = CuboidSpec(
        template=PatternTemplate.substring(
            ("X", "Y", "Y", "X"),
            {"X": ("location", "location"), "Y": ("location", "location")},
        ),
        cluster_by=(("card", "card"),),
        sequence_by=(("time", True),),
    )
    cuboid, stats = SOLAPEngine(db).execute(spec)
    print(cuboid.tabulate())
"""

from repro.core import (
    AggregateScope,
    AggregateSpec,
    COUNT_ALL,
    CellRestriction,
    CuboidRepository,
    CuboidSpec,
    MatchingPredicate,
    PatternKind,
    PatternSymbol,
    PatternTemplate,
    QueryStats,
    SCube,
    SCuboid,
    SOLAPEngine,
    Session,
    counter_based_cuboid,
    detail_summarization_counterexample,
    inverted_index_cuboid,
    precompute_indices,
    rollup_by_merge_is_valid,
    spec_coarser_or_equal,
)
from repro.errors import (
    EngineError,
    ExpressionError,
    OperationError,
    QueryLanguageError,
    QueryTimeoutError,
    SOLAPError,
    SchemaError,
    ServiceError,
    ServiceOverloadedError,
    SessionNotFoundError,
    SpecError,
)
from repro.events import (
    And,
    Between,
    Comparison,
    Dimension,
    EventDatabase,
    EventField,
    EventView,
    Expr,
    Hierarchy,
    InSet,
    Literal,
    Measure,
    Not,
    Or,
    PlaceholderField,
    Schema,
    Sequence,
    SequenceCache,
    SequenceGroup,
    SequenceGroupSet,
    TRUE,
    build_sequence_groups,
    conjoin,
)
from repro.index import IndexRegistry, InvertedIndex, build_index
from repro.service import Deadline, QueryService, ServiceConfig, ServiceMetrics

__version__ = "0.1.0"

__all__ = [
    "AggregateScope",
    "AggregateSpec",
    "And",
    "Between",
    "COUNT_ALL",
    "CellRestriction",
    "Comparison",
    "CuboidRepository",
    "CuboidSpec",
    "Deadline",
    "Dimension",
    "EngineError",
    "EventDatabase",
    "EventField",
    "EventView",
    "Expr",
    "ExpressionError",
    "Hierarchy",
    "IndexRegistry",
    "InSet",
    "InvertedIndex",
    "Literal",
    "MatchingPredicate",
    "Measure",
    "Not",
    "OperationError",
    "Or",
    "PatternKind",
    "PatternSymbol",
    "PatternTemplate",
    "PlaceholderField",
    "QueryLanguageError",
    "QueryService",
    "QueryStats",
    "QueryTimeoutError",
    "SCube",
    "SCuboid",
    "SOLAPEngine",
    "SOLAPError",
    "Schema",
    "SchemaError",
    "Sequence",
    "SequenceCache",
    "SequenceGroup",
    "SequenceGroupSet",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "Session",
    "SessionNotFoundError",
    "SpecError",
    "TRUE",
    "build_index",
    "build_sequence_groups",
    "conjoin",
    "counter_based_cuboid",
    "detail_summarization_counterexample",
    "inverted_index_cuboid",
    "precompute_indices",
    "rollup_by_merge_is_valid",
    "spec_coarser_or_equal",
]
