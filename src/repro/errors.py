"""Exception hierarchy for the S-OLAP library.

Every error raised by the library derives from :class:`SOLAPError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate the failure class when they need to.
"""

from __future__ import annotations


class SOLAPError(Exception):
    """Base class for all errors raised by the S-OLAP library."""


class SchemaError(SOLAPError):
    """A schema definition or a reference into a schema is invalid.

    Raised for unknown attributes, unknown hierarchy levels, duplicate
    dimension names, and values that cannot be mapped up a hierarchy.
    """


class SpecError(SOLAPError):
    """An S-cuboid specification is malformed or internally inconsistent.

    Examples: a pattern symbol bound twice with different domains, a matching
    predicate whose placeholder count disagrees with the template length, or
    an aggregate over an attribute that is not a measure.
    """


class ExpressionError(SOLAPError):
    """A predicate expression references an unknown field or placeholder."""


class QueryLanguageError(SOLAPError):
    """The textual S-OLAP query could not be lexed or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class OperationError(SOLAPError):
    """An S-OLAP operation cannot be applied to the current specification.

    Examples: DE-TAIL on a length-1 template, P-ROLL-UP past the top of a
    concept hierarchy, or rolling up a symbol that has been sliced away.
    """


class IndexError_(SOLAPError):
    """An inverted-index operation was invoked on incompatible indices.

    The trailing underscore avoids shadowing the built-in ``IndexError``
    while keeping the name recognisable in tracebacks.
    """


class MatchLimitExceeded(SOLAPError):
    """A sequence produced more pattern occurrences than the configured cap.

    Subsequence enumeration is combinatorial; the limit turns a silent
    multi-minute hang on pathological data into an immediate, explainable
    failure.  Raise the cap (or use SUBSTRING templates) to proceed.
    """


class EngineError(SOLAPError):
    """The engine was asked to do something it cannot satisfy.

    Examples: executing a spec against a database whose schema does not
    declare the referenced attributes, or requesting an unknown strategy.
    """


class NotMergeableError(EngineError):
    """An aggregate's partial results cannot be merged across data shards.

    SUM/COUNT/MIN/MAX fold directly across data partitions and AVG ships
    (sum, count) pairs, but holistic aggregates (MEDIAN, percentiles,
    DISTINCT counts) have no bounded-size partial state (Gray et al.'s
    Data Cube classification).  The scatter-gather coordinator raises this
    from its mergeability check and falls back to single-shard execution.
    """

    def __init__(self, aggregate: str, message: "str | None" = None):
        self.aggregate = aggregate
        super().__init__(
            message
            or f"aggregate {aggregate} is holistic: partial results "
            "cannot be merged across shards"
        )


class StorageError(SOLAPError):
    """A segment store operation failed or a segment file is invalid.

    Raised for bad magic/version fields, checksum mismatches, truncated
    files, malformed section directories, and writes against read-only
    segment-backed databases.  Attach-time validation is O(1) (magic and
    length checks only); ``verify()`` performs the full CRC pass.
    """


class ServiceError(SOLAPError):
    """Base class for failures of the concurrent query service layer."""


class QueryTimeoutError(ServiceError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Raised from the strategies' hot loops via
    :meth:`repro.core.stats.QueryStats.checkpoint`, or while the request
    was still waiting for an execution slot.
    """

    def __init__(
        self,
        message: str = "query deadline exceeded",
        budget_seconds: "float | None" = None,
        elapsed_seconds: "float | None" = None,
    ):
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds
        if budget_seconds is not None and elapsed_seconds is not None:
            message = (
                f"{message} (budget {budget_seconds:.3f}s, "
                f"elapsed {elapsed_seconds:.3f}s)"
            )
        super().__init__(message)


class QueryCancelledError(ServiceError):
    """A query was cancelled by its client and cooperatively stopped.

    Raised from the same hot-loop checkpoints that enforce deadlines (see
    :class:`repro.service.deadline.CancelToken`): nothing is interrupted
    pre-emptively, the running strategy observes the token at its next
    cancellation point and unwinds.
    """

    def __init__(self, message: str = "query cancelled by client"):
        super().__init__(message)


class ServiceOverloadedError(ServiceError):
    """The service's bounded admission queue is full; the request was
    rejected immediately instead of piling up behind the executor."""

    def __init__(
        self,
        message: str = "service overloaded",
        inflight: "int | None" = None,
        limit: "int | None" = None,
    ):
        self.inflight = inflight
        self.limit = limit
        if inflight is not None and limit is not None:
            message = f"{message} ({inflight} requests in flight, limit {limit})"
        super().__init__(message)


class WorkerLostError(ServiceError):
    """A pool worker died while running a shard task of this query.

    The process backend converts ``concurrent.futures.BrokenExecutor``
    into this and rebuilds its pool, so only the in-flight query fails;
    retrying it answers normally.
    """


class SessionNotFoundError(ServiceError):
    """The referenced service session does not exist (or was evicted)."""


class QueryNotFoundError(ServiceError):
    """The referenced asynchronous query job does not exist.

    Raised by the HTTP serving layer's job registry for unknown query ids
    and for jobs already pruned from the bounded finished-job history.
    """
