"""Tunables of the concurrent query service.

One frozen dataclass so a service's whole behaviour is reproducible from a
single value (tests and benchmarks construct these explicitly; the CLI maps
flags onto them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: the execution backends a sharded query's shard tasks can run on (see
#: :mod:`repro.service.parallel`): ``serial`` runs them inline on the
#: calling thread, ``process`` on a process pool (true multi-core; the
#: event database is shipped once per worker).
EXECUTOR_BACKENDS = ("serial", "process")

#: multiprocessing start methods accepted for the process backend
PROCESS_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration for a :class:`~repro.service.service.QueryService`."""

    #: workers of the shard-task pool (created only when ``shards >= 2``)
    max_workers: int = 4
    #: logical shards for scatter-gather execution (:mod:`repro.shard`):
    #: sequences are consistent-hashed onto this many shards and partial
    #: S-cuboids are merged under the aggregate algebra.  0 and 1 both
    #: mean fan-out 1 — the serial CB/II kernel over the whole pipeline,
    #: with no plan, no merge and no pool (the default).
    shards: int = 0
    #: execution backend for shard tasks: one of
    #: :data:`EXECUTOR_BACKENDS` (``serial`` | ``process``)
    executor_backend: str = "serial"
    #: multiprocessing start method for the process backend (None = the
    #: platform default: fork on Linux, spawn on macOS/Windows)
    process_start_method: Optional[str] = None
    #: queries allowed to execute concurrently (holding an engine slot)
    max_concurrent: int = 4
    #: requests allowed to *wait* beyond the concurrent ones; anything more
    #: is rejected immediately with ServiceOverloadedError
    queue_depth: int = 16
    #: default per-query deadline in seconds (None = unbounded)
    default_timeout_seconds: Optional[float] = None
    #: maximum live sessions before LRU eviction
    session_capacity: int = 64
    #: approximate memory budget for session-cached cuboids; crossing it
    #: evicts LRU sessions (and unreferenced pipeline state with them)
    session_byte_budget: int = 64 * 1024 * 1024
    #: byte budget for materialised inverted indices across all pipelines
    #: (None = unbounded); enforced after every query via LRU eviction
    index_byte_budget: Optional[int] = None
    #: history entries kept per session (spec/stats pairs)
    session_history_limit: int = 32
    #: wall-time threshold above which a query emits a ``slow_query`` log
    #: record with its EXPLAIN ANALYZE plan embedded (None = disabled).
    #: Setting this also runs every query under tracing so the plan is
    #: available when the threshold trips.
    slow_query_seconds: Optional[float] = None
    #: traces the flight recorder keeps in its ring buffer (0 disables
    #: the recorder — and with it /debug/traces and trace sampling)
    flight_recorder_capacity: int = 64
    #: rate at which untraced queries are promoted to tracing so the
    #: recorder stays populated under load (token bucket; 0 = only
    #: record queries the caller explicitly analyzed)
    flight_recorder_sample_per_second: float = 2.0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.shards < 0:
            raise ValueError("shards must be >= 0")
        if self.executor_backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor_backend must be one of {EXECUTOR_BACKENDS}, "
                f"got {self.executor_backend!r}"
            )
        if self.process_start_method not in PROCESS_START_METHODS:
            raise ValueError(
                f"process_start_method must be one of "
                f"{PROCESS_START_METHODS}, got {self.process_start_method!r}"
            )
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.session_capacity < 1:
            raise ValueError("session_capacity must be >= 1")
        if self.session_byte_budget < 0:
            raise ValueError("session_byte_budget must be >= 0")
        if (
            self.default_timeout_seconds is not None
            and self.default_timeout_seconds <= 0
        ):
            raise ValueError("default_timeout_seconds must be > 0 or None")
        if self.index_byte_budget is not None and self.index_byte_budget < 0:
            raise ValueError("index_byte_budget must be >= 0 or None")
        if self.slow_query_seconds is not None and self.slow_query_seconds < 0:
            raise ValueError("slow_query_seconds must be >= 0 or None")
        if self.flight_recorder_capacity < 0:
            raise ValueError("flight_recorder_capacity must be >= 0")
        if self.flight_recorder_sample_per_second < 0:
            raise ValueError(
                "flight_recorder_sample_per_second must be >= 0"
            )

    @property
    def admission_limit(self) -> int:
        """Total requests allowed in flight (running + queued)."""
        return self.max_concurrent + self.queue_depth
