"""Per-query execution statistics.

The paper's evaluation reports *sequences scanned* and *index bytes built*
alongside wall-clock time (Table 1, Figure 16 annotations) because those are
the machine-independent cost drivers of the two strategies.  Every strategy
therefore threads a :class:`QueryStats` through its hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: every how many sequence scans :meth:`QueryStats.add_scan` re-checks the
#: deadline — a power of two so the test is a single AND on the counter
_DEADLINE_CHECK_MASK = 63


@dataclass
class QueryStats:
    """Counters collected while answering one S-OLAP query."""

    strategy: str = ""
    runtime_seconds: float = 0.0
    #: sequence accesses: every time a strategy reads a sequence's events
    sequences_scanned: int = 0
    #: number of inverted indices built during this query
    indices_built: int = 0
    #: estimated bytes of inverted indices built during this query
    index_bytes_built: int = 0
    #: number of index joins performed
    index_joins: int = 0
    #: number of inverted lists merged (P-ROLL-UP) or refined (P-DRILL-DOWN)
    lists_transformed: int = 0
    cuboid_cache_hit: bool = False
    sequence_cache_hit: bool = False
    index_reused: bool = False
    #: the matcher kernel a CB scan or II fold ran ("" when none ran);
    #: merged totals join distinct kernels with ``+``
    kernel: str = ""
    extra: Dict[str, object] = field(default_factory=dict)
    #: cooperative-cancellation token (duck-typed: anything with ``check()``,
    #: e.g. :class:`repro.service.deadline.Deadline`), set by the service
    #: layer; the hot loops check it via :meth:`add_scan` / :meth:`checkpoint`
    deadline: Optional[object] = field(default=None, repr=False, compare=False)
    #: EXPLAIN ANALYZE artefacts, populated by ``engine.execute(...,
    #: analyze=True)``: the root :class:`~repro.obs.spans.Span` of the
    #: query's trace and the annotated :class:`~repro.core.explain.QueryPlan`
    trace: Optional[object] = field(default=None, repr=False, compare=False)
    plan: Optional[object] = field(default=None, repr=False, compare=False)

    def add_scan(self, n: int = 1) -> None:
        self.sequences_scanned += n
        if (
            self.deadline is not None
            and (self.sequences_scanned & _DEADLINE_CHECK_MASK) == 0
        ):
            self.deadline.check()  # type: ignore[attr-defined]

    def checkpoint(self) -> None:
        """Cancellation point: raise if this query's deadline has passed.

        Strategies call this at loop boundaries that may be reached without
        scanning sequences (group boundaries, join-chain steps), so even
        index-only work cancels promptly.
        """
        if self.deadline is not None:
            self.deadline.check()  # type: ignore[attr-defined]

    def merge(self, other: "QueryStats") -> None:
        """Fold another stats object into this one (cumulative reporting)."""
        self.runtime_seconds += other.runtime_seconds
        self.sequences_scanned += other.sequences_scanned
        self.indices_built += other.indices_built
        self.index_bytes_built += other.index_bytes_built
        self.index_joins += other.index_joins
        self.lists_transformed += other.lists_transformed
        kernels = filter(None, f"{self.kernel}+{other.kernel}".split("+"))
        self.kernel = "+".join(dict.fromkeys(kernels))

    def summary(self) -> str:
        return (
            f"[{self.strategy or '?'}] {self.runtime_seconds * 1000:.2f} ms, "
            f"{self.sequences_scanned} sequences scanned, "
            f"{self.index_bytes_built / 1e6:.3f} MB indices built"
        )
