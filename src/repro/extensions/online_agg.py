"""Online (progressive) aggregation of S-cuboids (Section 6, Performance).

"The online aggregation feature would allow an S-OLAP system to report
'what it knows so far' instead of waiting until the S-OLAP query is fully
processed.  Such an approximate answer ... is periodically refreshed and
refined as the computation continues."

:func:`online_cuboid` is a generator: it runs CB's
:func:`~repro.core.counter_based.fold` over one chunk of sequences at a
time, into one cell table, and yields an :class:`OnlineEstimate` after
every chunk.  Each estimate carries the exact partial cuboid over the
processed prefix, the processed fraction, and a scaled extrapolation of
COUNT cells — adequate for the paper's example use ("approximate numbers
like 200,000 for the Pentagon-Wheaton round-trip would be informative
enough").

To make the estimate representative rather than order-biased, sequences
are visited in a deterministically shuffled order (seeded), which is the
standard randomised-scan prerequisite of online aggregation [10].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.core.counter_based import CellTable, finish, fold, selected_sequences
from repro.core.cuboid import SCuboid
from repro.core.matcher import make_matcher
from repro.core.spec import CuboidSpec
from repro.core.stats import QueryStats
from repro.events.database import EventDatabase
from repro.events.sequence import SequenceGroupSet


@dataclass
class OnlineEstimate:
    """One refresh of a progressive S-OLAP answer."""

    #: exact cuboid over the prefix processed so far
    partial: SCuboid
    #: number of sequences processed / total selected
    processed: int
    total: int

    @property
    def fraction(self) -> float:
        return self.processed / self.total if self.total else 1.0

    @property
    def is_final(self) -> bool:
        return self.processed >= self.total

    def estimated_count(
        self,
        cell_key: Tuple[object, ...],
        group_key: Tuple[object, ...] = (),
    ) -> float:
        """Linear scale-up estimate of a cell's final COUNT."""
        observed = self.partial.count(cell_key, group_key)
        if self.fraction == 0:
            return 0.0
        return observed / self.fraction

    def __repr__(self) -> str:
        return (
            f"OnlineEstimate({self.processed}/{self.total} sequences, "
            f"{len(self.partial)} cells)"
        )


def online_cuboid(
    db: EventDatabase,
    groups: SequenceGroupSet,
    spec: CuboidSpec,
    chunk_size: int = 256,
    seed: int = 0,
    stats: Optional[QueryStats] = None,
    cancel: Optional[object] = None,
) -> Iterator[OnlineEstimate]:
    """Progressively compute an S-cuboid, yielding after every chunk.

    The final yielded estimate (``is_final``) equals the CB result exactly.
    An empty selection (``total == 0``) yields exactly one estimate, which
    is final.

    *cancel* is a cooperative cancellation guard (anything with a
    ``check()`` that raises, e.g. a
    :class:`~repro.service.deadline.Deadline`,
    :class:`~repro.service.deadline.CancelToken` or a fused
    :class:`~repro.service.deadline.CancelScope`): it is checked at every
    chunk boundary, so a cancelled or expired progressive query stops
    within one chunk of work.  The streaming HTTP endpoint leans on this
    seam to abandon server-side work when a client cancels or disconnects
    mid-stream.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    stats = stats if stats is not None else QueryStats()
    if cancel is not None and stats.deadline is None:
        # Thread the guard through the per-sequence scan checkpoints too,
        # so huge chunks still cancel promptly.
        stats.deadline = cancel
    stats.strategy = "online"
    matcher = make_matcher(spec.template, db, spec.restriction, spec.predicate)
    work = list(selected_sequences(groups, spec.sliced_groups()))
    rng = random.Random(seed)
    rng.shuffle(work)

    cells: CellTable = {}
    total = len(work)
    processed = 0
    while processed < total or total == 0:
        if cancel is not None:
            cancel.check()  # type: ignore[attr-defined]
        chunk = work[processed : processed + chunk_size]
        fold(db, spec.aggregates, matcher, chunk, stats, cells)
        processed += len(chunk)
        partial = SCuboid(spec, finish(cells))
        yield OnlineEstimate(partial=partial, processed=processed, total=total)
        if total == 0:
            return
