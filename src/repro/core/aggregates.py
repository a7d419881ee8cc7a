"""Aggregate functions over cell assignments (Section 3.2, step 6).

COUNT counts assigned contents (under left-maximality: matching sequences).
Measure aggregates (SUM/AVG/MIN/MAX) fold a measure attribute over an
event scope per assignment:

* ``MATCHED`` — the events of the assigned content (the matched substring /
  subsequence, or the whole sequence under the data-go restriction),
* ``SEQUENCE`` — every event of the assigned sequence,
* ``FIRST-EVENT`` — only the first event of the assigned content,

mirroring the paper's discussion of the two SUM variants.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence as Seq, Tuple

from repro.core.spec import AggregateScope, AggregateSpec
from repro.events.database import EventDatabase
from repro.events.sequence import Sequence


class _AggState:
    """Mutable accumulator state for one aggregate in one cell."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value


class CellAccumulator:
    """Accumulates every aggregate of a spec for one cuboid cell."""

    __slots__ = ("_specs", "_states", "_count")

    def __init__(self, specs: Tuple[AggregateSpec, ...]):
        self._specs = specs
        self._states = [_AggState() for __ in specs]
        self._count = 0

    def add_assignment(
        self,
        db: EventDatabase,
        sequence: Sequence,
        content: Tuple[int, ...],
    ) -> None:
        """Fold one assigned content (tuple of database rows) into the cell."""
        self._count += 1
        for spec, state in zip(self._specs, self._states):
            if spec.func == "COUNT":
                continue
            rows = self._scope_rows(spec.scope, sequence, content)
            column = db.column(spec.argument)  # type: ignore[arg-type]
            for row in rows:
                value = column[row]
                if value is None:
                    continue
                state.add(float(value))  # type: ignore[arg-type]

    @staticmethod
    def _scope_rows(
        scope: AggregateScope, sequence: Sequence, content: Tuple[int, ...]
    ) -> Seq[int]:
        if scope is AggregateScope.MATCHED:
            return content
        if scope is AggregateScope.SEQUENCE:
            return sequence.rows
        return content[:1]  # FIRST_EVENT

    def results(self) -> Dict[str, object]:
        """Final value per aggregate name (AVG of nothing is None)."""
        out: Dict[str, object] = {}
        for spec, state in zip(self._specs, self._states):
            if spec.func == "COUNT":
                out[spec.name] = self._count
            elif spec.func == "SUM":
                out[spec.name] = state.total
            elif spec.func == "AVG":
                out[spec.name] = state.total / state.count if state.count else None
            elif spec.func == "AVGPAIR":
                # Mergeable transport form of AVG: the (sum, count) pair.
                out[spec.name] = (state.total, state.count)
            elif spec.func == "MIN":
                out[spec.name] = state.minimum
            elif spec.func == "MAX":
                out[spec.name] = state.maximum
        return out

    @property
    def count(self) -> int:
        """Number of assignments folded so far."""
        return self._count


def needs_contents(specs: Tuple[AggregateSpec, ...]) -> bool:
    """True when some aggregate reads measure values (not just COUNT).

    Strategies use this to skip materialising assignment contents on
    COUNT-only queries, which is the common case in the paper.
    """
    return any(spec.func != "COUNT" for spec in specs)

