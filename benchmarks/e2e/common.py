"""Shared pieces of the four workloads: samples, rounds, answer checking."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SOLAPError

from .probes import CHAIN_SETUP, ROOT, Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass
class Sample:
    """One analyst-visible request, answered completely and checked."""

    kind: str
    latency: float
    first_result: float
    ok: bool


@dataclass
class Round:
    """One pass over a workload's fixed op list.

    ``wall``/``cpu`` cover only the timed regions (ops and in-chain
    precompute), never answer checking.  ``exact`` holds counters that
    must repeat bit for bit between rounds of one run; ``raw`` holds
    layer counters that are summed over the traced rounds.
    """

    samples: List[Sample] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    exact: Dict[str, int] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def bump(self, key: str, amount: float = 1) -> None:
        self.raw[key] = self.raw.get(key, 0) + amount

    def count(self, key: str, amount: int = 1) -> None:
        self.exact[key] = self.exact.get(key, 0) + amount


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ---------------------------------------------------------------------------
# Answer checking
# ---------------------------------------------------------------------------


def reference_cells(engine, spec) -> dict:
    """The cell table of *spec* from a repository-free counter-based scan."""
    cuboid, _ = engine.execute(spec, "cb")
    return cuboid.to_dict()


def _wire_value(value: object) -> object:
    # docs/serving.md: JSON-native values travel as they are, anything
    # else (tuples, dates) as its repr
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def wire_digest_of_cells(cells: dict) -> str:
    """Digest of a reference cell table as the wire would carry it.

    docs/serving.md promises cells in canonical order — sorted by the
    ``repr`` of ``(group key, cell key)`` — which is what makes pagination
    cursors stable, so the order is part of the answer being checked.
    """
    return wire_digest(
        [
            {
                "group": [_wire_value(v) for v in key[0]],
                "cell": [_wire_value(v) for v in key[1]],
                "values": {name: _wire_value(v) for name, v in cells[key].items()},
            }
            for key in sorted(cells, key=repr)
        ]
    )


def wire_digest(rows: List[dict]) -> str:
    """Digest of wire cells in arrival order (re-assembled pages, or the
    final stream frame).  One C-level ``dumps``: the load generator shares
    the interpreter lock with the server it measures."""
    canonical = json.dumps(
        [[row["group"], row["cell"], row["values"]] for row in rows], sort_keys=True
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# In-process op execution
# ---------------------------------------------------------------------------


class InProcess:
    """Runs ``engine.execute`` ops for the three in-process workloads."""

    #: round counters that must repeat bit for bit between rounds of a run
    exact_repeat: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.op_id = 0

    def execute(
        self,
        round_: Round,
        engine,
        spec,
        strategy: str,
        expected: dict,
        kind: str,
    ):
        """One timed, checked op; returns ``(cuboid, stats)`` (None on error)."""
        tracer = self.tracer
        handle = None
        if tracer is not None:
            tracer.set_op(self.op_id)
            handle = tracer.open(ROOT)
        self.op_id += 1
        cuboid = stats = None
        cpu0 = process_time()
        start = perf_counter()
        try:
            cuboid, stats = engine.execute(spec, strategy)
        except SOLAPError as error:
            round_.notes.append(f"{kind}: {type(error).__name__}: {error}")
        elapsed = perf_counter() - start
        cpu = process_time() - cpu0
        if handle is not None:
            tracer.close(handle)
        round_.wall += elapsed
        round_.cpu += cpu
        ok = cuboid is not None and cuboid.cells == expected
        if cuboid is not None and not ok:
            round_.notes.append(f"{kind}: answer differs from the reference")
        round_.samples.append(Sample(kind, elapsed, elapsed, ok))
        if stats is not None:
            self._account(round_, stats)
        return cuboid, stats

    def timed(self, round_: Round, call):
        """Time a non-op call (in-chain precompute) into the round's wall."""
        handle = self.tracer.open(CHAIN_SETUP) if self.tracer is not None else None
        cpu0 = process_time()
        start = perf_counter()
        result = call()
        round_.wall += perf_counter() - start
        round_.cpu += process_time() - cpu0
        if handle is not None:
            self.tracer.close(handle)
        return result

    @staticmethod
    def _account(round_: Round, stats) -> None:
        strategy = (stats.strategy or "").upper()
        answer = str(stats.extra.get("cache_answer", "miss")).split(":", 1)[0]
        round_.count(f"answer_{answer}")
        round_.count("index_bytes_built", stats.index_bytes_built)
        if strategy == "CB":
            round_.count("cb_ops")
            round_.count("cb_seqs_scanned", stats.sequences_scanned)
        elif strategy == "II":
            round_.count("ii_ops")
            round_.count("ii_seqs_scanned", stats.sequences_scanned)

    @staticmethod
    def engine_counters(round_: Round, engine) -> None:
        """Fold one engine's public cache counters into the round."""
        stats = engine.cache_stats()
        sequence_cache = stats["sequence_cache"]
        round_.bump("seqcache_hits", sequence_cache.get("hits", 0))
        round_.bump("seqcache_misses", sequence_cache.get("misses", 0))
        repository = stats["repository"]
        round_.bump("repo_evictions", repository["evictions"])
        round_.bump("repo_bytes_end", repository["bytes"])
        semantic = stats["semantic_cache"]
        round_.bump("sem_derivations", semantic["derivations_total"])
        round_.bump("sem_rejects", semantic["rejects_total"])
        round_.bump("registry_bytes_end", stats["index_registry"]["bytes"])
