"""JSON wire encodings for the HTTP serving layer.

The serving layer speaks the textual query language on the way in
(:func:`repro.ql.parse_query`) and JSON on the way out.  This module owns
every document shape crossing the wire so the handlers in
:mod:`repro.serve.app` stay route logic only:

* **cells** — one S-cuboid cell becomes
  ``{"group": [...], "cell": [...], "values": {agg: value}}``; cells are
  emitted in the cuboid's canonical iteration order (sorted by ``repr``),
  which is what makes offset-based pagination cursors stable;
* **pages** — an offset/limit window over the canonical cell order, with
  a ``next_offset`` cursor (``null`` on the last page);
* **estimates** — one :class:`~repro.extensions.online_agg.OnlineEstimate`
  per streamed frame: processed fraction, the exact partial cells, and a
  linear scale-up ``estimated`` map for COUNT-family aggregates on
  non-final frames (the paper's "approximate numbers like 200,000 ...
  informative enough" use case);
* **stats** — the subset of :class:`~repro.core.stats.QueryStats` a
  remote client can act on.

Values that are not JSON-native (dates, tuples in dimension keys) are
serialised through ``repr`` — consistent everywhere, so equality of two
encoded documents implies equality of the underlying cells.
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.core.cuboid import SCuboid
from repro.extensions.online_agg import OnlineEstimate

#: pagination guardrail: one page can never exceed this many cells
MAX_PAGE_LIMIT = 10_000

#: default page size when the client sends no ``limit``
DEFAULT_PAGE_LIMIT = 100


def dumps(doc: object) -> bytes:
    """Canonical JSON bytes for any wire document (repr fallback)."""
    return json.dumps(doc, default=repr).encode("utf-8")


def _json_value(value: object) -> object:
    """A JSON-native rendering of one cell/key value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def encode_cell(
    group_key: Tuple[object, ...],
    cell_key: Tuple[object, ...],
    values: Dict[str, object],
) -> dict:
    """One cuboid cell as a wire document."""
    return {
        "group": [_json_value(v) for v in group_key],
        "cell": [_json_value(v) for v in cell_key],
        "values": {name: _json_value(v) for name, v in values.items()},
    }


def encode_cells(cuboid: SCuboid) -> List[dict]:
    """Every cell, in the cuboid's canonical (repr-sorted) order."""
    return [
        encode_cell(group_key, cell_key, values)
        for group_key, cell_key, values in cuboid
    ]


def encode_header(cuboid: SCuboid) -> List[str]:
    """Column names aligned with each cell's group + cell + values."""
    return list(cuboid.header())


def page_window(total: int, offset: int, limit: int) -> dict:
    """The ``page`` document of one offset/limit window over *total* cells.

    The one place the window is checked and computed: *offset* must be
    ``>= 0`` and *limit* in ``[1, MAX_PAGE_LIMIT]``; anything else raises
    :class:`ValueError` (the app maps it to a 400, matching the
    ``/debug/traces`` limit contract).  ``next_offset`` is the cursor for
    the following page, or ``None`` when this page exhausts the cuboid —
    an *offset* past the end is an empty last page, not an error.
    """
    if offset < 0:
        raise ValueError(f"bad offset {offset!r}: must be >= 0")
    if limit < 1 or limit > MAX_PAGE_LIMIT:
        raise ValueError(
            f"bad limit {limit!r}: must be in [1, {MAX_PAGE_LIMIT}]"
        )
    end = offset + limit
    return {
        "offset": offset,
        "limit": limit,
        "total_cells": total,
        "next_offset": end if end < total else None,
    }


def page_cells(
    cuboid: SCuboid, offset: int = 0, limit: int = DEFAULT_PAGE_LIMIT
) -> dict:
    """One pagination window over the cuboid's canonical cell order.

    The dict view for in-process callers; the HTTP path serves the same
    document from :class:`EncodedCuboid` without re-encoding.
    """
    page = page_window(len(cuboid), offset, limit)
    return {
        "header": encode_header(cuboid),
        "cells": encode_cells(cuboid)[offset : offset + limit],
        "page": page,
    }


class EncodedCuboid:
    """The wire form of one finished cuboid, encoded once.

    ``blob`` is the JSON of every cell in canonical order, joined by
    ``", "`` exactly as :func:`dumps` would render the list, and
    ``offsets[i]`` is where cell *i* starts (``offsets[total]`` is where
    a further cell would), so any page is one slice of ``blob``.  About
    the size of the full result on the wire; the holder decides how long
    it lives.
    """

    __slots__ = ("header", "blob", "offsets", "__weakref__")

    def __init__(self, cuboid: SCuboid):
        self.header = encode_header(cuboid)
        parts = [dumps(cell) for cell in encode_cells(cuboid)]
        self.blob = b", ".join(parts)
        self.offsets = array(
            "Q", accumulate((len(part) + 2 for part in parts), initial=0)
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def page_body(self, head: dict, offset: int, limit: int, tail: dict) -> bytes:
        """``dumps({**head, header, cells, page, **tail})`` by splicing.

        Equal byte for byte to encoding the :func:`page_cells` document,
        at the cost of the window's bytes instead of the whole cuboid.
        """
        page = page_window(len(self), offset, limit)
        first = min(offset, len(self))
        last = min(offset + limit, len(self))
        cells = b""
        if first < last:  # each offset sits past the preceding ", "
            cells = memoryview(self.blob)[
                self.offsets[first] : self.offsets[last] - 2
            ]
        return b"".join((
            dumps({**head, "header": self.header})[:-1],
            b', "cells": [',
            cells,
            b"], ",
            dumps({"page": page, **tail})[1:],
        ))


def encode_stats(stats) -> dict:
    """The client-actionable slice of one query's stats."""
    return {
        "strategy": getattr(stats, "strategy", ""),
        "sequences_scanned": getattr(stats, "sequences_scanned", 0),
        "engine_ms": round(
            getattr(stats, "runtime_seconds", 0.0) * 1000.0, 3
        ),
        "cuboid_cache_hit": getattr(stats, "cuboid_cache_hit", False),
        "sequence_cache_hit": getattr(stats, "sequence_cache_hit", False),
        "indices_built": getattr(stats, "indices_built", 0),
    }


def encode_estimate(estimate: OnlineEstimate) -> dict:
    """One streamed frame: the exact partial cuboid plus extrapolations.

    Non-final frames carry an ``estimated`` map per cell, scaling every
    COUNT-family aggregate linearly by the processed fraction.  The final
    frame omits it (the values *are* the answer) and is the exact cuboid,
    bit-identical to the blocking execution path.
    """
    cells = []
    fraction = estimate.fraction
    for group_key, cell_key, values in estimate.partial:
        cell = encode_cell(group_key, cell_key, values)
        if not estimate.is_final and fraction > 0:
            scaled = {
                name: round(float(value) / fraction, 3)
                for name, value in values.items()
                if name.startswith("COUNT") and value is not None
            }
            if scaled:
                cell["estimated"] = scaled
        cells.append(cell)
    return {
        "processed": estimate.processed,
        "total": estimate.total,
        "fraction": round(fraction, 6),
        "is_final": estimate.is_final,
        "cell_count": len(estimate.partial),
        "cells": cells,
    }


def error_doc(message: str, **fields) -> dict:
    """The uniform error payload (``{"error": ...}``)."""
    doc = {"error": message}
    doc.update(fields)
    return doc


def parse_int_param(params: Dict[str, str], key: str, default: int) -> int:
    """One integer query parameter; absent → *default*.

    A present but non-numeric value — an empty one (``?limit=``)
    included — raises :class:`ValueError` (the app maps it to a 400).
    """
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad {key} {raw!r}: not an integer")


def parse_page_params(params: Dict[str, str]) -> Tuple[int, int]:
    """``offset``/``limit`` query parameters → validated ints.

    Raises :class:`ValueError` with a client-displayable message for
    non-numeric, negative-offset or out-of-range-limit values.
    """
    offset = parse_int_param(params, "offset", 0)
    limit = parse_int_param(params, "limit", DEFAULT_PAGE_LIMIT)
    page_window(0, offset, limit)  # the range checks live there
    return offset, limit


def parse_positive_int(
    doc: dict, key: str, default: int, minimum: int = 1
) -> int:
    """A bounded integer field from a request body (ValueError on abuse)."""
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"bad {key} {value!r}: must be an integer")
    if value < minimum:
        raise ValueError(f"bad {key} {value!r}: must be >= {minimum}")
    return value


def parse_timeout(doc: dict) -> Optional[object]:
    """The ``timeout`` body field: absent → sentinel, null → unbounded.

    Returns the parsed value or raises ValueError; callers translate the
    ``"absent"`` marker into the service's own unset sentinel.
    """
    if "timeout" not in doc:
        return "absent"
    value = doc["timeout"]
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"bad timeout {value!r}: must be a number or null")
    if value <= 0:
        raise ValueError(f"bad timeout {value!r}: must be > 0 seconds")
    return float(value)
