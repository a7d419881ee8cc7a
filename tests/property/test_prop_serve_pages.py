"""Encode-once pagination is invisible: a page sliced out of the memoised
wire form equals the page built from scratch, for any cuboid and window."""

import datetime
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuboid import SCuboid
from repro.core.spec import PatternKind
from repro.serve import codecs
from tests.property.conftest import spec_for, template_from

SPEC = spec_for(template_from((0, 1), PatternKind.SUBSTRING, "symbol"))

#: key/aggregate values: JSON-native ones and ones that travel as ``repr``
values_strategy = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.dates(datetime.date(2000, 1, 1), datetime.date(2030, 1, 1)),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)

cuboid_strategy = st.dictionaries(
    st.tuples(
        st.tuples(values_strategy),
        st.tuples(values_strategy, values_strategy),
    ),
    st.fixed_dictionaries({"COUNT(*)": st.integers(0, 99), "SUM(x)": values_strategy}),
    max_size=12,
).map(lambda cells: SCuboid(SPEC, cells))

HEAD = {"query_id": "job000001", "status": "done", "cell_count": 3}
TAIL = {"stats": {"strategy": "cache", "engine_ms": 0.1}}


def _windows(total):
    offsets = {0, 1, max(total - 1, 0), total, total + 1}
    limits = {1, 2, max(total, 1), codecs.MAX_PAGE_LIMIT}
    return [(offset, limit) for offset in sorted(offsets) for limit in sorted(limits)]


@settings(max_examples=100, deadline=None)
@given(cuboid=cuboid_strategy)
def test_http_page_body_equals_the_page_built_from_scratch(cuboid):
    encoded = codecs.EncodedCuboid(cuboid)
    cells = codecs.encode_cells(cuboid)
    assert len(encoded) == len(cells)
    for offset, limit in _windows(len(cells)):
        body = encoded.page_body(HEAD, offset, limit, TAIL)
        scratch = {**HEAD, **codecs.page_cells(cuboid, offset, limit), **TAIL}
        # same bytes as encoding the whole document, hence the same JSON
        assert body == codecs.dumps(scratch)
        doc = json.loads(body)
        assert doc["cells"] == cells[offset : offset + limit]
        end = offset + limit
        assert doc["page"]["next_offset"] == (end if end < len(cells) else None)
        assert doc["page"]["total_cells"] == len(cells)


@settings(max_examples=60, deadline=None)
@given(cuboid=cuboid_strategy, limit=st.integers(1, 5))
def test_cursor_walk_over_http_bodies_reassembles_the_cuboid(cuboid, limit):
    encoded = codecs.EncodedCuboid(cuboid)
    seen, offset, pages = [], 0, 0
    while offset is not None:
        doc = json.loads(encoded.page_body(HEAD, offset, limit, TAIL))
        seen.extend(doc["cells"])
        offset = doc["page"]["next_offset"]
        pages += 1
    assert seen == codecs.encode_cells(cuboid)
    assert pages == max(-(-len(cuboid) // limit), 1)
