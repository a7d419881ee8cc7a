"""The metric families the program emits are the ones the docs name.

``docs/observability.md``'s "Metric family inventory" lists every
``solap_*`` family by its full name.  A service registers most of them;
the ``solap_shard_*`` families appear once a scatter-gather coordinator
is installed, ``solap_storage_*`` on a segment-backed database and
``solap_http_*`` once a :class:`~repro.serve.SolapServer` wraps the
service, so each of those is read in its own configuration.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.serve import SolapServer
from repro.service import QueryService, ServiceConfig
from repro.storage import StorageManager, attach_store
from tests.conftest import make_figure8_db

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def documented_families() -> set:
    """Every family named in the first column of the inventory table."""
    inventory = DOC.read_text().split("### Metric family inventory", 1)[1]
    names = set()
    for line in inventory.splitlines():
        if line.startswith("| `solap_"):
            names.update(re.findall(r"`(solap_\w+)`", line.split("|")[1]))
    return names


def emitted_families(service: QueryService) -> set:
    return set(
        re.findall(
            r"^# TYPE (solap_\w+) ", service.registry.render_prometheus(), re.MULTILINE
        )
    )


@pytest.fixture
def emitted(tmp_path) -> dict:
    """configuration -> families its service registry renders."""
    found = {}
    plain = QueryService(make_figure8_db())
    sharded = QueryService(
        make_figure8_db(), ServiceConfig(shards=2, executor_backend="serial")
    )
    StorageManager.write(make_figure8_db(), tmp_path / "store").close()
    segment_db = attach_store(tmp_path / "store")
    segments = QueryService(segment_db)
    try:
        found["service"] = emitted_families(plain)
        SolapServer(plain)
        found["http"] = emitted_families(plain) - found["service"]
        found["shard"] = emitted_families(sharded) - found["service"]
        found["storage"] = emitted_families(segments) - found["service"]
    finally:
        for service in (plain, sharded, segments):
            service.close()
        segment_db.storage.close()
    return found


def test_every_emitted_family_is_documented_and_back(emitted):
    every = set().union(*emitted.values())
    documented = documented_families()
    assert sorted(every - documented) == []
    assert sorted(documented - every) == []


def test_configurations_add_their_own_prefix(emitted):
    for configuration in ("http", "shard", "storage"):
        assert emitted[configuration]
        assert all(
            name.startswith(f"solap_{configuration}_")
            for name in emitted[configuration]
        ), configuration


def test_matcher_kernel_family_replaces_dispatch(emitted):
    assert "solap_matcher_kernel_total" in emitted["service"]
    assert "solap_matcher_dispatch_total" not in documented_families()
