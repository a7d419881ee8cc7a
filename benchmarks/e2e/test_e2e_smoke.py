"""Smoke test of the end-to-end benchmark (run by explicit path).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It is outside tier-1 ``testpaths`` on purpose: it starts subprocesses and
an HTTP server.  It checks that ``BENCHMARK.json`` and the runner agree
on every metric name and unit, and that a missing probe target degrades
to ``null`` instead of a crash.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import metrics, probes  # noqa: E402
from benchmarks.e2e.harness import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "__main__.py"),
            "--workload", workload,
            "--seed", "11",
            "--seconds", "0.3",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declaration_shape(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert len(declared["end_to_end"]) == len(metrics.END_TO_END)
    assert len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert {
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == set(metrics.END_TO_END)
    assert {
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    } == set(metrics.PER_LAYER)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted(declared, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in declared[section]}
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == expected
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_missing_probe_target_reads_null(monkeypatch):
    gone = ("ql.parse", probes.SPAN, "repro.ql.parser:no_such_function")
    kept = tuple(probe for probe in probes.PROBES if probe[0] != "ql.parse")
    monkeypatch.setattr(probes, "PROBES", kept + (gone,))
    tracer = probes.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["ql.parse=repro.ql.parser:no_such_function"]
    assert tracer.dead_spans() == {"ql.parse"}
    values = metrics.per_layer([], [], [], tracer.dead_spans(), {})
    assert values["ql.parse_ms_per_op"] is None
    assert values["cb.calls"] is not None


def test_probes_patch_and_restore():
    import repro.core.engine as engine_module
    from repro.events.sequence import build_sequence_groups

    tracer = probes.Tracer()
    tracer.install()
    try:
        assert engine_module.build_sequence_groups is not build_sequence_groups
    finally:
        tracer.uninstall()
    assert engine_module.build_sequence_groups is build_sequence_groups
    assert tracer.missing == []
