"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

Q1 = """
SELECT COUNT(*) FROM Event
CLUSTER BY card-id AT individual, time AT day
SEQUENCE BY time ASCENDING
CUBOID BY SUBSTRING (X, Y)
  WITH X AS location AT station, Y AS location AT station
LEFT-MAXIMALITY (x1, y1)
  WITH x1.action = "in" AND y1.action = "out"
"""


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "transit"
    code = main(
        [
            "generate",
            "transit",
            "--out",
            str(out),
            "--cards",
            "30",
            "--days",
            "2",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def queryfile(tmp_path):
    path = tmp_path / "q1.solap"
    path.write_text(Q1)
    return path


class TestGenerate:
    def test_generate_writes_dataset(self, dataset, capsys):
        assert (dataset / "schema.json").exists()
        assert (dataset / "events.jsonl").exists()

    def test_generate_synthetic(self, tmp_path, capsys):
        out = tmp_path / "syn"
        code = main(
            [
                "generate",
                "synthetic",
                "--out",
                str(out),
                "--sequences",
                "20",
                "--length",
                "6",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_clickstream(self, tmp_path, capsys):
        out = tmp_path / "clicks"
        code = main(
            ["generate", "clickstream", "--out", str(out), "--sessions", "40"]
        )
        assert code == 0


class TestInfo:
    def test_info_prints_schema(self, dataset, capsys):
        assert main(["info", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "location: station -> district" in out
        assert "measures: amount" in out

    def test_info_missing_dataset(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope")]) == 2


class TestQuery:
    def test_query_prints_table_and_stats(self, dataset, queryfile, capsys):
        assert main(["query", str(dataset), str(queryfile)]) == 0
        out = capsys.readouterr().out
        assert "COUNT(*)" in out
        assert "sequences scanned" in out

    @pytest.mark.parametrize("strategy", ["cb", "ii", "cost"])
    def test_query_strategies(self, dataset, queryfile, capsys, strategy):
        code = main(
            ["query", str(dataset), str(queryfile), "--strategy", strategy]
        )
        assert code == 0

    def test_query_save_cuboid(self, dataset, queryfile, tmp_path, capsys):
        out_path = tmp_path / "cuboid.json"
        code = main(
            ["query", str(dataset), str(queryfile), "--save", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()

    def test_query_od_matrix(self, dataset, queryfile, capsys):
        code = main(["query", str(dataset), str(queryfile), "--od-matrix"])
        assert code == 0
        out = capsys.readouterr().out
        assert "O\\D" in out
        assert "total" in out

    def test_query_explain(self, dataset, queryfile, capsys):
        code = main(["query", str(dataset), str(queryfile), "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "S-OLAP query plan" in out
        assert "recommended strategy" in out

    def test_bad_query_reports_error(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.solap"
        bad.write_text("SELECT NOTHING")
        assert main(["query", str(dataset), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestAdvise:
    def test_advise_recommends(self, dataset, queryfile, capsys):
        assert main(["advise", str(dataset), str(queryfile)]) == 0
        out = capsys.readouterr().out
        assert "recommended index" in out or "no indices" in out

    def test_advise_zero_budget(self, dataset, queryfile, capsys):
        code = main(
            ["advise", str(dataset), str(queryfile), "--budget-mb", "0"]
        )
        assert code == 0
        assert "no indices" in capsys.readouterr().out


class TestServiceStats:
    def test_text_report(self, dataset, queryfile, capsys):
        code = main(
            ["service-stats", str(dataset), str(queryfile), "--repeat", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "requests_total: 2" in out

    def test_json_format(self, dataset, queryfile, capsys):
        import json

        code = main(
            ["service-stats", str(dataset), str(queryfile),
             "--repeat", "1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["queries_ok"] == 1
        assert "latency" in doc and "engine" in doc

    def test_prom_format(self, dataset, queryfile, capsys):
        code = main(
            ["service-stats", str(dataset), str(queryfile),
             "--repeat", "1", "--format", "prom"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE solap_service_requests_total counter" in out
        assert "solap_service_requests_total 1" in out
        assert 'solap_service_query_latency_seconds_bucket{le="+Inf"} 1' in out


class TestServeMetrics:
    """``solap serve`` with a workload: its metrics are on the same port."""

    def test_serves_workload_then_exits(self, dataset, queryfile, capsys):
        import json
        import re
        import threading
        import time
        import urllib.request

        # scrape the server mid-run: the --duration window keeps it alive
        # after the workload finishes
        results = {}

        def run():
            results["code"] = main(
                ["serve", str(dataset), str(queryfile),
                 "--port", "0", "--repeat", "2", "--duration", "5"]
            )

        thread = threading.Thread(target=run)
        thread.start()
        url = None
        for __ in range(100):
            out = capsys.readouterr().out
            match = re.search(r"http://127\.0\.0\.1:\d+", out)
            if match:
                url = match.group(0)
                break
            thread.join(timeout=0.05)
        assert url is not None, "serve never printed its URL"
        with urllib.request.urlopen(url + "/healthz", timeout=5) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        # the workload runs after the URL line: wait for both passes
        for __ in range(200):
            with urllib.request.urlopen(url + "/metrics", timeout=5) as response:
                body = response.read().decode()
            if "solap_service_queries_ok_total 2" in body.splitlines():
                break
            time.sleep(0.05)
        assert "solap_service_queries_ok_total 2" in body.splitlines()
        thread.join(timeout=30)
        assert results["code"] == 0


class TestTrace:
    def test_trace_exports_worker_spans(self, dataset, queryfile, tmp_path):
        import json

        out = tmp_path / "trace.json"
        code = main(
            ["trace", str(dataset), str(queryfile),
             "--backend", "serial", "--shards", "2", "--workers", "2",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trace_schema"] == 2
        assert doc["trace_id"]

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        nodes = list(walk(doc["root"]))
        origins = [n["origin"] for n in nodes if "origin" in n]
        assert sorted(o["shard"] for o in origins) == [0, 1]
        names = {n["name"] for n in nodes}
        for stage in ("worker.rebuild", "worker.match", "worker.fold"):
            assert stage in names

    def test_trace_requires_dataset_without_recent(self, capsys):
        assert main(["trace"]) == 2
        assert "dataset and queryfile" in capsys.readouterr().err

    def test_trace_recent_and_id_over_http(self, capsys):
        from repro import QueryService
        from repro.obs.recorder import FlightRecorder
        from repro.obs.spans import Tracer, span
        from repro.serve import SolapServer
        from tests.conftest import make_figure8_db

        recorder = FlightRecorder(capacity=4)
        with Tracer("query") as tracer:
            with span("aggregation"):
                pass

        class Stats:
            trace = tracer.root
            strategy = "CB"
            sequences_scanned = 3
            extra = {"shard_fanout": 2, "scan_backend": "thread"}
            plan = None

        entry_id = recorder.record(
            stats=Stats(), query_id="q7", wall_seconds=0.002
        )
        service = QueryService(make_figure8_db())
        service.recorder = recorder
        with service, SolapServer(service) as srv:
            assert main(["trace", "--recent", "--server", srv.url]) == 0
            out = capsys.readouterr().out
            assert entry_id in out
            assert "CB" in out

            assert main(
                ["trace", "--id", entry_id, "--server", srv.url]
            ) == 0
            import json

            doc = json.loads(capsys.readouterr().out)
            assert doc["summary"]["query_id"] == "q7"

            assert main(
                ["trace", "--id", "t999999", "--server", srv.url]
            ) == 2
            assert "t999999" in capsys.readouterr().err

    def test_trace_recent_unreachable_server(self, capsys):
        code = main(
            ["trace", "--recent", "--server", "http://127.0.0.1:1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
