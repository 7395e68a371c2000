"""Fleet aggregation: snapshots, merging, /statusz, `live-status`.

The acceptance matrix for the pre-fork status plane:

* merge semantics — counters and histograms **sum** across workers,
  gauges stay per-worker behind a ``worker`` label;
* skip tolerance — a snapshot file that is missing, empty, or caught
  mid-write degrades the view (counted in
  ``daas_serve_agg_skipped_files``), never crashes it;
* any worker's ``/statusz`` and ``/metrics`` answer for the whole
  fleet (live registry + sibling snapshots);
* ``daas-repro live-status`` renders the fleet with its exit
  conventions — 0 ok, 2 degraded, 1 one-line error — from either a
  serve URL or the ``--status-dir`` directly, including against a real
  forked ``--serve-workers 2`` fleet under the ``multiproc`` marker.
"""

from __future__ import annotations

import json
import os
import socket
import time

import pytest

from repro.cli import main
from repro.obs import Observability
from repro.obs.live.status import (
    LiveStatusError,
    fetch_status,
    load_status_source,
    status_state,
)
from repro.serve import AsyncIntelServer, ServeAggregator
from repro.serve.fleet import (
    render_fleet_prometheus,
    snapshot_path,
    write_worker_snapshot,
)

from tests.serve.test_aserver import RawClient


def _snapshot(worker, metrics):
    return {"ts": time.time(), "worker": worker, "pid": 100 + worker,
            "run": f"r{worker}", "index_version": "v1", "metrics": metrics}


def _counter(value, **labels):
    return {"type": "counter",
            "samples": [{"labels": labels, "value": value}]}


def _gauge(value, **labels):
    return {"type": "gauge",
            "samples": [{"labels": labels, "value": value}]}


def _histogram(count, total, buckets, **labels):
    return {"type": "histogram",
            "samples": [{"labels": labels, "count": count, "sum": total,
                         "buckets": buckets}]}


class TestMergeSemantics:
    def test_counters_sum_across_workers(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {"daas_x_total": _counter(2.0, kind="a")}),
            _snapshot(1, {"daas_x_total": _counter(3.0, kind="a")}),
        ])
        (sample,) = merged["daas_x_total"]["samples"]
        assert sample["value"] == 5.0
        assert sample["labels"] == {"kind": "a"}

    def test_distinct_label_sets_stay_separate(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {"daas_x_total": _counter(2.0, kind="a")}),
            _snapshot(1, {"daas_x_total": _counter(3.0, kind="b")}),
        ])
        values = {s["labels"]["kind"]: s["value"]
                  for s in merged["daas_x_total"]["samples"]}
        assert values == {"a": 2.0, "b": 3.0}

    def test_gauges_keep_worker_label(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {"daas_open": _gauge(4.0)}),
            _snapshot(1, {"daas_open": _gauge(7.0)}),
        ])
        values = {s["labels"]["worker"]: s["value"]
                  for s in merged["daas_open"]["samples"]}
        assert values == {"0": 4.0, "1": 7.0}

    def test_histograms_sum_counts_sums_and_buckets(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {"daas_seconds": _histogram(
                3, 0.5, {"0.1": 2, "+Inf": 3}, endpoint="/x")}),
            _snapshot(1, {"daas_seconds": _histogram(
                2, 0.25, {"0.1": 1, "+Inf": 2}, endpoint="/x")}),
        ])
        (sample,) = merged["daas_seconds"]["samples"]
        assert sample["count"] == 5
        assert sample["sum"] == 0.75
        assert sample["buckets"] == {"0.1": 3, "+Inf": 5}

    def test_malformed_samples_dropped_not_fatal(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {
                "ok_total": _counter(1.0),
                "no_value": {"type": "counter", "samples": [{"labels": {}}]},
                "bad_value": {"type": "counter",
                              "samples": [{"labels": {}, "value": "nope"}]},
                "not_a_family": "garbage",
                "unknown_kind": {"type": "mystery", "samples": []},
            }),
        ])
        assert set(merged) == {"ok_total"}

    def test_type_conflicts_keep_first_kind(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {"daas_x": _counter(1.0)}),
            _snapshot(1, {"daas_x": _gauge(9.0)}),
        ])
        assert merged["daas_x"]["type"] == "counter"
        (sample,) = merged["daas_x"]["samples"]
        assert sample["value"] == 1.0

    def test_prometheus_rendering_of_merged_doc(self):
        merged = ServeAggregator().merge([
            _snapshot(0, {
                "daas_x_total": _counter(2.0, kind="a"),
                "daas_seconds": _histogram(
                    3, 0.5, {"0.1": 2, "+Inf": 3}, endpoint="/x"),
            }),
        ])
        text = render_fleet_prometheus(merged)
        assert "# TYPE daas_x_total counter" in text
        assert 'daas_x_total{kind="a"} 2' in text
        assert 'daas_seconds_bucket{endpoint="/x",le="0.1"} 2' in text
        assert 'daas_seconds_bucket{endpoint="/x",le="+Inf"} 3' in text
        assert 'daas_seconds_sum{endpoint="/x"} 0.5' in text
        assert 'daas_seconds_count{endpoint="/x"} 3' in text


class TestSnapshotFiles:
    def test_write_read_roundtrip(self, tmp_path):
        obs = Observability(run_id="roundtrip")
        obs.metrics.counter("daas_demo_total").inc(3)
        path = write_worker_snapshot(tmp_path, 2, obs, index_version="vX")
        assert path == snapshot_path(tmp_path, 2)
        scan = ServeAggregator().read_snapshots(tmp_path)
        assert scan.skipped == 0
        (doc,) = scan.snapshots
        assert doc["worker"] == 2
        assert doc["run"] == "roundtrip"
        assert doc["index_version"] == "vX"
        assert doc["metrics"]["daas_demo_total"]["samples"][0]["value"] == 3

    def test_missing_directory_reads_empty(self, tmp_path):
        scan = ServeAggregator().read_snapshots(tmp_path / "absent")
        assert scan.snapshots == [] and scan.skipped == 0

    def test_unusable_files_skipped_and_counted(self, tmp_path):
        obs = Observability(run_id="skips")
        write_worker_snapshot(tmp_path, 0, obs)
        (tmp_path / "worker-1.json").write_text("")          # empty
        (tmp_path / "worker-2.json").write_text('{"ts": 1,') # mid-write
        (tmp_path / "worker-3.json").write_text('[1, 2]')    # not a dict
        (tmp_path / "worker-4.json").write_text('{"ts": 1}') # no metrics
        (tmp_path / "not-a-snapshot.txt").write_text("ignored")
        aggregator = ServeAggregator(obs=obs)
        scan = aggregator.read_snapshots(tmp_path)
        assert len(scan.snapshots) == 1
        assert scan.skipped == 4
        assert aggregator.skipped_total == 4
        assert obs.metrics.value("daas_serve_agg_skipped_files") == 4

    def test_exclude_worker(self, tmp_path):
        obs = Observability(run_id="excl")
        write_worker_snapshot(tmp_path, 0, obs)
        write_worker_snapshot(tmp_path, 1, obs)
        scan = ServeAggregator().read_snapshots(tmp_path, exclude_worker=0)
        assert [doc["worker"] for doc in scan.snapshots] == [1]


class TestFleetEndpoints:
    """One live server + one planted sibling snapshot = a two-worker fleet."""

    def _plant_sibling(self, status_dir, requests=7):
        obs = Observability(run_id="sibling")
        obs.metrics.counter("daas_serve_requests_total",
                            endpoint="/healthz").inc(requests)
        obs.metrics.gauge("daas_serve_open_connections").set(2)
        write_worker_snapshot(status_dir, 1, obs, index_version="v-sib")
        return obs

    def test_statusz_answers_for_the_fleet(self, intel_index, tmp_path):
        self._plant_sibling(tmp_path)
        server = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="fleet-a"),
            worker_id=0, status_dir=str(tmp_path),
        ).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            status, headers, body = client.request("GET", "/statusz")
            client.close()
        finally:
            server.stop()
        assert status == 200
        assert headers["content-type"] == "application/json"
        doc = json.loads(body)
        assert doc["fleet"]["workers"] == 2
        rows = {w["worker"]: w for w in doc["workers"]}
        assert rows[0]["live"] is True
        assert rows[1]["live"] is False
        assert rows[1]["requests"] == 7
        assert doc["fleet"]["requests"] >= 8  # 7 planted + our own traffic
        assert "metrics" not in doc  # summary document, not the full dump

    def test_metrics_merges_live_and_sibling(self, intel_index, tmp_path):
        self._plant_sibling(tmp_path)
        server = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="fleet-m"),
            worker_id=0, status_dir=str(tmp_path),
        ).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            status, headers, body = client.request("GET", "/metrics")
            client.close()
        finally:
            server.stop()
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE daas_serve_requests_total counter" in text
        assert "daas_serve_request_seconds_bucket" in text
        # Gauges stay per worker; both processes are distinguishable.
        assert 'worker="0"' in text and 'worker="1"' in text

    def test_statusz_rejects_post(self, intel_index, tmp_path):
        server = AsyncIntelServer(
            index=intel_index, status_dir=str(tmp_path)).start()
        try:
            client = RawClient(server.port)
            assert client.request("POST", "/statusz")[0] == 405
            assert client.request("POST", "/metrics")[0] == 405
            client.close()
        finally:
            server.stop()

    def test_server_writes_snapshot_on_lifecycle(self, intel_index, tmp_path):
        server = AsyncIntelServer(
            index=intel_index, worker_id=1, status_dir=str(tmp_path),
        ).start()
        server.stop()
        doc = json.loads((tmp_path / "worker-1.json").read_text())
        assert doc["worker"] == 1
        assert doc["index_version"] == intel_index.version


class TestServeStatusCommand:
    def _write_fleet(self, status_dir, ages=(0.0, 0.0)):
        for worker, age in enumerate(ages):
            obs = Observability(run_id=f"w{worker}")
            obs.metrics.counter("daas_serve_requests_total",
                                endpoint="/healthz").inc(worker + 1)
            path = write_worker_snapshot(status_dir, worker, obs,
                                         index_version="v-fleet")
            if age:
                doc = json.loads(open(path).read())
                doc["ts"] -= age
                with open(path, "w") as handle:
                    json.dump(doc, handle)

    def test_fresh_directory_exits_0(self, capsys, tmp_path):
        self._write_fleet(tmp_path)
        assert main(["live-status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        assert "3 requests" in out
        assert "v-fleet" in out
        assert "state:   ok" in out

    def test_stale_snapshot_exits_2(self, capsys, tmp_path):
        self._write_fleet(tmp_path, ages=(0.0, 1000.0))
        assert main(["live-status", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "state:   degraded" in out
        assert "snapshot is" in out

    def test_stale_after_0_disables_staleness(self, capsys, tmp_path):
        self._write_fleet(tmp_path, ages=(0.0, 1000.0))
        assert main(["live-status", str(tmp_path),
                     "--stale-after", "0"]) == 0
        capsys.readouterr()

    def test_skipped_file_exits_2(self, capsys, tmp_path):
        self._write_fleet(tmp_path)
        (tmp_path / "worker-9.json").write_text('{"torn')
        assert main(["live-status", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "1 snapshot file(s) skipped" in out

    def test_missing_directory_exits_1(self, capsys, tmp_path):
        assert main(["live-status", str(tmp_path / "absent")]) == 1
        err = capsys.readouterr().err
        assert "no such file or directory" in err
        assert "\n" == err[-1] and err.count("\n") == 1  # one-line error

    def test_empty_directory_exits_1(self, capsys, tmp_path):
        assert main(["live-status", str(tmp_path)]) == 1
        assert "no worker snapshots" in capsys.readouterr().err

    def test_unreachable_url_exits_1(self, capsys):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        assert main(["live-status",
                     f"http://127.0.0.1:{port}"]) == 1
        assert "cannot reach live server" in capsys.readouterr().err

    def test_url_against_live_server_exits_0(self, capsys, intel_index,
                                             tmp_path):
        server = AsyncIntelServer(
            index=intel_index, status_dir=str(tmp_path)).start()
        try:
            client = RawClient(server.port)
            assert client.request("GET", "/healthz")[0] == 200
            client.close()
            assert main(["live-status",
                         f"http://127.0.0.1:{server.port}"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert "1 worker(s)" in out
        assert "live" in out
        assert intel_index.version in out

    def test_url_with_stale_sibling_exits_2(self, capsys, intel_index,
                                            tmp_path):
        """A worker's /statusz is a fleet document: live-status judges
        its siblings' snapshot ages, not a run's health."""
        self._write_fleet(tmp_path, ages=(0.0, 1000.0))
        server = AsyncIntelServer(
            index=intel_index, worker_id=0, status_dir=str(tmp_path)).start()
        try:
            assert main(["live-status",
                         f"http://127.0.0.1:{server.port}"]) == 2
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert "2 worker(s)" in out
        assert "worker 1 snapshot is" in out

    def test_fetch_appends_statusz_and_validates_payload(self, intel_index):
        server = AsyncIntelServer(index=intel_index).start()
        try:
            # A bare base URL gets /statusz appended automatically.
            doc = fetch_status(f"http://127.0.0.1:{server.port}")
            assert doc["fleet"]["workers"] == 1
            # A JSON endpoint that is not a status document is rejected.
            with pytest.raises(LiveStatusError):
                load_status_source(
                    f"http://127.0.0.1:{server.port}/healthz")
        finally:
            server.stop()


class TestInlineFleet:
    """Two in-process servers sharing one status dir — the tier-1 stand-in
    for the forked integration below."""

    def test_two_servers_aggregate_each_other(self, intel_index, tmp_path):
        a = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="inline-a"),
            worker_id=0, status_dir=str(tmp_path)).start()
        b = AsyncIntelServer(
            index=intel_index, obs=Observability(run_id="inline-b"),
            worker_id=1, status_dir=str(tmp_path)).start()
        try:
            client_b = RawClient(b.port)
            for _ in range(3):
                assert client_b.request("GET", "/healthz")[0] == 200
            client_b.close()
            b.core.write_status_snapshot()  # publish b's traffic now

            client_a = RawClient(a.port)
            status, _, body = client_a.request("GET", "/statusz")
            client_a.close()
            assert status == 200
            doc = json.loads(body)
            assert doc["fleet"]["workers"] == 2
            rows = {w["worker"]: w for w in doc["workers"]}
            assert rows[0]["live"] and not rows[1]["live"]
            assert rows[1]["requests"] >= 3
            state = status_state(doc)
            assert state.state == "ok"
        finally:
            a.stop()
            b.stop()


@pytest.mark.multiproc
class TestPreforkedFleetIntegration:
    def test_serve_workers_2_aggregates_via_cli(self, tmp_path, capsys):
        """A real ``daas-repro serve --serve-workers 2`` fleet, checked
        end to end through ``live-status`` (URL and directory)."""
        import signal

        if not hasattr(socket, "SO_REUSEPORT") or not hasattr(os, "fork"):
            pytest.skip("needs SO_REUSEPORT and os.fork")
        index_path = tmp_path / "idx.json"
        assert main(["index", "build", "--scale", "0.005", "--seed", "7",
                     "--out", str(index_path)]) == 0
        capsys.readouterr()
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        status_dir = tmp_path / "status"

        child = os.fork()
        if child == 0:
            try:
                main(["serve", "--index", str(index_path),
                      "--port", str(port), "--serve-workers", "2",
                      "--status-dir", str(status_dir),
                      "--status-every", "0.2"])
            finally:
                os._exit(0)
        try:
            deadline = time.monotonic() + 15.0
            workers_seen = 0
            while time.monotonic() < deadline:
                try:
                    client = RawClient(port, timeout=2.0)
                    status, _, body = client.request("GET", "/statusz")
                    client.close()
                except (ConnectionError, OSError):
                    time.sleep(0.1)
                    continue
                if status == 200:
                    workers_seen = json.loads(body)["fleet"]["workers"]
                    if workers_seen == 2:
                        break
                time.sleep(0.1)
            assert workers_seen == 2

            rc_url = main(["live-status",
                           f"http://127.0.0.1:{port}", "--stale-after", "30"])
            out = capsys.readouterr().out
            assert rc_url == 0, out
            assert "2 worker(s)" in out
            assert "live" in out

            rc_dir = main(["live-status", str(status_dir),
                           "--stale-after", "30"])
            out = capsys.readouterr().out
            assert rc_dir == 0, out
            assert "2 worker(s)" in out
        finally:
            try:
                os.kill(child, signal.SIGINT)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    pid, _ = os.waitpid(child, os.WNOHANG)
                    if pid:
                        break
                    time.sleep(0.1)
                else:
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
