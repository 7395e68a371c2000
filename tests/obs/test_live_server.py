"""A run's probe port and the LiveOps bundle around it.

Covers the acceptance paths: every endpoint answers, `/metrics` is
scrape-able mid-run, `/healthz` flips to degraded via an injected
clock (no sleeps), health is computed when a probe asks, the CLI
serves on an ephemeral port and fails in one line on a taken one,
and — the cardinal rule — the dataset is byte-identical with the live
layer on or off.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import build_dataset
from repro.cli import _StreamLiveBridge, main
from repro.obs import Observability
from repro.obs.live import LiveOps, parse_alert_rules
from repro.runtime import ExecutionEngine
from repro.serve import IntelIndex
from repro.stream import StreamPublisher


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, response.read().decode(), response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture
def live():
    clock = FakeClock(1000.0)
    obs = Observability(run_id="livetest")
    bundle = LiveOps(
        obs, serve_port=0, stage_deadline_s=10.0, clock=clock, monotonic=clock,
    )
    bundle.start()
    bundle.clock = clock  # for the tests
    yield bundle
    bundle.stop()


class TestEndpoints:
    def test_readyz_gates_on_first_stage(self, live):
        code, body, _ = get(live.server.url + "/readyz")
        assert code == 503 and json.loads(body) == {"ready": False}
        live.obs.stage_started("seed")
        code, body, _ = get(live.server.url + "/readyz")
        assert code == 200 and json.loads(body) == {"ready": True}
        live.obs.stage_finished("seed")
        code, _, _ = get(live.server.url + "/readyz")
        assert code == 200  # readiness is a latch

    def test_healthz_degrades_and_recovers_with_injected_clock(self, live):
        live.obs.stage_started("snowball")
        code, body, _ = get(live.server.url + "/healthz")
        assert code == 200 and json.loads(body) == {"status": "ok", "reasons": []}

        live.clock.advance(11.0)  # past the 10 s stage deadline, no sleeping
        code, body, _ = get(live.server.url + "/healthz")
        assert code == 503
        assert json.loads(body) == {
            "status": "degraded", "reasons": ["stage.stalled:snowball"],
        }

        live.obs.heartbeat("snowball")
        code, body, _ = get(live.server.url + "/healthz")
        assert code == 200 and json.loads(body)["status"] == "ok"

    def test_metrics_scrape_mid_run(self, live):
        live.obs.stage_started("seed")
        live.obs.metrics.counter(
            "daas_pipeline_events_total", help_text="Work counters.", event="x"
        ).inc(7)
        code, body, headers = get(live.server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "# TYPE daas_pipeline_events_total counter" in body
        assert 'daas_pipeline_events_total{event="x"} 7' in body
        # scrapes count themselves (the in-flight request included)
        assert 'daas_serve_requests_total{endpoint="/metrics"} 1' in body
        code, body, _ = get(live.server.url + "/metrics")
        assert 'daas_serve_requests_total{endpoint="/metrics"} 2' in body

    def test_statusz_document(self, live):
        live.obs.stage_started("seed")
        code, body, headers = get(live.server.url + "/statusz")
        assert code == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert doc["status"]["run"] == "livetest"
        assert doc["status"]["stage"] == "seed"
        assert doc["watchdog"]["stages"]["seed"]["deadline_s"] == 10.0
        # no alert engine configured -> no alert keys
        assert "alerts" not in doc

    def test_statusz_reevaluates_alerts_per_request(self):
        obs = Observability(run_id="alive")
        rules = parse_alert_rules({"rules": [{
            "name": "low-cache-hit", "kind": "threshold",
            "metric": "daas_cache_hit_ratio", "labels": {"cache": "overall"},
            "op": "<", "value": 0.5,
        }]})
        with LiveOps(obs, serve_port=0, alert_rules=rules) as live:
            obs.metrics.gauge("daas_cache_hit_ratio", cache="overall").set(0.2)
            doc = json.loads(get(live.server.url + "/statusz")[1])
            assert doc["firing"] == ["low-cache-hit"]
            obs.metrics.gauge("daas_cache_hit_ratio", cache="overall").set(0.9)
            doc = json.loads(get(live.server.url + "/statusz")[1])
            assert doc["firing"] == []
            assert doc["alerts"][0]["state"] == "ok"

    def test_unknown_path_404s_with_endpoint_list(self, live):
        code, body, _ = get(live.server.url + "/nope")
        assert code == 404
        doc = json.loads(body)
        assert "/statusz" in doc["endpoints"]
        code, body, _ = get(live.server.url + "/metrics")
        assert 'daas_serve_requests_total{endpoint="other"} 1' in body

    def test_live_status_cli_over_url(self, live, capsys):
        live.obs.stage_started("seed")
        assert main(["live-status", live.server.url]) == 0
        out = capsys.readouterr().out
        assert "run:     livetest" in out
        assert "stage:   seed" in out

    def test_live_status_cli_exit_2_when_degraded(self, live, capsys):
        live.obs.stage_started("snowball")
        live.clock.advance(11.0)
        assert main(["live-status", live.server.url]) == 2
        assert "stage.stalled:snowball" in capsys.readouterr().out


class TestProbesComputeHealthWhenAsked:
    def test_wedged_stream_tick_degrades_healthz_not_readyz(self):
        """No snapshotter and no tick since the last publish: the probe
        itself runs the stream's staleness check."""
        clock = FakeClock(1000.0)
        obs = Observability(run_id="wedged")
        publisher = StreamPublisher(obs=obs, staleness_bound_s=30.0,
                                    clock=clock)
        bridge = _StreamLiveBridge(ExecutionEngine(obs=obs), publisher)
        with LiveOps(obs, serve_port=0, clock=clock, monotonic=clock,
                     before_tick=bridge.publish_metrics) as live:
            publisher.health = live.status
            obs.stage_started("stream.tick")
            publisher.publish(IntelIndex())
            clock.advance(120.0)  # stuck inside the tick, 4x the bound
            code, body, _ = get(live.server.url + "/healthz")
            assert code == 503
            assert json.loads(body) == {
                "status": "degraded", "reasons": ["stream.stale"],
            }
            code, body, _ = get(live.server.url + "/readyz")
            assert code == 200 and json.loads(body) == {"ready": True}
            doc = json.loads(get(live.server.url + "/statusz")[1])
            assert doc["status"]["degraded"] == ["stream.stale"]

    def test_metrics_scrape_refreshes_before_answering(self):
        refreshed = []
        obs = Observability(run_id="fresh")
        with LiveOps(obs, serve_port=0,
                     before_tick=lambda: refreshed.append(1)) as live:
            get(live.server.url + "/readyz")
            assert refreshed == []  # readiness is a latch, not a refresh
            for path in ("/metrics", "/healthz", "/statusz"):
                get(live.server.url + path)
            assert len(refreshed) == 3


class TestLiveOpsBundle:
    def test_attach_detach_shims(self):
        obs = Observability(run_id="shim")
        # without a live layer the shims are no-ops
        obs.stage_started("seed")
        obs.heartbeat()
        obs.stage_finished("seed")

        live = LiveOps(obs)
        live.start(background=False)
        assert obs.live is live
        obs.stage_started("snowball")
        assert live.status.current_stage == "snowball"
        live.stop()
        assert obs.live is None
        obs.stage_started("after")  # detached again: no-op, no crash

    def test_serving_event_emitted(self, live):
        events = [e for e in live.obs.log.events if e["event"] == "live.serving"]
        assert len(events) == 1
        assert events[0]["port"] == live.server.port
        assert events[0]["url"] == live.server.url

    def test_tick_without_snapshotter_still_checks(self):
        clock = FakeClock()
        obs = Observability(run_id="nosnap")
        live = LiveOps(obs, stage_deadline_s=10.0, clock=clock, monotonic=clock)
        live.start(background=False)
        obs.stage_started("seed")
        clock.advance(11.0)
        assert live.tick() is None  # no snapshotter -> no record
        assert live.status.state == "degraded"
        live.stop()


def test_dataset_byte_identical_with_live_layer(world, tmp_path):
    """The cardinal rule, extended to PR 3: serving + snapshotting +
    alerting mid-run never perturbs the dataset."""
    plain_engine = ExecutionEngine(obs=Observability(run_id="plain"))
    plain = build_dataset(world, engine=plain_engine).dataset

    obs = Observability(run_id="lived")
    engine = ExecutionEngine(obs=obs)
    rules = parse_alert_rules({"rules": [
        {"name": "low-cache-hit", "kind": "threshold",
         "metric": "daas_cache_hit_ratio", "labels": {"cache": "overall"},
         "op": "<", "value": 0.5},
        {"name": "monitor-silent", "kind": "absence",
         "metric": "daas_monitor_blocks_total"},
    ]})
    live = LiveOps(
        obs, serve_port=0, snapshot_path=str(tmp_path / "s.jsonl"),
        alert_rules=rules, before_tick=engine.publish_metrics,
    )
    live.start(background=False)
    try:
        live.tick()
        observed = build_dataset(world, engine=engine).dataset
        get(live.server.url + "/metrics")
        get(live.server.url + "/statusz")
        live.tick()
    finally:
        live.stop()

    assert observed.to_json() == plain.to_json()
    records = [
        json.loads(line)
        for line in (tmp_path / "s.jsonl").read_text().splitlines()
    ]
    assert [r["seq"] for r in records] == [1, 2, 3]  # 2 manual + 1 final at stop
    assert records[-1]["status"]["stages_done"]


def test_cli_build_dataset_with_live_flags(tmp_path, capsys):
    """--serve-metrics 0 --snapshot-out --alerts end to end, dataset
    byte-identical with the flags on."""
    alerts = tmp_path / "alerts.json"
    alerts.write_text(json.dumps({"rules": [{
        "name": "low-cache-hit", "kind": "threshold",
        "metric": "daas_cache_hit_ratio", "labels": {"cache": "overall"},
        "op": "<", "value": 0.5,
    }]}))
    snaps = tmp_path / "snaps.jsonl"
    plain = tmp_path / "plain.json"
    served = tmp_path / "served.json"
    common = ["build-dataset", "--scale", "0.02", "--seed", "1234"]

    assert main(common + ["--out", str(plain)]) == 0
    assert main(common + [
        "--out", str(served), "--serve-metrics", "0",
        "--snapshot-out", str(snaps), "--alerts", str(alerts),
    ]) == 0
    out = capsys.readouterr().out
    assert "live endpoints on http://127.0.0.1:" in out

    assert plain.read_bytes() == served.read_bytes()

    # the final-tick record is always there, with the rule table evaluated
    record = json.loads(snaps.read_text().splitlines()[-1])
    assert record["status"]["stages_done"]
    assert record["alerts"]["states"][0]["name"] == "low-cache-hit"
    assert record["metrics"]["daas_cache_hit_ratio"]["samples"]

    # and live-status renders the finished run from the file
    assert main(["live-status", str(snaps)]) == 0
    assert "ready:   yes" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["build-dataset"], ["webdetect"], ["stream", "run"],
])
def test_cli_taken_port_is_one_line(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # stream run's default --out lands here
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen(1)
        port = held.getsockname()[1]
        code = main(command + ["--scale", "0.005", "--seed", "3",
                               "--serve-metrics", str(port)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"cannot bind 127.0.0.1:{port}: ")


def test_started_live_ops_loads_no_http_server():
    """A run's probe port is the asyncio transport, not ``http.server``."""
    code = ("import sys; from repro.obs import Observability; "
            "from repro.obs.live import LiveOps; "
            "live = LiveOps(Observability(), serve_port=0).start(); "
            "live.stop(); "
            "print(sorted(m for m in sys.modules if m == 'http.server'))")
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_rejects_bad_alert_file(tmp_path, capsys):
    bad = tmp_path / "alerts.json"
    bad.write_text(json.dumps({"rules": [{"kind": "threshold"}]}))
    code = main([
        "build-dataset", "--scale", "0.02", "--seed", "1234",
        "--alerts", str(bad),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "has no name" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
