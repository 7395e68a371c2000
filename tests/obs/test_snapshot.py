"""Snapshotter time series + the live-status reader/renderer over it."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.obs import Observability
from repro.obs.live import (
    AlertEngine,
    LiveStatusError,
    RunStatus,
    Snapshotter,
    Watchdog,
    load_status_source,
    parse_alert_rules,
    render_live_status,
)
from repro.obs.live.status import read_status_snapshot


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make(tmp_path, rules=None, before_tick=None):
    clock = FakeClock()
    obs = Observability(run_id="snap")
    status = RunStatus(run_id="snap", clock=clock)
    dog = Watchdog(status, obs=obs, default_deadline_s=10.0, clock=clock)
    engine = AlertEngine(rules, obs=obs) if rules else None
    snapper = Snapshotter(
        obs, str(tmp_path / "snaps.jsonl"), every_s=1.0,
        status=status, watchdog=dog, alert_engine=engine,
        clock=clock, before_tick=before_tick,
    )
    return clock, obs, status, dog, snapper


def test_tick_record_schema_and_seq(tmp_path):
    clock, obs, status, _, snapper = make(tmp_path)
    status.stage_started("seed")
    obs.metrics.counter("daas_pipeline_events_total", event="x").inc(3)
    first = snapper.tick()
    clock.advance(5.0)
    second = snapper.tick()

    assert [first["seq"], second["seq"]] == [1, 2]
    assert first["run"] == "snap"
    assert second["ts"] - first["ts"] == 5.0
    assert first["status"]["stage"] == "seed"
    assert first["alerts"] == {"states": [], "transitions": []}
    assert (
        first["metrics"]["daas_pipeline_events_total"]["samples"][0]["value"] == 3
    )
    assert snapper.seq == 2
    assert obs.metrics.value("daas_live_snapshots_total") == 2

    # the file holds exactly the returned records, one JSON object per line
    lines = (tmp_path / "snaps.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [first, second]


def test_tick_runs_watchdog(tmp_path):
    clock, _, status, dog, snapper = make(tmp_path)
    dog.beat("snowball")
    clock.advance(11.0)
    record = snapper.tick()
    assert record["status"]["state"] == "degraded"
    assert record["status"]["degraded"] == ["stage.stalled:snowball"]


def test_construction_truncates_previous_run(tmp_path):
    path = tmp_path / "snaps.jsonl"
    path.write_text('{"old": "run"}\n')
    make(tmp_path)
    assert path.read_text() == ""


def test_rejects_nonpositive_cadence(tmp_path):
    obs = Observability(run_id="bad")
    with pytest.raises(ValueError, match="cadence must be positive"):
        Snapshotter(obs, str(tmp_path / "s.jsonl"), every_s=0.0)


def test_cache_hit_alert_fires_and_resolves_across_ticks(tmp_path):
    """The ISSUE acceptance case, driven through the snapshotter: the
    overall cache-hit-ratio gauge is refreshed by the before_tick hook
    (what the CLI wires to ``publish_metrics``), collapses, the alert
    fires, the ratio recovers, the alert resolves — all visible in the
    time series."""
    ratios = iter([0.9, 0.3, 0.2, 0.8])
    obs_holder = {}

    def refresh():
        obs_holder["obs"].metrics.gauge(
            "daas_cache_hit_ratio", cache="overall"
        ).set(next(ratios))

    rules = parse_alert_rules({"rules": [{
        "name": "low-cache-hit", "kind": "threshold",
        "metric": "daas_cache_hit_ratio", "labels": {"cache": "overall"},
        "op": "<", "value": 0.5, "for_ticks": 2, "severity": "warning",
    }]})
    clock, obs, _, _, snapper = make(tmp_path, rules=rules, before_tick=refresh)
    obs_holder["obs"] = obs

    records = []
    for _ in range(4):
        records.append(snapper.tick())
        clock.advance(1.0)

    flat = [t for r in records for t in r["alerts"]["transitions"]]
    assert [(t["to"], t["tick"]) for t in flat] == [("firing", 3), ("resolved", 4)]
    states = [r["alerts"]["states"][0]["state"] for r in records]
    assert states == ["ok", "ok", "firing", "ok"]
    # the gauge trajectory is reconstructable from the series
    trajectory = [
        r["metrics"]["daas_cache_hit_ratio"]["samples"][0]["value"] for r in records
    ]
    assert trajectory == [0.9, 0.3, 0.2, 0.8]


def test_background_cadence_and_final_tick(tmp_path):
    obs = Observability(run_id="bg")
    snapper = Snapshotter(obs, str(tmp_path / "s.jsonl"), every_s=0.01)
    snapper.start()
    snapper.start()  # idempotent
    deadline = time.time() + 5.0
    while snapper.seq < 2 and time.time() < deadline:
        time.sleep(0.01)
    assert snapper.seq >= 2, "background thread never ticked"
    before_stop = snapper.seq
    snapper.stop()  # final tick appends one more record
    assert snapper.seq > before_stop
    lines = (tmp_path / "s.jsonl").read_text().splitlines()
    assert len(lines) == snapper.seq
    assert json.loads(lines[-1])["seq"] == snapper.seq


class TestStatusReader:
    def write_series(self, tmp_path, tail=""):
        path = tmp_path / "snaps.jsonl"
        clock, obs, status, _, snapper = make(tmp_path)
        status.stage_started("seed")
        clock.advance(1.0)
        status.stage_finished("seed")
        status.stage_started("snowball")
        snapper.tick()
        clock.advance(3.0)
        snapper.tick()
        if tail:
            with open(path, "a") as handle:
                handle.write(tail)
        return path

    def test_reads_last_complete_record(self, tmp_path):
        doc = read_status_snapshot(str(self.write_series(tmp_path)))
        assert doc["seq"] == 2

    def test_tolerates_partial_trailing_line(self, tmp_path):
        path = self.write_series(tmp_path, tail='{"ts": 1700000000.0, "seq"')
        doc = read_status_snapshot(str(path))
        assert doc["seq"] == 2  # the torn tail is skipped, not fatal

    def test_missing_file(self, tmp_path):
        with pytest.raises(LiveStatusError, match="cannot read snapshot file"):
            read_status_snapshot(str(tmp_path / "nope.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LiveStatusError, match="empty snapshot file"):
            read_status_snapshot(str(path))

    def test_all_lines_truncated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ts": 1700000000.0, "run": "r", "stat\n')
        with pytest.raises(LiveStatusError, match="truncated or corrupt"):
            read_status_snapshot(str(path))

    def test_wrong_shape_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"span": "s1", "name": "seed"}\n')
        with pytest.raises(LiveStatusError, match="does not look like a snapshot"):
            read_status_snapshot(str(path))

    def test_load_status_source_dispatches_to_file(self, tmp_path):
        doc = load_status_source(str(self.write_series(tmp_path)))
        assert doc["seq"] == 2

    def test_render_over_snapshot_record(self, tmp_path):
        doc = read_status_snapshot(str(self.write_series(tmp_path)))
        text = render_live_status(doc)
        assert "run:     snap" in text
        assert "state:   ok" in text
        assert "stage:   snowball" in text
        assert "snapshot: seq 2" in text
        assert "seed" in text  # stages done table
        assert "alerts:  none configured" in text

    def test_cli_live_status_on_file(self, tmp_path, capsys):
        assert main(["live-status", str(self.write_series(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "stage:   snowball" in out

    def cli_error(self, source, capsys):
        code = main(["live-status", str(source)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, f"expected one error line, got: {captured.err!r}"
        assert "Traceback" not in captured.err
        return lines[0]

    def test_cli_missing_file(self, tmp_path, capsys):
        message = self.cli_error(tmp_path / "nope.jsonl", capsys)
        assert "no such file or directory" in message

    def test_cli_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        message = self.cli_error(path, capsys)
        assert message == f"empty snapshot file: {path}"

    def test_cli_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ts": 1700000000.0, "run": "r", "stat\n')
        message = self.cli_error(path, capsys)
        assert "truncated or corrupt snapshot file" in message

    def test_cli_unreachable_server(self, capsys):
        import socket

        with socket.socket() as probe:   # a port nothing is listening on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        message = self.cli_error(f"http://127.0.0.1:{port}", capsys)
        assert "cannot reach live server" in message


def test_render_degraded_and_firing():
    doc = {
        "ts": 1.0, "seq": 7,
        "status": {"run": "r1", "state": "degraded", "ready": True,
                   "uptime_s": 3725.0, "stage": "snowball",
                   "degraded": ["stage.stalled:snowball"],
                   "stages_done": []},
        "alerts": {"states": [
            {"name": "low-cache-hit", "state": "firing", "value": 0.38,
             "severity": "warning"},
            {"name": "monitor-silent", "state": "ok", "value": None,
             "severity": "warning"},
        ], "transitions": []},
    }
    text = render_live_status(doc)
    assert "state:   degraded  (stage.stalled:snowball)" in text
    assert "uptime:  1:02:05" in text
    assert "alerts:  1 firing / 2 rules" in text
    assert " ! firing  low-cache-hit" in text
    assert "value=0.38" in text
    assert "value=-" in text  # the no-data rule
