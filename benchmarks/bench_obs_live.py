"""Live-operations overhead on the dataset-construction scenario.

Not a paper artifact — quantifies what the ``repro.obs.live`` stack
costs while a run is in flight: the ``/metrics`` HTTP server (bound,
idle between scrapes), the snapshotter at its default 1 s cadence, and
a threshold alert rule evaluated every tick.  The baseline is *enabled*
observability without the live layer (the live layer's cost rides on
top of PR 2's, which ``bench_perf_obs.py`` already bounds).

Repeats are interleaved and the comparison uses best-of-N walls, same
methodology as ``bench_perf_obs.py``.  Asserts the byte-identical
guarantee with the live layer attached and an overhead below 5%;
samples land in ``out/perf_obs_live.json`` (``perf_obs.json`` schema).
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED

from repro.analysis.reporting import render_table
from repro.api import build_dataset
from repro.obs import Observability
from repro.obs.live import LiveOps, parse_alert_rules
from repro.runtime import ExecutionEngine
from repro.simulation import SimulationParams, build_world

_SCALE = 0.05
_REPEATS = 9
_MAX_OVERHEAD = 0.05
_CADENCE_S = 1.0

_ALERT_DOC = {"rules": [{
    "name": "low-cache-hit", "kind": "threshold",
    "metric": "daas_cache_hit_ratio", "labels": {"cache": "overall"},
    "op": "<", "value": 0.5, "for_ticks": 2, "severity": "warning",
}]}


def _build(world, live_path=None):
    """One timed construction; with ``live_path`` the full live stack is
    up for the duration (server + snapshotter cadence + alert rule)."""
    obs = Observability()
    engine = ExecutionEngine(obs=obs)
    live = None
    if live_path is not None:
        live = LiveOps(
            obs,
            serve_port=0,
            snapshot_path=str(live_path),
            snapshot_every=_CADENCE_S,
            alert_rules=parse_alert_rules(_ALERT_DOC),
            before_tick=engine.publish_metrics,
        )
        live.start()
    started = time.perf_counter()
    try:
        dataset = build_dataset(world, engine=engine).dataset
        # Overhead is what serving/snapshotting costs *while the run is in
        # flight*; the one-time thread teardown in stop() is excluded.
        wall = time.perf_counter() - started
    finally:
        if live is not None:
            live.stop()
    snapshots = live.snapshotter.seq if live is not None else 0
    return wall, dataset.to_json(), snapshots


def test_perf_obs_live_overhead(benchmark, record_table, record_perf, tmp_path):
    world = build_world(SimulationParams(scale=_SCALE, seed=BENCH_SEED))

    walls = {"off": [], "on": []}
    jsons = {}
    snapshot_count = 0

    def run_off():
        wall, text, _ = _build(world)
        walls["off"].append(wall)
        jsons["off"] = text

    def run_on():
        nonlocal snapshot_count
        wall, text, snapshots = _build(world, live_path=tmp_path / "serial.jsonl")
        walls["on"].append(wall)
        jsons["on"] = text
        snapshot_count = snapshots

    _build(world)  # warm-up, unrecorded
    for i in range(_REPEATS):
        first, second = (run_on, run_off) if i % 2 else (run_off, run_on)
        first()
        second()

    best_off, best_on = min(walls["off"]), min(walls["on"])
    overhead = best_on / best_off - 1.0
    rows = [[
        "serial",
        f"{best_off:.3f} s",
        f"{best_on:.3f} s",
        f"{overhead:+.1%}",
        f"{snapshot_count:,}",
    ]]
    samples = {"serial": {
        "wall_off_s": round(best_off, 4),
        "wall_on_s": round(best_on, 4),
        "overhead": round(overhead, 4),
        "snapshots": snapshot_count,
        "cadence_s": _CADENCE_S,
        "repeats": _REPEATS,
    }}

    record_table(
        "perf_obs_live",
        render_table(
            ["engine", "live off (best)", "live on (best)", "overhead", "snapshots"],
            rows,
            title=(
                f"Live-operations overhead (scale {_SCALE}, "
                f"{_CADENCE_S:.0f} s cadence, best of {_REPEATS})"
            ),
        ),
    )
    record_perf("perf_obs_live", samples)

    # the cardinal rule survives the live layer: identical dataset JSON
    assert jsons["on"] == jsons["off"]
    # serving + snapshotting + alerting stays below the overhead budget
    assert overhead < _MAX_OVERHEAD, (
        f"live-operations overhead {overhead:.1%} exceeds {_MAX_OVERHEAD:.0%} budget"
    )

    benchmark.pedantic(
        lambda: _build(world, live_path=tmp_path / "b.jsonl"),
        rounds=1, iterations=1,
    )
