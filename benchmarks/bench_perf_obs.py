"""Observability overhead on the ``bench_perf_parallel`` scenario.

Not a paper artifact — quantifies what `repro.obs` instrumentation
costs. The same dataset construction runs twice per configuration:
once with a disabled `Observability` (null spans, null instruments)
and once fully enabled (tracer + metrics registry + logger buffer).
Repeats are interleaved (on/off alternating which goes first) and the
comparison uses best-of-N walls, so machine-load drift hits both sides
equally and the minimum approximates the noise-free cost.

Asserts the byte-identical guarantee and an enabled/disabled overhead
below 5%; per-configuration samples land in ``out/perf_obs.json``.
"""

from __future__ import annotations

import time

from conftest import BENCH_SEED

from repro.analysis.reporting import render_table
from repro.api import build_dataset
from repro.obs import Observability
from repro.runtime import ExecutionEngine
from repro.simulation import SimulationParams, build_world

_SCALE = 0.05
_REPEATS = 9
_MAX_OVERHEAD = 0.05


def _timed_build(world, obs):
    engine = ExecutionEngine(obs=obs)
    started = time.perf_counter()
    dataset = build_dataset(world, engine=engine).dataset
    return time.perf_counter() - started, dataset.to_json(), engine


def test_perf_obs_overhead(benchmark, record_table, record_perf):
    world = build_world(SimulationParams(scale=_SCALE, seed=BENCH_SEED))

    walls = {"off": [], "on": []}
    jsons = {}
    span_count = 0

    def run_off():
        wall, text, _ = _timed_build(world, Observability.disabled())
        walls["off"].append(wall)
        jsons["off"] = text

    def run_on():
        nonlocal span_count
        obs = Observability()
        wall, text, engine = _timed_build(world, obs)
        engine.publish_metrics()
        walls["on"].append(wall)
        jsons["on"] = text
        span_count = len(obs.tracer)

    # warm-up: side effects (imports, allocator growth) land here,
    # and neither side gets an extra recorded sample
    _timed_build(world, Observability.disabled())
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
        f"{span_count:,}",
    ]]
    samples = {"serial": {
        "wall_off_s": round(best_off, 4),
        "wall_on_s": round(best_on, 4),
        "overhead": round(overhead, 4),
        "spans": span_count,
        "repeats": _REPEATS,
    }}

    record_table(
        "perf_obs",
        render_table(
            ["engine", "obs off (best)", "obs on (best)", "overhead", "spans"],
            rows,
            title=f"Observability overhead (scale {_SCALE}, best of {_REPEATS})",
        ),
    )
    record_perf("perf_obs", samples)

    # identical output with observability on and off
    assert jsons["on"] == jsons["off"]
    # instrumentation stays below the overhead budget
    assert overhead < _MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} exceeds {_MAX_OVERHEAD:.0%} budget"
    )

    benchmark.pedantic(
        lambda: build_dataset(
            world, engine=ExecutionEngine(obs=Observability())
        ),
        rounds=1, iterations=1,
    )
