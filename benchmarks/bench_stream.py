"""Streaming-plane performance: incremental deltas vs full rebuilds.

Not a paper artifact — quantifies why the streaming plane exists.  The
pipeline is warmed to ~99% of the bench world's backlog, then the final
~1% is driven through small incremental deltas with a publish after
every tick (the freshest possible serving posture).  The baseline is
what a batch deployment would have to do for the same freshness: a
cold full rebuild (fresh engine, fresh caches) at the same watermark.

Two costs are measured per tick:

* **fold** — absorbing one delta into the incremental state (cursors,
  snowball frontier, union-find).  Reported as ``deltas/s`` and as a
  fold-only speedup, for the record.
* **freshness** — fold + re-deriving the records the delta dirtied +
  delta publication, i.e. delta arrival to served index.  This is what
  a deployment pays per refresh, so the asserted ``>= _FLOOR_SPEEDUP x``
  floor compares it (tick + publish, per delta) against a cold rebuild
  at the same watermark; p50/p99 are reported too.

Measured numbers land in ``out/perf_stream.json``.
"""

from __future__ import annotations

import platform
import time

from repro.analysis.reporting import render_table
from repro.core.pipeline import ContractAnalyzer
from repro.core.seed import SeedBuilder
from repro.runtime import ExecutionEngine
from repro.serve import IntelIndex, QueryEngine
from repro.stream import StreamPipeline, StreamPublisher, batch_rebuild

#: Folding *and publishing* one <=1% tail delta must beat a cold rebuild
#: at the same watermark by at least this factor.
_FLOOR_SPEEDUP = 5.0
_TAIL_FRACTION = 0.01
_TAIL_BATCH = 8


def _fresh_analyzer(world) -> ContractAnalyzer:
    return ContractAnalyzer(
        world.rpc, world.explorer, world.oracle, engine=ExecutionEngine()
    )


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def test_stream_tail_beats_full_rebuild(record_table, record_perf, bench_world):
    analyzer = _fresh_analyzer(bench_world)
    seeds, _ = SeedBuilder(analyzer, bench_world.feeds).build()

    publisher = StreamPublisher(engine=QueryEngine(IntelIndex()))
    pipe = StreamPipeline(bench_world, analyzer, seeds, publisher=publisher)
    total = pipe.source.backlog_blocks
    tail = max(_TAIL_BATCH, int(total * _TAIL_FRACTION))

    # Warm to ~99% of the backlog in large gulps; first (full) publish
    # happens here so the timed tail measures steady-state deltas only.
    warm_start = time.perf_counter()
    remaining = total - tail
    while remaining:
        pipe.delta_batch = min(512, remaining)
        remaining -= pipe.tick().blocks
    pipe.publish()
    warm_wall = time.perf_counter() - warm_start

    # The timed tail: small deltas, publish-per-tick.
    fold_times: list[float] = []
    freshness: list[float] = []
    while True:
        pipe.delta_batch = _TAIL_BATCH
        tick_start = time.perf_counter()
        if pipe.tick() is None:
            break
        fold_times.append(time.perf_counter() - tick_start)
        receipt = pipe.publish()
        freshness.append(time.perf_counter() - tick_start)
        assert receipt.mode in ("delta", "noop")
    ticks = len(fold_times)
    fold_wall = sum(fold_times)
    tail_wall = sum(freshness)

    # Baseline: a cold rebuild at the same watermark on untouched caches.
    cold_start = time.perf_counter()
    cold_analyzer = _fresh_analyzer(bench_world)
    cold_seeds, _ = SeedBuilder(cold_analyzer, bench_world.feeds).build()
    cold = batch_rebuild(bench_world, cold_analyzer, cold_seeds)
    cold_wall = time.perf_counter() - cold_start

    # The streamed tail landed on the rebuild's exact bytes — the perf
    # comparison is meaningless unless both sides produce the same index.
    assert publisher.published.to_bytes() == cold.to_bytes()

    speedup = cold_wall / (tail_wall / ticks)
    fold_speedup = cold_wall / (fold_wall / ticks)
    samples = {
        "incremental-tail": {
            "ticks": ticks,
            "tail_blocks": tail,
            "delta_batch": _TAIL_BATCH,
            "fold_wall_s": round(fold_wall, 4),
            "fold_deltas_per_s": round(ticks / fold_wall, 2),
            "wall_s_with_publishes": round(tail_wall, 4),
            "deltas_per_s": round(ticks / tail_wall, 2),
            "freshness_p50_s": round(_percentile(freshness, 0.50), 4),
            "freshness_p99_s": round(_percentile(freshness, 0.99), 4),
            "warmup_wall_s": round(warm_wall, 4),
        },
        "full-rebuild": {
            "wall_s": round(cold_wall, 4),
            "deltas_per_s": round(1.0 / cold_wall, 4),
        },
        "speedup_per_delta": round(speedup, 2),
        "fold_speedup_per_delta": round(fold_speedup, 2),
        "floor": _FLOOR_SPEEDUP,
    }
    record_table(
        "perf_stream",
        render_table(
            ["mode", "deltas/s", "freshness p50", "freshness p99"],
            [
                [
                    "incremental tail",
                    f"{ticks / tail_wall:,.1f}",
                    f"{_percentile(freshness, 0.50) * 1000:.0f} ms",
                    f"{_percentile(freshness, 0.99) * 1000:.0f} ms",
                ],
                [
                    "full rebuild",
                    f"{1.0 / cold_wall:.3f}",
                    f"{cold_wall:.2f} s",
                    f"{cold_wall:.2f} s",
                ],
            ],
            title=(
                f"Streaming — last {tail} of {total} blocks "
                f"({ticks} deltas, publish-per-tick) vs cold rebuild; "
                f"tick+publish speedup {speedup:.1f}x per delta "
                f"(fold alone {fold_speedup:.0f}x)"
            ),
        ),
    )
    record_perf(
        "perf_stream",
        samples,
        context={"platform": platform.platform(), "python": platform.python_version()},
    )
    assert speedup >= _FLOOR_SPEEDUP, (
        f"an incremental tick + publish is only {speedup:.1f}x a full rebuild "
        f"(floor {_FLOOR_SPEEDUP}x)"
    )
