"""Serial vs. cached vs. process-sharded construction.

Not a paper artifact — characterizes the `repro.runtime` execution
engine on a multi-round snowball world:

* the cached engine performs strictly fewer contract classifications
  than the uncached serial baseline (cross-stage memoization);
* process-sharded runs report txs/s next to serial at identical output
  (parity is asserted here as well as in tier-1);
* every sample lands in ``out/perf_parallel.json`` together with the
  machine context (cpu count, multiprocessing start method) — perf
  numbers are meaningless diffed across machines without it.

Script mode measures the headline claim directly::

    PYTHONPATH=src python benchmarks/bench_perf_parallel.py \
        --scale 1.0 --shards 4 --processes 4 --assert-floor

At paper scale with 4 worker processes the sharded build must beat the
serial walk by at least ``FLOOR_SPEEDUP`` (2.5x).  ``--assert-floor``
**refuses to run** below scale 1.0 — a small world underestimates the
per-shard work and would let the floor pass vacuously — and exits
non-zero when the floor is missed, printing the machine context so a
1-core container failing the floor is diagnosable at a glance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.analysis.reporting import render_table
from repro.api import build_dataset
from repro.runtime import ExecutionEngine, ShardingRuntime, default_start_method
from repro.simulation import SimulationParams, build_world

_SCALE = 0.05

#: Minimum speedup of shards=4/processes=4 over the serial walk at
#: paper scale (asserted by ``--assert-floor``).
FLOOR_SPEEDUP = 2.5
FLOOR_PROCESSES = 4


def machine_context() -> dict:
    """The facts a perf sample cannot be interpreted without."""
    affinity = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    )
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": affinity,
        "start_method": default_start_method(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _engine_configs():
    return [
        ("serial-nocache", 0, 1, lambda: ExecutionEngine(cache_enabled=False)),
        ("serial-cached", 0, 1, lambda: ExecutionEngine()),
        ("shard-2x2-cached", 2, 2,
         lambda: ExecutionEngine(sharding=ShardingRuntime(shards=2, processes=2))),
        ("shard-4x4-cached", 4, 4,
         lambda: ExecutionEngine(sharding=ShardingRuntime(shards=4, processes=4))),
    ]


def _run_config(world, name: str, shards: int, processes: int, make) -> dict:
    engine = make()
    started = time.perf_counter()
    build = build_dataset(world, engine=engine)
    elapsed = time.perf_counter() - started
    return {
        "name": name,
        "shards": shards,
        "processes": processes,
        "cache_enabled": engine.cache_enabled,
        "wall_s": round(elapsed, 4),
        "txs_classified": engine.stats.count("txs_classified"),
        "txs_per_s": round(engine.stats.count("txs_classified") / elapsed, 1),
        "contract_classifications": engine.stats.count("contract_classifications"),
        "cache_hit_rate": round(engine.cache_hit_rate(), 4),
        "iterations": len(build.expansion_report.iterations),
        "json": build.dataset.to_json(),
    }


def test_perf_parallel_dataset(benchmark, record_table, record_perf):
    from conftest import BENCH_SEED

    world = build_world(SimulationParams(scale=_SCALE, seed=BENCH_SEED))

    rows, samples, jsons = [], {}, {}
    classifications: dict[str, int] = {}
    iterations = 0
    for name, shards, processes, make in _engine_configs():
        result = _run_config(world, name, shards, processes, make)
        iterations = result["iterations"]
        jsons[name] = result.pop("json")
        classifications[name] = result["contract_classifications"]
        rows.append([
            name,
            f"{shards}x{processes}" if shards else "-",
            "on" if result["cache_enabled"] else "off",
            f"{result['wall_s']:.2f} s",
            f"{result['txs_per_s']:,.0f} txs/s",
            f"{classifications[name]:,}",
            f"{result['cache_hit_rate']:.1%}",
        ])
        samples[name] = {k: v for k, v in result.items() if k != "name"}

    record_table(
        "perf_parallel",
        render_table(
            ["engine", "shardsxprocs", "cache", "wall",
             "throughput", "classifications", "hit rate"],
            rows,
            title=f"Performance — runtime engine (scale {_SCALE}, "
                  f"{iterations} snowball iterations)",
        ),
    )
    record_perf("perf_parallel", samples, context=machine_context())

    # parity: every configuration yields byte-identical dataset JSON
    reference = jsons["serial-cached"]
    assert all(text == reference for text in jsons.values())
    # the snowball world is multi-round, and the cached engine performs
    # strictly fewer contract classifications than the uncached baseline
    assert iterations >= 2
    assert classifications["serial-cached"] < classifications["serial-nocache"]
    # sharded workers classify each contract exactly once across shards
    assert classifications["shard-4x4-cached"] == classifications["serial-cached"]

    # timed section for the benchmark table: the cached serial pipeline
    benchmark.pedantic(
        lambda: build_dataset(world, engine=ExecutionEngine()),
        rounds=1, iterations=1,
    )


# -- script mode: the paper-scale speedup floor -------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure process-sharded construction speedup vs. serial",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="world scale (default 1.0 = paper scale)")
    parser.add_argument("--seed", type=int, default=2025, help="world seed")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the sharded run (default 4)")
    parser.add_argument("--processes", type=int, default=FLOOR_PROCESSES,
                        help="worker processes for the sharded run (default 4)")
    parser.add_argument("--assert-floor", action="store_true",
                        help=f"fail unless the sharded run beats serial by "
                             f">= {FLOOR_SPEEDUP}x; requires --scale >= 1.0")
    parser.add_argument("--out", default=str(Path(__file__).parent / "out"
                                             / "perf_parallel.json"),
                        metavar="FILE",
                        help="JSON output path (default out/perf_parallel.json)")
    args = parser.parse_args(argv)

    if args.assert_floor and args.scale < 1.0:
        # Satellite fix: this used to "pass" silently because a tiny world
        # never exercised the fan-out.  An unmeasurable floor is an error.
        print(
            f"error: --assert-floor requires --scale >= 1.0 (got "
            f"{args.scale}); a small world cannot support the "
            f"{FLOOR_SPEEDUP}x claim — run at paper scale or drop the flag",
            file=sys.stderr,
        )
        return 2

    context = machine_context()
    if context["cpus_available"] < args.processes:
        print(
            f"warning: only {context['cpus_available']} CPU(s) available for "
            f"{args.processes} worker processes — the speedup floor cannot "
            "physically be met on this machine",
            file=sys.stderr,
        )

    print(f"building world (scale={args.scale}, seed={args.seed}) ...")
    world = build_world(SimulationParams(scale=args.scale, seed=args.seed))

    serial = _run_config(
        world, "serial-cached", 0, 1, lambda: ExecutionEngine()
    )
    name = f"shard-{args.shards}x{args.processes}-cached"
    sharded = _run_config(
        world, name, args.shards, args.processes,
        lambda: ExecutionEngine(sharding=ShardingRuntime(
            shards=args.shards, processes=args.processes,
        )),
    )
    if sharded.pop("json") != serial.pop("json"):
        print("error: sharded output diverged from serial", file=sys.stderr)
        return 1

    speedup = serial["wall_s"] / sharded["wall_s"] if sharded["wall_s"] else 0.0
    payload = {
        "scale": args.scale,
        "seed": args.seed,
        "context": context,
        "speedup_vs_serial": round(speedup, 3),
        "floor": FLOOR_SPEEDUP if args.assert_floor else None,
        "samples": {
            "serial-cached": {k: v for k, v in serial.items() if k != "name"},
            name: {k: v for k, v in sharded.items() if k != "name"},
        },
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"serial : {serial['wall_s']:8.2f} s  {serial['txs_per_s']:>10,.0f} txs/s")
    print(f"sharded: {sharded['wall_s']:8.2f} s  {sharded['txs_per_s']:>10,.0f} txs/s"
          f"  ({args.shards} shards x {args.processes} processes)")
    print(f"speedup: {speedup:.2f}x  (written to {out})")

    if args.assert_floor and speedup < FLOOR_SPEEDUP:
        print(
            f"error: speedup {speedup:.2f}x is below the {FLOOR_SPEEDUP}x "
            f"floor at {args.processes} processes "
            f"(machine: {context['cpus_available']} CPUs, "
            f"{context['start_method']} start method)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
