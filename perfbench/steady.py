"""Steadiness check: run one workload N times and compare spreads to bounds.

    python3 perfbench/steady.py --workload stream-live --runs 10 --traced 1

Each run gets its own seed (``--first-seed``, ``--first-seed + 1``, ...).
For every end-to-end metric the table shows the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and the metric's bound from ``BENCHMARK.json``; a spread at or
above a third of its bound is marked ``WIDE``.  Every run lasts
``run_seconds`` from ``BENCHMARK.json``, the length the bounds were set for.
With ``--traced N`` it also makes N ``--trace 1`` runs and reports the
tracing overhead: each ``trace.*`` metric against the untraced median
of the same metric.  Exit code 1 when a run fails or a spread is wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{(proc.stdout + proc.stderr)[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as the harness computes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="also make N traced runs and report overhead")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        result = run_once(args.workload, seed, seconds, 0)
        results.append(result)
        print(f"run {k + 1}/{args.runs} seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    names = list(results[0]["metrics"])
    medians = {}
    print(f"\n{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel = spread(values)
        medians[name] = med
        bound = bounds.get(name, float("nan"))
        wide = not rel < bound / 3
        ok = ok and not wide
        print(f"{name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.2%} "
              f"{bound:>6.2f}{'  WIDE' if wide else ''}")

    for k in range(args.traced):
        seed = args.first_seed + k
        traced = run_once(args.workload, seed, seconds, 1)
        ok = ok and traced["correct"]
        for name, m in traced["metrics"].items():
            if name.startswith("trace."):
                base = medians.get(name[len("trace."):])
                if base:
                    print(f"tracing overhead (seed {seed}): {name} {m['value']:.6g} vs "
                          f"untraced median {base:.6g} ({m['value'] / base - 1:+.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
