"""perfbench: the end-to-end and per-layer benchmark of the three planes.

    python3 perfbench/run.py --workload batch-build --seed 1 --seconds 10 --trace 0

Workloads (``README.md`` gives each one's reason for existing):

* ``batch-build``  -- ``index build`` in a closed loop;
* ``serve-wallet`` -- open-loop wallet traffic against ``serve``;
* ``stream-live``  -- blocks sealed on a schedule through ``stream run``
  publishing to a hot-reloading ``serve``.

The seed picks one of ``common.WORLDS`` generated worlds and generates
the rest of the inputs (the request mixes).  With
``--trace 0`` the last stdout line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` benchmark spans wrap the
program's public calls and the line carries every per-layer metric, 0
for layers the workload never calls.  The exit code is 0 only when every
output check passed; 2 when the program cannot be run from this
directory (no ``src/repro``).
"""

from __future__ import annotations

import argparse
import os
import sys

import batch_build
import serve_wallet
import stream_live
from common import (
    BenchError,
    Report,
    cpu_split,
    load_world,
    machine_context,
    manifest,
    require_source,
)

WORKLOADS = {
    "batch-build": lambda args, report: batch_build.run(args, report, load_world(args.seed)),
    "serve-wallet": lambda args, report: serve_wallet.run(args, report, load_world),
    "stream-live": lambda args, report: stream_live.run(args, report, load_world(args.seed)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_source()
        os.sched_setaffinity(0, cpu_split()[0])
        report = Report(machine_context(args.workload, args.seed, bool(args.trace)))
        WORKLOADS[args.workload](args, report)
        return report.emit(manifest(bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
