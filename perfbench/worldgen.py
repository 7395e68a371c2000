"""Generate one simulated world and pickle it (the benchmark's input).

Run as a child process by ``common.load_world`` so world generation
never shares a heap, a peak-RSS reading or a timing with the process
that measures::

    PYTHONPATH=src python3 perfbench/worldgen.py --seed 7 --scale 0.1 --out W.pkl
"""

from __future__ import annotations

import argparse
import os
import pickle


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from repro.simulation import SimulationParams, build_world

    world = build_world(SimulationParams(scale=args.scale, seed=args.seed))
    tmp = f"{args.out}.tmp{os.getpid()}"
    with open(tmp, "wb") as handle:
        pickle.dump(world, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
