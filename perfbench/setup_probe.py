"""Set-up time of one workload, measured in a fresh interpreter.

Times ``import hjbranch`` plus generating the seeded inputs and building the
scenario, grid and operator, i.e. everything before the first timed op.
Prints one JSON line: {"setup_s": ...}.

    python3 perfbench/setup_probe.py --workload fold2d --seed 0 --work DIR [--smoke]
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    env.add_source()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke)
    workloads.build(wl, Path(args.work))
    print(json.dumps({"setup_s": perf_counter() - T0, "ops": len(wl.ops)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
