"""Set-up probe: a fresh process that imports axibeam and runs one workload's warm-up.

`run.py` times this process from start to exit for the `setup_s` metric.

    python3 perfbench/setup_probe.py --workload sweep --seed 1
"""

import argparse
import sys

import checkout


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if not checkout.use_source_tree():
        print(f"perfbench: no axibeam source under {checkout.SRC}", file=sys.stderr)
        return 2
    import workloads

    workloads.WORKLOADS[args.workload](args.seed).warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
