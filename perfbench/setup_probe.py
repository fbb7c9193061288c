"""One set-up sample: import etcontrol, build a workload's inputs, warm up.

``run.py`` starts this in a fresh process and times it from outside, so
the sample includes interpreter start-up and every import.
"""

import argparse
import sys
import tempfile
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    jobs = workload.inputs(args.seed)
    with tempfile.TemporaryDirectory() as out_dir:
        workload.warm_up(jobs, Path(out_dir))


if __name__ == "__main__":
    sys.exit(main())
