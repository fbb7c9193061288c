"""Run every workload over several seeds and write ``baseline.json``.

Run from the root of a checkout:

    python3 perfbench/record_baseline.py [--out perfbench/baseline.json]

For each workload it makes one untraced run per seed (seeds 1..10) and
one traced run with seed 1. It records each end-to-end metric's values,
median and quartile spread (the distance between the first and third
quartiles of ``statistics.quantiles(values, n=4)``, as a share of the
median), the traced run's per-layer metrics, and the wall time of every
run, untraced ones first. Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), json.loads(env.split(" ", 1)[1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs, walls = [], []
        for seed in range(1, SEEDS + 1):
            result, document["environment"], wall = bench(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            walls.append(wall)
            print(name, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "spread": (q3 - q1) / median,
                "bound": metric["bound"], "values": values,
            }
        traced, _, traced_wall = bench(name, 1, spec["run_seconds"], 1)
        document["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": end_to_end,
            "run_wall_s": walls + [traced_wall],
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
