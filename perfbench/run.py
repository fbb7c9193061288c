"""etcontrol benchmark: one workload, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times ops untraced and prints the end-to-end metrics of
BENCHMARK.json; its times are calibrated to a reference machine speed
by ``speed.py``. ``--trace 1`` alternates blocks of untraced ops and of
ops traced by ``tracer.py``, prints the per-layer metrics and writes the
spans under ``.perfbench_run/``. Every op's outputs are
checked outside the timed region. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports etcontrol from ``src/`` of the checkout and exits
with code 2, printing no result, when that source tree is missing.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 11
# Op time per untraced or traced block of a traced run; one op at least.
TRACE_BLOCK_S = 1.0
# Problems printed per run; all of them count.
SHOWN_PROBLEMS = 5


class Tally:
    """Outcomes per input: an op that repeats an input is another sample.

    ``attempted`` counts the inputs run at least once and ``failed`` those
    whose op failed, so both follow from the seed and not from how many
    ops fit in the run. A repeat whose outcome differs from the input's
    first op is a wrong op.
    """

    def __init__(self):
        self.outcomes = {}
        self.cursor = 0
        self.wrong = 0
        self.problems = []

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(not ok for ok in self.outcomes.values())

    def record(self, index, ok):
        first = self.outcomes.setdefault(index, ok)
        if first != ok:
            self.wrong += 1
            self.problems.append(f"input {index}: op outcome differs from its first op")


def environment():
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(workload, seed, env):
    """Median calibrated time of fresh processes that import, build inputs, warm up."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)]
    samples = []
    with speed.SpeedProbe() as machine:
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            subprocess.run(probe, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            end = time.perf_counter()
            samples.append(machine.calibrated(end - start, start, end))
    return statistics.median(samples)


def timed_ops(workload, jobs, seed, budget, scratch, state, tally, tracer=None,
              machine=None):
    """Run ops one after another until their summed time reaches ``budget``.

    Ops take the inputs in turn, carrying on where the previous call
    stopped. The next op starts only if half a median op still fits, so
    the run ends close to the budget. Returns the time of each op: its
    wall time less the probe's kernels, rescaled by ``machine`` to the
    reference speed when a probe is given.
    """
    from etcontrol import DesignError, SimulationError

    samples, walls = [], []
    out_dir = scratch / "op"
    while not walls or sum(walls) + 0.5 * statistics.median(walls) < budget:
        index = tally.cursor % len(jobs)
        tally.cursor += 1
        job = jobs[index]
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        error = None
        probed = machine.spent if machine else 0.0
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(job, out_dir)
            else:
                result = tracer.op(workload.op, job, out_dir)
        except (DesignError, SimulationError) as exc:  # in-domain refusal: a failed op
            error = exc
        except Exception as exc:  # any other exception is a defect: a wrong op
            error = exc
            tally.wrong += 1
        end = time.perf_counter()
        walls.append(end - start)
        elapsed = end - start
        if machine:
            elapsed = machine.calibrated(elapsed - (machine.spent - probed), start, end)
        samples.append(elapsed)
        if error is not None:
            tally.record(index, False)
            tally.problems.append(f"{type(error).__name__}: {error}")
            continue
        problems = workload.check(job, result, seed, state)
        tally.record(index, not problems)
        if problems:
            tally.wrong += 1
            tally.problems.extend(problems)
        elif tracer is not None:
            for name, amount in workload.trace_counts(result).items():
                tracer.count(name, amount)
        # Drop the result before the next op, so that peak_rss_mb never
        # holds two ops' outputs at once.
        result = None
    shutil.rmtree(out_dir, ignore_errors=True)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etcontrol" / "__init__.py").is_file():
        print(f"error: no etcontrol source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = RUN_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return measure(args, spec, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, spec, scratch, env):
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed, env)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import etcontrol
    if Path(etcontrol.__file__).resolve().parent != SRC / "etcontrol":
        print(f"error: etcontrol imported from {etcontrol.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs = workload.inputs(args.seed)
    warm = scratch / "warm"
    warm.mkdir()
    workload.warm_up(jobs, warm)
    state = {}
    tally = Tally()

    if not args.trace:
        with speed.SpeedProbe() as machine:
            samples = timed_ops(workload, jobs, args.seed, args.seconds, scratch, state,
                                tally, machine=machine)
            # Every input is run once at least, so that attempted and
            # failed depend on the seed alone.
            while tally.attempted < len(jobs):
                samples += timed_ops(workload, jobs, args.seed, 0.0, scratch, state, tally,
                                     machine=machine)
        counts = (f"{len(samples)} timed; speed kernel {statistics.fmean(machine.durations) * 1e3:.3f} ms"
                  f" mean over {len(machine.durations)} runs")
        metrics["op_s"] = statistics.median(samples)
        metrics["op_s_p95"] = percentile(samples, 95)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_ratio"] = 1.0 - tally.failed / tally.attempted
        declared = spec["end_to_end"]
    else:
        # Untraced and traced blocks alternate, so that a drift in machine
        # speed during the run does not show up as tracing overhead.
        tracer = tracing.Tracer()
        traced_jobs = [workload.traced(job, tracer) for job in jobs]
        plain, samples = [], []
        spent = 0.0
        while True:
            block = timed_ops(workload, jobs, args.seed, TRACE_BLOCK_S, scratch, state, tally)
            tracer.install()
            try:
                traced = timed_ops(workload, traced_jobs, args.seed, TRACE_BLOCK_S, scratch,
                                   state, tally, tracer)
            finally:
                tracer.uninstall()
            plain += block
            samples += traced
            round_s = sum(block) + sum(traced)
            spent += round_s
            # As in an untraced run, every input is run once at least.
            if spent + 0.5 * round_s >= args.seconds and tally.attempted == len(jobs):
                break
        counts = f"{len(plain)} untraced, {len(samples)} traced"
        metrics.update(tracing.per_layer_metrics(tracer))
        metrics["trace.overhead_ratio"] = (
            statistics.median(samples) / statistics.median(plain) - 1.0)
        RUN_DIR.mkdir(exist_ok=True)
        tracer.dump(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "environment": environment()})
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent))
        declared = spec["per_layer"]

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(names)}",
              file=sys.stderr)
        return 2
    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"ops {counts}; {tally.attempted} inputs attempted, {tally.failed} failed")
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.attempted > tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def percentile(samples, q):
    """Linear-interpolation percentile; never beyond the largest sample."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


if __name__ == "__main__":
    sys.exit(main())
