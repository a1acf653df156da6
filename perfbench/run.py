"""relwalk benchmark: seeded workloads, end-to-end metrics, outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload z2-chart --seed 1 --seconds 30 --trace 0

``--headline PATH`` also writes the reference values of the last iteration,
which is how perfbench/reference.json was recorded at the default seed.

Each workload is a closed loop of CLI processes (``python -m relwalk ...``
with PYTHONPATH=src, one process at a time, BLAS pinned to one thread).
The benchmark and its children are pinned to one CPU, and a fixed
calibration kernel is timed on that CPU between processes and every
CAL_PERIOD_S while one runs (the child is stopped meanwhile).  A process's
times are scaled by CAL_REF_S over the mean calibration sample from just
before its launch to just after its exit (its set-up time: up to its first
stage), so the end-to-end times read as seconds on a host as fast as the
reference one in a quiet phase (see README.md, "Noise on a shared host").
Iterations repeat while the next one fits in --seconds (at least
MIN_ITERATIONS run); every metric is the median over iterations.  With
--trace 1 one extra iteration, run first, is traced layer by layer; its
scaled wall time minus the untraced median is the tracing overhead.  Outputs
are checked after each iteration.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where attempted
and failed count stage executions.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Before numpy loads: BLAS worker threads would run the calibration on
# another CPU than the pinned one.
os.environ.update(CHILD_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # no iteration starts that would end past this point

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Calibration.  A sample (see Calibration.sample) reads about CAL_REF_S on
# the reference host in a quiet phase.  CAL_BETWEEN samples are taken between
# two children and one every CAL_PERIOD_S while a child runs.
CAL_REF_S = 0.0085
CAL_RUNS = 3
CAL_BETWEEN = 3
CAL_PERIOD_S = 0.75


def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU; return it (None if not possible).

    On a shared VM the host slows each vCPU in phases of its own, so the
    calibration only tracks the children's speed when both use the same CPU.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Calibration:
    """A fixed mix of interpreter work and dense linear algebra, like relwalk's."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._eig = rng.random((60, 60))
        # A 400x400 solve touches about 1.3 MB, like relwalk's larger blocks;
        # it tracked z2-chart's process times best among the kernels tried.
        self._lhs = rng.random((400, 400)) + 400 * np.eye(400)
        self._rhs = rng.random(400)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.thread_time()
        table: dict = {}
        for i in range(12000):
            key = (i % 977, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        np.linalg.eigvals(self._eig)
        np.linalg.solve(self._lhs, self._rhs)
        return time.thread_time() - t0

    def sample(self) -> float:
        """Take one sample (seconds of CPU time) and keep it in self.samples.

        The kernel runs CAL_RUNS times and the sample is its fastest run but
        the first, which only warms the caches a child has evicted: the
        sample measures the CPU, not the child's footprint.
        """
        runs = [self._kernel() for _ in range(CAL_RUNS)]
        self.samples.append(min(runs[1:]))
        return self.samples[-1]

    def between(self) -> list[float]:
        return [self.sample() for _ in range(CAL_BETWEEN)]


@dataclass
class Process:
    launched: float
    exited: float
    cpu_s: float
    maxrss_kb: int
    record: spans.Record | None
    before: list[float]  # calibration samples just before launch
    during: list[tuple[float, float, float]]  # (start, pause, value) of samples while it ran
    after: list[float]  # calibration samples just after exit

    def scale(self, until: float) -> float:
        """CAL_REF_S over the mean calibration sample from launch to `until`."""
        values = self.before + [v for t, _, v in self.during if t < until]
        if until >= self.exited:
            values += self.after
        return CAL_REF_S / statistics.fmean(values)

    def wall(self, until: float | None = None, scaled: bool = True) -> float:
        """Launch to exit (or to `until`), less the pauses for calibration samples."""
        until = self.exited if until is None else until
        raw = until - self.launched - sum(d for t, d, _ in self.during if t < until)
        return raw * self.scale(until) if scaled else raw


@dataclass
class Iteration:
    processes: list[Process] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def metrics(self, scaled: bool = True) -> dict[str, float]:
        """End-to-end metrics; scaled=False gives the times as the clock read them."""
        wall = cpu = setup = 0.0
        for p in self.processes:
            first = p.record.meta["first_stage"] if p.record else None
            wall += p.wall(scaled=scaled)
            cpu += p.cpu_s * (p.scale(p.exited) if scaled else 1.0)
            setup += p.wall(first, scaled)
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": setup,
            "peak_rss_mb": max(p.maxrss_kb for p in self.processes) / 1024.0,
        }


def _launch(argv: list[str], env: dict, log_prefix: str, cal: Calibration):
    """Run one child to completion, sampling the calibration while it runs.

    The child is stopped (SIGSTOP) while a sample is taken, so the two never
    share the CPU: taking turns with the child in slices of a few ms, the
    kernel would measure the child's cache footprint as much as the CPU.
    Returns (launch, exit, exit code, rusage, samples).  os.wait4 gives this
    child's own rusage; RUSAGE_CHILDREN would only keep a running maximum of
    ru_maxrss over all children.
    """
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        during: list[tuple[float, float, float]] = []
        reaped = False
        try:
            while not select.select([pidfd], [], [], CAL_PERIOD_S)[0]:
                if time.monotonic() - launched > CHILD_TIMEOUT_S:
                    proc.kill()
                paused = time.monotonic()
                os.kill(proc.pid, signal.SIGSTOP)
                try:
                    value = cal.sample()
                finally:
                    os.kill(proc.pid, signal.SIGCONT)
                during.append((paused, time.monotonic() - paused, value))
            exited = time.monotonic()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
            if not reaped:
                proc.kill()
                proc.wait()
    return launched, exited, os.waitstatus_to_exitcode(status), usage, during


def run_iteration(index: int, plan, work: str, env: dict, mode: str,
                  reference: dict | None, cal: Calibration) -> Iteration:
    it = Iteration()
    iter_dir = os.path.join(work, f"iter{index}")
    shutil.rmtree(os.path.join(work, f"iter{index - 1}"), ignore_errors=True)
    os.makedirs(iter_dir)
    done = []
    before = cal.between()
    for inv, config_path in plan:
        out_dir = os.path.join(iter_dir, inv.label)
        record_path = os.path.join(iter_dir, inv.label + ".npz")
        argv = [sys.executable, os.path.join(HERE, "child.py"), record_path, mode, "--",
                *inv.argv(config_path, out_dir)]
        launched, exited, code, usage, during = _launch(
            argv, env, os.path.join(iter_dir, inv.label), cal)
        after = cal.between()
        record = spans.Record.load(record_path) if os.path.exists(record_path) else None
        it.processes.append(Process(launched, exited, usage.ru_utime + usage.ru_stime,
                                    usage.ru_maxrss, record, before, during, after))
        before = after
        done.append((inv, out_dir, code))
    for inv, out_dir, code in done:
        log = os.path.join(iter_dir, inv.label)
        with open(log + ".out") as fh:
            stdout = fh.read()
        with open(log + ".err") as fh:
            stderr = fh.read()
        ref = reference.get(inv.label) if reference else None
        nfail, messages = checks.check_invocation(
            inv.label, inv.command, inv.stages, out_dir, stdout, stderr, code, ref)
        it.attempted += len(inv.stages)
        it.failed += min(nfail, len(inv.stages))
        it.messages += messages
    return it


def load_reference(workload: str, seed: int) -> dict | None:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    if seed != ref["seed"]:
        return None
    return ref["values"].get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--headline", metavar="PATH",
                        help="write the last iteration's reference values as JSON to PATH")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "relwalk", "cli.py")):
        print(f"error: no relwalk sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Users run with warm bytecode caches; do not time compilation.
    compileall.compile_dir(os.path.join(src, "relwalk"), quiet=1)

    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    plan = workloads.write_configs(args.workload, args.seed, os.path.join(work, "configs"))
    reference = load_reference(args.workload, args.seed)

    cal = Calibration()
    iterations: list[Iteration] = []
    traced: Iteration | None = None
    index = 0
    begin = time.monotonic()
    if args.trace:
        traced = run_iteration(index, plan, work, env, "trace", reference, cal)
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - begin
        # Stop before an iteration that would overrun --seconds, so that a
        # run lasts about --seconds whatever the iteration length.
        if len(iterations) >= MIN_ITERATIONS and \
                elapsed + statistics.median(durations) > args.seconds:
            break
        if iterations and elapsed + statistics.median(durations) > RUN_BUDGET_S:
            break
        index += 1
        t0 = time.monotonic()
        iterations.append(run_iteration(index, plan, work, env, "stages", reference, cal))
        durations.append(time.monotonic() - t0)

    every = iterations + ([traced] if traced else [])
    attempted = sum(it.attempted for it in every)
    failed = sum(it.failed for it in every)
    messages = sorted({m for it in every for m in it.messages})

    per_iter = [it.metrics() for it in iterations]
    print(f"workload {args.workload}, seed {args.seed}: {len(iterations)} untraced "
          f"iterations in {time.monotonic() - begin:.1f} s"
          + (", plus 1 traced" if traced else "")
          + (f"; pinned to CPU {cpu}" if cpu is not None else "; not pinned"))
    q1, med, q3 = workloads.quartiles(cal.samples)
    print(f"  calibration    {med:12.4f} s      q1 {q1:.4f}  q3 {q3:.4f}  n={len(cal.samples)}  "
          f"(times below are scaled by {CAL_REF_S} / calibration)")
    raw_wall = [it.metrics(scaled=False)["wall_s"] for it in iterations]
    print(f"  unscaled wall_s median {statistics.median(raw_wall):.4f} s  "
          f"[{' '.join(f'{w:.3f}' for w in raw_wall)}]")
    print("  speed (calibration / reference) per iteration  [" + " ".join(
        f"{statistics.fmean(1 / p.scale(p.exited) for p in it.processes):.3f}"
        for it in iterations) + "]")
    summary = {}
    for name, unit in END_TO_END:
        q1, med, q3 = workloads.quartiles([m[name] for m in per_iter])
        summary[name] = med
        print(f"  {name:<14} {med:12.4f} {unit:<6} q1 {q1:.4f}  q3 {q3:.4f}  n={len(per_iter)}  "
              f"[{' '.join(f'{m[name]:.3f}' for m in per_iter)}]")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f} {'1':<6} "
          f"({failed} of {attempted} stage executions)")
    for m in messages:
        print(f"  FAIL {m}")

    if args.trace:
        layers = spans.layer_metrics([p.record for p in traced.processes if p.record])
        traced_wall = traced.metrics()["wall_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - summary["wall_s"]
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<36} {layers[name]:16.6f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    if args.headline:
        last = os.path.join(work, f"iter{index}")
        heads = {inv.label: checks.headline(inv.label, os.path.join(last, inv.label))
                 for inv, _ in plan}
        with open(args.headline, "w", encoding="utf-8") as fh:
            json.dump(heads, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
