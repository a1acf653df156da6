"""Run the benchmark twice over ten seeds and record medians, quartiles and spreads.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

It makes two sets of runs, one after the other.  Each set runs ``run.py``
untraced once per seed on every workload.  For every end-to-end metric it
reports each set's median and quartiles over seeds, the spread
(q3 - q1) / median, and how far the second set's median lies from the
first's.  A record is good when every output is correct, every spread but
setup_s's stays within its bound in BENCHMARK.json, the two sets' medians
of every metric agree within the bound (either way, as a share of the first),
and two traced runs at the default seed repeat the deterministic counts
exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = list(range(1, 11))
SETS = 2
TRACED_RUNS = 2
DETERMINISTIC = ("perron.evals", "lattice.box_lu.count", "excursions.green.calls",
                 "excursions.taboo_build.count")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = workloads.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def run_set(seconds: int, bounds: dict) -> tuple[dict, bool]:
    """One set: every workload, once per seed.  Returns (per-workload stats, ok)."""
    out, ok = {}, True
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        ok &= entry["correct"]
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            spread = stats["spread"]
            verdict = "within bound/3" if spread <= bound / 3 else \
                "within bound" if spread <= bound else "OVER BOUND"
            ok &= name == "setup_s" or spread <= bound
            print(f"  {name:<12} median {stats['median']:.4f}  q1 {stats['q1']:.4f}  "
                  f"q3 {stats['q3']:.4f}  spread {spread:.4f}  bound {bound}  {verdict}",
                  flush=True)
        out[workload] = entry
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record as JSON to this path")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "platform": platform.platform()},
              "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    sets, ok = [], True
    for index in range(SETS):
        print(f"set {index + 1} of {SETS}", flush=True)
        stats, set_ok = run_set(seconds, bounds)
        sets.append(stats)
        ok &= set_ok

    for workload in workloads.WORKLOADS:
        entry = {"sets": [s[workload] for s in sets], "median_change": {}}
        print(workload, flush=True)
        for name, bound in bounds.items():
            first, last = (s[workload]["end_to_end"][name]["median"] for s in (sets[0], sets[-1]))
            change = (last - first) / first
            entry["median_change"][name] = change
            ok &= abs(change) <= bound
            print(f"  {name:<12} median {first:.4f} -> {last:.4f}  change {change:+.4f}  "
                  f"bound {bound}  {'agree' if abs(change) <= bound else 'DISAGREE'}",
                  flush=True)
        tables = [{k: v["value"] for k, v in
                   run_once(workload, workloads.DEFAULT_SEED, seconds, 1)["metrics"].items()}
                  for _ in range(TRACED_RUNS)]
        repeat = all(t[k] == tables[0][k] for t in tables[1:] for k in DETERMINISTIC)
        ok &= repeat
        entry["traced"] = {"seed": workloads.DEFAULT_SEED, "runs": len(tables),
                           "deterministic_counts_repeat": repeat,
                           "per_layer": tables[0]}
        print(f"  traced x{len(tables)}: deterministic counts "
              f"{'repeat' if repeat else 'DIFFER'}; overhead "
              f"{tables[0]['trace.overhead_s']:.3f} s", flush=True)
        record["workloads"][workload] = entry
    record["ok"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
