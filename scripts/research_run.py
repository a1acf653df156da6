#!/usr/bin/env python3
"""The research-sized run: `relwalk all` on the seed-1 z2 walk at eta 0, 2 and 4.

Usage: python scripts/research_run.py OUT

The config is perfbench/workloads.py's seed-1 z2 config with eta_list
[0, 2, 4], theta_grid 64, radius 20 and every sequence run to n = 24.  It
is written to OUT/z2_deep.json, and `python -m relwalk all` runs on it in
a child process into OUT/z2_deep, with src/ importable and BLAS at one
thread.  Prints the child's exit code, wall time and peak RSS, and exits 1
when the child exits nonzero or its peak RSS reaches MAX_RSS_MB.
"""
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import _z2_config  # noqa: E402

MAX_RSS_MB = 150.0


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    out = sys.argv[1]
    os.makedirs(out, exist_ok=True)
    cfg = _z2_config(1, name="z2_deep", eta_list=[0, 2, 4], theta_grid=64, radius=20)
    for seq in cfg["sequences"]:
        seq["stop"] = 24
    path = os.path.join(out, "z2_deep.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "relwalk", "all", "--config", path,
                           "--out", os.path.join(out, "z2_deep")], env=env).returncode
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"research-sized run: exit {code}, {wall:.2f} s, peak RSS {rss_mb:.1f} MB "
          f"(bound {MAX_RSS_MB:.0f} MB)")
    return int(code != 0 or rss_mb >= MAX_RSS_MB)


if __name__ == "__main__":
    sys.exit(main())
