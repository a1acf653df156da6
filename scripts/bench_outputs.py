#!/usr/bin/env python3
"""Run every seeded benchmark invocation and every shipped config once and keep the outputs.

Usage: PYTHONPATH=src python scripts/bench_outputs.py OUT

For each workload of perfbench/workloads.py, at its DEFAULT_SEED, each
invocation's config is written to OUT/<workload>/<label>.json and its
command runs with that config into OUT/<workload>/<label>.  Then
`relwalk all` runs on every config in configs/ into OUT/configs/<name>,
as scripts/run_all.py does.  OUT is the output set to compare with
diff -r between two versions of the code.  Exits with the worst exit code.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from run_all import CONFIG_DIR, run_configs  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_configs  # noqa: E402

from relwalk.cli import main as cli_main  # noqa: E402


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    worst = 0
    for workload in WORKLOADS:
        root = os.path.join(sys.argv[1], workload)
        for inv, path in write_configs(workload, DEFAULT_SEED, root):
            print(f"== {workload}/{inv.label}: relwalk {inv.command} ==")
            code = cli_main(inv.argv(path, os.path.join(root, inv.label)))
            print(f"== {workload}/{inv.label}: exit {code} ==")
            worst = max(worst, code)
    return max(worst, run_configs(CONFIG_DIR, os.path.join(sys.argv[1], "configs")))


if __name__ == "__main__":
    sys.exit(main())
