#!/usr/bin/env python3
"""Run the full experiment suite over every shipped config."""
import argparse
import os
import sys

from relwalk.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=CONFIG_DIR,
                        help="directory of experiment JSON files")
    parser.add_argument("--out", default=None, help="output root override")
    args = parser.parse_args()

    names = sorted(f for f in os.listdir(args.configs) if f.endswith(".json"))
    if not names:
        print(f"no configs found in {args.configs}", file=sys.stderr)
        return 1
    worst = 0
    for fname in names:
        path = os.path.join(args.configs, fname)
        print(f"== {fname} ==")
        argv = ["all", "--config", path]
        if args.out:
            argv += ["--out", os.path.join(args.out, os.path.splitext(fname)[0])]
        code = cli_main(argv)
        print(f"== {fname}: exit {code} ==")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
