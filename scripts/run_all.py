#!/usr/bin/env python3
"""Run the full experiment suite over every shipped config."""
import argparse
import os
import sys

from relwalk.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_configs(config_dir: str, out_root: str | None = None) -> int:
    """Run `relwalk all` on every config in config_dir, each into out_root/<name>
    when out_root is given; return the worst exit code."""
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    if not names:
        print(f"no configs found in {config_dir}", file=sys.stderr)
        return 1
    worst = 0
    for fname in names:
        path = os.path.join(config_dir, fname)
        print(f"== {fname} ==")
        argv = ["all", "--config", path]
        if out_root:
            argv += ["--out", os.path.join(out_root, os.path.splitext(fname)[0])]
        code = cli_main(argv)
        print(f"== {fname}: exit {code} ==")
        worst = max(worst, code)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=CONFIG_DIR,
                        help="directory of experiment JSON files")
    parser.add_argument("--out", default=None, help="output root override")
    args = parser.parse_args()
    return run_configs(args.configs, args.out)


if __name__ == "__main__":
    sys.exit(main())
