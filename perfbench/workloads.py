"""Seeded workload inputs: relwalk configs and the CLI invocations that use them.

The program only ever sees the generated JSON configs; the seed stays in
the benchmark.  Base configs are copies of the shipped ones, kept here so
that an edit to ``configs/`` cannot change what the benchmark measures.
"""
from __future__ import annotations

import json
import os
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

Z2_GENERATORS = ("a", "a^-1", "b", "b^-1", "t", "t^-1")

Z2_BASE = {
    "name": "z2_free_z",
    "group": {"factors": [{"rank": 2, "lattice_names": ["a", "b"]},
                          {"rank": 1, "lattice_names": ["t"]}]},
    "parabolic": [0],
    "radius": 14,
    "eta_list": [0, 2],
    "floyd_ratio": 0.5,
    "theta_grid": 16,
    "sequences": [
        {"name": "diag", "templates": ["a^n*b^n"], "start": 1, "stop": 12},
        {"name": "conical", "templates": ["(a*t)^n"], "start": 1, "stop": 12},
        {"name": "alternating", "templates": ["a^n", "b^n"], "start": 1, "stop": 12,
         "mode": "alternate"},
    ],
    "tolerances": {"green_table_radius": 4},
}

F2_FACTORS = {"factors": [{"rank": 1, "lattice_names": ["a"]},
                          {"rank": 1, "lattice_names": ["b"]}]}

F2 = {
    "name": "f2",
    "group": F2_FACTORS,
    "measure": {"kind": "uniform", "lazy": False},
    "parabolic": [],
    "radius": 25,
    "floyd_ratio": 0.5,
    "theta_grid": 2,
    "seed": 1,
    "sequences": [
        {"name": "a_ray", "templates": ["a^n"], "start": 1, "stop": 12},
        {"name": "ab_zigzag", "templates": ["(a*b)^n"], "start": 1, "stop": 10},
    ],
}

F2_OVER_A = {
    "name": "f2_over_a",
    "group": F2_FACTORS,
    "measure": {"kind": "uniform", "lazy": False},
    "parabolic": [0],
    "radius": 25,
    "eta_list": [0],
    "floyd_ratio": 0.5,
    "theta_grid": 2,
    "sequences": [
        {"name": "a_ray", "templates": ["a^n"], "start": 1, "stop": 12},
        {"name": "b_ray", "templates": ["b^n"], "start": 1, "stop": 12},
    ],
    "tolerances": {"ancona_samples": 100},
}

LATTICE_Q = "0.2"

LATTICE_1D = {
    "name": "lattice_1d",
    "chain": {"rank": 1, "fibers": 1,
              "entries": [[0, 0, [1], LATTICE_Q], [0, 0, [-1], LATTICE_Q]],
              "labels": ["0"]},
    "radius": 14,
    "theta_grid": 2,
    "seed": 3,
    "tolerances": {"lambda_grid_points": 101},
}

# relwalk.cli.STAGES, in the order ``relwalk all`` runs them.
ALL_STAGES = ("green", "floyd", "induce", "lambda-surface", "boundary-map",
              "classify", "ancona", "martin-seq", "separate")


def quartiles(values: list[float]) -> list[float]:
    """q1, median, q3 (the middle cut point of statistics.quantiles is the median)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


@dataclass(frozen=True)
class Invocation:
    """One CLI process: ``relwalk <command> --config <config> --out <out>``."""

    label: str
    command: str
    config: dict
    stages: tuple[str, ...]  # stages expected to run and end ok; the rest skip

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config_path, "--out", out_dir]


def z2_measure(seed: int) -> dict:
    """Lazy measure with six generator weights drawn from 90..110, as exact fractions."""
    rng = random.Random(seed)
    raw = [rng.randint(90, 110) for _ in Z2_GENERATORS]
    total = sum(raw)
    return {"kind": "weights", "lazy": True,
            "weights": [[g, str(Fraction(w, total))] for g, w in zip(Z2_GENERATORS, raw)]}


def _z2_config(seed: int, **overrides) -> dict:
    cfg = json.loads(json.dumps(Z2_BASE))
    cfg["measure"] = z2_measure(seed)
    cfg["seed"] = seed
    tolerances = cfg["tolerances"]
    tolerances.update(overrides.pop("tolerances", {}))
    cfg.update(overrides)
    return cfg


def invocations(workload: str, seed: int) -> list[Invocation]:
    if workload == "z2-chart":
        return [Invocation("z2_chart", "all", _z2_config(seed), ALL_STAGES)]
    if workload == "z2-eta4-surface":
        cfg = _z2_config(seed, name="z2_eta4", eta_list=[4],
                         tolerances={"lambda_grid_points": 11})
        return [Invocation("z2_eta4", "lambda-surface", cfg, ("lambda-surface",))]
    if workload == "tree-oracles":
        f2_over_a = json.loads(json.dumps(F2_OVER_A))
        f2_over_a["seed"] = seed
        return [
            Invocation("f2", "all", F2,
                       ("green", "floyd", "classify", "martin-seq")),
            Invocation("f2_over_a", "all", f2_over_a, ALL_STAGES),
            Invocation("lattice_1d", "all", LATTICE_1D,
                       ("green", "lambda-surface", "boundary-map", "separate")),
        ]
    raise KeyError(workload)


WORKLOADS = ("z2-chart", "z2-eta4-surface", "tree-oracles")


def write_configs(workload: str, seed: int, work_dir: str) -> list[tuple[Invocation, str]]:
    """Write each invocation's config under work_dir; return (invocation, path)."""
    os.makedirs(work_dir, exist_ok=True)
    out = []
    for inv in invocations(workload, seed):
        path = os.path.join(work_dir, f"{inv.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=1, sort_keys=True)
        out.append((inv, path))
    return out
