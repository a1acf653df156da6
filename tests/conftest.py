"""Shared fixtures: shipped configs, walk engines, and induced chains."""
import math
import os
from collections import defaultdict

import numpy as np
import pytest

from relwalk import FreeProductEngine, induce_first_return, load_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def cli_env(**extra) -> dict:
    """Environment for ``python -m relwalk`` children: fixed hash seed, src importable."""
    env = dict(os.environ, PYTHONHASHSEED="0", **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def extrapolated_ratio_deviation(ratio_rows):
    """Kernel-ratio deviations of a martin_convergence report, raw and at n -> inf.

    Each test-point pair's log(ratio/predicted) is fitted by least squares
    against (1, 1/n, 1/n^2); the intercept is the pair's n -> inf limit.
    Returns the worst |expm1(intercept)| over pairs and the raw worst
    relative deviation at each n.
    """
    per_pair = defaultdict(list)
    per_n = {}
    for row in ratio_rows:
        per_pair[row["x"], row["x_other"]].append(
            (row["n"], math.log(row["ratio"] / row["predicted"])))
        per_n[row["n"]] = max(per_n.get(row["n"], 0.0), row["rel_dev"])
    worst = 0.0
    for samples in per_pair.values():
        inv_n = np.array([1.0 / n for n, _ in samples])
        design = np.column_stack([np.ones_like(inv_n), inv_n, inv_n ** 2])
        coef, *_ = np.linalg.lstsq(design, [y for _, y in samples], rcond=None)
        worst = max(worst, abs(math.expm1(coef[0])))
    return worst, dict(sorted(per_n.items()))


@pytest.fixture(scope="session")
def f2_cfg():
    return load_config(config_path("f2.json"))


@pytest.fixture(scope="session")
def f2a_cfg():
    return load_config(config_path("f2_over_a.json"))


@pytest.fixture(scope="session")
def z2_cfg():
    return load_config(config_path("z2_free_z.json"))


@pytest.fixture(scope="session")
def lat_cfg():
    return load_config(config_path("lattice_1d.json"))


@pytest.fixture(scope="session")
def f2_engine(f2_cfg):
    return FreeProductEngine(f2_cfg.group, f2_cfg.measure, radius=f2_cfg.radius)


@pytest.fixture(scope="session")
def f2a_chain(f2a_cfg, f2_engine):
    return induce_first_return(f2_engine, factor=0, eta=0)


@pytest.fixture(scope="session")
def z2_engine(z2_cfg):
    return FreeProductEngine(z2_cfg.group, z2_cfg.measure, radius=z2_cfg.radius)


@pytest.fixture(scope="session")
def z2_chain_eta0(z2_engine):
    return induce_first_return(z2_engine, factor=0, eta=0)


@pytest.fixture(scope="session")
def z2_chain_eta2(z2_engine):
    return induce_first_return(z2_engine, factor=0, eta=2)
