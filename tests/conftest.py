"""Shared fixtures: shipped configs, walk engines, and induced chains."""
import importlib.util
import math
import os
import sys

import numpy as np
import pytest

from relwalk import (FreeProductEngine, induce_first_return, load_config,
                     project_to_coset)
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.floyd import word_geodesic

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def cli_env(**extra) -> dict:
    """Environment for ``python -m relwalk`` children: fixed hash seed, src importable."""
    env = dict(os.environ, PYTHONHASHSEED="0", **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return env


def coset_distance(g, coset) -> int:
    """Word distance from g to the coset, through its closest-point projection."""
    return (project_to_coset(g, coset).inverse() * g).word_length


def cut_by(inside, measure, left, right) -> bool:
    """Whether a vertex of the set inside, strictly inside word_geodesic(left, right),
    separates left from right for the walk with step law measure.

    The walk crosses between factor cosets only at their common point, so
    a vertex where the geodesic enters one factor and leaves by another is
    cut.  So is every vertex the geodesic crosses in a rank-1 factor with
    trivial finite part whose steps have length 1: the walk cannot jump it.
    In rank 2 or more a detour goes around a single vertex.
    """
    factors = measure.group.factors
    lines = {i for i, spec in enumerate(factors) if spec.rank == 1 and spec.finite_order == 1}
    lines -= {g.syllables[0][0] for g in measure.support if g.word_length > 1}
    path = word_geodesic(left, right)
    for before, v, after in zip(path, path[1:], path[2:]):
        if v in inside:
            entered = (before.inverse() * v).syllables[0][0]
            if entered != (v.inverse() * after).syllables[0][0] or entered in lines:
                return True
    return False


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Wrap module.name so that each call adds one to the returned counter."""
    inner = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_tilts(monkeypatch, module, name: str) -> list[int]:
    """Wrap the batched module.name(chain, tilts) so that each call adds its tilt count."""
    inner = getattr(module, name)
    tilts = [0]

    def counted(chain, batch):
        tilts[0] += len(batch)
        return inner(chain, batch)

    monkeypatch.setattr(module, name, counted)
    return tilts


def tilted_matrix(chain, u) -> np.ndarray:
    """F(u) of a lattice chain, built entry by entry."""
    F = np.zeros((chain.fiber_count,) * 2)
    for j1, j2, dz, w in chain.entries:
        F[j1, j2] += w * math.exp(float(np.dot(u, dz)))
    return F


def perron_residual(chain, data) -> float:
    """|lambda - rho(F(u))| of a perron() result, rho the largest real part of
    the eigenvalues of F(u) built entry by entry."""
    return abs(data.value - float(max(np.linalg.eigvals(tilted_matrix(chain, data.u)).real)))


def extrapolated_ratio_deviation(rep):
    """Kernel-ratio deviations of a martin_convergence report, raw and at n -> inf.

    Each column of log(ratios / predicted), one test-point pair, is fitted
    by least squares against (1, 1/n, 1/n^2); the intercept is the pair's
    n -> inf limit.  Returns the worst |expm1(intercept)| over pairs and
    the raw worst relative deviation at each n.
    """
    inv_n = 1.0 / np.array(rep.ns, dtype=float)
    design = np.column_stack([np.ones_like(inv_n), inv_n, inv_n ** 2])
    coef, *_ = np.linalg.lstsq(design, np.log(rep.ratios / rep.predicted), rcond=None)
    worst = float(np.max(np.abs(np.expm1(coef[0])), initial=0.0))
    dev = np.abs(rep.ratios - rep.predicted) / rep.predicted
    per_n = {n: float(np.max(row, initial=0.0)) for n, row in zip(rep.ns, dev)}
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
    return induce_first_return(f2_engine, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)


@pytest.fixture(scope="session")
def z2_engine(z2_cfg):
    return FreeProductEngine(z2_cfg.group, z2_cfg.measure, radius=z2_cfg.radius)


@pytest.fixture(scope="session")
def z2_chain_eta0(z2_engine):
    return induce_first_return(z2_engine, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)


@pytest.fixture(scope="session")
def z2_chain_eta2(z2_engine):
    return induce_first_return(z2_engine, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)


@pytest.fixture(scope="session")
def z2_chain_eta4(z2_engine):
    return induce_first_return(z2_engine, factor=0, eta=4, state_cap=DEFAULT_STATE_CAP)


@pytest.fixture(scope="session")
def workload_cfgs(tmp_path_factory):
    """Configs of the benchmark's invocations at perfbench seed 1, by invocation label."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py"))
    # Registered first: its dataclasses look their module up in sys.modules.
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    root = str(tmp_path_factory.mktemp("seeded"))
    return {inv.label: load_config(path) for workload in workloads.WORKLOADS
            for inv, path in workloads.write_configs(workload, 1, root)}


@pytest.fixture(scope="session")
def seeded_z2_engine(workload_cfgs):
    """Engine of the benchmark's z2-eta4-surface workload (perfbench seed 1)."""
    cfg = workload_cfgs["z2_eta4"]
    return FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius)


@pytest.fixture(scope="session")
def seeded_eta4_chain(seeded_z2_engine):
    """The 233-fiber chain of the benchmark's z2-eta4-surface workload."""
    return induce_first_return(seeded_z2_engine, factor=0, eta=4, state_cap=DEFAULT_STATE_CAP)
