"""Acceptance checks: every release gate runs here, one test per gate.

Each test prints a PASS/FAIL line with its headline numbers so a plain
pytest -v run doubles as the acceptance report.  Gates with stated time
budgets assert them.  These tolerances are contractual; loosening them
is a release decision, not a test fix.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from relwalk import (FiberIndex, FreeProductEngine, LatticeChain,
                     SequenceSpec, TabooContext, ancona_ratio, ball_elements,
                     induce_first_return,
                     level_set_point, martin_convergence, separation_experiment,
                     verify_same_green)
from relwalk.classify import classify, sample_ancona_pairs
from relwalk.cli import _TRANSITIONS
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.groups import Coset
from relwalk.lattice import ChainGreen
from relwalk.perron import limit_kernel_ratio, perron

from conftest import cli_env, config_path, extrapolated_ratio_deviation


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{tag}: {detail}"


def test_a01_tree_green_oracle(f2_engine, f2_cfg):
    t0 = time.monotonic()
    g = f2_cfg.group
    dev_ee = abs(f2_engine.green_identity_value - 1.5)
    worst = 0.0
    for x in ball_elements(g, 5, DEFAULT_STATE_CAP):
        tree = 1.5 * 3.0 ** (-x.word_length)
        worst = max(worst, abs(f2_engine.green(g.identity, x) - tree))
    elapsed = time.monotonic() - t0
    ok = dev_ee < 1e-6 and worst < 1e-6 and elapsed < 60.0
    report("A01 tree-green-oracle", ok,
           f"|G(e,e)-1.5|={dev_ee:.3g}, max ball-5 dev={worst:.3g}, {elapsed:.1f}s")


def test_a02_lazy_walk_doubling(f2_engine, f2_cfg):
    """The lazy walk doubles G(e, y) and keeps K(x, y) = G(x, y)/G(e, y).

    y runs over ball 10 and x over ball 2.  Both engines give the whole
    block G(x, y) = G(e, x^-1 y) from green_matrix, which equals green
    bit for bit and forms no product x^-1 y.
    """
    t0 = time.monotonic()
    g = f2_cfg.group
    lazy_engine = FreeProductEngine(g, f2_cfg.measure.lazy(), radius=f2_cfg.radius)
    targets = ball_elements(g, 10, DEFAULT_STATE_CAP)
    shorts = ball_elements(g, 2, DEFAULT_STATE_CAP)

    def blocks(engine):
        ids = engine.syllable_ids(targets)
        return engine.green_matrix([g.identity], ids)[0], engine.green_matrix(shorts, ids)

    plain, from_shorts = blocks(f2_engine)
    slow, lazy_from_shorts = blocks(lazy_engine)
    dev_green = float(np.max(np.abs(slow - 2.0 * plain)))
    dev_kernel = float(np.max(np.abs(lazy_from_shorts / slow - from_shorts / plain)))
    elapsed = time.monotonic() - t0
    ok = dev_green < 2e-6 and dev_kernel < 1e-6 and elapsed < 30.0
    report("A02 lazy-walk-doubling", ok,
           f"max|G~-2G|={dev_green:.3g}, max|K~-K|={dev_kernel:.3g}, {elapsed:.1f}s")


def test_a03_killed_walk_closed_forms():
    q = 0.2
    chain = LatticeChain.build(1, 1, [(0, 0, (1,), q), (0, 0, (-1,), q)])
    g00 = ChainGreen(chain, radius=40).green(0, (0,), 0)
    dev_g = abs(g00 - 1.0 / math.sqrt(1.0 - 4.0 * q * q))
    ustar = level_set_point(chain, (1.0,)).u[0]
    dev_u = abs(ustar - math.acosh(1.0 / (2.0 * q)))
    dev_lam = max(abs(perron(chain, (float(u),)).value - 2.0 * q * math.cosh(u))
                  for u in np.linspace(-2.5, 2.5, 101))
    ok = dev_g < 1e-8 and dev_u < 1e-8 and dev_lam < 1e-12
    report("A03 killed-walk-closed-forms", ok,
           f"|G(0,0)| dev={dev_g:.3g}, |u*| dev={dev_u:.3g}, "
           f"lambda grid dev={dev_lam:.3g}")


def test_a04_induced_chain_oracle(f2a_chain, f2_engine, f2_cfg):
    probs = {dz: w for _, _, dz, w in f2a_chain.entries}
    dev_loop = abs(probs.get((0,), 0.0) - 1.0 / 6.0)
    dev_step = max(abs(probs.get((1,), 0.0) - 0.25),
                   abs(probs.get((-1,), 0.0) - 0.25))
    stray = sum(w for dz, w in probs.items() if dz not in {(0,), (1,), (-1,)})
    fibers = FiberIndex.build(f2_cfg.group, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)
    same_green = verify_same_green(f2a_chain, f2_engine, fibers)
    ok = dev_loop < 1e-6 and dev_step < 1e-6 and stray < 1e-10 and same_green < 1e-6
    report("A04 induced-chain-oracle", ok,
           f"loop dev={dev_loop:.3g}, step dev={dev_step:.3g}, "
           f"stray mass={stray:.3g}, same-green dev={same_green:.3g}")


def test_a05_boundary_point_matches_tree_kernels(f2a_chain, f2_engine, f2_cfg):
    g = f2_cfg.group
    u = level_set_point(f2a_chain, (1.0,)).u[0]
    dev_u = abs(u - math.log(3.0))
    kernels = [f2_engine.green(g.word("a"), y) / f2_engine.green(g.identity, y)
               for y in (g.word(f"a^{n}") for n in range(2, 11))]
    dev_k = max(abs(k - 3.0) for k in kernels)
    spread = max(kernels) - min(kernels)
    ok = dev_u < 1e-8 and dev_k < 1e-12 and spread < 1e-12
    report("A05 boundary-vs-tree-kernels", ok,
           f"|u-ln3|={dev_u:.3g}, max|K-3|={dev_k:.3g}, n-spread={spread:.3g}")


def test_a06_gradient_against_finite_differences(z2_cfg):
    t0 = time.monotonic()
    engine = FreeProductEngine(z2_cfg.group, z2_cfg.measure, radius=12)
    chain = induce_first_return(engine, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)
    h = 1e-5
    worst = 0.0
    for u1 in np.linspace(-0.8, 1.0, 5):
        for u2 in np.linspace(-0.8, 1.0, 5):
            data = perron(chain, (float(u1), float(u2)))
            grad = np.asarray(data.gradient)
            fd = np.zeros(2)
            for axis, (du1, du2) in enumerate([(h, 0.0), (0.0, h)]):
                up = perron(chain, (u1 + du1, u2 + du2)).value
                dn = perron(chain, (u1 - du1, u2 - du2)).value
                fd[axis] = (up - dn) / (2.0 * h)
            rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(grad))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 300.0
    report("A06 gradient-vs-finite-differences", ok,
           f"worst rel err={worst:.3g} on 5x5 grid, {elapsed:.1f}s")


def test_a07_direction_to_tilt_round_trip(z2_chain_eta2):
    us = []
    worst_angle = 0.0
    for i in range(64):
        ang = 2.0 * math.pi * i / 64
        th = np.array([math.cos(ang), math.sin(ang)])
        bp = level_set_point(z2_chain_eta2, tuple(th))
        grad = np.asarray(bp.gradient)
        normal = grad / np.linalg.norm(grad)
        worst_angle = max(worst_angle, float(np.linalg.norm(normal - th)))
        us.append(np.asarray(bp.u))
    min_gap = min(float(np.linalg.norm(a - b))
                  for i, a in enumerate(us) for b in us[i + 1:])
    ok = worst_angle < 1e-8 and min_gap > 1e-6
    report("A07 sphere-map-round-trip", ok,
           f"worst angular err={worst_angle:.3g}, min pairwise u gap={min_gap:.3g}")


def test_a08_relative_green_decay(z2_cfg, z2_engine, f2_engine, f2_cfg):
    pairs = sample_ancona_pairs(z2_cfg.group, z2_cfg.parabolic, z2_cfg.seed, 20, _TRANSITIONS)
    taboos = [TabooContext(z2_engine, list(ball_elements(z2_cfg.group, r, DEFAULT_STATE_CAP))) for r in range(5)]
    arr = np.array(ancona_ratio(taboos, pairs))
    all_bounded = bool(np.all(arr <= 1.0 + 1e-12))
    mean = arr.mean(axis=0)
    stderr = arr.std(axis=0, ddof=1) / math.sqrt(len(pairs))
    monotone = all(mean[r + 1] <= mean[r] + (stderr[r] + stderr[r + 1])
                   for r in range(4))
    drops = bool(mean[4] < mean[0])
    g = f2_cfg.group
    cut = TabooContext(f2_engine, [g.identity])
    tree_zero = max(rho for (rho,) in ancona_ratio([cut], [(g.word("a^-2"), g.word("b^2")),
                                                           (g.word("a^-3"), g.word("a^3"))]))
    ok = all_bounded and monotone and drops and tree_zero == 0.0
    report("A08 relative-green-decay", ok,
           f"mean profile={np.round(mean, 5).tolist()}, deep-point rho_0={tree_zero}")


def test_a09_classification_suite(z2_cfg):
    g = z2_cfg.group
    diag = SequenceSpec(name="diag", templates=("a^n*b^n",), start=1, stop=12)
    ray = SequenceSpec(name="ray", templates=("a*t",), start=1, stop=12)
    swap = SequenceSpec(name="swap", templates=("a^n", "b^n"), start=1, stop=12)
    res_diag = classify(g, diag.elements(g), [0])
    s = 1.0 / math.sqrt(2.0)
    diag_ok = (res_diag.tag == "Parabolic" and res_diag.coset == Coset.of(g.identity, 0)
               and np.allclose(res_diag.direction, (s, s), atol=1e-6))
    ray_elems = [g.word("a*t") ** n for n in range(1, 13)]
    ray_ok = classify(g, ray_elems, [0]).tag == "Conical"
    swap_ok = classify(g, swap.elements(g), [0]).tag == "Unresolved"
    t = g.word("t")
    moved = classify(g, [t * x for x in diag.elements(g)], [0])
    moved_ray = classify(g, [t * x for x in ray_elems], [0])
    moved_swap = classify(g, [t * x for x in swap.elements(g)], [0])
    translate_ok = (moved.tag == "Parabolic" and moved.coset == Coset.of(t, 0)
                    and np.allclose(moved.direction, res_diag.direction, atol=1e-6)
                    and moved_ray.tag == "Conical" and moved_swap.tag == "Unresolved")
    # Within the identity coset proj_P(a^-1 g) = a^-1 proj_P(g): the chart of the
    # representative a, shifted by a's lattice part.
    shifted = classify(g, [g.word("a^-1") * x for x in diag.elements(g)], [0])
    rep_ok = (shifted.tag == res_diag.tag == "Parabolic" and shifted.coset == res_diag.coset
              and float(np.linalg.norm(np.subtract(shifted.direction, res_diag.direction))) < 0.05)
    ok = diag_ok and ray_ok and swap_ok and translate_ok and rep_ok
    report("A09 classification-suite", ok,
           f"diag={res_diag.tag}, ray={'Conical' if ray_ok else '?'}, "
           f"swap={'Unresolved' if swap_ok else '?'}, translated={translate_ok}, "
           f"representatives agree={rep_ok}")


def test_a10_parabolic_kernel_ratio_limit(z2_engine, z2_chain_eta0, z2_cfg):
    t0 = time.monotonic()
    g = z2_cfg.group
    s = 1.0 / math.sqrt(2.0)
    bp = level_set_point(z2_chain_eta0, (s, s))
    coset = Coset.of(g.identity, 0)
    pts = [g.word(f"a^{z1}*b^{z2}") if (z1, z2) != (0, 0) else g.identity
           for z1 in range(-3, 4) for z2 in range(-3, 4)
           if abs(z1) + abs(z2) <= 3]
    ns = list(range(8, 13))
    rep = martin_convergence(z2_engine, [g.word(f"a^{n}*b^{n}") for n in ns], pts,
                             ns=ns, boundary=bp, coset=coset)
    # Finite-n kernel ratios carry an O(1/n) correction (Ney-Spitzer), near 20%
    # at n = 12; the 5% bound is on the limit, so it applies to the 1/n intercept.
    worst, per_n = extrapolated_ratio_deviation(rep)
    raw = [per_n[n] for n in ns]
    falls = all(b < a for a, b in zip(raw, raw[1:]))
    elapsed = time.monotonic() - t0
    ok = worst < 0.05 and falls and elapsed < 600.0
    report("A10 parabolic-kernel-ratio-limit", ok,
           f"extrapolated worst rel dev={worst:.4f} (raw per n: "
           + ", ".join(f"{n}:{d:.4f}" for n, d in per_n.items())
           + f"), {elapsed:.1f}s")


def test_a11_boundary_separation_certificate(f2a_chain):
    rep = separation_experiment(f2a_chain)
    decay_dev = max(abs(d - 3.0 ** (-n)) for n, d in zip(rep.ns, rep.decay))
    floor_ok = all(gmin >= 3.0 ** (n * 0.95) * (1 - 1e-9)
                   for n, gmin in zip(rep.ns, rep.grid_min))
    grows = rep.grid_min[-1] > rep.grid_min[0] and rep.decay[-1] < rep.decay[0]
    ok = rep.certified and decay_dev < 1e-9 and floor_ok and grows
    report("A11 boundary-separation", ok,
           f"certified={rep.certified}, max decay dev={decay_dev:.3g}, "
           f"grid floor holds={floor_ok}")


def test_a12_byte_identical_reruns(tmp_path):
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        r = subprocess.run(
            [sys.executable, "-m", "relwalk", "all",
             "--config", config_path("z2_free_z.json"), "--out", str(out)],
            capture_output=True, text=True, env=cli_env(),
            cwd=os.path.dirname(os.path.abspath(__file__)) + "/..")
        assert r.returncode == 0, r.stderr + r.stdout
        table = {}
        for name in sorted(os.listdir(out)):
            if name.endswith((".csv", ".json", ".svg")):
                with open(out / name, "rb") as fh:
                    table[name] = fh.read()
        blobs.append(table)
    same_names = blobs[0].keys() == blobs[1].keys()
    diffs = [n for n in blobs[0] if blobs[0][n] != blobs[1].get(n)]
    ok = same_names and not diffs
    report("A12 byte-identical-reruns", ok,
           f"{len(blobs[0])} CSV/JSON/SVG files compared, differing={diffs}")
