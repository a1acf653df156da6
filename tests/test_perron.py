"""Tilted Perron roots, lambda minimization, and level-set inversion."""
import math

import numpy as np
import pytest

from relwalk import (LatticeChain, check_assumptions, level_set_point,
                     limit_kernel_ratio, minimize_lambda, perron,
                     tilted_matrix)
from relwalk.perron import direction_grid, perron_value


def killed_z(q: float = 0.2) -> LatticeChain:
    return LatticeChain.build(1, 1, [(0, 0, (1,), q), (0, 0, (-1,), q)])


def drifted_z(p: float = 0.3, q: float = 0.1) -> LatticeChain:
    return LatticeChain.build(1, 1, [(0, 0, (1,), p), (0, 0, (-1,), q)])


def fibered_z(q: float = 0.2, n: int = 100) -> LatticeChain:
    """Steps +-1 of weight q/n between every pair of n fibers: lambda = 2q cosh u."""
    return LatticeChain.build(1, n, [(j1, j2, (s,), q / n) for j1 in range(n)
                                     for j2 in range(n) for s in (1, -1)])


def test_tilted_value_matches_cosh_formula():
    for c in (killed_z(0.2), fibered_z(0.2)):
        for u in np.linspace(-2.0, 2.0, 9):
            assert abs(perron_value(c, (u,)) - 0.4 * math.cosh(u)) < 1e-12


def test_minimum_and_gradient_of_symmetric_walk():
    c = killed_z(0.2)
    mn = minimize_lambda(c)
    assert abs(mn.value - 0.4) < 1e-12
    assert abs(mn.u[0]) < 1e-6
    for chain in (c, fibered_z(0.2)):
        d = perron(chain, (0.7,))
        assert abs(d.gradient[0] - 0.4 * math.sinh(0.7)) < 1e-10
        assert d.residual < 1e-10


def test_level_set_points_of_symmetric_walk():
    c = killed_z(0.2)
    ustar = math.acosh(2.5)
    up = level_set_point(c, (1.0,))
    un = level_set_point(c, (-1.0,))
    assert abs(up.u[0] - ustar) < 1e-10
    assert abs(un.u[0] + ustar) < 1e-10
    assert up.lambda_residual < 1e-10
    assert up.angular_error < 1e-10


def test_drifted_walk_minimum_location():
    c = drifted_z(0.3, 0.1)
    mn = minimize_lambda(c)
    assert abs(mn.value - 2.0 * math.sqrt(0.03)) < 1e-12
    assert abs(mn.u[0] + 0.5 * math.log(3.0)) < 1e-6
    uplus = level_set_point(c, (1.0,))
    expected = math.log((1.0 + math.sqrt(0.88)) / 0.6)
    assert abs(uplus.u[0] - expected) < 1e-10


def test_two_fiber_chain_with_flat_tilt_direction():
    c = LatticeChain.build(1, 2, [(0, 1, (0,), 0.5), (1, 0, (0,), 0.5)])
    d = perron(c, (0.4,))
    assert abs(d.value - 0.5) < 1e-12
    assert abs(d.gradient[0]) < 1e-12


def test_lambda_is_log_convex_along_lines(f2a_chain):
    rng = np.random.default_rng(7)
    for _ in range(10):
        u0 = rng.uniform(-1.0, 1.0, size=1)
        u1 = rng.uniform(-1.0, 1.0, size=1)
        mid = 0.5 * (u0 + u1)
        lo = math.sqrt(perron_value(f2a_chain, tuple(u0)) *
                       perron_value(f2a_chain, tuple(u1)))
        assert perron_value(f2a_chain, tuple(mid)) <= lo + 1e-12


def test_free_group_induced_chain_minimum_and_levels(f2a_chain):
    mn = minimize_lambda(f2a_chain)
    assert abs(mn.value - 2.0 / 3.0) < 1e-9
    up = level_set_point(f2a_chain, (1.0,), minimum=mn)
    un = level_set_point(f2a_chain, (-1.0,), minimum=mn)
    assert abs(up.u[0] - math.log(3.0)) < 1e-9
    assert abs(un.u[0] + math.log(3.0)) < 1e-9


def test_level_set_rejects_bad_directions(f2a_chain):
    with pytest.raises(ValueError):
        level_set_point(f2a_chain, (0.0,))
    with pytest.raises(ValueError):
        level_set_point(f2a_chain, (1.0, 0.0))
    cube = LatticeChain.build(3, 1, [(0, 0, dz, 0.1) for dz in
                                     ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                      (0, -1, 0), (0, 0, 1), (0, 0, -1))])
    with pytest.raises(ValueError):
        level_set_point(cube, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        direction_grid(3, 8)


def test_assumption_report_for_induced_rank_two_chain(z2_chain_eta2):
    rep = check_assumptions(z2_chain_eta2)
    assert rep.ok
    assert rep.submarkov and rep.strongly_irreducible
    assert abs(rep.lambda_min - 0.8869412512011429) < 1e-9
    assert rep.level_set_compact
    assert all(r < math.inf for r in rep.escape_radii)


def test_rank_two_level_points_have_requested_normals(z2_chain_eta2):
    mn = minimize_lambda(z2_chain_eta2)
    for ang in (0.0, 0.9, 2.2, -2.8):
        th = (math.cos(ang), math.sin(ang))
        bp = level_set_point(z2_chain_eta2, th, minimum=mn)
        g = np.asarray(bp.gradient)
        n = g / np.linalg.norm(g)
        assert bp.angular_error < 1e-8
        assert abs(n[0] - th[0]) < 1e-7 and abs(n[1] - th[1]) < 1e-7
        assert abs(perron_value(z2_chain_eta2, bp.u) - 1.0) < 1e-9


def test_precomputed_minimum_changes_nothing(z2_chain_eta0):
    mn = minimize_lambda(z2_chain_eta0)
    th = (math.cos(0.6), math.sin(0.6))
    a = level_set_point(z2_chain_eta0, th)
    b = level_set_point(z2_chain_eta0, th, minimum=mn)
    assert np.allclose(a.u, b.u, atol=1e-12)


def test_limit_kernel_ratio_formula():
    assert limit_kernel_ratio((math.log(3.0),), (2,), (1,)) == pytest.approx(3.0)
    assert limit_kernel_ratio((0.5, -0.5), (1, 1), (0, 0)) == pytest.approx(1.0)


def test_tilted_matrix_entries_are_weighted_exponentials(z2_chain_eta2):
    c = LatticeChain.build(1, 2, [(0, 1, (2,), 0.3), (1, 0, (-1,), 0.2)])
    F = tilted_matrix(c, (0.5,))
    assert F[0, 1] == pytest.approx(0.3 * math.exp(1.0))
    assert F[1, 0] == pytest.approx(0.2 * math.exp(-0.5))
    assert F[0, 0] == 0.0
    u = np.array([0.3, -0.2])
    ref = np.zeros((z2_chain_eta2.fiber_count,) * 2)
    for j1, j2, dz, w in z2_chain_eta2.entries:
        ref[j1, j2] += w * math.exp(float(u @ dz))
    assert np.allclose(tilted_matrix(z2_chain_eta2, u), ref, rtol=1e-14, atol=0.0)
