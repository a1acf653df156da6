"""Exact reference values for nearest-neighbour walks on free products of Z and Z^2.

A test-side reference, independent of the box solver: every factor of
rank 1 or 2 whose steps are the unit vectors has a Green value G_i(0, 0)
in closed form or as a positive series, given its loop mass
l_i = mu(e) + sum_{j != i} r_j.  First-step analysis at 0 gives
G = 1 + (l_i + r_i) G, so the return masses are the least fixed point of
r_i = (1 - l_i) - 1 / G_i(0, 0), and G(e, e) = G_i(0, 0) at that point
in every factor.
"""
import math

import numpy as np


def axis_weights(mu, factor: int) -> list[tuple[float, float]]:
    """(p(+e_d), p(-e_d)) for each axis d of a lattice factor with unit steps only."""
    rank = mu.group.factors[factor].rank
    plus, minus = [0.0] * rank, [0.0] * rank
    for g, w in mu.items():
        if g.is_identity or g.syllables[0][0] != factor:
            continue
        (_, z, j), = g.syllables
        assert j == 0 and sorted(map(abs, z)) == [0] * (rank - 1) + [1], g
        d = next(i for i, c in enumerate(z) if c)
        (plus if z[d] > 0 else minus)[d] += w
    return list(zip(plus, minus))


def lattice_green_00(loop: float, axes: list[tuple[float, float]]) -> float:
    """G(0, 0) of the unit-step chain on Z^1 or Z^2 with loop mass loop.

    Rank 1: 1 / sqrt((1 - l)^2 - 4 p+ p-).  Rank 2: after the Doob tilt
    each axis is symmetric with weight sqrt(p+ p-), and a return path has
    2a steps on the first axis and 2b on the second, so with
    x = p_1+ p_1- / (1 - l)^2 and y likewise,
    G(0, 0) = 1/(1 - l) sum_{a,b} (2(a + b))! / (a!^2 b!^2) x^a y^b,
    the double series over N = 2(a + b) and j = 2a.  Every term is
    positive; row M = a + b is built from row M - 1 by exact integer
    ratios, and the sum stops once a row adds less than 1e-18 of it.
    """
    c = 1.0 - loop
    if len(axes) == 1:
        (p, q), = axes
        return 1.0 / math.sqrt(c * c - 4.0 * p * q)
    assert len(axes) == 2
    x, y = (p * q / (c * c) for p, q in axes)
    row = np.ones(1)  # T(a, M - a) for a = 0..M
    total = 1.0
    m = 0
    while True:
        grow = (2 * m + 2) * (2 * m + 1)
        b = np.arange(m, -1, -1)
        row = np.append(row * (grow / (b + 1.0) ** 2 * y), row[-1] * (grow / (m + 1.0) ** 2 * x))
        m += 1
        part = float(row.sum())
        total += part
        if part < 1e-18 * total:
            return total / c


def return_masses(mu) -> list[float]:
    """Least fixed point of r_i = (1 - l_i) - 1/G_i(0, 0), iterated from r = 0."""
    factors = range(len(mu.group.factors))
    axes = [axis_weights(mu, i) for i in factors]
    r = [0.0] * len(axes)
    for _ in range(10_000):
        loops = [_loop(mu, r, i) for i in factors]
        new = [(1.0 - l) - 1.0 / lattice_green_00(l, ax) for l, ax in zip(loops, axes)]
        if max(abs(a - b) for a, b in zip(new, r)) <= 4 * np.finfo(float).eps * max(new):
            return new
        r = new
    raise AssertionError("return-mass iteration did not settle")


def green_identity(mu, masses: list[float]) -> list[float]:
    """G(e, e) read in each factor at the given return masses."""
    return [lattice_green_00(_loop(mu, masses, i), axis_weights(mu, i))
            for i in range(len(masses))]


def _loop(mu, masses: list[float], i: int) -> float:
    """l_i = mu(e) + sum_{j != i} r_j, summed in factor order."""
    return mu.identity_mass + sum(r for j, r in enumerate(masses) if j != i)
