"""Boundary classification of sequences, Ancona ratios, and convergence experiments."""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BoundedSequenceError, ConvergenceError, ParseError
from .excursions import FreeProductEngine, TabooContext
from .groups import (Coset, FreeProductGroup, GroupElement, coset_lattice_part,
                     project_to_coset)
from .floyd import (TransitionParams, coned_off_distance, gromov_product_coned,
                    transition_points, word_geodesic)
from .lattice import LatticeChain
from .perron import BoundaryPointU, level_set_point, limit_kernel_ratio

CONICAL = "Conical"
PARABOLIC = "Parabolic"
UNRESOLVED = "Unresolved"

_CONED_THRESHOLD, _DIRECTION_TOL, _MIN_NORM = 3.0, 0.05, 3.0  # classify trend tests
_GRID_COUNT, _GRID_WIDTH, _GROWTH_EPS = 9, 0.1, 0.05  # separation_experiment grid and floor
# separation_experiment: (theta0, theta1) by lattice rank, and the ray steps n
_SEPARATION_THETAS = {1: ((-1.0,), (1.0,)),
                      2: ((-1.0, 0.0), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))}
_SEPARATION_NS = range(1, 13)
MIN_TERMS = 4  # the fewest sequence terms whose trend classify reads

_EXP_RE = re.compile(r"^(?P<a>[+-]?\d*)n(?P<b>[+-]\d+)?$")


def _linear_exponent(text: str) -> tuple[int, int]:
    """Parse 'n', '-2n+3', '4' ... into (a, b) for a*n + b."""
    text = text.strip()
    m = _EXP_RE.match(text)
    if m:
        a_raw = m.group("a")
        a = {"": 1, "+": 1, "-": -1}.get(a_raw)
        if a is None:
            a = int(a_raw)
        b = int(m.group("b") or 0)
        return a, b
    try:
        return 0, int(text)
    except ValueError:
        raise ParseError(f"cannot parse exponent {text!r}; expected a*n+b or an integer")


@dataclass(frozen=True)
class SequenceSpec:
    """Parametric word family n -> g_n from templates with linear exponents.

    A single template like 'a^n*b^n' is evaluated for each n; with several
    templates the template is chosen by n modulo the template count
    (odd/even families).
    """

    name: str
    templates: tuple[str, ...]
    start: int
    stop: int

    def __post_init__(self):
        if not self.templates:
            raise ParseError("sequence needs at least one template")
        if self.stop < self.start:
            raise ParseError("empty evaluation range")

    @staticmethod
    def terms(group: FreeProductGroup, template: str) -> list[tuple[GroupElement, tuple[int, int]]]:
        """One template as (atom, (a, b)) pairs: the atom raised to a*n + b."""
        return [(atom, (0, 1) if exp is None else _linear_exponent(exp))
                for atom, exp in group.tokens(template)]

    def element(self, group: FreeProductGroup, n: int) -> GroupElement:
        out = group.identity
        for atom, (a, b) in self.terms(group, self.templates[n % len(self.templates)]):
            k = a * n + b
            if k:
                out = out * atom ** k
        return out

    def elements(self, group: FreeProductGroup) -> list[GroupElement]:
        return [self.element(group, n) for n in range(self.start, self.stop + 1)]


@dataclass
class Classification:
    """Boundary label with the numerical evidence that produced it: projection
    norms for a Parabolic label, coned-off Gromov products for the others."""

    tag: str
    word_lengths: list[int]
    coset: Coset | None = None
    direction: tuple[float, ...] | None = None
    projection_norms: list[float] = field(default_factory=list)
    coned_gromov_products: list[float] = field(default_factory=list)


def _candidate_cosets(group: FreeProductGroup, elements: Sequence[GroupElement],
                      parabolic: Sequence[int]) -> list[Coset]:
    seen = {}
    for g in elements[-2:]:
        for prefix in g.prefixes():
            for fac in parabolic:
                c = Coset.of(prefix, fac)
                seen.setdefault(c.sort_key(), c)
    for fac in parabolic:
        c = Coset.of(group.identity, fac)
        seen.setdefault(c.sort_key(), c)
    return [seen[k] for k in sorted(seen)]


def classify(group: FreeProductGroup, elements: Sequence[GroupElement],
             parabolic: Sequence[int]) -> Classification:
    """Label a sequence Conical, Parabolic(coset, direction), or Unresolved.

    Parabolic: some parabolic coset's projections have lattice parts with
    norms escaping and directions settling within _DIRECTION_TOL over the
    last half of the range.  Conical: coned-off Gromov products of
    consecutive terms exceed _CONED_THRESHOLD and do not decrease over the
    last half.  A sequence with no word-length growth raises
    BoundedSequenceError instead of receiving a label.
    """
    if len(elements) < MIN_TERMS:
        raise ValueError(f"need at least {MIN_TERMS} terms to classify a trend")
    lengths = [g.word_length for g in elements]
    half = len(elements) // 2
    if max(lengths[half:]) <= max(lengths[:half]):
        raise BoundedSequenceError(
            f"word lengths do not grow (first half max {max(lengths[:half])}, "
            f"second half max {max(lengths[half:])})")
    parabolic = tuple(parabolic)

    for coset in _candidate_cosets(group, elements, parabolic):
        # Lattice coordinates of the projections, in the coset's chart.
        track = [coset_lattice_part(coset, project_to_coset(g, coset)) for g in elements]
        norms = [math.sqrt(sum(c * c for c in z)) for z in track]
        tail_norms = norms[half:]
        if tail_norms[-1] < _MIN_NORM:
            continue
        if any(b < a - 1e-9 for a, b in zip(tail_norms, tail_norms[1:])):
            continue
        if tail_norms[-1] <= max(norms[:half]):
            continue
        dirs = [np.array(z, dtype=float) / n
                for z, n in zip(track[half:], tail_norms) if n > 0]
        gap = max(float(np.linalg.norm(d - dirs[-1])) for d in dirs)
        if gap < _DIRECTION_TOL:
            theta = tuple(float(c) for c in dirs[-1])
            return Classification(tag=PARABOLIC, word_lengths=lengths, coset=coset,
                                  direction=theta, projection_norms=norms)

    products = [gromov_product_coned(a, b, group.identity, parabolic)
                for a, b in zip(elements, elements[1:])]
    coned = [coned_off_distance(group.identity, g, parabolic) for g in elements]
    tail = products[max(0, half - 1):]
    growing = all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    conical = growing and min(tail) > _CONED_THRESHOLD and coned[-1] > coned[half - 1]
    return Classification(tag=CONICAL if conical else UNRESOLVED, word_lengths=lengths,
                          coned_gromov_products=products)


def ancona_ratio(taboos: Sequence[TabooContext],
                 pairs: Sequence[tuple[GroupElement, GroupElement]]
                 ) -> list[tuple[float, ...]]:
    """Each pair's profile G_A(x, z) / G(x, z), with A the forbidden set of each taboo context.

    The denominators G(x, z) are read once for all contexts, in one
    green_pairs call over the aligned pairs.  Where a single cut vertex
    in A separates x from z, TabooContext.value is already exactly 0.
    Ratios below 1e-12 are reported as exact zeros too: at the Green
    scales handled here they are the float residue of a cut set that no
    single vertex forms (two adjacent sites of a line the walk crosses in
    steps of length 2, say), where the true restricted Green vanishes.
    """
    engine = taboos[0].engine
    greens = engine.green_pairs(engine.syllable_ids([x for x, _ in pairs]),
                                engine.syllable_ids([z for _, z in pairs])).tolist()
    profiles = []
    for taboo in taboos:
        rho = [0.0 if g <= 0.0 else killed / g for killed, g in zip(taboo.value(pairs), greens)]
        profiles.append([0.0 if r < 1e-12 else min(1.0, r) for r in rho])
    return list(zip(*profiles))


def sample_ancona_pairs(group: FreeProductGroup, parabolic: Sequence[int], seed: int,
                        count: int, transitions: TransitionParams
                        ) -> list[tuple[GroupElement, GroupElement]]:
    """Seeded (x, z) pairs whose geodesic has a transition midpoint at e.

    Each half-word reads lattice tail, junction block, short lattice stub,
    and the two stubs share an axis and sign, so the geodesic from x to z
    crosses e inside a lattice segment one step away from junctions on
    both sides.  The midpoint is then a transition point, yet detours
    around it inside the lattice plane survive whenever the parabolic
    factor has rank at least two.
    """
    rng = np.random.default_rng(seed)
    para = tuple(parabolic)
    jfac = next(i for i in range(len(group.factors)) if i not in para)
    jspec = group.factors[jfac]
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 40 * count:
        attempts += 1
        stub_fac = para[int(rng.integers(0, len(para)))]
        stub_spec = group.factors[stub_fac]
        axis = int(rng.integers(0, stub_spec.rank))
        sign = 1 if rng.integers(0, 2) else -1
        depth = int(rng.integers(1, 3))
        stub_z = tuple(sign * depth if d == axis else 0
                       for d in range(stub_spec.rank))
        stub = group.syllable(stub_fac, stub_z, 0)

        def junction_block():
            jexp = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
            if jspec.rank:
                return group.syllable(jfac, (jexp,) + (0,) * (jspec.rank - 1), 0)
            return group.syllable(jfac, (), 1 + int(rng.integers(0, len(jspec.table) - 1)))

        def tail():
            fac = para[int(rng.integers(0, len(para)))]
            spec = group.factors[fac]
            z = tuple(int(rng.integers(-2, 3)) for _ in range(spec.rank))
            if not any(z):
                z = (1,) + z[1:]
            return group.syllable(fac, z, 0), sum(abs(c) for c in z)

        t1, len1 = tail()
        t2, len2 = tail()
        if len1 != len2:
            continue
        j1, j2 = junction_block(), junction_block()
        if j1.word_length != j2.word_length:
            continue
        w1 = t1 * j1 * stub
        w2 = stub * j2 * t2
        x = w1.inverse()
        z = w2
        if x == z or (x.inverse() * z).word_length != x.word_length + z.word_length:
            continue
        path = word_geodesic(x, z)
        mid = x.word_length
        if path[mid] != group.identity:
            continue
        if mid not in transition_points(path, transitions, para):
            continue
        pairs.append((x, z))
    if len(pairs) < count:
        raise ConvergenceError(f"found only {len(pairs)} transition pairs "
                               f"in {attempts} attempts")
    return pairs


@dataclass
class MartinConvergenceReport:
    """Martin kernels along a sequence with Cauchy and limit diagnostics.

    kernels[i, k] is K_{g_i}(x_k) for the i-th term (index ns[i]) and the
    k-th test point.  With a boundary point, column c of ratios is the
    kernel ratio K(x_a) / K(x_b) of the test-point indices (a, b) =
    pairs[c], and predicted[c] its limit e^(u.(z_a - z_b)).
    """

    ns: list[int]
    kernels: np.ndarray
    cauchy_deltas: list[tuple[int, float]]
    pairs: np.ndarray | None = None
    predicted: np.ndarray | None = None
    ratios: np.ndarray | None = None
    max_ratio_deviation: float | None = None


def martin_convergence(engine: FreeProductEngine,
                       elements: Sequence[GroupElement],
                       test_points: Sequence[GroupElement],
                       ns: Sequence[int],
                       boundary: BoundaryPointU | None,
                       coset: Coset | None) -> MartinConvergenceReport:
    """Tabulate K_{g_n}(x) over test points with Cauchy deltas.

    When a level-set point and a parabolic coset are supplied, kernel
    ratios of every pair of lattice test points are compared against the
    limiting exponential e^(u.(z_x - z_x')); max_ratio_deviation reports
    the final row's worst relative deviation.
    """
    ns = list(ns)
    # Scalar, in this order: far boxes are keyed by centre, so a block's
    # passage order could move these kernels.
    kernels = np.array([[engine.green(x, g) / engine.green(engine.group.identity, g)
                         for x in test_points] for g in elements]
                       ).reshape(len(ns), len(test_points))
    # Rounding is monotone, so the largest |K_a(x) - K_b(x)| over rows a, b
    # from i on is max - min of K(x) over those rows; fmax/fmin skip NaNs.
    table = kernels[::-1]
    spread = np.fmax.accumulate(table) - np.fmin.accumulate(table)
    worst = np.fmax.reduce(spread, axis=1, initial=0.0)[::-1]
    report = MartinConvergenceReport(ns=ns, kernels=kernels,
                                     cauchy_deltas=[(n, float(w)) for n, w in zip(ns, worst)])
    if boundary is not None and coset is not None:
        tracks = {k: coset_lattice_part(coset, x) for k, x in enumerate(test_points)
                  if coset.contains(x)}
        pairs = list(itertools.combinations(tracks, 2))
        report.pairs = np.array(pairs, dtype=int).reshape(len(pairs), 2)
        report.predicted = np.array([limit_kernel_ratio(boundary.u, tracks[a], tracks[b])
                                     for a, b in pairs])
        report.ratios = kernels[:, report.pairs[:, 0]] / kernels[:, report.pairs[:, 1]]
        dev = np.abs(report.ratios - report.predicted) / report.predicted
        report.max_ratio_deviation = float(np.fmax.reduce(dev[-1], initial=0.0))
    return report


@dataclass
class SeparationReport:
    """Uniform growth/decay witness for two boundary directions."""

    theta0: tuple[float, ...]
    theta1: tuple[float, ...]
    u0: tuple[float, ...]
    u1: tuple[float, ...]
    ns: list[int]
    decay: list[float]
    grid_min: list[float]
    grid_thetas: list[tuple[float, ...]]
    certified: bool


def separation_experiment(chain: LatticeChain) -> SeparationReport:
    """Witness that distinct boundary directions separate at infinity.

    Along lattice points z_n = n z_1, n in _SEPARATION_NS, realizing the
    supporting ray of theta1 = _SEPARATION_THETAS[rank][1], the limit
    kernels K_theta(z_n) = e^(u(theta).z_n) grow uniformly for theta in a
    grid around theta1 while K_theta0(z_n) decays to 0.
    """
    t0, t1 = (np.asarray(t) / np.linalg.norm(t) for t in _SEPARATION_THETAS[chain.rank])
    ns = list(_SEPARATION_NS)
    b0 = level_set_point(chain, t0)
    b1 = level_set_point(chain, t1)
    if chain.rank == 1:
        grid, grid_points = [tuple(t1)], [b1]
    else:
        base_angle = math.atan2(t1[1], t1[0])
        grid = [(math.cos(base_angle + d), math.sin(base_angle + d))
                for d in np.linspace(-_GRID_WIDTH, _GRID_WIDTH, _GRID_COUNT)]
        grid_points = [level_set_point(chain, th) for th in grid]
    # Each theta1 of the table is a multiple of a primitive lattice vector.
    primitive = np.round(t1 / float(np.max(np.abs(t1))))
    zero = (0,) * chain.rank
    zs = [tuple(int(c) * n for c in primitive) for n in ns]
    decay = [limit_kernel_ratio(b0.u, zn, zero) for zn in zs]
    grid_min = [min(limit_kernel_ratio(bp.u, zn, zero) for bp in grid_points) for zn in zs]
    decay_ok = all(b <= a * (1 + 1e-12) for a, b in zip(decay, decay[1:])) \
        and decay[-1] < decay[0]
    growth_ok = all(b >= a * (1 - 1e-12) for a, b in zip(grid_min, grid_min[1:])) \
        and grid_min[-1] > max(1.0, grid_min[0])
    floor_ok = all(
        g >= math.exp((1 - _GROWTH_EPS) * float(np.asarray(b1.u) @ np.asarray(zn)) - 1e-9)
        for g, zn in zip(grid_min, zs))
    certified = decay_ok and growth_ok and floor_ok
    return SeparationReport(
        theta0=tuple(float(c) for c in t0), theta1=tuple(float(c) for c in t1),
        u0=b0.u, u1=b1.u, ns=ns, decay=decay, grid_min=grid_min,
        grid_thetas=[tuple(float(c) for c in th) for th in grid],
        certified=certified)
