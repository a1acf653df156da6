"""Exact Green's functions on free products via cut-vertex elimination.

Every element of a free product is a cut vertex between the blocks
(factor cosets) it belongs to, so a walk whose step law charges only
single syllables crosses between blocks through single points.  Two
consequences are exploited here.

First, watching the walk from inside one factor gives an honest factor
chain: a step into another factor either returns to its departure point
(with a probability that solves a small fixed point across factors) or
never comes back, so it collapses to extra identity mass on a killed
chain nu_i per factor.  Green's functions of nu_i are computed on
truncated lattice boxes.

Second, to travel from e to s_1 s_2 ... s_m the walk must pass the
syllable prefixes in order, which turns the global Green's function into
a product of per-factor first-passage terms:

    G(e, s_1...s_m) = G(e, e) * prod_k F(e -> s_k).

Values are exact for the walk killed at the box boundaries and converge
geometrically in the radius to the true transient values.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidMeasureError
from .groups import FreeProductGroup, GroupElement, Syllable
from .lattice import ChainGreen, LatticeChain
from .measures import StepMeasure

_FIXED_POINT_TOL, _FIXED_POINT_ROUNDS = 1e-14, 500  # return-mass iteration stopping rule


class FreeProductEngine:
    """Green's function calculator for single-syllable step measures."""

    def __init__(self, group: FreeProductGroup, mu: StepMeasure, radius: int = 20):
        if not mu.has_syllable_support:
            raise InvalidMeasureError(
                "cut-vertex elimination needs a step measure supported on "
                "single syllables and the identity"
            )
        self.group = group
        self.mu = mu
        self.radius = int(radius)
        self._steps: list[list[tuple[tuple[int, ...], int, float]]] = [
            [] for _ in group.factors
        ]
        for g, w in mu.items():
            if g.is_identity:
                continue
            fac, z, j = g.syllables[0]
            self._steps[fac].append((z, j, w))
        self._identity_mass = mu.identity_mass
        self.rounds_used = 0
        self.return_mass: list[float] = [0.0] * len(group.factors)
        self._fixed_point()
        self._chains = [self._build_factor_chain(i) for i in range(len(group.factors))]
        self._greens = [ChainGreen(c, self.radius) for c in self._chains]
        self._gee_per_factor = [
            cg.green_at_origin(0, 0) for cg in self._greens
        ]
        self.green_identity_value = self._gee_per_factor[0]
        self._fwd_cache: dict[Syllable, float] = {}
        self._bwd_cache: dict[Syllable, float] = {}
        self._taboo_cache: dict[tuple, "TabooContext"] = {}

    # -- factor chains and the return fixed point -------------------------

    def _build_factor_chain(self, i: int, return_masses: Sequence[float] | None = None) -> LatticeChain:
        spec = self.group.factors[i]
        r = self.return_mass if return_masses is None else return_masses
        loop = self._identity_mass + sum(m for j, m in enumerate(r) if j != i)
        entries = []
        zero = (0,) * spec.rank
        for j1 in range(spec.finite_order):
            for z, j, w in self._steps[i]:
                entries.append((j1, spec.finite_mul(j1, j), z, w))
            if loop > 0:
                entries.append((j1, j1, zero, loop))
        return LatticeChain.build(
            spec.rank, spec.finite_order, entries, provenance=f"factor[{i}]"
        )

    def _fixed_point(self):
        """Iterate the per-factor return masses to their least fixed point.

        r_i is the probability-weighted chance that a step into factor i
        ever comes back to its departure point.  Starting from zero the
        iterates increase monotonically, and each round only needs the
        factor Green's functions at the step displacements.
        """
        m = len(self.group.factors)
        r = [0.0] * m
        for round_no in range(1, _FIXED_POINT_ROUNDS + 1):
            new_r = []
            for i in range(m):
                if not self._steps[i]:
                    new_r.append(0.0)
                    continue
                chain = self._build_factor_chain(i, r)
                cg = ChainGreen(chain, self.radius)
                g00 = cg.green_at_origin(0, 0)
                spec = self.group.factors[i]
                total = 0.0
                for z, j, w in self._steps[i]:
                    back = cg.green(0, tuple(-c for c in z), spec.finite_inv(j))
                    total += w * back / g00
                new_r.append(total)
            delta = max(abs(a - b) for a, b in zip(r, new_r))
            r = new_r
            if delta < _FIXED_POINT_TOL:
                self.rounds_used = round_no
                break
        else:
            raise ConvergenceError(
                f"return-mass fixed point did not settle in {_FIXED_POINT_ROUNDS} rounds"
            )
        self.return_mass = r
        for i in range(m):
            mass = self._identity_mass + sum(w for _, _, w in self._steps[i])
            mass += sum(x for j, x in enumerate(r) if j != i)
            if mass > 1 + 1e-9:
                raise ConvergenceError(
                    f"factor {i} return mass pushed the chain above probability mass"
                )

    def factor_chain(self, i: int) -> LatticeChain:
        """The killed factor chain nu_i (steps inside factor i plus loop mass)."""
        return self._chains[i]

    def identity_spread(self) -> float:
        """Max disagreement of G(e,e) computed through different factors."""
        vals = self._gee_per_factor
        return max(vals) - min(vals)

    # -- passage factors and the product formula --------------------------

    def forward_passage(self, fac: int, z: tuple[int, ...], j: int) -> float:
        """F(e -> s) for the syllable s = (fac, z, j)."""
        key = (fac, z, j)
        if key not in self._fwd_cache:
            cg = self._greens[fac]
            self._fwd_cache[key] = cg.green(0, z, j) / self._gee_per_factor[fac]
        return self._fwd_cache[key]

    def backward_passage(self, fac: int, z: tuple[int, ...], j: int) -> float:
        """F(s -> e) for the syllable s = (fac, z, j)."""
        key = (fac, z, j)
        if key not in self._bwd_cache:
            spec = self.group.factors[fac]
            cg = self._greens[fac]
            val = cg.green(0, tuple(-c for c in z), spec.finite_inv(j))
            self._bwd_cache[key] = val / self._gee_per_factor[fac]
        return self._bwd_cache[key]

    def green_from_identity(self, g: GroupElement) -> float:
        val = self.green_identity_value
        for fac, z, j in g.syllables:
            val *= self.forward_passage(fac, z, j)
        return val

    def green(self, x: GroupElement, y: GroupElement) -> float:
        """G(x, y), exact via the prefix product through cut vertices."""
        return self.green_from_identity(x.inverse() * y)

    def martin_kernel(self, x: GroupElement, y: GroupElement) -> float:
        """K(x, y) = G(x, y)/G(e, y)."""
        return self.green(x, y) / self.green(self.group.identity, y)

    # -- taboo (path-restricted) Green's functions ------------------------

    def taboo_green(self, x: GroupElement, y: GroupElement,
                    avoid: Iterable[GroupElement]) -> float:
        """Sum of path weights x -> y whose interior avoids the given set.

        Endpoints are exempt: a path may start or end inside the set, only
        the strictly intermediate positions are forbidden.  Solvers are
        cached up to left translation, since only the pairwise displacements
        inside the avoid set enter the linear algebra: the set is moved so
        that its first element is e, and x and y move with it.
        """
        elems = sorted(set(avoid), key=lambda g: g.sort_key())
        if not elems:
            return self.green(x, y)
        back = elems[0].inverse()
        local = [back * w for w in elems]
        shape = tuple(w.syllables for w in local)
        if shape not in self._taboo_cache:
            self._taboo_cache[shape] = TabooContext(self, local)
        return self._taboo_cache[shape].value(back * x, back * y)


class TabooContext:
    """Green's functions killed on a fixed finite set, via a Schur complement.

    For x, y outside the set A the walk killed on A has

        G_A(x, y) = G(x, y) - G(x, A) G(A, A)^{-1} G(A, y),

    the Schur-complement identity relating the inverse of a principal
    submatrix of (I - Q) to blocks of the full Green matrix.  Endpoints
    inside A are handled by one-step border sums, matching the convention
    that only interior path positions are forbidden.
    """

    def __init__(self, engine: FreeProductEngine, elems: list[GroupElement]):
        self.engine = engine
        self.elems = elems
        self.index = {w: i for i, w in enumerate(elems)}
        n = len(elems)
        m = np.empty((n, n))
        for i, w in enumerate(elems):
            for j, w2 in enumerate(elems):
                m[i, j] = engine.green(w, w2)
        self._minv = np.linalg.inv(m)

    def _killed(self, x: GroupElement, y: GroupElement) -> float:
        """G_A(x, y) for x, y strictly outside the set."""
        eng = self.engine
        gx = np.array([eng.green(x, w) for w in self.elems])
        hy = np.array([eng.green(w, y) for w in self.elems])
        return eng.green(x, y) - float(gx @ self._minv @ hy)

    def value(self, x: GroupElement, y: GroupElement) -> float:
        eng = self.engine
        if x not in self.index and y not in self.index:
            return self._killed(x, y)
        mu = eng.mu
        total = 1.0 if x == y else 0.0
        total += mu(x.inverse() * y)
        outer = []
        for s, ws in mu.items():
            xs = x * s
            if xs not in self.index:
                outer.append((xs, ws))
        inner = []
        for t, wt in mu.items():
            yt = y * t.inverse()
            if yt not in self.index:
                inner.append((yt, wt))
        for xs, ws in outer:
            for yt, wt in inner:
                total += ws * self._killed(xs, yt) * wt
        return total
