"""Exact Green's functions on free products via cut-vertex elimination.

Every element of a free product is a cut vertex between the blocks
(factor cosets) it belongs to, so a walk whose step law charges only
single syllables crosses between blocks through single points.  Two
consequences are exploited here.

First, watching the walk from inside one factor gives an honest factor
chain: a step into another factor either returns to its departure point
or never comes back, so it collapses to extra identity mass on a killed
chain nu_i per factor.  Green's functions of nu_i are computed on
truncated lattice boxes.  The return masses are the least fixed point of
a monotone convex system across factors (the free-product equations of
Woess, Random Walks on Infinite Graphs and Groups, CUP 2000), solved by
Newton from zero, which converges monotonically to it (Etessami &
Yannakakis, JACM 56, 2009).  The Jacobian comes from the same box
factorizations: added loop mass l moves a factor Green's function by
d/dl G = G^2, an origin row dotted with one transposed-solve column.

Second, to travel from e to s_1 s_2 ... s_m the walk must pass the
syllable prefixes in order, which turns the global Green's function into
a product of per-factor first-passage terms:

    G(e, s_1...s_m) = G(e, e) * prod_k F(e -> s_k).

Values are exact for the walk killed at the box boundaries and converge
geometrically in the radius to the true transient values.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InvalidMeasureError
from .groups import FreeProductGroup, GroupElement, Syllable
from .lattice import ChainGreen, LatticeChain
from .measures import StepMeasure

_FIXED_POINT_TOL, _FIXED_POINT_ROUNDS = 1e-14, 500  # return-mass Newton stopping rule and round cap
_BLOCK_CHUNK = 1 << 15  # green_matrix entries per row chunk, to bound its temporaries


class FreeProductEngine:
    """Green's function calculator for single-syllable step measures."""

    def __init__(self, group: FreeProductGroup, mu: StepMeasure, radius: int):
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
        self._gee_per_factor = [
            cg.green(0, (0,) * cg.chain.rank, 0) for cg in self._greens
        ]
        self.green_identity_value = self._gee_per_factor[0]
        self._fwd_cache: dict[Syllable, float] = {}
        # Syllable ids for batched blocks; id 0 pads short words.
        self._syllable_id: dict[Syllable, int] = {}
        self._id_syllable: list[Syllable | None] = [None]
        self._id_inverse: list[Syllable | None] = [None]
        self._id_factor: list[int] = [-1]

    # -- factor chains and the return fixed point -------------------------

    def _build_factor_chain(self, i: int, return_masses: Sequence[float]) -> LatticeChain:
        spec = self.group.factors[i]
        loop = self._identity_mass + sum(m for j, m in enumerate(return_masses) if j != i)
        entries = []
        zero = (0,) * spec.rank
        for j1 in range(spec.finite_order):
            for z, j, w in self._steps[i]:
                entries.append((j1, spec.finite_mul(j1, j), z, w))
            if loop > 0:
                entries.append((j1, j1, zero, loop))
        return LatticeChain.build(spec.rank, spec.finite_order, entries)

    def _fixed_point(self):
        """Solve r = Phi(r) for the least fixed point of the return masses by Newton.

        r_i is the probability-weighted chance that a step into factor i
        ever comes back to its departure point: Phi_i(r) is the sum over
        the steps s of factor i of mu(s) G(0, s^-1) / G(0, 0) in the chain
        whose loop mass is l_i = mu(e) + sum_{j != i} r_j.  Phi_i is a power
        series in l_i with nonnegative coefficients, so the system is
        monotone and convex, and Newton from 0 increases monotonically to
        the least fixed point (Etessami & Yannakakis, JACM 56, 2009), the
        solution of the free-product equations (Woess, Random Walks on
        Infinite Graphs and Groups, CUP 2000).  The Jacobian has
        dPhi_i/dr_j = dPhi_i/dl_i for j != i and 0 on the diagonal; the
        slope comes from d/dl G = G^2 on each round's boxes.  The chains of
        the last round, at the reported masses, are the engine's.
        """
        m = len(self.group.factors)
        r = np.zeros(m)
        for round_no in range(1, _FIXED_POINT_ROUNDS + 1):
            chains = [self._build_factor_chain(i, r) for i in range(m)]
            greens = [ChainGreen(c, self.radius) for c in chains]
            phi, slope = np.zeros(m), np.zeros(m)
            for i, cg in enumerate(greens):
                if self._steps[i]:
                    phi[i], slope[i] = self._return_map(i, cg)
            jacobian = slope[:, None] * (1.0 - np.eye(m))
            inverse = np.linalg.inv(np.eye(m) - jacobian)
            step = inverse @ (phi - r)
            # The step that roundoff in phi alone could make.  It grows
            # without bound at a fold (a recurrent walk, I - J singular at
            # the limit), where a small step proves nothing.
            noise = np.abs(inverse).sum(axis=1) * np.finfo(float).eps * phi.max()
            if (np.abs(step) + noise).max() < _FIXED_POINT_TOL:
                self.rounds_used = round_no
                break
            r = r + step
            del chains, greens  # free this round's boxes before the next round's
        else:
            raise ConvergenceError(
                f"return-mass fixed point did not settle in {_FIXED_POINT_ROUNDS} rounds"
            )
        self.return_mass = r.tolist()
        self._chains, self._greens = chains, greens
        for i, chain in enumerate(self._chains):
            if max(chain.row_masses()) > 1 + 1e-9:
                raise ConvergenceError(
                    f"factor {i} return mass pushed the chain above probability mass"
                )

    def _return_map(self, i: int, cg: ChainGreen) -> tuple[float, float]:
        """Phi_i at the masses cg's chain was built with, and dPhi_i/dl_i."""
        spec = self.group.factors[i]
        zero = (0,) * spec.rank
        g00, d00 = cg.green(0, zero, 0), cg.loop_slope(0, zero, 0)
        total = slope = 0.0
        for z, j, w in self._steps[i]:
            back = (tuple(-c for c in z), spec.finite_inv(j))
            g = cg.green(0, *back)
            total += w * g / g00
            slope += w * (cg.loop_slope(0, *back) - g * d00 / g00) / g00
        return total, slope

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

    def green(self, x: GroupElement, y: GroupElement) -> float:
        """G(x, y) = G(e, x^-1 y), exact via the prefix product through cut vertices."""
        val = self.green_identity_value
        cache = self._fwd_cache
        for syl in (x.inverse() * y).syllables:
            passage = cache.get(syl)
            val *= self.forward_passage(*syl) if passage is None else passage
        return val

    def syllable_ids(self, elems: Sequence[GroupElement]) -> np.ndarray:
        """Padded syllable-id table of an element list, one row per element.

        Ids are positive and shared by every table of this engine; each row
        ends in at least one 0, so a row can be read at any common-prefix
        depth with another.
        """
        width = 1 + max((g.syllable_count for g in elems), default=0)
        table = np.zeros((len(elems), width), dtype=np.int32)
        for i, g in enumerate(elems):
            for k, syl in enumerate(g.syllables):
                sid = self._syllable_id.get(syl)
                if sid is None:
                    sid = self._syllable_id[syl] = len(self._id_syllable)
                    self._id_syllable.append(syl)
                    self._id_inverse.append(self.group.inverse_syllable(syl))
                    self._id_factor.append(syl[0])
                table[i, k] = sid
        return table

    def _passages(self, ids: np.ndarray, use: np.ndarray, inverse: bool) -> np.ndarray:
        """Lookup array over syllable ids: F(e -> s) (or F(e -> s^-1)) at the ids of
        the entries use reads, over the axes ids broadcasts along, in id order; 1 elsewhere."""
        out = np.ones(len(self._id_syllable))
        syllables = self._id_inverse if inverse else self._id_syllable
        read = use.any(axis=tuple(i for i, n in enumerate(ids.shape) if n == 1), keepdims=True)
        for sid in np.unique(ids[read]):
            out[sid] = self.forward_passage(*syllables[sid])
        return out

    def green_matrix(self, xs: Sequence[GroupElement] | np.ndarray,
                     ys: Sequence[GroupElement] | np.ndarray) -> np.ndarray:
        """The block G(x_i, y_j): green_pairs over every pair, in chunks of rows.

        xs and ys are element lists or their syllable_ids tables.
        """
        X = xs if isinstance(xs, np.ndarray) else self.syllable_ids(xs)
        Y = ys if isinstance(ys, np.ndarray) else self.syllable_ids(ys)
        out = np.empty((len(X), len(Y)))
        step = max(1, _BLOCK_CHUNK // max(1, len(Y)))
        for lo in range(0, len(X), step):
            out[lo:lo + step] = self.green_pairs(X[lo:lo + step, None], Y[None])
        return out

    def green_pairs(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """G(x, y) for the pairs of two syllable-id tables, equal bit for bit to green(x, y).

        Ids run along the last axis and the other axes broadcast: aligned
        (n, w) and (n, w') tables give one value per row pair, X[:, None]
        and Y[None] the block.  With d the common syllable-prefix depth of
        x and y, the normal form of x^-1 y is x_m^-1 ... x_{d+2}^-1
        (x_{d+1}^-1 y_{d+1}) y_{d+2} ... y_n, where the middle syllables
        merge when they lie in one factor and stay two syllables otherwise.
        Each value multiplies its passages in that order, as green does,
        without forming x^-1 y.
        """
        shape = np.broadcast_shapes(X.shape[:-1], Y.shape[:-1])
        width = min(X.shape[-1], Y.shape[-1])
        depth = np.zeros(shape, dtype=np.min_scalar_type(width))
        alive = np.ones(shape, dtype=bool)
        for k in range(width - 1):
            alive &= X[..., k] == Y[..., k]
            alive &= X[..., k] > 0
            if not alive.any():
                break
            depth += alive
        xd, yd = _at(X, depth), _at(Y, depth)
        factor = np.array(self._id_factor, dtype=np.int16)
        merged = (xd > 0) & (yd > 0) & (factor[xd] == factor[yd])
        codes = xd[merged].astype(np.int64) * len(factor) + yd[merged]
        # Both tails start at the divergence, or just after it when the
        # middle syllables merge into one.
        first = depth + merged
        val = np.full(shape, self.green_identity_value)
        for k in reversed(range(X.shape[-1] - 1)):
            use = (first <= k) & (X[..., k] > 0)
            back = self._passages(X[..., k], use, inverse=True)
            np.multiply(val, back[X[..., k]], out=val, where=use)
        if len(codes):
            pairs, where = np.unique(codes, return_inverse=True)
            middle = np.array([
                self.forward_passage(*self.group.merge_syllables(
                    self._id_inverse[c // len(factor)], self._id_syllable[c % len(factor)]))
                for c in pairs.tolist()])
            val[merged] *= middle[where]
        for k in range(Y.shape[-1] - 1):
            use = (first <= k) & (Y[..., k] > 0)
            fwd = self._passages(Y[..., k], use, inverse=False)
            np.multiply(val, fwd[Y[..., k]], out=val, where=use)
        return val


def _at(table: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """table[..., depth] entry by entry, the leading axes of table broadcasting against depth."""
    rows = np.ravel_multi_index(np.indices(table.shape[:-1], sparse=True), table.shape[:-1])
    return np.take(table, rows * table.shape[-1] + depth)



class TabooContext:
    """Green's functions killed on a fixed finite set A.

    For x, y outside A the walk killed on A has G_A(x, y) = 0 exactly when
    a cut vertex strictly inside the geodesic from x to y lies in A, since
    every path from x to y passes it.  The cut vertices are the junctions
    of the normal form of x^-1 y (the walk crosses between factor cosets
    only there) and, inside a syllable of a rank-1 factor with trivial
    finite part whose steps move at most one site, every site the syllable
    passes.  In rank 2 or more a detour avoids any one site, so those sites
    are not cut.  Every other term is the Schur complement

        G_A(x, y) = G(x, y) - G(x, A) G(A, A)^{-1} G(A, y),

    the identity relating the inverse of a principal submatrix of (I - Q)
    to blocks of the full Green matrix; G(A, A) and its inverse are built
    on the first such term.  Endpoints inside A are handled by one-step
    border sums, matching the convention that only interior path positions
    are forbidden.  A is given as a list of distinct elements; one context
    serves every pair (x, y).
    """

    def __init__(self, engine: FreeProductEngine, elems: list[GroupElement]):
        self.engine = engine
        self.elems = elems
        self.index = {w: i for i, w in enumerate(elems)}
        self._normal_forms = {w.syllables for w in elems}
        far = {g.syllables[0][0] for g in engine.mu.support if g.word_length > 1}
        self._lines = {i for i, spec in enumerate(engine.group.factors)
                       if spec.rank == 1 and spec.finite_order == 1 and i not in far}

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """The syllable-id table of A and G(A, A)^-1."""
        ids = self.engine.syllable_ids(self.elems)
        return ids, np.linalg.inv(self.engine.green_matrix(ids, ids))

    def value(self, pairs: Sequence[tuple[GroupElement, GroupElement]]) -> list[float]:
        """G_A(x, y) for each pair (x, y), read off Green values shared by all pairs.

        A pair with an endpoint in A is the border sum d(x, y) + mu(x^-1 y) +
        sum mu(s) G_A(xs, y t^-1) mu(t) over xs and y t^-1 outside A; a pair
        outside A is the one-term sum 0 + 1 G_A(x, y) 1, which is G_A(x, y)
        exactly.  A term G_A(l, r) whose geodesic has a cut vertex in A adds
        nothing.  Each other term is G(l, r) - G(l, A) G(A, A)^-1 G(A, r):
        their left endpoints l and right endpoints r share one G(L, A) and
        one G(A, R) block, and one green_pairs call reads G(l, r) for
        exactly those terms.
        """
        eng, index = self.engine, self.index
        steps = list(eng.mu.items())
        back_steps = [(t.inverse(), wt) for t, wt in steps]
        lefts: dict[GroupElement, int] = {}
        rights: dict[GroupElement, int] = {}
        reads = []  # per pair: the sum's constant and its uncut weighted terms
        for x, y in pairs:
            if x in index or y in index:
                base = (1.0 if x == y else 0.0) + eng.mu(x.inverse() * y)
                outer = [(xs, ws) for xs, ws in ((x * s, ws) for s, ws in steps)
                         if xs not in index]
                inner = [(yt, wt) for yt, wt in ((y * t, wt) for t, wt in back_steps)
                         if yt not in index]
            else:
                base, outer, inner = 0.0, [(x, 1.0)], [(y, 1.0)]
            terms = []
            for xs, ws in outer:
                for yt, wt in inner:
                    if not any(v in self._normal_forms for v in
                               _cut_vertices(xs.syllables, yt.syllables, self._lines)):
                        terms.append((lefts.setdefault(xs, len(lefts)), ws,
                                      rights.setdefault(yt, len(rights)), wt))
            reads.append((base, terms))
        if lefts:
            ids, minv = self._schur
            left_ids, right_ids = eng.syllable_ids(list(lefts)), eng.syllable_ids(list(rights))
            gx = eng.green_matrix(left_ids, ids)
            # One product per left row keeps every value equal bit for bit to a
            # lone pair's, whatever the batch.
            rows = [gx[a] @ minv for a in range(len(lefts))]
            hy = np.ascontiguousarray(eng.green_matrix(ids, right_ids).T)
            flat = [(a, b) for _, terms in reads for a, _, b, _ in terms]
            cross = iter(eng.green_pairs(left_ids[[a for a, _ in flat]],
                                         right_ids[[b for _, b in flat]]).tolist())
        out = []
        for base, terms in reads:
            total = base
            for a, ws, b, wt in terms:
                total += ws * (next(cross) - float(rows[a] @ hy[b])) * wt
            out.append(total)
        return out


def _cut_vertices(left: tuple[Syllable, ...], right: tuple[Syllable, ...],
                  lines: set[int]):
    """Normal forms of the cut vertices strictly inside the geodesic from l to r.

    left and right are the normal forms of l and r, and lines the factors
    whose every site is cut.  With d their common syllable depth and c the
    common prefix, the geodesic climbs from l through the prefixes of l to
    the coset of c it shares with r, crosses it, and descends through the
    prefixes of r.  It passes c itself when l and r leave c through
    different factors, and crosses the coset inside one syllable when
    their depth-d syllables share a factor.
    """
    d = 0
    while d < len(left) and d < len(right) and left[d] == right[d]:
        d += 1
    stem = left[:d]
    p = left[d] if d < len(left) else None
    q = right[d] if d < len(right) else None
    if p is not None and q is not None and p[0] == q[0]:
        if p[0] in lines:
            yield from _line_sites(stem, p[0], p[1][0], q[1][0])
    else:
        if p is not None and q is not None:
            yield stem
        for s in (p, q):
            if s is not None and s[0] in lines:
                yield from _line_sites(stem, s[0], 0, s[1][0])
    for word in (left, right):
        for k in range(d + 1, len(word)):
            yield word[:k]
            fac, z, _ = word[k]
            if fac in lines:
                yield from _line_sites(word[:k], fac, 0, z[0])


def _line_sites(stem: tuple[Syllable, ...], fac: int, a: int, b: int):
    """Normal forms of stem * s^j for j strictly between a and b, s the generator
    of the rank-1 factor fac."""
    for j in range(min(a, b) + 1, max(a, b)):
        yield stem + ((fac, (j,), 0),) if j else stem
