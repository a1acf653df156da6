"""Z^k-invariant chains on Z^k x {1..N} and truncated-box Green solves.

A LatticeChain stores a finitely supported kernel p_{j1,j2}(0, z); the
Z^k-invariance is structural because only the displacement z is kept.
Green's functions are computed by a banded LU factorization (LAPACK
dgbtrf and dgbtrs) on a box [-h, h]^k with absorption outside, which is
exactly the walk killed at the first exit from the box.  Truncation
therefore only ever underestimates, and the error decays geometrically
in the distance from the query points to the boundary.  A box around any other centre has the
same matrix, so one factorization per half-width serves every centre.
The LAPACK routines come from scipy's compiled module alone, which
_load_flapack loads without importing the scipy or scipy.linalg package.
First-hit laws on a neighborhood of the origin come from the same
solver, on a box whose states in that neighborhood take no steps.  The
box matrix is assembled in numpy straight into band storage, one
vectorized pass per kernel entry.
A chain also caches its TiltCore, the untilted kernel split at the
fibers that displaced entries touch, from which perron.perron and
perron.perron_values read lambda(u).
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import AssumptionError, ConfigError, ConvergenceError


def _load_flapack():
    """scipy.linalg._flapack, scipy's compiled LAPACK wrappers, loaded from its file.

    scipy.linalg.lapack re-exports these routines as they are, but importing
    the scipy.linalg package also imports its vendored array_api_compat,
    which loads every numpy submodule (f2py, testing, ma, random, ...):
    about 0.15 s and 300 modules a process.  Nor is the scipy package
    imported: find_spec reads scipy's directory without running
    scipy/__init__ (about 10 ms).  This relies on the extension finding
    its OpenBLAS by itself, as the manylinux wheel's does through its
    RPATH $ORIGIN/../../scipy.libs; Windows wheels set their DLL search
    path in scipy/__init__ instead, and are not tested.  The module goes into
    sys.modules under its own name, so scipy.linalg, imported before or
    after, shares it.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "linalg")])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


lapack = _load_flapack()  # dgbtrf, dgbtrs, dgees, zgees here; dtrtrs, ztrtrs, dgeev in perron


def _no_sort(*_):
    """gees' eigenvalue-selection callback, which it calls only when sorting."""


def _schur(a: np.ndarray, gees) -> tuple[np.ndarray, np.ndarray]:
    """Schur form T and vectors Q of a, as scipy.linalg.schur(a) gives them.

    gees is lapack.dgees (the real form) or lapack.zgees (the complex
    one), called with scipy's workspace query and no sorting.
    """
    a = np.asarray_chkfinite(a)
    lwork = int(gees(_no_sort, a, lwork=-1)[-2][0].real)
    result = gees(_no_sort, a, lwork=lwork)
    info = result[-1]
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return result[0], result[-3]


@dataclass(frozen=True)
class LatticeChain:
    """Finitely supported Z^k-invariant kernel on Z^k x {1..N}."""

    rank: int
    fiber_count: int
    entries: tuple[tuple[int, int, tuple[int, ...], float], ...]

    def __post_init__(self):
        for j1, j2, dz, w in self.entries:
            if not (0 <= j1 < self.fiber_count and 0 <= j2 < self.fiber_count):
                raise ConfigError("fiber index out of range")
            if len(dz) != self.rank:
                raise ConfigError("displacement has wrong dimension")
            if w < 0:
                raise ConfigError("negative kernel weight")

    @staticmethod
    def build(rank, fiber_count, entries):
        """Normalize entry order and merge duplicates before freezing."""
        acc: dict[tuple[int, int, tuple[int, ...]], float] = {}
        for j1, j2, dz, w in entries:
            key = (int(j1), int(j2), tuple(int(c) for c in dz))
            acc[key] = acc.get(key, 0.0) + float(w)
        merged = tuple(
            (j1, j2, dz, w) for (j1, j2, dz), w in sorted(acc.items()) if w != 0.0
        )
        return LatticeChain(rank, fiber_count, merged)

    @cached_property
    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only entry arrays: flat fiber index j1*N + j2, displacements, weights."""
        n = self.fiber_count
        flat = np.array([j1 * n + j2 for j1, j2, _, _ in self.entries], dtype=np.intp)
        dz = np.array([dz for _, _, dz, _ in self.entries],
                      dtype=float).reshape(len(self.entries), self.rank)
        w = np.array([w for _, _, _, w in self.entries], dtype=float)
        for arr in (flat, dz, w):
            arr.flags.writeable = False
        return flat, dz, w

    @cached_property
    def tilt_core(self) -> "TiltCore":
        """The split of the fibers into the tilted core C and the rest R."""
        return TiltCore.split(self)

    # -- structure queries -------------------------------------------------

    def row_masses(self) -> list[float]:
        out = [0.0] * self.fiber_count
        for j1, _, _, w in self.entries:
            out[j1] += w
        return out

    @property
    def is_strictly_submarkov(self) -> bool:
        return any(m < 1 - 1e-12 for m in self.row_masses())

    def is_strongly_irreducible(self) -> bool:
        """True when some power of the fiber support pattern is positive.

        The z displacement is collapsed onto the fiber adjacency, which is
        the right notion for the tilted matrix family: a positive power of
        the adjacency makes every tilt primitive.  A primitive pattern has
        every power from the Wielandt bound n^2 - 2n + 2 on positive, so
        the pattern is squared until its exponent reaches the bound.  The
        0/1 pattern is squared in float64, on BLAS: every entry of a
        product is at most n, so the booleans are exact.  The displacements
        are not looked at here; cycle_lattice_index checks them.
        """
        n = self.fiber_count
        power = np.zeros((n, n))
        for j1, j2, _, w in self.entries:
            if w > 0:
                power[j1, j2] = 1
        bound = n * n - 2 * n + 2
        exponent = 1
        while exponent < bound and power.min() == 0:
            power = np.minimum(power @ power, 1)
            exponent *= 2
        return bool(power.min() > 0)

    def cycle_lattice_index(self) -> int:
        """Index in Z^k of the group that closed fiber paths displace by; 0 if infinite.

        A primitive pattern still leaves sites unreached when that group is
        not all of Z^k (steps +-2 reach only even z), so check_assumptions
        asks for index 1 as well.  Potentials phi along a spanning tree
        from fiber 0 make dz + phi(j1) - phi(j2) of each entry the
        displacement of a closed path, and these generate the group.
        Integer row reduction (Euclid on each column) brings them to
        echelon form, whose pivots multiply to the index.  Fibers that no
        path joins to fiber 0 do not count.
        """
        live = [(j1, j2, dz) for j1, j2, dz, w in self.entries if w > 0]
        links: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
        for j1, j2, dz in live:
            links.setdefault(j1, []).append((j2, dz, 1))
            links.setdefault(j2, []).append((j1, dz, -1))
        phi = {0: (0,) * self.rank}
        stack = [0]
        while stack:
            j = stack.pop()
            for k, dz, sign in links.get(j, ()):
                if k not in phi:
                    phi[k] = tuple(p + sign * d for p, d in zip(phi[j], dz))
                    stack.append(k)
        cycles = {tuple(d + a - b for d, a, b in zip(dz, phi[j1], phi[j2]))
                  for j1, j2, dz in live if j1 in phi}
        pivots: list[list[int] | None] = [None] * self.rank  # row i starts at column i
        for v in map(list, sorted(cycles)):
            for i in range(self.rank):
                if not v[i]:
                    continue
                if pivots[i] is None:
                    pivots[i] = v
                    break
                row = pivots[i]
                while v[i]:  # Euclid on column i, which v leaves at 0
                    q = row[i] // v[i]
                    row, v = v, [a - q * b for a, b in zip(row, v)]
                pivots[i] = row
        index = 1
        for i, row in enumerate(pivots):
            index *= abs(row[i]) if row is not None else 0
        return index


@dataclass(frozen=True)
class TiltCore:
    """Untilted part of F(u) = A + D(u), split at the fibers a tilt reaches.

    A tilt multiplies only the entries with a displacement.  C is the set
    of fibers such an entry leaves or enters, R the rest, so D(u) lives on
    C x C.  Where R would be empty, every entry goes with D(u): A_CC = 0.
    For lambda right of rho(A_RR), lambda is an eigenvalue of F(u) exactly
    when it is one of the stochastic complement
    M(lambda, u) = A_CC + D(u) + A_CR (lambda - A_RR)^-1 A_RC
    (Meyer, SIAM Review 31, 1989).  A_RR is kept in Schur form Q T Q^*,
    real unless A_RR has complex eigenvalues, so that each resolvent is a
    triangular solve that stays backward stable on a defective A_RR.  Only
    T is kept, with Q folded into the couplings A_CR Q and Q^* A_RC, and
    beside it -T in the column order LAPACK reads: each resolvent solve
    writes lambda - diag(T) onto that copy's diagonal, so no solve copies T.
    """

    core: np.ndarray  # C, in fiber order
    moved: np.ndarray  # the displaced entries, or every entry when R is empty
    dz: np.ndarray  # their displacements
    weights: np.ndarray  # their weights
    slots: np.ndarray  # their flat positions j1 * |C| + j2 in the C x C block
    base: np.ndarray  # A_CC
    schur: np.ndarray  # T, |R| x |R| upper triangular
    shifted: np.ndarray  # -T in Fortran order, its diagonal rewritten by each solve
    leave: np.ndarray  # A_CR Q
    enter: np.ndarray  # Q^* A_RC
    core_out: np.ndarray  # row sums of A_CR
    rest_mass: float  # largest row sum of A over R

    @staticmethod
    def split(chain: LatticeChain) -> "TiltCore":
        n = chain.fiber_count
        flat, dz, w = chain.entry_arrays
        moved = dz.any(axis=1)
        j1, j2 = np.divmod(flat, n)
        in_core = np.bincount(np.concatenate([j1[moved], j2[moved]]), minlength=n) > 0
        if in_core.all() or not in_core.any():
            in_core[:], moved = True, np.ones_like(moved)
        core, rest = np.flatnonzero(in_core), np.flatnonzero(~in_core)
        local = np.zeros(n, dtype=np.intp)
        local[core] = np.arange(core.size)
        a = np.bincount(flat[~moved], weights=w[~moved], minlength=n * n).reshape(n, n)
        a_rr = a[np.ix_(rest, rest)]
        schur, q = _schur(a_rr, lapack.dgees) if rest.size else (a_rr, a_rr)
        if np.any(np.diag(schur, -1)):  # a 2 x 2 block: complex eigenvalues
            schur, q = _schur(a_rr.astype(complex), lapack.zgees)
        return TiltCore(
            core=core, moved=np.flatnonzero(moved), dz=dz[moved], weights=w[moved],
            slots=local[j1[moved]] * core.size + local[j2[moved]],
            base=a[np.ix_(core, core)], schur=schur, shifted=np.asfortranarray(-schur),
            leave=a[np.ix_(core, rest)] @ q, enter=q.conj().T @ a[np.ix_(rest, core)],
            core_out=a[np.ix_(core, rest)].sum(axis=1),
            rest_mass=float(a[rest].sum(axis=1).max(initial=0.0)))


class BoxGreen:
    """Green's function of a chain on the box [-h, h]^k with outside absorption.

    Rows G((z_source, j1) -> (z, j2)) are solved from any source state in
    the box (the origin by default), and columns into any target state by
    a transposed solve on the same LU.  The chain is Z^k-invariant, so a box
    centred elsewhere would have the same matrix: the row from its centre
    is the row from the origin here, read at the shifted point.

    With a stop depth d, the states (z, j) with |z|_1 + [j != 0] <= d take
    no steps.  A stopped state is then visited at most once, so the row
    from a source outside that set, read at a stopped state, is the
    probability that the walk first enters the set there; states it
    cannot enter first stay structurally zero.

    States are numbered site by site (first coordinate slowest), fibers
    innermost, so a kernel entry (j1, j2, dz) moves a state index by the
    same offset off = (dz . strides) N + j2 - j1 wherever it applies.  The
    factored matrix is A^T = (I - Q)^T, in LAPACK band storage: its
    subdiagonal count kl is the largest offset of an entry that stays in
    the box, its superdiagonal count ku the largest negated one (both
    `side` for unit steps in rank 2 with one fiber).  A row of Q sums to at
    most 1, so A^T is column diagonally dominant: partial pivoting swaps
    no rows and the growth factor is at most 2.  The factors take
    (2 kl + ku + 1) x (number of states) doubles, the kl extra rows holding
    the fill that pivoting may make; in rank k that is about 3 side^(2k-1)
    N^2 doubles, which the rank gate of config.MAX_LATTICE_RANK = 2 keeps
    small.
    """

    def __init__(self, chain: LatticeChain, half_width: int, stop_depth: int | None = None):
        self.chain = chain
        self.half_width = int(half_width)
        k, n, h = chain.rank, chain.fiber_count, self.half_width
        side = 2 * h + 1
        self._side = side
        self._num_sites = side**k
        num_states = self._num_sites * n
        # Sites in row-major order (first coordinate slowest), so that row
        # i of grid is the site whose _site_id is i.
        grid = np.indices((side,) * k).reshape(k, self._num_sites).T - h
        moves = np.ones((self._num_sites, n), dtype=bool)
        self.stopped: dict[tuple[tuple[int, ...], int], int] = {}
        if stop_depth is not None:
            depth = np.abs(grid).sum(axis=1)[:, None] + (np.arange(n) != 0)
            moves = depth > stop_depth
            for sid in np.flatnonzero(~moves).tolist():
                self.stopped[(tuple(grid[sid // n].tolist()), sid % n)] = sid
        # One pass per kernel entry: every moving source state whose target
        # stays in the box.  A shift by dz moves a site index by dz . strides,
        # and a state index by off = (dz . strides) n + j2 - j1.
        flat, dz, w = chain.entry_arrays
        strides = side ** np.arange(k - 1, -1, -1)
        passes = []
        for f, shift, weight in zip(flat.tolist(), dz.astype(np.intp), w.tolist()):
            j1, j2 = divmod(f, n)
            sites = np.flatnonzero(moves[:, j1] & (np.abs(grid + shift) <= h).all(axis=1))
            if sites.size:
                passes.append((sites * n + j1, int(shift @ strides) * n + j2 - j1, weight))
        # A^T = (I - Q)^T holds -Q[s, s + off] at row s + off, column s: a
        # positive off lies below the diagonal.  kl and ku are the largest
        # offsets below and above it.
        self._kl = kl = max([0, *(off for _, off, _ in passes)])
        self._ku = ku = max([0, *(-off for _, off, _ in passes)])
        band = np.zeros((2 * kl + ku + 1, num_states), order="F")
        band[kl + ku] = 1.0
        for sources, off, weight in passes:
            band[kl + ku + off, sources] -= weight
        self._lu, self._piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            raise AssumptionError(f"singular box: I - Q on the {num_states} states within {h} "
                                  f"of {(0,) * k}; some states never lose mass")
        self._rows: dict[tuple[tuple[int, ...], int], np.ndarray] = {}

    def _state_id(self, z: tuple[int, ...], j: int) -> int:
        if any(abs(c) > self.half_width for c in z):
            raise ConvergenceError(
                f"point {z} lies outside the box of half-width {self.half_width}")
        sid = 0
        for c in z:
            sid = sid * self._side + (c + self.half_width)
        return sid * self.chain.fiber_count + j

    def row(self, j_source: int, z_source: Sequence[int] | None = None) -> np.ndarray:
        """Green row from the state (z_source, j_source) (default: the origin)."""
        key = ((0,) * self.chain.rank if z_source is None else tuple(int(c) for c in z_source),
               j_source)
        if key not in self._rows:
            e = np.zeros(self._num_sites * self.chain.fiber_count)
            e[self._state_id(*key)] = 1.0
            self._rows[key] = self._solve(e, 0)
        return self._rows[key]

    def column(self, j_target: int, z_target: Sequence[int]) -> np.ndarray:
        """Green column into the state (z_target, j_target), one transposed
        solve on the same LU."""
        e = np.zeros(self._num_sites * self.chain.fiber_count)
        e[self._state_id(tuple(z_target), j_target)] = 1.0
        return self._solve(e, 1)

    def _solve(self, e: np.ndarray, trans: int) -> np.ndarray:
        """A^-T e (trans 0, a row) or A^-1 e (trans 1, a column) on the band LU."""
        x, _ = lapack.dgbtrs(self._lu, self._kl, self._ku, e, self._piv, trans=trans,
                             overwrite_b=True)
        return x


class ChainGreen:
    """Memoized Green evaluations for one chain at a fixed truncation radius.

    A target near the origin is read in the origin box of half-width
    radius.  A far target z is read in a box around the centre z//2, whose
    half-width radius + max ceil(|z_i|/2) is fixed by the first target read
    with that centre, so a later, farther target with the same centre may
    not fit.  By Z^k-invariance every box of one half-width is the same:
    one origin-centred BoxGreen per half-width, with its one LU and one row
    per source fiber, serves all such centres.
    """

    def __init__(self, chain: LatticeChain, radius: int):
        self.chain = chain
        self.radius = int(radius)
        self._boxes = {self.radius: BoxGreen(chain, self.radius)}
        self._halves: dict[tuple[int, ...], int] = {}  # far centre -> half-width

    def green(self, j_from: int, z: Sequence[int], j_to: int) -> float:
        """G((0, j_from) -> (z, j_to)), read off the origin row of a box."""
        box, zt = self._box(z)
        return float(box.row(j_from)[box._state_id(zt, j_to)])

    def loop_slope(self, j_from: int, z: Sequence[int], j_to: int) -> float:
        """d/dl G((0, j_from) -> (z, j_to)) under loop mass l added at every state.

        d/dl (I - Q - l I)^-1 = G^2, so the slope is the origin row dotted
        with the column into (z, j_to), both on the box that green reads.
        """
        box, zt = self._box(z)
        return float(box.row(j_from) @ box.column(j_to, zt))

    def _box(self, z: Sequence[int]) -> tuple[BoxGreen, tuple[int, ...]]:
        """The box a read of z goes to, and z as a tuple."""
        zt = tuple(int(c) for c in z)
        if all(abs(c) <= self.radius // 2 for c in zt):
            half = self.radius
        else:
            center = tuple(c // 2 for c in zt)
            half = self._halves.setdefault(
                center, self.radius + max((abs(c) + 1) // 2 for c in zt))
            if any(abs(c) > half for c in zt):
                raise ConvergenceError(f"point {zt} lies outside the box of half-width {half} "
                                       f"fixed by the first read with centre {center}")
        if half not in self._boxes:
            self._boxes[half] = BoxGreen(self.chain, half)
        return self._boxes[half], zt


def absorption_distribution(chain: LatticeChain, starts: Sequence[tuple[Sequence[int], int]],
                            max_len: int, radius: int
                            ) -> list[dict[tuple[tuple[int, ...], int], float]]:
    """First-hit distributions on A = {(z,j): |z|_1 + [j != 0] <= max_len}.

    From each start (z, j) outside A the chain runs until it first enters
    A or dies; mass escaping a box of half-width radius + max(max_len,
    max |z_i|) is treated as dead, consistent with the box Green
    truncation used elsewhere.  A start's law is its Green row in that box
    stopped on A, read at A.  Starts of one half-width share one box, and
    the boxes are built in increasing half-width, one alive at a time.
    Returns the laws in the order of starts.
    """
    starts = [(tuple(int(c) for c in z), j) for z, j in starts]
    if any(sum(map(abs, z)) + (j != 0) <= max_len for z, j in starts):
        raise ValueError("start state already lies in the absorbing set")
    by_half: dict[int, list[int]] = {}
    for i, (z, _) in enumerate(starts):
        by_half.setdefault(radius + max([max_len, *map(abs, z)]), []).append(i)
    laws: list = [None] * len(starts)
    for half in sorted(by_half):
        box = BoxGreen(chain, half, stop_depth=max_len)
        for i in by_half[half]:
            z, j = starts[i]
            row = box.row(j, z)
            laws[i] = {s: float(row[n]) for s, n in box.stopped.items() if row[n] > 0.0}
        del box  # one box alive at a time
    return laws
