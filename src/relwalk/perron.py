"""Perron roots of tilted lattice chains and level-set geometry.

For a chain p on Z^k x {1..N} and a tilt u in R^k, F(u) is the N x N
matrix with entries sum_z p((0,j1) -> (z,j2)) e^(u.z).  Its Perron root
lambda(u) is smooth, log-convex, and for strictly sub-Markov strongly
irreducible chains the level set {lambda = 1} is a compact convex
hypersurface whose outward normals parametrize directions of escape.

Everything here works on the fibers C that displaced entries touch
(lattice.TiltCore): apart from the Schur form of A_RR, no matrix is larger
than |C| x |C|.  With the rest R empty, A_CC + D(u) is F(u).  Otherwise
lambda = rho(M(lambda, u)) for the stochastic complement M onto C, solved
by Newton steps that are triangular solves against the Schur form of A_RR,
factored once per chain.  A 1 x 1 M, as on every shipped chain, is its own
root with Perron vectors 1, read without an eigensolver, and its
derivatives are read off their one entry.  perron() gives lambda and its
gradient for one tilt, with one LAPACK solve per resolvent and an
iteration on floats; lambda_hessian the Hessian at that tilt, by implicit
differentiation of lambda = rho(M(lambda, u)); the Newton solvers for both
geometric problems read them.  level_set_point() starts from a seed where
one is known, such as the point of a chain with the same level set, and
level_set_path() solves a run of directions by continuation, each point
seeding the next.  perron_values() gives lambda alone for a batch of
tilts, by one back substitution over all tilts, for the callers that read
only lambda: the lambda-surface grid and the escape probes of
check_assumptions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AssumptionError, ConvergenceError
from .lattice import LatticeChain, TiltCore, lapack

_EXP_CAP = 700.0  # exp overflow guard on tilted entries
_DENSE_EIG_MAX = 64  # no src/ path depends on it; the benchmark harness labels spans by it
_CORE_ROUNDS, _POLE_GAP = 100, 1e-14  # core Newton: step cap, smallest bracket around rho(A_RR)
_MIN_GRAD_TOL, _MIN_ROUNDS = 1e-10, 100  # minimize_lambda: last-step gradient, round cap
_ESCAPE_PROBES = (16.0, 8.0, 4.0, 2.0, 1.0, 0.5)  # check_assumptions: tilts per direction, far first
_ESCAPE_GRID, _ESCAPE_LEVEL = 64, 2.0  # check_assumptions: direction count, escape level
_LEVEL_STOP_LAMBDA, _LEVEL_STOP_ANGLE = 1e-14, 1e-13  # level_set_point: Newton stop
_LEVEL_ROUNDS, _LEVEL_MIN_STRIDE = 8, 1e-6  # level_set_point: Newton cap, smallest normal stride
_LEVEL_LAMBDA_TOL, _LEVEL_ANGLE_TOL = 1e-10, 1e-8  # level_set_point: |lambda-1|, |normal-theta|
_UNIT = np.ones(1)  # the Perron vectors of every 1 x 1 matrix; read, never written


def _tilt_vector(chain: LatticeChain, u) -> np.ndarray:
    v = np.asarray(u, dtype=float).reshape(-1)
    if v.size != chain.rank:
        raise ValueError(f"tilt has dimension {v.size}, chain rank is {chain.rank}")
    return v


def _exponents(chain: LatticeChain, tilts: np.ndarray) -> np.ndarray:
    """Exponents u.z, tilts by moved entries; OverflowError names the first overflowing tilt."""
    a = tilts @ chain.tilt_core.dz.T
    if not a.max(initial=-math.inf) <= _EXP_CAP:  # a NaN maximum also searches
        over = np.argwhere(a > _EXP_CAP)
        if over.size:
            t, e = over[0]
            raise OverflowError(f"tilt {tuple(tilts[t].tolist())} overflows on displacement "
                                f"{chain.entries[chain.tilt_core.moved[e]][2]}")
    return a


def _core_terms(chain: LatticeChain, v: np.ndarray) -> tuple[TiltCore, np.ndarray, np.ndarray]:
    """The tilt core, A_CC + D(v), and the moved entries' tilted weights."""
    split = chain.tilt_core
    tilted = split.weights * np.exp(_exponents(chain, v[None])[0])
    return split, split.base + _core_sum(split, tilted), tilted


def _core_sum(split: TiltCore, weights: np.ndarray) -> np.ndarray:
    """|C| x |C| matrix summing the moved entries' weights onto their slots."""
    c = split.core.size
    return np.bincount(split.slots, weights, c * c).reshape(c, c)


def _perron_pair(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root of a nonnegative matrix with its right and left vectors.

    For a primitive nonnegative matrix the Perron root strictly dominates
    every other eigenvalue in modulus, so the eigenvalue of largest real
    part is the root and its eigenvectors are real up to rounding.  Both
    vectors are scaled to unit sum, which makes them positive, and then the
    right one to r_0 = 1 where r_0 > 0.  A 1 x 1 matrix is its own root,
    with vectors 1.  Otherwise LAPACK dgeev, on scipy.linalg.eig's
    workspace, gives both sets of vectors: for the first eigenvalue of
    largest real part, column idx of each is the real part of the vector
    that eig returns.
    """
    if len(mat) == 1:
        return float(mat[0, 0]), _UNIT, _UNIT
    wr, _, lvecs, rvecs, info = lapack.dgeev(
        np.asarray_chkfinite(mat), lwork=int(lapack.dgeev_lwork(len(mat))[0]))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal eig algorithm (geev)")
    if info > 0:
        raise np.linalg.LinAlgError("eig algorithm (geev) did not converge (only eigenvalues "
                                    f"with order >= {info} have converged)")
    idx = int(np.argmax(wr))
    right, left = rvecs[:, idx], lvecs[:, idx]
    right, left = right / right.sum(), left / left.sum()
    if right[0] > 0:
        right = right / right[0]
    return float(wr[idx]), right, left


def _resolvent(split: TiltCore):
    """solve(lam, rhs) = (lam - T)^-1 rhs, one LAPACK triangular solve against the Schur form.

    A solve writes only the diagonal of the chain's negated copy of T,
    through a view, and LAPACK reads that copy in place.
    """
    shifted = split.shifted
    shift = np.einsum("ii->i", shifted)  # a writable view of the diagonal
    diag = np.diag(split.schur)
    trtrs = lapack.ztrtrs if np.iscomplexobj(shifted) else lapack.dtrtrs

    def solve(lam: float, rhs: np.ndarray) -> np.ndarray:
        shift[:] = lam - diag
        x, info = trtrs(shifted, rhs)
        if info:
            raise np.linalg.LinAlgError("lambda is an eigenvalue of A_RR")
        return x
    return solve


@dataclass
class PerronData:
    """Perron root of F(u) and its gradient."""

    u: tuple[float, ...]
    value: float
    gradient: tuple[float, ...]


def perron(chain: LatticeChain, u) -> PerronData:
    """Perron root and grad lambda at tilt u.

    For the callers that read the gradient: the minimizer and the
    level-set Newton solvers; perron_values gives lambda alone for less.
    With the rest R of the tilt core empty, M = F(u) and one dense
    eigendecomposition gives lambda with its Perron vectors l, r.
    Otherwise lambda is perron_values' root of the complement
    M(lambda, u) onto C (_core_root), which also gives M's vectors and the
    slope rho_lambda = d rho(M)/d lambda at lambda.  Differentiating
    rho(M(lambda(u), u)) = lambda(u) gives
    grad lambda = rho_u / (1 - rho_lambda), with
    rho_u,i = l^T D_i r / (l^T r) and D_i = dM/du_i, which lives on C.
    Where the root is rho(A_RR), that of a class of R the tilt does not
    reach, lambda does not move with u and the gradient is 0.
    """
    v = _tilt_vector(chain, u)
    split, block, tilted = _core_terms(chain, v)
    if split.schur.size:
        lam, slope, right, left = _core_root(split, block)
        if right is None:
            return PerronData(u=tuple(v), value=lam, gradient=(0.0,) * chain.rank)
    else:
        (lam, right, left), slope = _perron_pair(block), 0.0
    firsts = [_core_sum(split, tilted * split.dz[:, ax]) for ax in range(chain.rank)]
    if right is _UNIT:  # l = r = 1: rho_u,i is D_i's one entry
        grad = tuple(float(d[0, 0]) / (1.0 - slope) for d in firsts)
    else:
        denom = float(left @ right) * (1.0 - slope)
        grad = tuple(float(left @ (d @ right)) / denom for d in firsts)
    return PerronData(u=tuple(v), value=lam, gradient=grad)


def _core_root(split: TiltCore, block: np.ndarray
               ) -> tuple[float, float, np.ndarray | None, np.ndarray | None]:
    """lambda for one tilt on the tilt core, with rho_lambda and M's Perron vectors r, l at lambda.

    block holds A_CC + D(u).  perron_values' bracket, log-Newton steps
    and stop, on floats: for one tilt, numpy's cost per call on
    one-element arrays would outweigh the solves.  Newton's last
    evaluation is at lambda itself, so it gives the slope and vectors.
    Where lambda = rho(A_RR) there are none, and r, l are None.
    """
    solve = _resolvent(split)

    def complement(lam: float, slope: bool = False):
        """rho(M(lam)), d rho/d lambda if slope is set, and M's r, l."""
        x = solve(lam, split.enter)
        mat = block + np.real(split.leave @ x)
        if not np.isfinite(mat).all():
            raise ConvergenceError("stochastic complement overflows next to rho(A_RR)")
        rho, r, l = _perron_pair(mat)
        if not slope:
            return rho, math.nan, r, l
        dmat = -np.real(split.leave @ solve(lam, x))
        if r is _UNIT:  # l = r = 1: d rho/d lambda is dM/d lambda's one entry
            return rho, float(dmat[0, 0]), r, l
        return rho, float(l @ dmat @ r) / float(l @ r), r, l

    upper = max(float((block.sum(axis=1) + split.core_out).max()), split.rest_mass)
    pole = float(np.max(np.diag(split.schur).real))
    floor = _POLE_GAP * upper
    gap = max(upper - pole, floor)
    lam = max(complement(pole + gap)[0], pole + floor)
    while lam < pole + 0.5 * gap and gap > 2.0 * floor:
        probe = pole + 0.5 * gap
        rho = complement(probe)[0]
        lam = max(lam, min(probe, rho))
        gap = gap if rho >= probe else 0.5 * gap
    for _ in range(_CORE_ROUNDS):
        rho, slope, r, l = complement(lam, slope=True)
        rho = max(rho, np.finfo(float).tiny)  # rho(M) = 0: the root lies left
        step = (math.log(lam) - math.log(rho)) / (1.0 / lam - slope / rho)
        if not math.isfinite(step):
            raise ConvergenceError("Perron root of the tilt core is not finite")
        if not lam - step > lam:
            break
        lam -= step
    else:
        raise ConvergenceError(f"Perron roots did not converge in {_CORE_ROUNDS} Newton steps")
    if lam <= pole + floor:
        return pole, math.nan, None, None
    return lam, slope, r, l


def perron_values(chain: LatticeChain, tilts) -> np.ndarray:
    """Perron roots lambda(u) of F(u), one per row u of tilts, without eigenvectors.

    The same OverflowError as perron(), for the first overflowing tilt.
    With R empty the assembled stack is F(u), bit for bit as perron() sums
    it, and each root is the largest real part of its eigenvalues (the
    entry itself for |C| = 1, as LAPACK returns it).
    Otherwise it is the root right of rho(A_RR) of
    phi(lambda) = log lambda - log rho(M(lambda, u)) (see TiltCore).  The
    entries of M are log-convex in lambda, so rho(M) is too (Kingman), and
    phi is increasing and concave: Newton from the left climbs to the root
    monotonically, and a tilt stops at its first step that does not
    increase lambda.  In log form Newton also leaves a pole of the
    resolvent of any order in a few steps.  The start is a lower bound
    within a factor 2 of lambda - rho(A_RR).  A tilt whose bracket closes
    on rho(A_RR) and that cannot climb from there has root rho(A_RR).
    """
    u = np.asarray(tilts, dtype=float)
    if u.ndim != 2 or u.shape[1] != chain.rank:
        raise ValueError(f"tilts have shape {u.shape}, chain rank is {chain.rank}")
    split = chain.tilt_core
    m, c = len(u), split.core.size
    cells = (np.arange(m)[:, None] * (c * c) + split.slots).ravel()
    weights = split.weights * np.exp(_exponents(chain, u))
    tilted = split.base + np.bincount(cells, weights.ravel(), m * c * c).reshape(m, c, c)
    if not split.schur.size:
        return tilted[:, 0, 0] if c == 1 else np.linalg.eigvals(tilted).real.max(axis=1)
    upper = np.maximum((tilted.sum(axis=2) + split.core_out).max(axis=1), split.rest_mass)
    pole = float(np.max(np.diag(split.schur).real))
    floor = _POLE_GAP * upper
    # lam <= lambda(u) <= pole + gap, from the largest row sum of F(u) down.
    # M decreases in lambda, so rho(M(x)) at any x >= lambda(u) is a lower
    # bound, and x <= rho(M(x)) means x <= lambda(u).  The gap halves until
    # lam is within a factor 2 of it.
    gap = np.maximum(upper - pole, floor)
    lam = np.maximum(_complement_root(split, pole + gap, tilted)[0], pole + floor)
    while True:
        far = np.flatnonzero((lam < pole + 0.5 * gap) & (gap > 2.0 * floor))
        if not far.size:
            break
        probe = pole + 0.5 * gap[far]
        rho = _complement_root(split, probe, tilted[far])[0]
        lam[far] = np.maximum(lam[far], np.minimum(probe, rho))
        gap[far] = np.where(rho >= probe, gap[far], 0.5 * gap[far])
    values = np.empty(m)
    todo = np.arange(m)
    for _ in range(_CORE_ROUNDS):
        if not todo.size:
            return values
        rho, slope = _complement_root(split, lam, tilted[todo], slope=True)
        rho = np.maximum(rho, np.finfo(float).tiny)  # rho(M) = 0: the root lies left
        step = (np.log(lam) - np.log(rho)) / (1.0 / lam - slope / rho)
        if not np.isfinite(step).all():
            raise ConvergenceError("Perron root of the tilt core is not finite")
        nxt = lam - step
        climbs = nxt > lam
        done = todo[~climbs]
        values[done] = np.where(lam[~climbs] > pole + floor[done], lam[~climbs], pole)
        todo, lam = todo[climbs], nxt[climbs]
    raise ConvergenceError(f"Perron roots did not converge in {_CORE_ROUNDS} Newton steps")


def _complement_root(split: TiltCore, lam: np.ndarray, tilted: np.ndarray,
                     slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """rho(M(lam_t, u_t)) per tilt t, and d rho/d lambda if slope is set.

    tilted holds A_CC + D(u_t).  Column t * |C| + k of the solves is tilt
    t against column k of A_RC; d M/d lambda = -A_CR (lambda - A_RR)^-2 A_RC,
    and d rho = l^T dM r / (l^T r) with the Perron vectors l, r of M.
    """
    m, c = tilted.shape[:2]
    shift = np.repeat(lam, c)
    x = _shifted_solve(split.schur, shift, np.tile(split.enter, (1, m)))

    def per_tilt(cols):
        return np.real(split.leave @ cols).reshape(c, m, c).transpose(1, 0, 2)

    mats = tilted + per_tilt(x)
    if not np.isfinite(mats).all():
        raise ConvergenceError("stochastic complement overflows next to rho(A_RR)")
    if c == 1:  # each M is its own root, with Perron vectors l = r = 1
        rho = mats[:, 0, 0]
    else:
        vals, right = np.linalg.eig(mats)
        top = np.argmax(vals.real, axis=1)
        rho = vals.real[np.arange(m), top]
    if not slope:
        return rho, None
    dmats = -per_tilt(_shifted_solve(split.schur, shift, x))
    if c == 1:
        return rho, dmats[:, 0, 0]
    lvals, left = np.linalg.eig(mats.transpose(0, 2, 1))
    r = right[np.arange(m), :, top].real
    l = left[np.arange(m), :, np.argmax(lvals.real, axis=1)].real
    return rho, np.einsum("ti,tij,tj->t", l, dmats, r) / np.einsum("ti,ti->t", l, r)


def _shifted_solve(schur: np.ndarray, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns x_j of (shift_j I - T) x_j = rhs_j, by back substitution on the triangular T."""
    x = np.empty(rhs.shape, dtype=np.result_type(schur, rhs))
    diag = np.diag(schur)
    for i in range(len(schur) - 1, -1, -1):
        x[i] = (rhs[i] + schur[i, i + 1:] @ x[i + 1:]) / (shift - diag[i])
    return x


def lambda_hessian(chain: LatticeChain, data: PerronData) -> np.ndarray:
    """Hessian of lambda at data.u, on the tilt core.

    M and its Perron vectors are rebuilt at lambda = data.value: three
    triangular solves and, for |C| > 1, one |C| x |C| eigensolve.  For
    |C| = 1, l = r = P = 1 and the reduced resolvent S below is 0, so the
    cross term is not formed and no linear system is solved.
    lambda(u) solves rho(M(p)) = lambda in p = (u, lambda).  Its second
    derivative along p(u) = (u, lambda(u)), with J = dp/du = [I; grad
    lambda^T], is H = J^T Hess(rho) J / (1 - rho_lambda).  Hess(rho) is
    the second-order perturbation of a simple eigenvalue:
    Hess_ab = l^T (M_ab + M_a S M_b + M_b S M_a) r / (l^T r), where P =
    r l^T / (l^T r) is M's Perron projector and S = (rho I - M + P)^-1 - P
    the reduced resolvent.  The derivatives in u are those of D(u); in
    lambda, M_lambda = -A_CR (lambda - A_RR)^-2 A_RC and
    M_lambdalambda = 2 A_CR (lambda - A_RR)^-3 A_RC, triangular solves
    against the Schur form; M_u,lambda = 0.  With R empty, M = F(u) and
    H is Hess(rho) in u.
    """
    split, mat, tilted = _core_terms(chain, np.asarray(data.u))
    k, c, dz = chain.rank, split.core.size, split.dz
    firsts = [_core_sum(split, tilted * dz[:, ax]) for ax in range(k)] + [np.zeros((c, c))]
    curve = np.zeros((c, c))
    if split.schur.size:
        solve = _resolvent(split)
        x = solve(data.value, split.enter)
        y = solve(data.value, x)
        mat = mat + np.real(split.leave @ x)
        firsts[k] = -np.real(split.leave @ y)
        curve = 2.0 * np.real(split.leave @ solve(data.value, y))
    hess = np.zeros((k + 1, k + 1))
    if c == 1:  # S = (rho - M + P)^-1 - P = 1 - 1 = 0: no cross term
        grad = np.array([f[0, 0] for f in firsts])  # rho_u, then rho_lambda
        hess[:k, :k] = dz.T @ (dz * tilted[:, None])
        hess[k, k] = curve[0, 0]
    else:
        rho, right, left = _perron_pair(mat)
        denom = float(left @ right)
        proj = np.outer(right, left) / denom
        l_m = np.array([left @ f for f in firsts])
        m_r = np.column_stack([f @ right for f in firsts])
        cross = l_m @ (np.linalg.solve(rho * np.eye(c) - mat + proj, m_r) - proj @ m_r)
        hess[:k, :k] = dz.T @ (dz * (tilted * np.outer(left, right).ravel()[split.slots])[:, None])
        hess[k, k] = float(left @ curve @ right)
        grad = l_m @ right / denom
        hess = (hess + cross + cross.T) / denom
    jac = np.vstack([np.eye(k), grad[:k] / (1.0 - grad[k])])
    return jac.T @ hess @ jac / (1.0 - grad[k])


@lru_cache(maxsize=16)
def minimize_lambda(chain: LatticeChain) -> PerronData:
    """Global minimum of lambda over tilts u, memoized per chain: callers share the result.

    lambda is smooth and convex in u, so damped Newton on grad lambda = 0
    from the origin homes in on the unique minimum.  Steps halve, also on
    overflow, until the Armijo decrease of |grad lambda| holds (near the
    minimum lambda moves by less than its rounding; its gradient does
    not).  Once the gradient is below the tolerance, one last full step.
    """
    u = np.zeros(chain.rank)
    data = perron(chain, u)
    for _ in range(_MIN_ROUNDS):
        g = np.asarray(data.gradient)
        if not g.any():  # also where lambda is the root of a class the tilt does not reach
            return data
        gnorm = float(np.linalg.norm(g))
        try:
            step = np.linalg.solve(lambda_hessian(chain, data), -g)
        except np.linalg.LinAlgError:
            if gnorm < _MIN_GRAD_TOL:  # lambda is flat along a direction the steps do not span
                return data
            raise ConvergenceError("singular Hessian while minimizing lambda")
        if gnorm < _MIN_GRAD_TOL:
            return perron(chain, u + step) if step.any() else data
        t = 1.0
        while True:
            try:
                trial = perron(chain, u + t * step)
                if float(np.linalg.norm(trial.gradient)) <= (1.0 - 1e-4 * t) * gnorm:
                    break
            except OverflowError:
                pass
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError(
                    f"lambda minimization stalled with gradient norm {gnorm:.3e}")
        u = u + t * step
        data = trial
    raise ConvergenceError(f"lambda minimization did not converge in {_MIN_ROUNDS} rounds")


def direction_grid(rank: int, count: int) -> list[np.ndarray]:
    """Unit probe directions in Z^rank.

    Rank 1 gives the first count of +1, -1; rank 2 gives count evenly
    spaced angles.  Higher ranks have no grid yet.
    """
    if rank not in (1, 2):
        raise ValueError(f"direction grids cover lattice ranks 1 and 2, not {rank}")
    if rank == 1:
        return [np.array([1.0]), np.array([-1.0])][:count]
    return [np.array([math.cos(2 * math.pi * i / count),
                      math.sin(2 * math.pi * i / count)])
            for i in range(count)]


@dataclass
class AssumptionReport:
    """Checks backing the level-set parametrization of escape directions."""

    submarkov: bool
    strongly_irreducible: bool
    lambda_min: float
    u_min: tuple[float, ...]
    level_set_compact: bool
    messages: list[str]

    @property
    def ok(self) -> bool:
        return (self.submarkov and self.strongly_irreducible
                and self.lambda_min < 1.0 and self.level_set_compact)


def check_assumptions(chain: LatticeChain) -> AssumptionReport:
    """Verify sub-Markov mass, irreducibility, and radial escape of lambda.

    Irreducibility asks for a primitive fiber pattern whose closed paths
    displace by all of Z^k (LatticeChain.cycle_lattice_index).

    Radial escape (lambda reaching _ESCAPE_LEVEL at some probe tilt t d,
    t in _ESCAPE_PROBES, along every grid direction d) certifies that the
    lambda = 1 level set is compact.  Whether some probe escapes does not
    depend on the order the probes are tried, so they are tried far first
    and a direction stops at its first escape: each probe level evaluates
    the directions that have not escaped yet in one batch, and a tilt whose
    exponents overflow (one product per level) escapes.  lambda is convex
    along the ray and lambda(0) <= 1 for a sub-Markov chain, so a direction
    that escapes at any probe also escapes at the farthest: it costs one
    tilt.  A nearer probe still counts where lambda(0) >= _ESCAPE_LEVEL.
    """
    msgs: list[str] = []
    sub = chain.is_strictly_submarkov
    if not sub:
        msgs.append("no fiber row has total mass strictly below 1")
    irr = chain.is_strongly_irreducible()
    if not irr:
        msgs.append("fiber support pattern is not primitive: no power of it is positive")
    elif (index := chain.cycle_lattice_index()) != 1:
        irr = False
        msgs.append(f"cycle displacements generate a subgroup of "
                    f"{f'index {index}' if index else 'infinite index'} in Z^{chain.rank}")
    mn = minimize_lambda(chain)
    if mn.value >= 1.0:
        msgs.append(f"lambda minimum {mn.value:.6f} is not below 1")
    grid = np.array(direction_grid(chain.rank, _ESCAPE_GRID))
    escaped = np.zeros(len(grid), dtype=bool)
    for t in _ESCAPE_PROBES:
        pending = np.flatnonzero(~escaped)
        if not pending.size:
            break
        tilts = t * grid[pending]
        hit = (tilts @ chain.entry_arrays[1].T > _EXP_CAP).any(axis=1)
        hit[~hit] = perron_values(chain, tilts[~hit]) >= _ESCAPE_LEVEL
        escaped[pending[hit]] = True
    for d, out in zip(grid, escaped):
        if not out:
            msgs.append(f"lambda stayed below {_ESCAPE_LEVEL} along direction {tuple(d.tolist())}")
    return AssumptionReport(submarkov=sub, strongly_irreducible=irr,
                            lambda_min=mn.value, u_min=mn.u,
                            level_set_compact=bool(escaped.all()), messages=msgs)


@dataclass
class BoundaryPointU:
    """Point on {lambda = 1} whose outward normal is a requested direction."""

    u: tuple[float, ...]
    lambda_residual: float
    angular_error: float
    gradient: tuple[float, ...]


def _ray_cross(chain: LatticeChain, u_min: np.ndarray,
               d: np.ndarray) -> tuple[np.ndarray, PerronData]:
    """Point u_min + t d with lambda = 1, by doubling then Newton.

    Along a ray from the minimizer lambda is convex and increasing, so
    Newton started beyond the crossing decreases monotonically to it, and
    the descent stops at the first step that fails to decrease t.
    Returns the point with its Perron data; each tilt on the way is
    evaluated once.
    """
    def at(t: float) -> tuple[np.ndarray, PerronData]:
        u = u_min + t * d
        return u, perron(chain, u)

    t = 1.0
    u, data = at(t)
    while data.value < 1.0:
        t *= 2.0
        if t > 1e6:
            raise ConvergenceError("no level-set crossing found along search ray")
        u, data = at(t)
    while abs(data.value - 1.0) >= 1e-14:
        cand = t - (data.value - 1.0) / float(np.asarray(data.gradient) @ d)
        # From above, Newton decreases t; a step that does not is rounding.
        done = not cand < t or abs(cand - t) < 1e-16 * max(1.0, t)
        t = cand
        u, data = at(t)
        if done:
            break
    return u, data


def _bordered_newton(chain: LatticeChain, u: np.ndarray, data: PerronData, s: float,
                     th: np.ndarray) -> tuple[np.ndarray, PerronData, float] | None:
    """Newton on grad lambda(u) = s th, lambda(u) = 1 in (u, s), or None.

    The Jacobian is [[H, -th], [grad lambda^T, 0]].  Within the acceptance
    tolerances, a step that fails to halve the last one also stops: the
    iterates then move by evaluation noise, which on nearly reducible or
    sharply curved level sets lies above the Newton stop.
    """
    last, k = math.inf, len(th)
    for _ in range(_LEVEL_ROUNDS):
        g = np.asarray(data.gradient)
        lam_res = abs(data.value - 1.0)
        ang = float(np.linalg.norm(g / np.linalg.norm(g) - th))
        if lam_res < _LEVEL_STOP_LAMBDA and ang < _LEVEL_STOP_ANGLE:
            return u, data, s
        jac = np.zeros((k + 1, k + 1))
        jac[:k, k], jac[k, :k] = -th, g
        try:
            jac[:k, :k] = lambda_hessian(chain, data)
            step = np.linalg.solve(jac, np.append(s * th - g, 1.0 - data.value))
        except np.linalg.LinAlgError:
            return None
        size = float(np.linalg.norm(step[:-1]))
        if size > 0.5 * last and lam_res <= _LEVEL_LAMBDA_TOL and ang <= _LEVEL_ANGLE_TOL:
            return u, data, s
        last = size
        try:  # a step may leave the tilts where F(u) and its derivatives are finite
            with np.errstate(over="raise", invalid="raise"):
                data = perron(chain, u + step[:-1])
        except (ArithmeticError, ValueError):
            return None
        u = u + step[:-1]
        s += float(step[-1])
    return None


def level_set_point(chain: LatticeChain, theta, seed=None) -> BoundaryPointU:
    """Solve lambda(u) = 1 with grad lambda parallel to theta.

    A seed u, such as the point of another chain with the same level set,
    starts bordered Newton at u itself; where it already meets the Newton
    stop, the solve costs one perron().  Without a seed, or where Newton
    from it fails, one path at every rank: cross the level along theta
    from the lambda minimizer, then run bordered Newton from the crossing,
    whose normal lies within a quarter turn of theta (in rank 1 it is
    theta).  Where Newton fails, the requested normal moves from the
    crossing's normal to theta in strides that halve on failure, each
    point seeding the next.
    """
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.size != chain.rank:
        raise ValueError(f"direction has dimension {th.size}, chain rank is {chain.rank}")
    nth = float(np.linalg.norm(th))
    if abs(nth - 1.0) > 1e-8:
        raise ValueError(f"direction must be a unit vector, got norm {nth}")
    th = th / nth
    mn = minimize_lambda(chain)
    if mn.value >= 1.0:
        raise AssumptionError(
            f"lambda minimum {mn.value:.6f} is not below 1; no level set to parametrize")
    found = None
    if seed is not None:
        u = _tilt_vector(chain, seed)
        data = perron(chain, u)
        found = _bordered_newton(chain, u, data, float(np.linalg.norm(data.gradient)), th)
    if found is not None:
        u, data, _ = found
    else:
        u, data = _ray_cross(chain, np.asarray(mn.u), th)
        s = float(np.linalg.norm(data.gradient))
        start = np.asarray(data.gradient) / s
        reached, stride = 0.0, 1.0
        while reached < 1.0 and stride >= _LEVEL_MIN_STRIDE:
            tau = min(reached + stride, 1.0)
            target = (1.0 - tau) * start + tau * th
            found = _bordered_newton(chain, u, data, s, target / np.linalg.norm(target))
            if found is not None:
                (u, data, s), reached = found, tau
            stride *= 0.5 if found is None else 2.0
    g = np.asarray(data.gradient)
    lam_res = abs(data.value - 1.0)
    ang = float(np.linalg.norm(g / np.linalg.norm(g) - th))
    if lam_res > _LEVEL_LAMBDA_TOL or ang > _LEVEL_ANGLE_TOL:
        raise ConvergenceError(
            f"level-set solve stalled: |lambda-1|={lam_res:.3e}, angle defect={ang:.3e}")
    return BoundaryPointU(u=tuple(u), lambda_residual=lam_res,
                          angular_error=ang, gradient=data.gradient)


def level_set_path(chain: LatticeChain, thetas, seed=None) -> list[BoundaryPointU]:
    """level_set_point at each direction of thetas in turn, each point seeding the next.

    seed, if given, seeds the first.  Nearby directions have nearby
    points, so a seeded solve is a few bordered Newton steps and no ray
    crossing; where Newton from a seed fails, level_set_point falls back
    to the unseeded solve.
    """
    points = []
    for th in thetas:
        points.append(level_set_point(chain, th, seed=seed))
        seed = points[-1].u
    return points


def limit_kernel_ratio(u, z, z_other) -> float:
    """Predicted Martin-kernel ratio exp(u.(z - z_other)) at the boundary."""
    v = np.asarray(u, dtype=float)
    dz = np.asarray(z, dtype=float) - np.asarray(z_other, dtype=float)
    return float(math.exp(float(v @ dz)))
