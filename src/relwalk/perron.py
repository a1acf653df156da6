"""Perron roots of tilted lattice chains and level-set geometry.

For a chain p on Z^k x {1..N} and a tilt u in R^k, F(u) is the N x N
matrix with entries sum_z p((0,j1) -> (z,j2)) e^(u.z).  Its Perron root
lambda(u) is smooth, log-convex, and for strictly sub-Markov strongly
irreducible chains the level set {lambda = 1} is a compact convex
hypersurface whose outward normals parametrize directions of escape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import AssumptionError, ConvergenceError
from .lattice import LatticeChain

_EXP_CAP = 700.0  # exp overflow guard on tilted entries
_DENSE_EIG_MAX = 64  # read only by the benchmark harness, to label spans by fiber count
_DESCENT_GRAD_TOL, _DESCENT_ROUNDS = 1e-10, 20_000  # minimize_lambda stopping rule
_ESCAPE_CAP, _ESCAPE_GRID, _ESCAPE_LEVEL = 20.0, 64, 2.0  # check_assumptions escape test
_LEVEL_LAMBDA_TOL, _LEVEL_ANGLE_TOL = 1e-10, 1e-8  # level_set_point: |lambda-1|, |normal-theta|


def _tilt_vector(chain: LatticeChain, u) -> np.ndarray:
    v = np.asarray(u, dtype=float).reshape(-1)
    if v.size != chain.rank:
        raise ValueError(f"tilt has dimension {v.size}, chain rank is {chain.rank}")
    return v


def _tilted_weights(chain: LatticeChain, v: np.ndarray) -> np.ndarray:
    """Per-entry tilted weights p((0,j1)->(z,j2)) exp(v.z)."""
    _, dz, w = chain.entry_arrays
    a = dz @ v
    over = np.flatnonzero(a > _EXP_CAP)
    if over.size:
        raise OverflowError(
            f"tilt {tuple(v)} overflows on displacement {chain.entries[over[0]][2]}")
    return w * np.exp(a)


def _fiber_sum(chain: LatticeChain, weights: np.ndarray) -> np.ndarray:
    """N x N matrix summing per-entry weights onto their fiber pairs."""
    n = chain.fiber_count
    flat = chain.entry_arrays[0]
    return np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)


def tilted_matrix(chain: LatticeChain, u) -> np.ndarray:
    """F(u)[j1, j2] = sum_z p((0,j1)->(z,j2)) exp(u.z)."""
    v = _tilt_vector(chain, u)
    return _fiber_sum(chain, _tilted_weights(chain, v))


@dataclass
class PerronData:
    """Perron root of F(u) with positive eigenvectors and gradient."""

    u: tuple[float, ...]
    value: float
    right: np.ndarray
    left: np.ndarray
    gradient: tuple[float, ...]
    residual: float


def perron(chain: LatticeChain, u) -> PerronData:
    """Perron root, eigenvectors, and grad lambda at tilt u.

    One eigendecomposition of F(u) gives both eigenvectors: for a
    primitive nonnegative matrix the Perron root strictly dominates every
    other eigenvalue in modulus, so the eigenvalue of largest real part is
    the root and its eigenvectors are real up to rounding; scaling them to
    unit sum also makes them positive.  The gradient uses the eigenvalue
    perturbation identity d lambda/d u_i = w^T (dF/du_i) v / (w^T v).
    """
    v = _tilt_vector(chain, u)
    tilted = _tilted_weights(chain, v)
    F = _fiber_sum(chain, tilted)
    vals, lvecs, rvecs = scipy.linalg.eig(F, left=True)
    idx = int(np.argmax(vals.real))
    lam = float(vals[idx].real)
    right = rvecs[:, idx].real
    right = right / right.sum()
    left = lvecs[:, idx].real
    left = left / left.sum()
    res = float(np.max(np.abs(F @ right - lam * right)))
    if right[0] > 0:
        right = right / right[0]
    denom = float(left @ right)
    dz = chain.entry_arrays[1]
    grad = tuple(
        float(left @ (_fiber_sum(chain, tilted * dz[:, ax]) @ right)) / denom
        for ax in range(chain.rank)
    )
    return PerronData(u=tuple(v), value=lam, right=right, left=left,
                      gradient=grad, residual=res)


def perron_value(chain: LatticeChain, u) -> float:
    return perron(chain, u).value


def minimize_lambda(chain: LatticeChain) -> PerronData:
    """Global minimum of lambda over tilts u.

    lambda is smooth and convex in u, so gradient descent with Armijo
    backtracking from the origin homes in on the unique minimum; once the
    gradient is small the function-value test loses resolution, so a
    Newton phase on grad lambda = 0 (finite-difference Hessian of the
    analytic gradient) finishes to the gradient tolerance.
    """
    u = np.zeros(chain.rank)
    data = perron(chain, u)
    step = 1.0
    for _ in range(_DESCENT_ROUNDS):
        g = np.asarray(data.gradient)
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-6:  # the Newton phase below takes over
            break
        while True:
            cand = u - step * g
            try:
                trial = perron(chain, cand)
            except OverflowError:
                step *= 0.5
                continue
            if trial.value <= data.value - 0.25 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-18:
                break
        if step < 1e-18:
            break
        u = cand
        data = trial
        step = min(step * 2.0, 1.0e6)
    else:
        raise ConvergenceError(f"lambda descent did not converge in {_DESCENT_ROUNDS} rounds")
    for _ in range(80):
        g = np.asarray(data.gradient)
        if float(np.linalg.norm(g)) < _DESCENT_GRAD_TOL:
            return data
        h = 1e-6
        H = np.zeros((chain.rank, chain.rank))
        for ax in range(chain.rank):
            dv = np.zeros(chain.rank)
            dv[ax] = h
            gp = np.asarray(perron(chain, u + dv).gradient)
            gm = np.asarray(perron(chain, u - dv).gradient)
            H[:, ax] = (gp - gm) / (2 * h)
        H = 0.5 * (H + H.T)
        try:
            delta = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Hessian while polishing the lambda minimum")
        u = u + delta
        data = perron(chain, u)
    raise ConvergenceError(
        f"lambda minimum polish stalled with gradient norm "
        f"{float(np.linalg.norm(np.asarray(data.gradient))):.3e}")


def _check_rank(rank: int) -> None:
    if rank not in (1, 2):
        raise ValueError(f"level sets are solved for lattice ranks 1 and 2, not {rank}")


def direction_grid(rank: int, count: int = 64) -> list[np.ndarray]:
    """Unit probe directions in Z^rank.

    Rank 1 gives the first count of +1, -1; rank 2 gives count evenly
    spaced angles.  Higher ranks are not supported.
    """
    _check_rank(rank)
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
    escape_radii: list[float] = field(default_factory=list)
    level_set_compact: bool = True
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.submarkov and self.strongly_irreducible
                and self.lambda_min < 1.0 and self.level_set_compact)


def _escapes(chain: LatticeChain, u: np.ndarray) -> bool:
    try:
        return perron_value(chain, u) >= _ESCAPE_LEVEL
    except OverflowError:
        return True


def check_assumptions(chain: LatticeChain) -> AssumptionReport:
    """Verify sub-Markov mass, irreducibility, and radial escape of lambda.

    Radial escape (lambda exceeding _ESCAPE_LEVEL within |u| <= _ESCAPE_CAP
    along every grid direction) certifies that the lambda = 1 level set is
    compact.
    """
    msgs: list[str] = []
    sub = chain.is_strictly_submarkov
    if not sub:
        msgs.append("no fiber row has total mass strictly below 1")
    irr = chain.is_strongly_irreducible()
    if not irr:
        msgs.append("displacement support does not reach every fiber pair with full z-lattice span")
    mn = minimize_lambda(chain)
    if mn.value >= 1.0:
        msgs.append(f"lambda minimum {mn.value:.6f} is not below 1")
    radii: list[float] = []
    compact = True
    for d in direction_grid(chain.rank, _ESCAPE_GRID):
        t = 0.5
        while t <= _ESCAPE_CAP and not _escapes(chain, t * d):
            t *= 2.0
        if t > _ESCAPE_CAP:
            compact = False
            msgs.append(f"lambda stayed below {_ESCAPE_LEVEL} along direction {tuple(d)}")
            t = math.inf
        radii.append(t)
    return AssumptionReport(submarkov=sub, strongly_irreducible=irr,
                            lambda_min=mn.value, u_min=mn.u,
                            escape_radii=radii, level_set_compact=compact,
                            messages=msgs)


@dataclass
class BoundaryPointU:
    """Point on {lambda = 1} whose outward normal is a requested direction."""

    u: tuple[float, ...]
    theta: tuple[float, ...]
    lambda_residual: float
    angular_error: float
    gradient: tuple[float, ...]


def _ray_cross(chain: LatticeChain, u_min: np.ndarray,
               d: np.ndarray) -> tuple[np.ndarray, PerronData]:
    """Point u_min + t d with lambda = 1, by doubling then guarded Newton.

    Along a ray from the minimizer, lambda is convex and increasing past
    the crossing, so Newton started at the outer bracket end decreases
    monotonically to the root; a bisection step catches any iterate the
    guard rejects.  Returns the point with its Perron data; each tilt on
    the way is evaluated once.
    """
    def at(t: float) -> tuple[np.ndarray, PerronData]:
        u = u_min + t * d
        return u, perron(chain, u)

    lo, hi = 0.0, 1.0
    u, data = at(hi)
    while data.value < 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("no level-set crossing found along search ray")
        u, data = at(hi)
    t = hi
    for _ in range(200):
        f = data.value - 1.0
        if abs(f) < 1e-14:
            break
        if f < 0:
            lo = t
        else:
            hi = t
        df = float(np.asarray(data.gradient) @ d)
        cand = t - f / df if df > 0 else lo
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        settled = abs(cand - t) < 1e-16 * max(1.0, t)
        t = cand
        u, data = at(t)
        if settled:
            break
    return u, data


def _normal_angle_point_2d(chain: LatticeChain, u_min: np.ndarray,
                           th: np.ndarray) -> tuple[np.ndarray, PerronData]:
    """Rank-2 level-set point whose outward normal is th, by angle bisection.

    On a strictly convex compact level curve the outward normal rotates
    monotonically with the ray angle from an interior point, and the
    crossing normal stays within a quarter turn of the ray, so the normal
    angle defect brackets over [target - pi/2, target + pi/2].
    """
    target = math.atan2(th[1], th[0])

    def defect(phi: float) -> tuple[float, tuple[np.ndarray, PerronData]]:
        point = _ray_cross(chain, u_min, np.array([math.cos(phi), math.sin(phi)]))
        g = point[1].gradient
        return math.remainder(math.atan2(g[1], g[0]) - target, math.tau), point

    lo = target - 0.5 * math.pi + 1e-9
    hi = target + 0.5 * math.pi - 1e-9
    flo, point_lo = defect(lo)
    fhi, point_hi = defect(hi)
    if flo > 0 or fhi < 0:
        raise ConvergenceError(
            f"normal-angle defect does not change sign around direction {tuple(th)}")
    if abs(flo) < 1e-12:
        return point_lo
    if abs(fhi) < 1e-12:
        return point_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid, point = defect(mid)
        if abs(fmid) < 1e-12 or hi - lo < 1e-12:
            break
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return point


def level_set_point(chain: LatticeChain, theta,
                    minimum: PerronData | None = None) -> BoundaryPointU:
    """Solve lambda(u) = 1 with grad lambda parallel to theta.

    Supporting-point search on the convex level set: rank 1 crosses the
    level along theta from the lambda minimizer, rank 2 bisects on the
    normal angle; higher ranks are not supported.  Passing the precomputed
    lambda minimum skips redoing that solve on repeated calls.
    """
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.size != chain.rank:
        raise ValueError(f"direction has dimension {th.size}, chain rank is {chain.rank}")
    _check_rank(chain.rank)
    nth = float(np.linalg.norm(th))
    if abs(nth - 1.0) > 1e-8:
        raise ValueError(f"direction must be a unit vector, got norm {nth}")
    th = th / nth
    mn = minimize_lambda(chain) if minimum is None else minimum
    if mn.value >= 1.0:
        raise AssumptionError(
            f"lambda minimum {mn.value:.6f} is not below 1; no level set to parametrize")
    u_min = np.asarray(mn.u)
    if chain.rank == 1:
        u, data = _ray_cross(chain, u_min, th)
    else:
        u, data = _normal_angle_point_2d(chain, u_min, th)
    g = np.asarray(data.gradient)
    lam_res = abs(data.value - 1.0)
    ang = float(np.linalg.norm(g / np.linalg.norm(g) - th))
    if lam_res > _LEVEL_LAMBDA_TOL or ang > _LEVEL_ANGLE_TOL:
        raise ConvergenceError(
            f"level-set solve stalled: |lambda-1|={lam_res:.3e}, angle defect={ang:.3e}")
    return BoundaryPointU(u=tuple(u), theta=tuple(th), lambda_residual=lam_res,
                          angular_error=ang, gradient=data.gradient)


def limit_kernel_ratio(u, z, z_other) -> float:
    """Predicted Martin-kernel ratio exp(u.(z - z_other)) at the boundary."""
    v = np.asarray(u, dtype=float)
    dz = np.asarray(z, dtype=float) - np.asarray(z_other, dtype=float)
    return float(math.exp(float(v @ dz)))
