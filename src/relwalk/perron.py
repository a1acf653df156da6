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

from .errors import AssumptionError, ConvergenceError
from .lattice import LatticeChain

_EXP_CAP = 700.0  # exp overflow guard on tilted entries
_POWER_TOL = 1e-12
_POWER_ROUNDS = 200_000
_DENSE_EIG_MAX = 64  # fiber count up to which a full eigendecomposition wins


def _tilt_vector(chain: LatticeChain, u) -> np.ndarray:
    v = np.asarray(u, dtype=float).reshape(-1)
    if v.size != chain.rank:
        raise ValueError(f"tilt has dimension {v.size}, chain rank is {chain.rank}")
    return v


def tilted_matrix(chain: LatticeChain, u) -> np.ndarray:
    """F(u)[j1, j2] = sum_z p((0,j1)->(z,j2)) exp(u.z)."""
    v = _tilt_vector(chain, u)
    n = chain.fiber_count
    out = np.zeros((n, n))
    for j1, j2, dz, w in chain.entries:
        a = float(np.dot(v, dz))
        if a > _EXP_CAP:
            raise OverflowError(f"tilt {tuple(v)} overflows on displacement {dz}")
        out[j1, j2] += w * math.exp(a)
    return out


def tilted_matrix_gradient(chain: LatticeChain, u, axis: int) -> np.ndarray:
    """Entrywise derivative of tilted_matrix in u[axis]."""
    v = _tilt_vector(chain, u)
    n = chain.fiber_count
    out = np.zeros((n, n))
    for j1, j2, dz, w in chain.entries:
        if dz[axis] == 0:
            continue
        out[j1, j2] += w * dz[axis] * math.exp(float(np.dot(v, dz)))
    return out


@dataclass
class PerronData:
    """Perron root of F(u) with positive eigenvectors and gradient."""

    u: tuple[float, ...]
    value: float
    right: np.ndarray
    left: np.ndarray
    gradient: tuple[float, ...]
    residual: float


def _dense_perron(F: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Perron root and eigenvectors from a full eigendecomposition.

    For a primitive nonnegative matrix the Perron root strictly dominates
    every other eigenvalue in modulus, so the eigenvalue of largest real
    part is the root and its eigenvector is real up to rounding.
    """
    vals, vecs = np.linalg.eig(F)
    idx = int(np.argmax(vals.real))
    lam = float(vals[idx].real)
    right = vecs[:, idx].real
    if right.sum() < 0:
        right = -right
    right = right / right.sum()
    lvals, lvecs = np.linalg.eig(F.T)
    lidx = int(np.argmax(lvals.real))
    left = lvecs[:, lidx].real
    if left.sum() < 0:
        left = -left
    left = left / left.sum()
    res = float(np.max(np.abs(F @ right - lam * right)))
    return lam, right, left, res


def perron(chain: LatticeChain, u) -> PerronData:
    """Perron root, eigenvectors, and grad lambda at tilt u.

    Small fiber counts go through a dense eigendecomposition; larger ones
    use power iteration on F(u) + I (the shift keeps the iteration
    primitive without moving eigenvectors; the root is shifted back).
    The gradient uses the eigenvalue perturbation identity
    d lambda/d u_i = w^T (dF/du_i) v / (w^T v).
    """
    v = _tilt_vector(chain, u)
    F = tilted_matrix(chain, v)
    n = F.shape[0]
    if n <= _DENSE_EIG_MAX:
        lam, right, left, res = _dense_perron(F)
    else:
        shifted = F + np.eye(n)
        right = np.full(n, 1.0 / n)
        left = np.full(n, 1.0 / n)
        lam = 0.0
        for _ in range(_POWER_ROUNDS):
            right = shifted @ right
            right /= right.sum()
            left = shifted.T @ left
            left /= left.sum()
            lam = float(right @ (F @ right)) / float(right @ right)
            res = float(np.max(np.abs(F @ right - lam * right)))
            if res < _POWER_TOL * max(1.0, abs(lam)):
                break
        else:
            raise ConvergenceError(
                f"power iteration did not reach residual {_POWER_TOL} at u={tuple(v)}")
    if right[0] > 0:
        right = right / right[0]
    denom = float(left @ right)
    grad = tuple(
        float(left @ (tilted_matrix_gradient(chain, v, ax) @ right)) / denom
        for ax in range(chain.rank)
    )
    return PerronData(u=tuple(v), value=lam, right=right, left=left,
                      gradient=grad, residual=res)


def perron_value(chain: LatticeChain, u) -> float:
    return perron(chain, u).value


def minimize_lambda(chain: LatticeChain, start=None, grad_tol: float = 1e-10,
                    max_rounds: int = 20_000) -> PerronData:
    """Global minimum of lambda over tilts u.

    lambda is smooth and convex in u, so gradient descent with Armijo
    backtracking from the origin homes in on the unique minimum; once the
    gradient is small the function-value test loses resolution, so a
    Newton phase on grad lambda = 0 (finite-difference Hessian of the
    analytic gradient) finishes to grad_tol.
    """
    u = np.zeros(chain.rank) if start is None else _tilt_vector(chain, start)
    data = perron(chain, u)
    step = 1.0
    for _ in range(max_rounds):
        g = np.asarray(data.gradient)
        gnorm = float(np.linalg.norm(g))
        if gnorm < max(1e-6, grad_tol):
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
        raise ConvergenceError(f"lambda descent did not converge in {max_rounds} rounds")
    for _ in range(80):
        g = np.asarray(data.gradient)
        if float(np.linalg.norm(g)) < grad_tol:
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


def direction_grid(rank: int, count: int = 64) -> list[np.ndarray]:
    """Unit probe directions in Z^rank.

    Rank 1 gives the first count of +1, -1; rank 2 gives count evenly
    spaced angles; higher ranks give the signed axes and diagonals.
    """
    if rank == 1:
        return [np.array([1.0]), np.array([-1.0])][:count]
    if rank == 2:
        return [np.array([math.cos(2 * math.pi * i / count),
                          math.sin(2 * math.pi * i / count)])
                for i in range(count)]
    dirs = []
    for ax in range(rank):
        for sgn in (1.0, -1.0):
            d = np.zeros(rank)
            d[ax] = sgn
            dirs.append(d)
    for signs in range(1 << rank):
        d = np.array([1.0 if signs & (1 << ax) else -1.0 for ax in range(rank)])
        dirs.append(d / np.linalg.norm(d))
    return dirs


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


def check_assumptions(chain: LatticeChain, escape_cap: float = 20.0,
                      grid: int = 64, escape_level: float = 2.0) -> AssumptionReport:
    """Verify sub-Markov mass, irreducibility, and radial escape of lambda.

    Radial escape (lambda exceeding escape_level within |u| <= escape_cap in
    every direction) certifies that the lambda = 1 level set is compact.
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
    for d in direction_grid(chain.rank, grid):
        t = 0.5
        escaped = False
        while t <= escape_cap:
            try:
                if perron_value(chain, t * d) >= escape_level:
                    escaped = True
                    break
            except OverflowError:
                escaped = True
                break
            t *= 2.0
        if not escaped:
            compact = False
            msgs.append(f"lambda stayed below {escape_level} along direction {tuple(d)}")
            radii.append(math.inf)
        else:
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


def _orthonormal_complement(theta: np.ndarray) -> np.ndarray:
    """Rows span theta's orthogonal complement."""
    k = theta.size
    basis = np.eye(k)
    cols = [theta]
    for b in basis:
        w = b - sum((b @ c) * c for c in cols)
        nw = np.linalg.norm(w)
        if nw > 1e-12:
            cols.append(w / nw)
    if len(cols) == 1:
        return np.zeros((0, k))
    return np.array(cols[1:])


def _ray_cross(chain: LatticeChain, u_min: np.ndarray, d: np.ndarray) -> float:
    """Scale t with lambda(u_min + t d) = 1, by doubling then guarded Newton.

    Along a ray from the minimizer, lambda is convex and increasing past
    the crossing, so Newton started at the outer bracket end decreases
    monotonically to the root; a bisection step catches any iterate the
    guard rejects.
    """
    lo, hi = 0.0, 1.0
    while perron_value(chain, u_min + hi * d) < 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("no level-set crossing found along search ray")
    t = hi
    for _ in range(200):
        data = perron(chain, u_min + t * d)
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
        if abs(cand - t) < 1e-16 * max(1.0, t):
            t = cand
            break
        t = cand
    return t


def _normal_angle_point_2d(chain: LatticeChain, u_min: np.ndarray,
                           th: np.ndarray) -> np.ndarray | None:
    """Rank-2 level-set point whose outward normal is th, by angle bisection.

    On a strictly convex compact level curve the outward normal rotates
    monotonically with the ray angle from an interior point, and the
    crossing normal stays within a quarter turn of the ray, so the normal
    angle defect brackets over [target - pi/2, target + pi/2].  Returns
    None when the bracket fails so the caller can fall back to the walk.
    """
    target = math.atan2(th[1], th[0])

    def defect(phi: float) -> tuple[float, np.ndarray]:
        d = np.array([math.cos(phi), math.sin(phi)])
        t = _ray_cross(chain, u_min, d)
        u = u_min + t * d
        g = np.asarray(perron(chain, u).gradient)
        return math.remainder(math.atan2(g[1], g[0]) - target, math.tau), u

    lo = target - 0.5 * math.pi + 1e-9
    hi = target + 0.5 * math.pi - 1e-9
    flo, ulo = defect(lo)
    fhi, uhi = defect(hi)
    if flo > 0 or fhi < 0:
        return None
    if abs(flo) < 1e-12:
        return ulo
    if abs(fhi) < 1e-12:
        return uhi
    u = ulo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid, u = defect(mid)
        if abs(fmid) < 1e-12 or hi - lo < 1e-12:
            break
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return u


def level_set_point(chain: LatticeChain, theta,
                    lambda_tol: float = 1e-10, angle_tol: float = 1e-8,
                    max_rounds: int = 500,
                    minimum: PerronData | None = None) -> BoundaryPointU:
    """Solve lambda(u) = 1 with grad lambda parallel to theta.

    Supporting-point search on the convex level set: rank 1 crosses the
    level directly, rank 2 bisects on the normal angle, higher ranks walk
    the set in the tangent direction increasing theta.u (each step
    re-projected by a radial crossing from the lambda minimizer).  All
    paths finish with Newton on the square system
    [lambda - 1; tangential gradient defect].  Passing the precomputed
    lambda minimum skips redoing that solve on repeated calls.
    """
    th = np.asarray(theta, dtype=float).reshape(-1)
    if th.size != chain.rank:
        raise ValueError(f"direction has dimension {th.size}, chain rank is {chain.rank}")
    nth = float(np.linalg.norm(th))
    if abs(nth - 1.0) > 1e-8:
        raise ValueError(f"direction must be a unit vector, got norm {nth}")
    th = th / nth
    mn = minimize_lambda(chain) if minimum is None else minimum
    if mn.value >= 1.0:
        raise AssumptionError(
            f"lambda minimum {mn.value:.6f} is not below 1; no level set to parametrize")
    u_min = np.asarray(mn.u)
    u: np.ndarray | None = None
    if chain.rank == 2:
        u = _normal_angle_point_2d(chain, u_min, th)
    bisected = u is not None
    if u is None:
        t = _ray_cross(chain, u_min, th)
        u = u_min + t * th
    comp = _orthonormal_complement(th)

    def residual(vec: np.ndarray) -> tuple[np.ndarray, PerronData]:
        data = perron(chain, vec)
        g = np.asarray(data.gradient)
        gn = g / np.linalg.norm(g)
        parts = [data.value - 1.0]
        parts.extend(comp @ (gn - th))
        return np.array(parts), data

    # Tangential walk: robust global phase when the bisection did not run.
    if chain.rank > 1 and not bisected:
        for _ in range(max_rounds):
            data = perron(chain, u)
            g = np.asarray(data.gradient)
            gn = g / np.linalg.norm(g)
            tangent = th - (th @ gn) * gn
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < 1e-6:
                break
            step = min(0.5, tnorm)
            cand_dir = u + step * tangent - u_min
            cand_dir /= np.linalg.norm(cand_dir)
            t = _ray_cross(chain, u_min, cand_dir)
            u = u_min + t * cand_dir

    # Newton polish with finite-difference Jacobian of the residual.
    res, data = residual(u)
    for _ in range(60):
        if abs(res[0]) < lambda_tol and np.linalg.norm(res[1:]) < angle_tol:
            break
        h = 1e-7
        J = np.zeros((chain.rank, chain.rank))
        for ax in range(chain.rank):
            dv = np.zeros(chain.rank)
            dv[ax] = h
            rp, _ = residual(u + dv)
            J[:, ax] = (rp - res) / h
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Newton system on the level set")
        scale = 1.0
        for _ in range(40):
            cand = u + scale * delta
            cres, cdata = residual(cand)
            if np.linalg.norm(cres) < np.linalg.norm(res):
                u, res, data = cand, cres, cdata
                break
            scale *= 0.5
        else:
            break
    if abs(res[0]) > lambda_tol or np.linalg.norm(res[1:]) > angle_tol:
        raise ConvergenceError(
            f"level-set solve stalled: |lambda-1|={abs(res[0]):.3e}, "
            f"angle defect={np.linalg.norm(res[1:]):.3e}")
    g = np.asarray(data.gradient)
    ang = float(np.linalg.norm(g / np.linalg.norm(g) - th))
    return BoundaryPointU(u=tuple(u), theta=tuple(th),
                          lambda_residual=abs(res[0]), angular_error=ang,
                          gradient=data.gradient)


def limit_kernel_ratio(u, z, z_other) -> float:
    """Predicted Martin-kernel ratio exp(u.(z - z_other)) at the boundary."""
    v = np.asarray(u, dtype=float)
    dz = np.asarray(z, dtype=float) - np.asarray(z_other, dtype=float)
    return float(math.exp(float(v @ dz)))
