"""Tilted Perron roots, lambda minimization, and level-set inversion."""
import json
import math

import numpy as np
import pytest
import scipy.linalg

import relwalk.cli as cli
import relwalk.perron as perron_module
from relwalk import (FreeProductEngine, LatticeChain, check_assumptions,
                     induce_first_return, level_set_point, limit_kernel_ratio,
                     load_config, minimize_lambda)
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import ConvergenceError
from relwalk.perron import direction_grid, lambda_hessian, perron, perron_values

from conftest import count_calls, count_tilts, perron_residual, tilted_matrix

import oracles


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
            assert abs(perron(c, (u,)).value - 0.4 * math.cosh(u)) < 1e-12


def test_minimum_and_gradient_of_symmetric_walk():
    c = killed_z(0.2)
    mn = minimize_lambda(c)
    assert abs(mn.value - 0.4) < 1e-12
    assert abs(mn.u[0]) < 1e-6
    for chain in (c, fibered_z(0.2)):
        d = perron(chain, (0.7,))
        assert abs(d.gradient[0] - 0.4 * math.sinh(0.7)) < 1e-10
        assert perron_residual(chain, d) < 1e-10


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
        lo = math.sqrt(perron(f2a_chain, tuple(u0)).value *
                       perron(f2a_chain, tuple(u1)).value)
        assert perron(f2a_chain, tuple(mid)).value <= lo + 1e-12


def test_free_group_induced_chain_minimum_and_levels(f2a_chain):
    mn = minimize_lambda(f2a_chain)
    assert abs(mn.value - 2.0 / 3.0) < 1e-9
    up = level_set_point(f2a_chain, (1.0,))
    un = level_set_point(f2a_chain, (-1.0,))
    assert abs(up.u[0] - math.log(3.0)) < 1e-9
    assert abs(un.u[0] + math.log(3.0)) < 1e-9


def test_level_set_rejects_bad_directions(f2a_chain):
    with pytest.raises(ValueError):
        level_set_point(f2a_chain, (0.0,))
    with pytest.raises(ValueError):
        level_set_point(f2a_chain, (1.0, 0.0))


def test_rank_three_level_points_match_the_cosh_closed_form():
    # lambda(u) = 0.2 sum_i cosh u_i, so the level set is sum_i cosh u_i = 5
    # and its normal at u is parallel to (sinh u_i).
    cube = LatticeChain.build(3, 1, [(0, 0, dz, 0.1) for dz in
                                     ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                      (0, -1, 0), (0, 0, 1), (0, 0, -1))])
    axis = level_set_point(cube, (1.0, 0.0, 0.0))
    assert np.max(np.abs(np.array(axis.u) - (math.acosh(3.0), 0.0, 0.0))) < 1e-10
    diagonal = level_set_point(cube, (1.0 / math.sqrt(3.0),) * 3)
    assert np.max(np.abs(np.array(diagonal.u) - math.log(3.0))) < 1e-10
    # The stages still have direction grids for ranks 1 and 2 only.
    with pytest.raises(ValueError):
        direction_grid(3, 8)


def test_assumption_report_for_induced_rank_two_chain(z2_chain_eta2):
    rep = check_assumptions(z2_chain_eta2)
    assert rep.ok
    assert rep.submarkov and rep.strongly_irreducible
    assert abs(rep.lambda_min - 0.8869412512011429) < 1e-9
    assert rep.level_set_compact


def test_rank_two_level_points_have_requested_normals(z2_chain_eta2):
    for ang in (0.0, 0.9, 2.2, -2.8):
        th = (math.cos(ang), math.sin(ang))
        bp = level_set_point(z2_chain_eta2, th)
        g = np.asarray(bp.gradient)
        n = g / np.linalg.norm(g)
        assert bp.angular_error < 1e-8
        assert abs(n[0] - th[0]) < 1e-7 and abs(n[1] - th[1]) < 1e-7
        assert abs(perron(z2_chain_eta2, bp.u).value - 1.0) < 1e-9


def sharp_cornered_chain() -> LatticeChain:
    """Two fibers drifting along different axes, coupled with weight 1e-5.

    The level set has sharply curved corners, where Newton from the ray
    crossing alone does not converge.
    """
    return LatticeChain.build(2, 2, [
        (0, 0, (1, 0), 0.3), (0, 0, (-1, 0), 0.1), (0, 0, (0, 1), 0.02), (0, 0, (0, -1), 0.02),
        (1, 1, (0, 1), 0.3), (1, 1, (0, -1), 0.1), (1, 1, (1, 0), 0.02), (1, 1, (-1, 0), 0.02),
        (0, 1, (0, 0), 1e-5), (1, 0, (0, 0), 1e-5)])


def test_level_points_at_sharp_corners_of_a_nearly_reducible_chain():
    c = sharp_cornered_chain()
    for th in direction_grid(2, 16):
        bp = level_set_point(c, th)
        assert bp.angular_error < 1e-8 and bp.lambda_residual < 1e-10


def test_precomputed_minimum_changes_nothing(z2_chain_eta0):
    """A level point read off the memoized lambda minimum equals one that
    minimizes afresh, bit for bit."""
    th = (math.cos(0.6), math.sin(0.6))
    minimize_lambda.cache_clear()
    a = level_set_point(z2_chain_eta0, th)
    b = level_set_point(z2_chain_eta0, th)
    assert minimize_lambda.cache_info().misses == 1
    assert a.u == b.u and a.gradient == b.gradient


def test_hessian_matches_closed_forms():
    for c in (killed_z(0.2), fibered_z(0.2)):
        for u in (-1.5, 0.0, 0.8):
            H = lambda_hessian(c, perron(c, (u,)))
            assert abs(H[0, 0] - 0.4 * math.cosh(u)) < 1e-10
    c = drifted_z(0.3, 0.1)
    for u in (-1.0, 0.2, 1.3):
        data = perron(c, (u,))
        assert abs(lambda_hessian(c, data)[0, 0] - data.value) < 1e-10


def test_hessian_matches_differences_of_the_gradient(z2_chain_eta2):
    h = 1e-5
    for u in ((0.0, 0.0), (0.4, -0.3), (-0.6, 0.5)):
        H = lambda_hessian(z2_chain_eta2, perron(z2_chain_eta2, u))
        fd = np.zeros((2, 2))
        for ax in range(2):
            du = np.zeros(2)
            du[ax] = h
            up = np.asarray(perron(z2_chain_eta2, np.add(u, du)).gradient)
            dn = np.asarray(perron(z2_chain_eta2, np.subtract(u, du)).gradient)
            fd[:, ax] = (up - dn) / (2 * h)
        assert np.linalg.norm(H - fd) < 1e-7 * np.linalg.norm(fd)


def test_level_set_grid_evaluation_count(z2_chain_eta0, monkeypatch):
    # The module's own name is patched to count the evaluations its solvers make.
    calls = count_calls(monkeypatch, perron_module, "perron")
    for th in direction_grid(2, 64):
        level_set_point(z2_chain_eta0, th)
    assert calls[0] < 2000


def test_escape_test_makes_one_solve_per_direction(z2_chain_eta2, monkeypatch):
    # Every direction of the compact eta-2 level set escapes at its far
    # probe, which reads lambda alone; perron() runs only in the minimizer.
    pairs = count_calls(monkeypatch, perron_module, "perron")
    values = count_tilts(monkeypatch, perron_module, "perron_values")
    minimize_lambda.cache_clear()
    assert check_assumptions(z2_chain_eta2).level_set_compact
    assert values[0] == 64
    check_calls, pairs[0] = pairs[0], 0
    minimize_lambda.cache_clear()
    minimize_lambda(z2_chain_eta2)
    assert check_calls == pairs[0]


def test_lambda_surface_reads_eigenpairs_only_in_the_minimizer(tmp_path, monkeypatch):
    # The grid and the escape probes read lambda alone.
    entries = [list(e) for e in sharp_cornered_chain().entries]
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"name": "plane", "chain": {
        "rank": 2, "fibers": 2, "entries": entries},
        "tolerances": {"lambda_grid_points": 5}}))
    ctx = cli.RunContext(load_config(str(path)), str(tmp_path / "out"))
    pairs = count_calls(monkeypatch, perron_module, "perron")
    values = count_tilts(monkeypatch, cli, "perron_values")
    minimize_lambda.cache_clear()
    assert cli.stage_lambda_surface(ctx)["status"] == "ok"
    assert values[0] == 25
    stage_calls, pairs[0] = pairs[0], 0
    minimize_lambda.cache_clear()
    minimize_lambda(ctx.cfg.chain)
    assert stage_calls == pairs[0]


def random_plane_chain(rng, degenerate: bool, heavy: bool) -> LatticeChain:
    """Seeded rank-2 chain on 1-3 fibers; every fiber steps to the next.

    degenerate puts every displacement on one line through the origin;
    heavy scales the row masses above 1.
    """
    n = int(rng.integers(1, 4))
    line = (int(rng.integers(1, 3)), int(rng.integers(-2, 3)))

    def shift():
        if degenerate:
            m = int(rng.integers(-2, 3))
            return (m * line[0], m * line[1])
        return tuple(int(c) for c in rng.integers(-2, 3, size=2))

    entries = [(j, (j + 1) % n, shift(), float(rng.uniform(0.01, 0.3))) for j in range(n)]
    entries += [(int(rng.integers(n)), int(rng.integers(n)), shift(),
                 float(rng.uniform(0.001, 0.3))) for _ in range(int(rng.integers(2, 7)))]
    mass = max(sum(w for j1, _, _, w in entries if j1 == j) for j in range(n))
    scale = float(rng.uniform(1.2, 3.0) if heavy else rng.uniform(0.1, 1.0)) / mass
    return LatticeChain.build(2, n, [(j1, j2, dz, w * scale) for j1, j2, dz, w in entries])


def test_escape_test_matches_the_upward_probe_loop(monkeypatch):
    """Per-direction escapes equal an upward walk over t = 0.5, 1, ..., 16."""
    # The escape test does not use the minimizer, whose Hessian is singular
    # on a degenerate displacement span; a stub keeps the report going.
    monkeypatch.setattr(perron_module, "minimize_lambda", lambda c: perron(c, (0.0, 0.0)))
    rng = np.random.default_rng(20171130)
    counts = [0, 0]
    for i in range(36):
        chain = random_plane_chain(rng, degenerate=i % 3 == 1, heavy=i % 3 == 2)
        expected = []
        for d in direction_grid(2, 64):
            t = 0.5
            while t <= 20.0:
                try:
                    if perron(chain, t * d).value >= 2.0:
                        break
                except OverflowError:
                    break
                t *= 2.0
            if t > 20.0:
                expected.append(f"lambda stayed below 2.0 along direction {tuple(d.tolist())}")
            counts[t > 20.0] += 1
        rep = check_assumptions(chain)
        assert [m for m in rep.messages if m.startswith("lambda stayed")] == expected
        assert rep.level_set_compact == (not expected)
    assert min(counts) > 100  # both outcomes are well represented


def test_value_path_matches_the_eigenpair_path(z2_chain_eta2):
    rng = np.random.default_rng(11)
    cases = [(killed_z(0.2), (u,)) for u in (-1.3, 0.0, 0.7)]
    cases += [(z2_chain_eta2, u) for u in ((0.0, 0.0), (0.3, -0.2), (-1.1, 0.8))]
    for i in range(12):
        chain = random_plane_chain(rng, degenerate=i % 3 == 1, heavy=i % 3 == 2)
        cases.append((chain, tuple(rng.uniform(-2.0, 2.0, size=2))))
    for chain, u in cases:
        ref = perron(chain, u).value
        assert abs(perron_values(chain, [u])[0] - ref) <= 1e-13 * abs(ref)
    far = LatticeChain.build(1, 1, [(0, 0, (300,), 0.2), (0, 0, (-300,), 0.2)])
    with pytest.raises(OverflowError, match=r"tilt \(-2\.5,\) overflows"):
        perron(far, (-2.5,))
    with pytest.raises(OverflowError, match=r"tilt \(-2\.5,\) overflows"):
        perron_values(far, [(0.5,), (-2.5,), (3.0,)])
    dominated = core_test_chains()["dominated"]  # its rest R is not empty
    first = r"tilt \(0\.0, -900\.0\) overflows on displacement \(0, -1\)"
    with pytest.raises(OverflowError, match=first):
        perron_values(dominated, [(0.1, 0.2), (0.0, -900.0), (800.0, 0.0)])


def test_limit_kernel_ratio_formula():
    assert limit_kernel_ratio((math.log(3.0),), (2,), (1,)) == pytest.approx(3.0)
    assert limit_kernel_ratio((0.5, -0.5), (1, 1), (0, 0)) == pytest.approx(1.0)


def test_tilted_matrix_entries_are_weighted_exponentials(z2_chain_eta2):
    # perron(c, u) is the Perron root of F(u)[j1, j2] = sum_z p((0,j1)->(z,j2)) e^(u.z),
    # built here entry by entry.  Here lambda(u)^2 = 0.06 e^u, so d lambda/du = lambda / 2.
    c = LatticeChain.build(1, 2, [(0, 1, (2,), 0.3), (1, 0, (-1,), 0.2)])
    data = perron(c, (0.5,))
    assert data.value == pytest.approx(math.sqrt(0.3 * math.exp(1.0) * 0.2 * math.exp(-0.5)))
    assert data.gradient[0] == pytest.approx(0.5 * data.value, rel=1e-14)
    u = np.array([0.3, -0.2])
    ref = np.zeros((z2_chain_eta2.fiber_count,) * 2)
    for j1, j2, dz, w in z2_chain_eta2.entries:
        ref[j1, j2] += w * math.exp(float(u @ dz))
    data = perron(z2_chain_eta2, u)
    assert data.value == pytest.approx(max(np.linalg.eigvals(ref).real), rel=1e-13)


def dense_perron_root(chain: LatticeChain, u) -> float:
    """Largest real part of the eigenvalues of F(u), built entry by entry."""
    return float(max(np.linalg.eigvals(tilted_matrix(chain, u)).real))


def write_chain_config(path, chain: LatticeChain, grid_points: int) -> str:
    path.write_text(json.dumps({"name": "chain", "chain": {
        "rank": chain.rank, "fibers": chain.fiber_count,
        "entries": [[j1, j2, list(dz), w] for j1, j2, dz, w in chain.entries]},
        "tolerances": {"lambda_grid_points": grid_points}}))
    return str(path)


def induced_chain(directory, config: dict, eta: int) -> LatticeChain:
    path = directory / f"{config['name']}.json"
    path.write_text(json.dumps(config))
    cfg = load_config(str(path))
    return induce_first_return(FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius),
                               factor=0, eta=eta, state_cap=cfg.state_cap)


@pytest.fixture(scope="module")
def finite_part_chain(tmp_path_factory):
    """(Z^2 x Z/2) * Z at eta 2: 30 fibers, two of them in the tilt core."""
    config = {"name": "z2_c2", "radius": 6, "parabolic": [0], "eta_list": [2],
              "measure": {"kind": "uniform", "lazy": True},
              "group": {"factors": [
                  {"rank": 2, "lattice_names": ["a", "b"], "table": [[0, 1], [1, 0]],
                   "finite_names": ["s"]},
                  {"rank": 1, "lattice_names": ["t"]}]}}
    return induced_chain(tmp_path_factory.mktemp("c2"), config, 2)


def core_test_chains():
    """Synthetic chains that stress the tilt-core split, by name."""
    steps = [((1, 0), 0.05), ((-1, 0), 0.05), ((0, 1), 0.05), ((0, -1), 0.05)]
    core = [(0, 0, dz, w) for dz, w in steps]
    # A_RR = 0.3 I + 0.6 N on fibers 1..n, entered at one end and left at
    # the other; listed downward, it is lower triangular.  At order 40 the
    # start of the core Newton needs its halving bracket: from the row-sum
    # bound alone the complement overflows next to rho(A_RR).
    jordan = {}
    for n, suffix in ((12, ""), (40, "40")):
        for name, order in ((f"jordan{suffix}", list(range(1, n + 1))),
                            (f"jordan{suffix}_down", list(range(n, 0, -1)))):
            entries = core + [(0, order[0], (0, 0), 0.2), (order[-1], 0, (0, 0), 0.3)]
            entries += [(j, j, (0, 0), 0.3) for j in order]
            entries += [(a, b, (0, 0), 0.6) for a, b in zip(order, order[1:])]
            jordan[name] = LatticeChain.build(2, n + 1, entries)
    # Fibers 1, 2 form a class of Perron root 0.45 that C cannot reach;
    # fiber 3 couples to C both ways.
    dominated = LatticeChain.build(2, 4, core + [
        (1, 2, (0, 0), 0.45), (2, 1, (0, 0), 0.45), (1, 0, (0, 0), 0.05),
        (0, 3, (0, 0), 0.1), (3, 0, (0, 0), 0.1), (3, 3, (0, 0), 0.2)])
    untilted = LatticeChain.build(2, 3, [
        (0, 1, (0, 0), 0.3), (1, 2, (0, 0), 0.4), (2, 0, (0, 0), 0.5), (1, 1, (0, 0), 0.1)])
    return {**jordan, "dominated": dominated, "untilted": untilted}


def test_core_path_matches_dense_eigenvalues(z2_chain_eta0, z2_chain_eta2, seeded_eta4_chain,
                                             finite_part_chain):
    chains = {"eta0": z2_chain_eta0, "eta2": z2_chain_eta2, "eta4": seeded_eta4_chain,
              "finite_part": finite_part_chain, **core_test_chains()}
    split = {name: c.tilt_core for name, c in chains.items()}
    assert [split[n].core.size for n in ("eta0", "eta2", "eta4", "finite_part")] == [1, 1, 1, 2]
    assert [split[n].schur.shape[0] for n in ("eta0", "eta2", "eta4", "finite_part")] == [0, 12, 232, 28]
    assert split["untilted"].core.tolist() == [0, 1, 2]
    rng = np.random.default_rng(1989)
    tilts = np.vstack([np.zeros((1, 2)), rng.uniform(-2.0, 2.0, size=(15, 2))])
    for name, chain in chains.items():
        got = perron_values(chain, tilts)
        ref = np.array([dense_perron_root(chain, u) for u in tilts])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref), name
    # The dominated chain's class {1, 2} sets lambda near u = 0, the core far out.
    dominated = perron_values(chains["dominated"], [(0.0, 0.0), (3.0, 3.0)])
    assert dominated[0] == pytest.approx(0.45, rel=1e-15) and dominated[1] > 1.0


def cycle_rest_chain() -> LatticeChain:
    """Fiber 0 steps in the plane; its rest 1 -> 2 -> 3 -> 1 has complex eigenvalues."""
    steps = [(0, 0, dz, 0.05) for dz in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    return LatticeChain.build(2, 4, steps + [
        (0, 1, (0, 0), 0.2), (1, 2, (0, 0), 0.5), (2, 3, (0, 0), 0.5), (3, 1, (0, 0), 0.5),
        (3, 0, (0, 0), 0.3)])


def dense_derivatives(chain: LatticeChain, u) -> tuple[float, np.ndarray, np.ndarray]:
    """lambda, its gradient and its Hessian from one dense eigendecomposition of
    F(u) and the N x N second-order perturbation of its Perron root, with F and
    its derivatives built entry by entry."""
    F = tilted_matrix(chain, u)
    n, k = chain.fiber_count, chain.rank
    dF, d2F = np.zeros((k, n, n)), np.zeros((k, k, n, n))
    for j1, j2, dz, w in chain.entries:
        weight, d = w * math.exp(float(np.dot(u, dz))), np.array(dz, dtype=float)
        dF[:, j1, j2] += weight * d
        d2F[:, :, j1, j2] += weight * np.outer(d, d)
    vals, lvecs, rvecs = scipy.linalg.eig(F, left=True)
    idx = int(np.argmax(vals.real))
    lam, right, left = float(vals[idx].real), rvecs[:, idx].real, lvecs[:, idx].real
    denom = left @ right
    proj = np.outer(right, left) / denom
    F_r = np.column_stack([f @ right for f in dF])
    cross = (left @ dF) @ (np.linalg.solve(lam * np.eye(n) - F + proj, F_r) - proj @ F_r)
    hess = (np.einsum("i,abij,j->ab", left, d2F, right) + cross + cross.T) / denom
    return lam, (left @ dF @ right) / denom, hess


def core_pair_test_chains(z2_chain_eta2, seeded_eta4_chain, finite_part_chain) -> dict:
    """Chains with a rest R: z2 at eta 2 and 4, a two-fiber core, the four
    Jordan chains and a rest with complex Schur form, by name."""
    jordan = {k: v for k, v in core_test_chains().items() if k.startswith("jordan")}
    chains = {"eta2": z2_chain_eta2, "eta4": seeded_eta4_chain,
              "finite_part": finite_part_chain, **jordan, "cycle_rest": cycle_rest_chain()}
    assert len(jordan) == 4 and np.iscomplexobj(chains["cycle_rest"].tilt_core.schur)
    assert all(chain.tilt_core.schur.size for chain in chains.values())
    return chains


def test_core_pair_is_the_dense_pair_of_f(z2_chain_eta2, seeded_eta4_chain, finite_part_chain):
    rng = np.random.default_rng(28)
    tilts = np.vstack([np.zeros((1, 2)), rng.uniform(-1.0, 1.0, size=(3, 2))])
    chains = core_pair_test_chains(z2_chain_eta2, seeded_eta4_chain, finite_part_chain)
    for name, chain in chains.items():
        for u in tilts:
            got = perron(chain, u)
            lam, grad, _ = dense_derivatives(chain, u)
            assert abs(got.value - lam) <= 1e-13 * lam, name
            assert abs(perron_values(chain, [u])[0] - got.value) <= 1e-14 * got.value, name
            assert np.abs(np.subtract(got.gradient, grad)).max() <= 1e-12, name


def test_gradient_and_hessian_are_the_dense_perturbation_of_f(z2_chain_eta2, seeded_eta4_chain,
                                                               finite_part_chain):
    """perron's gradient and lambda_hessian, read off the tilt core by implicit
    differentiation, against the dense N x N perturbation formulas, to 1e-12 of
    the larger of lambda and the reference gradient's largest entry (gradient)
    and of the reference Hessian's largest entry."""
    rng = np.random.default_rng(30)
    tilts = np.vstack([np.zeros((1, 2)), rng.uniform(-1.0, 1.0, size=(3, 2))])
    chains = core_pair_test_chains(z2_chain_eta2, seeded_eta4_chain, finite_part_chain)
    for name, chain in chains.items():
        for u in tilts:
            data = perron(chain, u)
            lam, grad, hess = dense_derivatives(chain, u)
            scale = max(lam, np.abs(grad).max())
            assert np.abs(np.subtract(data.gradient, grad)).max() <= 1e-12 * scale, name
            got = lambda_hessian(chain, data)
            assert np.abs(got - hess).max() <= 1e-12 * np.abs(hess).max(), name


def test_minimizer_solves_no_eigenproblem_larger_than_the_core(seeded_eta4_chain, monkeypatch):
    """The eta-4 minimizer reads every eigenpair off its one-fiber core and the
    Schur form of the rest, which a fresh copy of the chain computes once."""
    chain = LatticeChain(seeded_eta4_chain.rank, seeded_eta4_chain.fiber_count,
                         seeded_eta4_chain.entries)
    sizes = []
    for module, name in ((scipy.linalg, "eig"), (np.linalg, "eig"), (np.linalg, "eigvals")):
        def recorded(a, *args, inner=getattr(module, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return inner(a, *args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    schur = count_calls(monkeypatch, scipy.linalg, "schur")
    minimize_lambda.cache_clear()
    minimize_lambda(chain)
    assert max(sizes, default=1) <= chain.tilt_core.core.size == 1
    assert schur[0] == 1


def test_root_of_an_unreached_class_keeps_the_assumption_report():
    """At u = 0 the dominated chain's root is rho(A_RR) = 0.45, where the lift
    to R is singular; lambda is flat there, and the minimizer stops at once."""
    minimize_lambda.cache_clear()
    rep = check_assumptions(core_test_chains()["dominated"])
    assert rep.lambda_min == pytest.approx(0.45, rel=1e-15) and rep.u_min == (0.0, 0.0)
    assert rep.messages == ["fiber support pattern is not primitive: no power of it is positive"]
    assert not rep.strongly_irreducible and rep.level_set_compact


def test_level_points_do_not_depend_on_eta(z2_chain_eta0, z2_chain_eta2):
    """M(1, u) is the first-return kernel to the eta-0 neighbourhood at every eta,
    so the shipped chains at eta 0 and 2 share their level set {lambda = 1}."""
    points = []
    for chain in (z2_chain_eta0, z2_chain_eta2):
        points.append([level_set_point(chain, th).u for th in direction_grid(2, 64)])
    assert np.abs(np.subtract(*points)).max() < 1e-12


def test_lambda_surface_factors_the_rest_once_and_never_builds_f(z2_chain_eta2, tmp_path,
                                                                 monkeypatch):
    """lambda-surface and boundary-map factor A_RR once, and no eigenproblem or
    linear solve of theirs is larger than the tilt core or the (rank + 1)-row
    bordered Newton system: nothing is N x N."""
    # A fresh copy of the eta-2 chain, so its split is not cached yet.
    ctx = cli.RunContext(load_config(write_chain_config(tmp_path / "eta2.json", z2_chain_eta2, 11)),
                         str(tmp_path / "out"))
    rows = []
    for module, name in ((scipy.linalg, "eig"), (scipy.linalg, "solve"), (np.linalg, "eig"),
                         (np.linalg, "eigvals"), (np.linalg, "solve")):
        def recorded(a, *args, inner=getattr(module, name), **kwargs):
            rows.append(np.shape(a)[-2])
            return inner(a, *args, **kwargs)
        monkeypatch.setattr(module, name, recorded)
    schur = count_calls(monkeypatch, scipy.linalg, "schur")
    values = count_tilts(monkeypatch, cli, "perron_values")
    assert cli.stage_lambda_surface(ctx)["status"] == "ok"
    assert values[0] == 121
    assert cli.stage_boundary_map(ctx)["status"] == "ok"
    core = ctx.cfg.chain.tilt_core.core.size
    assert rows and max(rows) <= max(core, z2_chain_eta2.rank + 1) == 3
    assert schur[0] == 1


def test_newton_cap_is_a_numerical_failure(z2_chain_eta2, tmp_path, monkeypatch):
    monkeypatch.setattr(perron_module, "_CORE_ROUNDS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 Newton steps"):
        perron_values(LatticeChain.build(2, z2_chain_eta2.fiber_count, z2_chain_eta2.entries),
                      [(0.3, -0.2)])
    path = write_chain_config(tmp_path / "eta2.json", z2_chain_eta2, 5)
    assert cli.main(["lambda-surface", "--config", path, "--out", str(tmp_path / "out")]) == 2
    with open(tmp_path / "out" / "lambda_surface_diagnostic.json") as fh:
        assert "did not converge" in json.load(fh)["reason"]


def rest_free_plane_chains(count: int) -> list[LatticeChain]:
    """Seeded random_plane_chains whose displaced entries touch every fiber."""
    rng = np.random.default_rng(1711)
    chains = []
    while len(chains) < count:
        chain = random_plane_chain(rng, degenerate=len(chains) % 3 == 1, heavy=len(chains) % 3 == 2)
        if not chain.tilt_core.schur.size:
            chains.append(chain)
    return chains


def test_rest_free_values_are_the_eigenvalues_of_f_bit_for_bit(z2_chain_eta0, lat_cfg):
    # With R empty the batched assembly is F(u) summed in entry order, so
    # the values equal the per-tilt dense ones exactly.
    plane = rest_free_plane_chains(12)
    assert any(not any(dz) for c in plane if c.fiber_count > 1 for _, _, dz, _ in c.entries)
    chains = [lat_cfg.chain, z2_chain_eta0, core_test_chains()["untilted"], *plane]
    rng = np.random.default_rng(89)
    for chain in chains:
        tilts = np.vstack([np.zeros((1, chain.rank)),
                           rng.uniform(-2.0, 2.0, size=(24, chain.rank))])
        flat, dz, w = chain.entry_arrays
        n = chain.fiber_count
        ref = [max(np.linalg.eigvals(np.bincount(flat, w * np.exp(dz @ u), n * n)
                                     .reshape(n, n)).real) for u in tilts]
        assert perron_values(chain, tilts).tolist() == ref


def test_rest_free_grid_makes_one_product_and_one_eigensolve(z2_chain_eta0, monkeypatch):
    products = count_calls(monkeypatch, perron_module, "_exponents")
    eigensolves = count_calls(monkeypatch, np.linalg, "eigvals")
    axis = np.linspace(-2.5, 2.5, 41)
    values = perron_values(z2_chain_eta0, [(a, b) for b in axis for a in axis])
    assert values.shape == (1681,)
    assert products[0] == 1 and eigensolves[0] == 1


def test_nearer_escape_probes_catch_a_heavy_chain():
    # lambda(-t) = 4 e^-t + 1e-8 e^t is 2.43 at t = 0.5 but 0.089 at t = 16:
    # only a nearer probe sees the escape along -1.
    chain = LatticeChain.build(1, 1, [(0, 0, (1,), 4.0), (0, 0, (-1,), 1e-8)])
    assert perron_values(chain, [(-16.0,)])[0] < 2.0 <= perron_values(chain, [(-0.5,)])[0]
    assert check_assumptions(chain).level_set_compact


def test_escape_messages_print_plain_floats(tmp_path):
    # Along -e2 the weight 1e-9 leaves lambda below 2 at every probe.
    chain = LatticeChain.build(2, 1, [(0, 0, (1, 0), 0.2), (0, 0, (-1, 0), 0.2),
                                      (0, 0, (0, 1), 0.2), (0, 0, (0, -1), 1e-9)])
    path = write_chain_config(tmp_path / "open.json", chain, 5)
    assert cli.main(["lambda-surface", "--config", path, "--out", str(tmp_path / "out")]) == 2
    with open(tmp_path / "out" / "lambda_surface.json") as fh:
        messages = [m for entry in json.load(fh).values() for m in entry["messages"]]
    stayed = [m for m in messages if m.startswith("lambda stayed below")]
    assert stayed and not any("np.float64" in m for m in messages)
    for m in stayed:
        x, y = map(float, m.split("direction (")[1].rstrip(")").split(", "))
        assert y < 0.0


@pytest.mark.parametrize("engine_name", ["z2_engine", "seeded_z2_engine"])
def test_eta0_chain_and_its_chart_match_the_exact_reference(engine_name, request):
    """The eta = 0 chain is the Z^2 factor's own chain with loop mass
    l_1 = mu(e) + r_t, so lambda(u) = l_1 + sum_i (p_i+ e^u_i + p_i- e^-u_i).
    Against tests/oracles.py, to 1e-13: the loop entry and the four displaced
    entries mu(+-a), mu(+-b) (relative), and at each of the 64 chart points
    the exact level equation and the exact normal's direction (absolute)."""
    engine = request.getfixturevalue(engine_name)
    chain = induce_first_return(engine, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)
    loop = engine.mu.identity_mass + oracles.return_masses(engine.mu)[1]
    axes = oracles.axis_weights(engine.mu, 0)
    weights = {dz: w for _, _, dz, w in chain.entries}
    assert chain.fiber_count == 1 and len(weights) == 5
    assert weights[(0, 0)] == pytest.approx(loop, rel=1e-13, abs=0.0)
    for unit, (plus, minus) in zip(((1, 0), (0, 1)), axes):
        assert weights[unit] == pytest.approx(plus, rel=1e-13, abs=0.0)
        assert weights[tuple(-c for c in unit)] == pytest.approx(minus, rel=1e-13, abs=0.0)
    plus, minus = np.array(axes).T
    for th in direction_grid(2, 64):
        u = np.array(level_set_point(chain, th).u)
        assert abs(loop + plus @ np.exp(u) + minus @ np.exp(-u) - 1.0) <= 1e-13
        normal = plus * np.exp(u) - minus * np.exp(-u)
        assert np.linalg.norm(normal / np.linalg.norm(normal) - th) <= 1e-13
