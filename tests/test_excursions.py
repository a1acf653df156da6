"""Exact free-product Green's functions via cut-vertex elimination."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from relwalk import (ChainGreen, FreeProductEngine, StepMeasure, TabooContext,
                     ancona_ratio, ball_elements, excursions)
from relwalk.classify import sample_ancona_pairs
from relwalk.cli import _TRANSITIONS
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import ConvergenceError, InvalidMeasureError
from relwalk.groups import FactorSpec, FreeProductGroup

import oracles
from conftest import cut_by


@pytest.fixture(scope="module")
def z2_asymmetric_engine(z2_cfg):
    """The (Z^2)*Z walk with seeded unequal generator weights, made lazy."""
    rng = random.Random(5)
    names = ("a", "a^-1", "b", "b^-1", "t", "t^-1")
    raw = [rng.randint(90, 110) for _ in names]
    weights = [(n, Fraction(w, sum(raw))) for n, w in zip(names, raw)]
    mu = StepMeasure.from_weights(z2_cfg.group, weights).lazy()
    return FreeProductEngine(z2_cfg.group, mu, radius=z2_cfg.radius)


# The taboo tests need boxes whose truncation error is below rounding: the
# Schur identity holds only for Green values of one walk.
@pytest.fixture(scope="module")
def finite_factor_engine():
    g, mu, _ = _finite_factor_walk()
    return FreeProductEngine(g, mu, radius=30)


@pytest.fixture(scope="module")
def long_step_engine():
    """Z * Z with steps a^+-1, a^+-2 and b^+-1: an a step can jump one site of its line."""
    lines = [FactorSpec(rank=1, table=((0,),), lattice_names=(name,), finite_names=())
             for name in ("a", "b")]
    g = FreeProductGroup(lines)
    mu = StepMeasure.from_weights(g, [(w, "1/6") for w in ("a", "a^-1", "a^2", "a^-2", "b", "b^-1")])
    return FreeProductEngine(g, mu, radius=40)


def _scalar_block(engine, xs, ys):
    return np.array([[engine.green(x, y) for y in ys] for x in xs])


def _plain_return_masses(engine, tol=1e-14, cap=500):
    """Scalar reference: the plain iteration r <- Phi(r) from 0 on fresh factor
    chains each round, until a round moves r by less than tol or the cap is
    reached.  Returns the masses and the rounds taken."""
    m = len(engine.group.factors)
    r = [0.0] * m
    for round_no in range(1, cap + 1):
        new_r = []
        for i, spec in enumerate(engine.group.factors):
            cg = ChainGreen(engine._build_factor_chain(i, r), engine.radius)
            g00 = cg.green(0, (0,) * spec.rank, 0)
            new_r.append(sum(w * cg.green(0, tuple(-c for c in z), spec.finite_inv(j)) / g00
                             for z, j, w in engine._steps[i]))
        delta = max(abs(a - b) for a, b in zip(r, new_r))
        r = new_r
        if delta < tol:
            break
    return r, round_no


@pytest.fixture(params=["f2", "f2_over_a", "z2", "seeded z2"])
def walk_engine(request):
    """An engine of every shipped walk config and of the benchmark's seeded z2 measure."""
    if request.param == "seeded z2":
        return request.getfixturevalue("seeded_z2_engine")
    cfg = request.getfixturevalue({"f2": "f2_cfg", "f2_over_a": "f2a_cfg",
                                   "z2": "z2_cfg"}[request.param])
    return FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius)


def test_newton_return_masses_agree_with_the_plain_iteration(walk_engine):
    plain, plain_rounds = _plain_return_masses(walk_engine)
    assert plain_rounds > 10
    assert walk_engine.rounds_used <= 6
    assert np.max(np.abs(np.subtract(walk_engine.return_mass, plain))) < 1e-13


def test_newton_iterates_increase_to_the_least_fixed_point(walk_engine, monkeypatch):
    """Each round builds every factor chain at the current iterate; the
    iterates rise from 0 and stay below the limit of the plain iteration run
    to roundoff."""
    iterates = []
    build = FreeProductEngine._build_factor_chain

    def recording(self, i, return_masses):
        if i == 0:
            iterates.append(np.array(return_masses, dtype=float))
        return build(self, i, return_masses)

    monkeypatch.setattr(FreeProductEngine, "_build_factor_chain", recording)
    eng = FreeProductEngine(walk_engine.group, walk_engine.mu, radius=walk_engine.radius)
    monkeypatch.undo()
    limit, _ = _plain_return_masses(eng, tol=0.0, cap=60)
    assert len(iterates) == eng.rounds_used
    assert not iterates[0].any()
    assert np.array_equal(iterates[-1], eng.return_mass)
    assert all((b >= a).all() for a, b in zip(iterates, iterates[1:]))
    assert max(float(np.max(r - limit)) for r in iterates) <= 1e-15


@pytest.mark.parametrize("i", [0, 1])
def test_loop_slope_matches_a_central_difference(z2_engine, i):
    """dPhi_i/dl_i from the transposed solves against Phi_i at l_i +- h: the
    loop mass of factor i moves with the other factor's return mass."""
    eng, h = z2_engine, 1e-5
    _, slope = eng._return_map(i, eng._greens[i])
    phis = []
    for sign in (1, -1):
        r = list(eng.return_mass)
        r[1 - i] += sign * h
        phis.append(eng._return_map(i, ChainGreen(eng._build_factor_chain(i, r), eng.radius))[0])
    assert slope > 0
    assert abs(slope - (phis[0] - phis[1]) / (2 * h)) < 1e-8 * slope


def test_round_cap_still_raises_the_convergence_error(z2_cfg, monkeypatch):
    monkeypatch.setattr(excursions, "_FIXED_POINT_ROUNDS", 1)
    with pytest.raises(ConvergenceError,
                       match=r"^return-mass fixed point did not settle in 1 rounds$"):
        FreeProductEngine(z2_cfg.group, z2_cfg.measure, radius=z2_cfg.radius)


def test_recurrent_free_product_does_not_settle():
    """Z/2 * Z/2 is amenable and its simple walk recurrent: the fixed point is
    a fold of the return-mass system, where Newton's step is roundoff."""
    c2 = [FactorSpec(rank=0, table=((0, 1), (1, 0)), lattice_names=(), finite_names=(s,))
          for s in ("s", "t")]
    g = FreeProductGroup(c2)
    with pytest.raises(ConvergenceError, match="did not settle in 500 rounds"):
        FreeProductEngine(g, StepMeasure.uniform(g), radius=4)


def test_free_group_green_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    assert abs(eng.green_identity_value - 1.5) < 1e-12
    assert all(abs(m - 1.0 / 6.0) < 1e-12 for m in eng.return_mass)
    for word in ("a", "a^-1", "b^2", "a*b*a", "b^-1*a^2*b^-1", "a^5"):
        x = g.word(word)
        tree = 1.5 * 3.0 ** (-x.word_length)
        assert abs(eng.green(g.identity, x) - tree) < 1e-12


def test_free_group_kernel_and_hitting_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    for n in (2, 3, 6):
        yn = g.word(f"a^{n}")
        gey = eng.green(g.identity, yn)
        assert abs(eng.green(g.word("a"), yn) / gey - 3.0) < 1e-12
        assert abs(eng.green(g.word("a^2"), yn) / gey - 9.0) < 1e-12
        assert abs(eng.green(g.word("b"), yn) / gey - 1.0 / 3.0) < 1e-12
    hitting = eng.green(g.identity, g.word("a")) / eng.green_identity_value
    assert abs(hitting - 1.0 / 3.0) < 1e-12


def test_identity_spread_is_tiny(f2_engine, z2_engine):
    assert f2_engine.identity_spread() < 1e-12
    assert z2_engine.identity_spread() < 1e-9


def test_taboo_context_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    avoid_e = TabooContext(eng, [g.identity])
    (to_a,) = avoid_e.value([(g.identity, g.word("a"))])
    assert abs(to_a - 1.0 / 3.0) < 1e-12
    (to_b,) = TabooContext(eng, [g.word("a")]).value([(g.identity, g.word("b"))])
    assert abs(to_b - 4.0 / 9.0) < 1e-12
    assert to_b < eng.green(g.identity, g.word("b"))


def test_taboo_context_translation_invariance(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    t = g.word("b^2*a")
    (base,) = TabooContext(eng, [g.word("a")]).value([(g.identity, g.word("a^2"))])
    (moved,) = TabooContext(eng, [t * g.word("a")]).value([(t, t * g.word("a^2"))])
    assert abs(base - moved) < 1e-13


def test_lazy_engine_doubles_green_and_keeps_kernels(f2_cfg):
    g = f2_cfg.group
    mu = StepMeasure.uniform(g)
    eng = FreeProductEngine(g, mu, radius=20)
    leng = FreeProductEngine(g, mu.lazy(), radius=20)
    for word in ("e", "a", "a*b^-1", "b^3"):
        x = g.word(word)
        assert abs(leng.green(g.identity, x) - 2.0 * eng.green(g.identity, x)) < 1e-11
    x, yn = g.word("a"), g.word("a^5")
    assert abs(leng.green(x, yn) / leng.green(g.identity, yn) -
               eng.green(x, yn) / eng.green(g.identity, yn)) < 1e-11


def test_green_depends_only_on_displacement(z2_engine, z2_cfg):
    g = z2_cfg.group
    eng = z2_engine
    x, y = g.word("t*a"), g.word("t*a*b^2")
    shift = g.word("a^-1*t")
    assert abs(eng.green(x, y) - eng.green(shift * x, shift * y)) < 1e-12
    assert abs(eng.green(x, y) - eng.green(g.identity, x.inverse() * y)) < 1e-15


def test_symmetric_measure_green_symmetry(z2_engine, z2_cfg):
    g = z2_cfg.group
    w = g.word("a^2*t^-1*b")
    assert abs(z2_engine.green(g.identity, w) -
               z2_engine.green(g.identity, w.inverse())) < 1e-12


def test_pinned_values_for_the_rank_two_free_product(z2_engine):
    assert abs(z2_engine.green_identity_value - 2.545750750581084) < 1e-9
    assert abs(z2_engine.return_mass[0] - 0.0732933096952) < 1e-9
    assert abs(z2_engine.return_mass[1] - 0.0338952574606) < 1e-9


@pytest.mark.parametrize("loop", [0.5, 0.6])
def test_oracle_series_matches_the_elliptic_closed_form(loop):
    # With equal axis weights p, a 45 degree rotation splits the planar walk
    # into two independent +-1 walks: G(0, 0) = (2/pi) K(k) / (1 - l), k = 4p/(1 - l).
    p = 1.0 / 12.0
    k = 4.0 * p / (1.0 - loop)
    exact = 2.0 / math.pi * scipy.special.ellipk(k * k) / (1.0 - loop)
    assert oracles.lattice_green_00(loop, [(p, p), (p, p)]) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("engine_name", ["z2_engine", "seeded_z2_engine"])
def test_green_identity_and_return_masses_match_the_exact_reference(engine_name, request):
    """The engine's G(e, e) in every factor and its return masses, against
    the exact series of tests/oracles.py on the shipped z2_free_z walk and
    the seed-1 benchmark walk, to 1e-13 relative (both read under 1.5e-15)."""
    engine = request.getfixturevalue(engine_name)
    masses = oracles.return_masses(engine.mu)
    assert engine.return_mass == pytest.approx(masses, rel=1e-13, abs=0.0)
    for g_ee in oracles.green_identity(engine.mu, masses):
        assert engine.green_identity_value == pytest.approx(g_ee, rel=1e-13, abs=0.0)


def test_engine_rejects_multi_syllable_support(f2_cfg):
    g = f2_cfg.group
    nu = StepMeasure.from_weights(g, [("a*b", "0.5"), ("b^-1*a^-1", "0.5")])
    with pytest.raises(InvalidMeasureError):
        FreeProductEngine(g, nu, radius=f2_cfg.radius)


def test_passage_factors_multiply_along_syllables(z2_engine, z2_cfg):
    g = z2_cfg.group
    eng = z2_engine
    w = g.word("a^2*t^-1*b")
    prod = eng.green_identity_value
    for fac, z, j in w.syllables:
        prod *= eng.forward_passage(fac, z, j)
    assert abs(prod - eng.green(g.identity, w)) < 1e-15


def test_engine_satisfies_the_resolvent_identity(f2_engine, z2_engine):
    """G(x, y) = delta(x, y) + sum_s mu(s) G(xs, y): G inverts I - P."""
    for eng in (f2_engine, z2_engine):
        worst = 0.0
        for y in ball_elements(eng.group, 2, DEFAULT_STATE_CAP):
            for x in ball_elements(eng.group, 3, DEFAULT_STATE_CAP):
                rhs = (1.0 if x == y else 0.0) + sum(
                    w * eng.green(x * s, y) for s, w in eng.mu.items())
                worst = max(worst, abs(eng.green(x, y) - rhs))
        assert worst < 1e-12


def test_green_matrix_is_bit_equal_to_green(z2_engine, z2_asymmetric_engine, f2_engine):
    # A ball holds the identity, every prefix of its elements and, on the
    # diagonal, the pairs x == y.
    for eng, radius in ((z2_engine, 4), (z2_asymmetric_engine, 4), (f2_engine, 4)):
        ball = ball_elements(eng.group, radius, DEFAULT_STATE_CAP)
        assert np.array_equal(eng.green_matrix(ball, ball), _scalar_block(eng, ball, ball))


def _finite_factor_walk() -> tuple[FreeProductGroup, StepMeasure, int]:
    """(Z x Z/2) * Z/3 with its lazy uniform walk, and an engine radius."""
    line_c2 = FactorSpec(rank=1, table=((0, 1), (1, 0)), lattice_names=("a",),
                         finite_names=("s",))
    c3 = FactorSpec(rank=0, table=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
                    lattice_names=(), finite_names=("r", "r2"))
    g = FreeProductGroup([line_c2, c3])
    return g, StepMeasure.uniform(g).lazy(), 10


def test_green_matrix_merges_finite_syllables_bit_for_bit():
    # Middle syllables of x^-1 y merge through the finite table.
    g, mu, radius = _finite_factor_walk()
    eng = FreeProductEngine(g, mu, radius=radius)
    ball = ball_elements(g, 4, DEFAULT_STATE_CAP)
    pairs = {(x.syllables[0][1:], y.syllables[0][1:]) for x in ball for y in ball
             if x.syllables and y.syllables and x.syllables[0][0] == y.syllables[0][0]}
    assert any(jx != jy and jx and jy for (_, jx), (_, jy) in pairs)
    assert np.array_equal(eng.green_matrix(ball, ball), _scalar_block(eng, ball, ball))
    sub = ball[::7]
    assert np.array_equal(eng.green_matrix(sub, ball), _scalar_block(eng, sub, ball))
    assert eng.green_matrix([], ball).shape == (0, len(ball))


def _common_depth(x, y) -> int:
    depth = 0
    for s, t in zip(x.syllables, y.syllables):
        if s != t:
            break
        depth += 1
    return depth


@pytest.mark.parametrize("walk", ["f2", "z2", "finite"])
def test_green_pairs_equal_block_diagonals_and_scalar_green(walk, f2_cfg, z2_cfg):
    """green_pairs over aligned tables reads, on a fresh engine, the floats
    that green_matrix's diagonal and scalar green read on fresh engines of
    their own.  The seeded pairs hold the identity, shared prefixes and
    merged middle syllables, and their tables differ in width; both orders
    are read."""
    if walk == "finite":
        g, mu, radius = _finite_factor_walk()
    else:
        cfg = f2_cfg if walk == "f2" else z2_cfg
        g, mu, radius = cfg.group, cfg.measure, cfg.radius
    rng = np.random.default_rng(21)
    near, far = ball_elements(g, 2, DEFAULT_STATE_CAP), ball_elements(g, 4, DEFAULT_STATE_CAP)
    xs = [near[i] for i in rng.integers(0, len(near), 60)] + [g.identity, g.identity, far[-1]]
    ys = [far[i] for i in rng.integers(0, len(far), 60)] + [g.identity, far[-1], g.identity]
    steps = [s for s, _ in mu.items()]
    xs += ys[:20]
    ys += [y * steps[i % len(steps)] for i, y in enumerate(ys[:20])]
    depths = [_common_depth(x, y) for x, y in zip(xs, ys)]
    assert any(depths)
    assert any(d < min(x.syllable_count, y.syllable_count)
               and x.syllables[d][0] == y.syllables[d][0]
               for x, y, d in zip(xs, ys, depths))

    def fresh():
        return FreeProductEngine(g, mu, radius=radius)

    for left, right in ((xs, ys), (ys, xs)):
        eng = fresh()
        X, Y = eng.syllable_ids(left), eng.syllable_ids(right)
        assert X.shape[1] != Y.shape[1]
        pairs = eng.green_pairs(X, Y).tolist()
        diagonal = np.diagonal(fresh().green_matrix(left, right)).tolist()
        scalar_engine = fresh()
        scalar = [scalar_engine.green(x, y) for x, y in zip(left, right)]
        assert [v.hex() for v in pairs] == [v.hex() for v in diagonal] == \
            [v.hex() for v in scalar]


@pytest.mark.parametrize("engine_name", ["z2_engine", "z2_asymmetric_engine", "f2_engine"])
def test_taboo_context_satisfies_the_first_step_identity(engine_name, request):
    """For x outside A: G_A(x, y) = d(x, y) + sum_{xs not in A} mu(s) G_A(xs, y)
    + sum_{xs in A} mu(s) d(xs, y), with y inside and outside A.

    Errors are relative to G(x, y), which bounds G_A(x, y): where A holds a
    cut vertex between x and y, G_A vanishes up to rounding.
    """
    eng = request.getfixturevalue(engine_name)
    avoid = TabooContext(eng, list(ball_elements(eng.group, 2, DEFAULT_STATE_CAP)))
    inside = set(avoid.elems)
    starts = [x for x in ball_elements(eng.group, 3, DEFAULT_STATE_CAP) if x not in inside][::10]
    targets = ball_elements(eng.group, 3, DEFAULT_STATE_CAP)[::8]
    assert any(y in inside for y in targets) and any(y not in inside for y in targets)
    pairs = [(x, y) for x in starts for y in targets]
    pairs += [(x * s, y) for x, y in pairs for s, _ in eng.mu.items() if x * s not in inside]
    killed = dict(zip(pairs, avoid.value(pairs)))
    worst = 0.0
    for x in starts:
        for y in targets:
            rhs = 1.0 if x == y else 0.0
            for s, w in eng.mu.items():
                xs = x * s
                if xs in inside:
                    rhs += w * (1.0 if xs == y else 0.0)
                else:
                    rhs += w * killed[xs, y]
            worst = max(worst, abs(killed[x, y] - rhs) / eng.green(x, y))
    assert worst < 1e-12


@pytest.mark.parametrize("cfg_name, seed, count, repeats, touching", [
    ("z2_cfg", None, 20, 0, [0, 0, 0, 0, 2]),
    ("f2a_cfg", 1, 100, 18, [0, 0, 0, 13, 52]),
], ids=["z2", "f2_over_a"])
def test_batched_taboo_values_equal_lone_pairs_bit_for_bit(cfg_name, seed, count, repeats,
                                                          touching, request):
    """One value() call over the ancona stage's pairs reads the same floats as
    a call per pair, around every forbidden ball B_0..B_4 (touching counts
    the pairs with an endpoint inside each).  The 100 F2 pairs include
    repeats."""
    cfg = request.getfixturevalue(cfg_name)
    eng = FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius)
    pairs = sample_ancona_pairs(cfg.group, cfg.parabolic,
                                cfg.seed if seed is None else seed, count, _TRANSITIONS)
    assert len(pairs) == count and len(pairs) - len(set(pairs)) == repeats
    for r, touch in enumerate(touching):
        taboo = TabooContext(eng, list(ball_elements(cfg.group, r, DEFAULT_STATE_CAP)))
        assert sum(x in taboo.index or z in taboo.index for x, z in pairs) == touch
        batched = taboo.value(pairs)
        alone = [v for pair in pairs for v in taboo.value([pair])]
        assert [v.hex() for v in batched] == [v.hex() for v in alone]


@pytest.mark.parametrize("engine_name", ["z2_engine", "z2_asymmetric_engine", "f2_engine",
                                         "finite_factor_engine", "long_step_engine"])
def test_cut_rule_agrees_with_the_schur_formula(engine_name, request):
    """Over seeded pairs outside B_R(e), R = 0..3, the terms value() zeroes are
    those a vertex of the ball cuts on the word geodesic, and there the Schur
    formula G(l, r) - G(l, A) G(A, A)^-1 G(A, r), computed in the test, is
    rounding residue: at most 1e-12 G(l, r).  Every other term agrees with
    the formula to 1e-14 relative.  A line with a finite part, or with steps
    of length 2, has no cut site."""
    eng = request.getfixturevalue(engine_name)
    g = eng.group
    points = ball_elements(g, 4, DEFAULT_STATE_CAP)
    rng = np.random.default_rng(3)
    zeroed = kept = 0
    for r in range(4):
        ball = list(ball_elements(g, r, DEFAULT_STATE_CAP))
        inside = set(ball)
        outside = [p for p in points if p not in inside]
        pairs = [(outside[i], outside[j]) for i, j in rng.integers(0, len(outside), (80, 2))]
        lefts, rights = [l for l, _ in pairs], [q for _, q in pairs]
        direct = eng.green_pairs(eng.syllable_ids(lefts), eng.syllable_ids(rights))
        inverse = np.linalg.inv(eng.green_matrix(ball, ball))
        to_ball = eng.green_matrix(lefts, ball)
        from_ball = np.ascontiguousarray(eng.green_matrix(ball, rights).T)
        formula = [d - to_ball[k] @ inverse @ from_ball[k] for k, d in enumerate(direct)]
        values = TabooContext(eng, ball).value(pairs)
        for (l, q), v, f, d in zip(pairs, values, formula, direct):
            if cut_by(inside, eng.mu, l, q):
                zeroed += 1
                assert v == 0.0 and abs(f) <= 1e-12 * d
            else:
                kept += 1
                assert abs(v - f) <= 1e-14 * abs(f)
    assert zeroed > 0 and kept > 0


def test_two_site_cut_sets_are_left_to_the_ancona_floor(long_step_engine):
    """An a^+-2 step jumps any one site of an a line, so no single site there is
    cut; two adjacent sites are, and their G_A is rounding residue that only
    ancona_ratio's 1e-12 floor reports as 0."""
    eng = long_step_engine
    g = eng.group
    x, y = g.word("a^3"), g.word("a^-3")
    (jumped,) = TabooContext(eng, [g.identity]).value([(x, y)])
    assert jumped > 0.1 * eng.green(x, y)
    pair = TabooContext(eng, [g.identity, g.word("a")])
    (blocked,) = pair.value([(x, y)])
    assert abs(blocked) < 1e-12 * eng.green(x, y)
    assert ancona_ratio([pair], [(x, y)]) == [(0.0,)]
