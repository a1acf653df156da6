"""Exact free-product Green's functions via cut-vertex elimination."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from relwalk import FreeProductEngine, StepMeasure, TabooContext, ball_elements
from relwalk.classify import sample_ancona_pairs
from relwalk.cli import _TRANSITIONS
from relwalk.errors import InvalidMeasureError
from relwalk.groups import FactorSpec, FreeProductGroup


@pytest.fixture(scope="module")
def z2_asymmetric_engine(z2_cfg):
    """The (Z^2)*Z walk with seeded unequal generator weights, made lazy."""
    rng = random.Random(5)
    names = ("a", "a^-1", "b", "b^-1", "t", "t^-1")
    raw = [rng.randint(90, 110) for _ in names]
    weights = [(n, Fraction(w, sum(raw))) for n, w in zip(names, raw)]
    mu = StepMeasure.from_weights(z2_cfg.group, weights).lazy()
    return FreeProductEngine(z2_cfg.group, mu, radius=z2_cfg.radius)


def _scalar_block(engine, xs, ys):
    return np.array([[engine.green(x, y) for y in ys] for x in xs])


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


def test_engine_rejects_multi_syllable_support(f2_cfg):
    g = f2_cfg.group
    nu = StepMeasure.from_weights(g, [("a*b", "0.5"), ("b^-1*a^-1", "0.5")])
    with pytest.raises(InvalidMeasureError):
        FreeProductEngine(g, nu)


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
        for y in ball_elements(eng.group, 2):
            for x in ball_elements(eng.group, 3):
                rhs = (1.0 if x == y else 0.0) + sum(
                    w * eng.green(x * s, y) for s, w in eng.mu.items())
                worst = max(worst, abs(eng.green(x, y) - rhs))
        assert worst < 1e-12


def test_green_matrix_is_bit_equal_to_green(z2_engine, z2_asymmetric_engine, f2_engine):
    # A ball holds the identity, every prefix of its elements and, on the
    # diagonal, the pairs x == y.
    for eng, radius in ((z2_engine, 4), (z2_asymmetric_engine, 4), (f2_engine, 4)):
        ball = ball_elements(eng.group, radius)
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
    ball = ball_elements(g, 4)
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
    near, far = ball_elements(g, 2), ball_elements(g, 4)
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
    avoid = TabooContext(eng, list(ball_elements(eng.group, 2)))
    inside = set(avoid.elems)
    starts = [x for x in ball_elements(eng.group, 3) if x not in inside][::10]
    targets = ball_elements(eng.group, 3)[::8]
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
        taboo = TabooContext(eng, list(ball_elements(cfg.group, r)))
        assert sum(x in taboo.index or z in taboo.index for x, z in pairs) == touch
        batched = taboo.value(pairs)
        alone = [v for pair in pairs for v in taboo.value([pair])]
        assert [v.hex() for v in batched] == [v.hex() for v in alone]
