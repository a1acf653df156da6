"""Exact free-product Green's functions via cut-vertex elimination."""
import math

import pytest

from relwalk import FreeProductEngine, StepMeasure, ball_elements
from relwalk.errors import InvalidMeasureError


def test_free_group_green_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    assert abs(eng.green_identity_value - 1.5) < 1e-12
    assert all(abs(m - 1.0 / 6.0) < 1e-12 for m in eng.return_mass)
    for word in ("a", "a^-1", "b^2", "a*b*a", "b^-1*a^2*b^-1", "a^5"):
        x = g.word(word)
        tree = 1.5 * 3.0 ** (-x.word_length)
        assert abs(eng.green_from_identity(x) - tree) < 1e-12


def test_free_group_kernel_and_hitting_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    for n in (2, 3, 6):
        yn = g.word(f"a^{n}")
        assert abs(eng.martin_kernel(g.word("a"), yn) - 3.0) < 1e-12
        assert abs(eng.martin_kernel(g.word("a^2"), yn) - 9.0) < 1e-12
        assert abs(eng.martin_kernel(g.word("b"), yn) - 1.0 / 3.0) < 1e-12
    hitting = eng.green(g.identity, g.word("a")) / eng.green_identity_value
    assert abs(hitting - 1.0 / 3.0) < 1e-12


def test_identity_spread_is_tiny(f2_engine, z2_engine):
    assert f2_engine.identity_spread() < 1e-12
    assert z2_engine.identity_spread() < 1e-9


def test_taboo_green_closed_forms(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    assert abs(eng.taboo_green(g.identity, g.word("a"), [g.identity]) - 1.0 / 3.0) < 1e-12
    assert abs(eng.taboo_green(g.identity, g.word("b"), [g.word("a")]) - 4.0 / 9.0) < 1e-12
    full = eng.green(g.identity, g.word("b"))
    assert eng.taboo_green(g.identity, g.word("b"), [g.word("a")]) < full


def test_taboo_context_translation_invariance(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    t = g.word("b^2*a")
    base = eng.taboo_green(g.identity, g.word("a^2"), [g.word("a")])
    moved = eng.taboo_green(t, t * g.word("a^2"), [t * g.word("a")])
    assert abs(base - moved) < 1e-13


def test_lazy_engine_doubles_green_and_keeps_kernels(f2_cfg):
    g = f2_cfg.group
    mu = StepMeasure.uniform(g)
    eng = FreeProductEngine(g, mu, radius=20)
    leng = FreeProductEngine(g, mu.lazy(), radius=20)
    for word in ("e", "a", "a*b^-1", "b^3"):
        x = g.word(word)
        assert abs(leng.green_from_identity(x) - 2.0 * eng.green_from_identity(x)) < 1e-11
    yn = g.word("a^5")
    assert abs(leng.martin_kernel(g.word("a"), yn) -
               eng.martin_kernel(g.word("a"), yn)) < 1e-11


def test_green_depends_only_on_displacement(z2_engine, z2_cfg):
    g = z2_cfg.group
    eng = z2_engine
    x, y = g.word("t*a"), g.word("t*a*b^2")
    shift = g.word("a^-1*t")
    assert abs(eng.green(x, y) - eng.green(shift * x, shift * y)) < 1e-12
    assert abs(eng.green(x, y) - eng.green_from_identity(x.inverse() * y)) < 1e-15


def test_symmetric_measure_green_symmetry(z2_engine, z2_cfg):
    g = z2_cfg.group
    w = g.word("a^2*t^-1*b")
    assert abs(z2_engine.green_from_identity(w) -
               z2_engine.green_from_identity(w.inverse())) < 1e-12


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
    assert abs(prod - eng.green_from_identity(w)) < 1e-15


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
