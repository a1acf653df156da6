"""Step measure construction, laziness, and validation."""
from fractions import Fraction

import pytest

from relwalk import StepMeasure
from relwalk.errors import InvalidMeasureError


def test_uniform_puts_equal_mass_on_every_generator(f2_cfg):
    mu = StepMeasure.uniform(f2_cfg.group)
    assert len(mu.support) == 4
    assert all(abs(w - 0.25) < 1e-15 for _, w in mu.items())
    assert mu.is_probability
    assert mu.is_symmetric
    assert mu.identity_mass == 0.0


def test_lazy_moves_half_the_mass_to_the_identity(z2_cfg):
    mu = StepMeasure.uniform(z2_cfg.group)
    lz = mu.lazy()
    assert abs(lz.identity_mass - 0.5) < 1e-15
    for g, w in mu.items():
        assert abs(lz(g) - 0.5 * w) < 1e-15
    assert lz.is_probability


def test_from_weights_accepts_exact_fraction_strings(f2_cfg):
    g = f2_cfg.group
    mu = StepMeasure.from_weights(g, [("a", "1/6"), ("a^-1", "1/6"),
                                      ("b", "1/3"), ("b^-1", "1/3")])
    assert mu(g.word("a")) == float(Fraction(1, 6))
    assert mu(g.word("b")) == float(Fraction(1, 3))
    assert mu.is_probability
    assert not mu.is_symmetric or abs(mu(g.word("a")) - mu(g.word("a^-1"))) < 1e-16


def test_negative_or_oversized_mass_rejected(f2_cfg):
    g = f2_cfg.group
    with pytest.raises(InvalidMeasureError):
        StepMeasure.from_weights(g, [("a", "-0.1"), ("b", "0.5")])
    with pytest.raises(InvalidMeasureError):
        StepMeasure.from_weights(g, [("a", "0.7"), ("b", "0.7")])


def test_submarkov_measures_are_allowed(f2_cfg):
    mu = StepMeasure.from_weights(f2_cfg.group, [("a", "0.2"), ("a^-1", "0.2")])
    assert not mu.is_probability
    assert sum(w for _, w in mu.items()) < 1.0


def test_support_is_sorted_and_syllable_flag_tracks_shape(z2_cfg):
    g = z2_cfg.group
    mu = StepMeasure.uniform(g)
    keys = [e.sort_key() for e in mu.support]
    assert keys == sorted(keys)
    assert mu.has_syllable_support
    nu = StepMeasure.from_weights(g, [("a*t", "0.5"), ("t^-1*a^-1", "0.5")])
    assert not nu.has_syllable_support

