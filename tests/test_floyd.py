"""Floyd metric, geodesics, and transition-point detection."""
import math

import pytest

from relwalk import (TransitionParams, floyd_distance, gromov_product_coned,
                     transition_points, word_geodesic)
from relwalk.floyd import coned_off_distance
from relwalk.groups import GroupElement


def test_scaling_function_total_and_validation(f2_cfg):
    """Level k weighs ratio^k and the levels sum to 1 / (1 - ratio); load_config
    checks the ratio's bounds (test_config_validation_failures)."""
    g = f2_cfg.group
    assert floyd_distance(0.5, g.word("a")) == 1.0
    assert floyd_distance(0.5, g.word("a^4")) - floyd_distance(0.5, g.word("a^3")) == 0.125
    assert floyd_distance(0.5, g.word("a^60")) == pytest.approx(2.0)


def test_tree_floyd_distances_through_the_basepoint(f2_cfg):
    g = f2_cfg.group
    assert floyd_distance(0.5, g.word("a^3")) == pytest.approx(1.75)
    assert floyd_distance(0.5, g.identity) == 0.0


def test_floyd_diameter_is_bounded_by_twice_the_total(f2_cfg):
    g = f2_cfg.group
    # Every point lies within 1 / (1 - 0.5) = 2 of the base, so any two within twice that.
    assert floyd_distance(0.5, g.word("a^5*b^-5")) < 2.0


def test_word_geodesic_steps_by_unit_generators(z2_cfg):
    g = z2_cfg.group
    x, z = g.word("a^-1"), g.word("a*b^2*t")
    path = word_geodesic(x, z)
    assert path[0] == x and path[-1] == z
    assert len(path) == 1 + (x.inverse() * z).word_length
    for p, q in zip(path, path[1:]):
        assert (p.inverse() * q).word_length == 1


def test_transition_points_of_a_two_coset_geodesic(z2_cfg):
    g = z2_cfg.group
    path = word_geodesic(g.identity, g.word("a^5*t*a^5"))
    params = TransitionParams(epsilon=1, window=4)
    pts = transition_points(path, params, parabolic=[0])
    assert pts == [3, 4, 5, 6, 7, 8]


def test_path_inside_one_coset_hull_has_no_transitions(z2_cfg):
    g = z2_cfg.group
    path = word_geodesic(g.word("a^-5*t^-1"), g.word("a^5"))
    pts = transition_points(path, TransitionParams(epsilon=1, window=4), parabolic=[0])
    assert pts == []


def test_no_parabolics_means_everything_is_a_transition(f2_cfg):
    g = f2_cfg.group
    path = word_geodesic(g.identity, g.word("a^3*b"))
    pts = transition_points(path, TransitionParams(epsilon=1, window=2), parabolic=[])
    assert pts == list(range(len(path)))


def test_transition_points_form_one_group_product(z2_cfg, monkeypatch):
    """The syllables of path[0]^-1 path[-1] are the whole answer: no coset search."""
    g = z2_cfg.group
    path = word_geodesic(g.word("t"), g.word("a^40*t^-10*b^30*t*a^-25"))
    assert len(path) > 100
    calls = [0]
    inner = GroupElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return inner(self, other)

    monkeypatch.setattr(GroupElement, "__mul__", counted)
    pts = transition_points(path, TransitionParams(epsilon=1, window=4), parabolic=[0])
    assert calls[0] == 1
    # Syllables t^-1 a^40 t^-10 b^30 t a^-25 span [0,1], [1,41], [41,51], [51,81],
    # [81,82], [82,107]; a window of 4 fits an a/b hull widened by 1 except here.
    assert pts == list(range(39, 54)) + list(range(79, 85))


def test_transition_points_reject_a_path_that_is_not_a_geodesic(z2_cfg):
    g = z2_cfg.group
    path = [g.identity, g.word("a"), g.identity]
    for parabolic in ([0], []):
        with pytest.raises(ValueError):
            transition_points(path, TransitionParams(epsilon=1, window=2), parabolic)


def test_coned_off_distance_collapses_parabolic_runs(z2_cfg):
    g = z2_cfg.group
    assert coned_off_distance(g.identity, g.word("a"), [0]) == 1
    assert coned_off_distance(g.identity, g.word("a^3"), [0]) == 2
    assert coned_off_distance(g.identity, g.word("a^100"), [0]) == 2
    assert coned_off_distance(g.identity, g.word("t*a^100*t"), [0]) == 4
    assert coned_off_distance(g.identity, g.word("a^100"), []) == 100


def test_gromov_products_grow_along_a_conical_ray(z2_cfg):
    g = z2_cfg.group
    e = g.identity
    seq = [g.word("a*t") ** n for n in range(1, 6)]
    for n, x in enumerate(seq, start=1):
        for m, z in enumerate(seq, start=1):
            assert gromov_product_coned(x, z, e, [0]) == 2.0 * min(n, m)
