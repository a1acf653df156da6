"""Randomized structural invariants checked with hypothesis."""
import functools
import heapq
import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from relwalk import (FreeProductEngine, TransitionParams, ball_elements,
                     floyd_distance, induce_first_return, load_config,
                     transition_points, word_geodesic)
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.groups import Coset, FactorSpec, FreeProductGroup, project_to_coset
from relwalk.perron import perron, perron_values

from conftest import config_path, coset_distance, perron_residual

COMMON = settings(max_examples=25, deadline=None, derandomize=True)

Z2_CFG = load_config(config_path("z2_free_z.json"))
F2_CFG = load_config(config_path("f2.json"))
F2_ENGINE = FreeProductEngine(F2_CFG.group, F2_CFG.measure, radius=25)

token_lists = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=0, max_size=6)


def build_word(group, tokens):
    names = [n for n, _ in group.generators() if not n.endswith("^-1")]
    out = group.identity
    for gi, k in tokens:
        if k == 0:
            continue
        name = names[gi % len(names)]
        out = out * (group.word(name) ** k)
    return out


@COMMON
@given(token_lists, token_lists, token_lists)
def test_group_law_associativity_and_inverses(tx, ty, tz):
    g = Z2_CFG.group
    x, y, z = (build_word(g, t) for t in (tx, ty, tz))
    assert (x * y) * z == x * (y * z)
    assert x * x.inverse() == g.identity
    assert (x * y).inverse() == y.inverse() * x.inverse()
    assert x * g.identity == x


@COMMON
@given(token_lists, token_lists)
def test_word_length_is_subadditive_and_inverse_invariant(tx, ty):
    g = Z2_CFG.group
    x, y = build_word(g, tx), build_word(g, ty)
    assert (x * y).word_length <= x.word_length + y.word_length
    assert x.inverse().word_length == x.word_length
    assert (x.word_length == 0) == x.is_identity


@COMMON
@given(token_lists, token_lists)
def test_round_trip_through_the_parser(tx, ty):
    g = Z2_CFG.group
    x = build_word(g, tx) * build_word(g, ty)
    assert g.word(g.format(x)) == x


@COMMON
@given(token_lists, st.integers(0, 1), st.integers(0, 2))
def test_coset_distance_is_one_lipschitz(tokens, fac_choice, gen_idx):
    g = Z2_CFG.group
    x = build_word(g, tokens)
    c = Coset.of(g.word("t"), 0)
    name = [n for n, _ in g.generators()][gen_idx % len(g.generators())]
    step = g.word(name)
    d1 = coset_distance(x, c)
    d2 = coset_distance(x * step, c)
    assert abs(d1 - d2) <= step.word_length


@COMMON
@given(token_lists)
def test_projection_realizes_the_coset_distance(tokens):
    g = Z2_CFG.group
    x = build_word(g, tokens)
    c = Coset.of(g.identity, 0)
    pi = project_to_coset(x, c)
    assert c.contains(pi)
    d = coset_distance(x, c)
    assert (pi.inverse() * x).word_length == d
    for z1 in (-2, 0, 1):
        for z2 in (-1, 0, 2):
            member = c.member((z1, z2))
            assert (member.inverse() * x).word_length >= d


@COMMON
@given(token_lists, token_lists)
def test_geodesics_realize_the_word_metric(tx, ty):
    g = Z2_CFG.group
    x, z = build_word(g, tx), build_word(g, ty)
    path = word_geodesic(x, z)
    assert len(path) == 1 + (x.inverse() * z).word_length
    for p, q in zip(path, path[1:]):
        assert (p.inverse() * q).word_length == 1


# Groups for the Floyd and transition-point checks, each with the radius of
# the Floyd reference ball:
# the free group, the shipped Z^2 * Z and (Z x Z/2) * Z/3 * Z^2.
FLOYD_GROUPS = (
    (F2_CFG.group, 6),
    (Z2_CFG.group, 5),
    (FreeProductGroup([
        FactorSpec(1, ((0, 1), (1, 0)), ("a",), ("s",)),
        FactorSpec(0, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), (), ("t", "u")),
        FactorSpec(2, ((0,),), ("b", "c"), ())]), 4),
)


@functools.lru_cache(maxsize=None)
def ball_floyd_distances(group, radius, ratio):
    """Reference: Dijkstra from e over the radius ball, edge {g, h} weighing ratio^min(|g|, |h|)."""
    gens = [s for _, s in group.generators()]
    dist = {group.identity: 0.0}
    order = itertools.count()
    heap = [(0.0, next(order), group.identity)]
    while heap:
        d, _, g = heapq.heappop(heap)
        if d > dist[g]:
            continue
        for s in gens:
            h = g * s
            if h.word_length > radius:
                continue
            nd = d + ratio ** min(g.word_length, h.word_length)
            if nd < dist.get(h, math.inf) - 1e-18:
                dist[h] = nd
                heapq.heappush(heap, (nd, next(order), h))
    return dist


@COMMON
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), min_size=0, max_size=4))
def test_floyd_distance_matches_a_ball_dijkstra(tokens):
    for group, radius in FLOYD_GROUPS:
        z = build_word(group, tokens)
        z = word_geodesic(group.identity, z)[min(z.word_length, radius)]
        for ratio in (0.1, 0.5, 0.9):
            expected = ball_floyd_distances(group, radius, ratio)[z]
            assert floyd_distance(ratio, z) == expected


Z2_ENGINE = FreeProductEngine(Z2_CFG.group, Z2_CFG.measure, radius=12)
Z2_CHAIN = induce_first_return(Z2_ENGINE, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)
Z2_CHAIN_ETA2 = induce_first_return(Z2_ENGINE, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)


@COMMON
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),
       st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_perron_value_is_log_convex_along_segments(a0, a1, b0, b1):
    # The eta-2 chain has 12 fibers outside its tilt core, so these values
    # come from the stochastic complement, not from eigenvalues of F(u).
    u0 = np.array([a0, a1])
    u1 = np.array([b0, b1])
    lam0, lam1, mid = perron_values(Z2_CHAIN_ETA2, [u0, u1, 0.5 * (u0 + u1)])
    assert mid <= math.sqrt(lam0 * lam1) * (1 + 1e-12)


@COMMON
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
def test_perron_residual_and_gradient_match_finite_differences(u0, u1):
    data = perron(Z2_CHAIN, (u0, u1))
    assert perron_residual(Z2_CHAIN, data) < 1e-9
    h = 1e-6
    for axis in range(2):
        up = [u0, u1]
        dn = [u0, u1]
        up[axis] += h
        dn[axis] -= h
        fd = (perron(Z2_CHAIN, tuple(up)).value -
              perron(Z2_CHAIN, tuple(dn)).value) / (2 * h)
        assert abs(data.gradient[axis] - fd) < 1e-5 * max(1.0, abs(fd))


@COMMON
@given(token_lists)
def test_green_columns_are_harmonic_off_the_target(tokens):
    g = F2_CFG.group
    eng = F2_ENGINE
    y = build_word(g, tokens)
    lhs = eng.green(g.identity, y)
    rhs = (1.0 if y.is_identity else 0.0)
    for s, w in F2_CFG.measure.items():
        rhs += w * eng.green(s, y)
    assert abs(lhs - rhs) < 1e-9


@COMMON
@given(token_lists, token_lists, token_lists)
def test_transition_points_are_translation_invariant(tt, tx, tz):
    g = Z2_CFG.group
    shift = build_word(g, tt)
    x, z = build_word(g, tx), build_word(g, tz)
    params = TransitionParams(epsilon=1, window=2)
    base = transition_points(word_geodesic(x, z), params, [0])
    moved = transition_points(word_geodesic(shift * x, shift * z), params, [0])
    assert base == moved


@functools.lru_cache(maxsize=64)
def searched_coset_rows(path, epsilon, fac):
    """Distances from each path point to every fac-coset within epsilon of the path.

    A parabolic set's candidates are the union of its factors' candidates,
    so rows are cached per factor and shared by every set and window.
    """
    cosets = {}
    for p in path:
        for h in ball_elements(path[0].group, epsilon, DEFAULT_STATE_CAP):
            c = Coset.of(p * h, fac)
            cosets.setdefault(c.sort_key(), c)
    return [[coset_distance(p, c) for p in path] for c in cosets.values()]


def searched_transition_points(path, params, parabolic):
    """Reference: transition points by search over the nearby cosets.

    Every parabolic coset within epsilon of some path point is a
    candidate, and a point is deep when one candidate's epsilon
    neighborhood holds its whole window.
    """
    n = len(path)
    if not parabolic:
        return list(range(n))
    dists = [row for fac in parabolic
             for row in searched_coset_rows(tuple(path), params.epsilon, fac)]
    out = []
    for i in range(n):
        lo, hi = max(0, i - params.window), min(n, i + params.window + 1)
        if not any(max(row[lo:hi]) <= params.epsilon for row in dists):
            out.append(i)
    return out


short_token_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-2, 2)), min_size=0, max_size=3)


@COMMON
@given(short_token_lists, short_token_lists)
def test_transition_points_match_the_coset_search(tx, tz):
    for group, _ in FLOYD_GROUPS:
        x = build_word(group, tx)
        if x.is_identity:
            x = group.generators()[0][1]
        path = word_geodesic(x, build_word(group, tz) * x)
        factors = range(len(group.factors))
        for r in range(len(group.factors) + 1):
            for parabolic in itertools.combinations(factors, r):
                for eps in (0, 1, 2):
                    for width in range(1, 6):
                        params = TransitionParams(epsilon=eps, window=width)
                        assert transition_points(path, params, parabolic) \
                            == searched_transition_points(path, params, parabolic)
