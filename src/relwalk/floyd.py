"""Floyd distances, word geodesics, transition points, and the coned-off graph.

Floyd distances are taken from the identity, where they are a closed form
in the word length (see floyd_distance), and transition points of a word
geodesic are read off the syllables of its normal form (see
transition_points); no graph search or ball enumeration is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import GroupElement


@dataclass(frozen=True)
class TransitionParams:
    """Neighborhood width and window length for transition-point detection."""

    epsilon: int
    window: int

    def __post_init__(self):
        if self.epsilon < 0 or self.window <= 0:
            raise ValueError("need epsilon >= 0 and window > 0")


def floyd_distance(ratio: float, z: GroupElement) -> float:
    """Floyd distance from the identity to z: the sum of ratio^k over k < |z|.

    An edge {g, h} of the Cayley graph weighs ratio^min(|g|, |h|), with
    ratio in (0, 1).  Word length changes by at most one per edge, so every
    path from e to z crosses each level k < |z| on an edge of weight
    ratio^k, and a word geodesic crosses each level once and takes no
    other edge.  The value is therefore exact in the group and in every
    ball of radius >= |z|.  The terms are added from 0.0 in increasing k,
    in a plain loop rather than sum(), whose float summation is
    compensated from Python 3.12 on.
    """
    total = 0.0
    for k in range(z.word_length):
        total += ratio ** k
    return total


def word_geodesic(x: GroupElement, z: GroupElement) -> list[GroupElement]:
    """One shortest path x -> z, spelled syllable by syllable.

    The normal form of x^-1 z is expanded into unit generator steps
    (lattice coordinates in axis order, then the finite letter), which
    realizes the word metric exactly in these free products.
    """
    group = x.group
    path = [x]
    cur = x
    for (fac, zvec, j) in (x.inverse() * z).syllables:
        spec = group.factors[fac]
        for d, c in enumerate(zvec):
            step = [0] * spec.rank
            step[d] = 1 if c > 0 else -1
            for _ in range(abs(c)):
                cur = cur * group.syllable(fac, step)
                path.append(cur)
        if j != 0:
            cur = cur * group.syllable(fac, (0,) * spec.rank, j)
            path.append(cur)
    return path


def transition_points(path: Sequence[GroupElement], params: TransitionParams,
                      parabolic: Iterable[int]) -> list[int]:
    """Indices whose surrounding window sits in no coset's epsilon-hull.

    A point is deep when some parabolic coset's epsilon-neighborhood
    contains the whole window around it (the window is truncated at the
    path's ends); all other points are transition points.  The path must
    be a word geodesic, and the answer is read off the normal form of
    path[0]^-1 path[-1]: the Cayley graph is tree-graded over the factor
    cosets, so the geodesic runs through the coset of its t-th syllable
    exactly on the indices [a_t, b_t] that syllable spans, and is
    max(0, a_t - i, i - b_t) away from it at index i.  Every other coset
    meets the path in at most one point, onto which the whole path
    projects, so its epsilon-neighborhood holds at most 2*epsilon + 1
    consecutive path points; conversely, such a short window lies within
    epsilon of the parabolic coset through its middle point.
    """
    parabolic = set(parabolic)
    n = len(path) - 1
    w = path[0].inverse() * path[-1]
    if w.word_length != n:
        raise ValueError("transition points need a word geodesic path")
    if not parabolic:
        return list(range(n + 1))
    eps, width = params.epsilon, params.window
    hulls = []
    a = 0
    for fac, z, j in w.syllables:
        b = a + w.group.factors[fac].syllable_length(z, j)
        if fac in parabolic:
            hulls.append((a - eps, b + eps))
        a = b
    out = []
    for i in range(n + 1):
        lo, hi = max(0, i - width), min(n, i + width)
        deep = hi - lo <= 2 * eps or any(s <= lo and hi <= t for s, t in hulls)
        if not deep:
            out.append(i)
    return out


def coned_off_distance(x: GroupElement, z: GroupElement,
                       parabolic: Iterable[int]) -> int:
    """Graph distance after collapsing each parabolic coset through a cone.

    Every syllable of the normal form is crossed independently: a coned
    factor's syllable costs min(length, 2) (two edges through the cone
    vertex), any other syllable costs its word length.  This is exact
    because consecutive syllables meet in cut vertices.
    """
    parabolic = set(parabolic)
    group = x.group
    total = 0
    for (fac, zvec, j) in (x.inverse() * z).syllables:
        length = group.factors[fac].syllable_length(zvec, j)
        total += min(length, 2) if fac in parabolic else length
    return total


def gromov_product_coned(x: GroupElement, z: GroupElement, base: GroupElement,
                         parabolic: Iterable[int]) -> float:
    """(x|z)_base in the coned-off metric."""
    parabolic = tuple(parabolic)
    dx = coned_off_distance(base, x, parabolic)
    dz = coned_off_distance(base, z, parabolic)
    dxz = coned_off_distance(x, z, parabolic)
    return (dx + dz - dxz) / 2
