"""First-return chains on neighborhoods of a parabolic factor.

Watching the walk only when it sits in the eta-neighborhood of the
parabolic subgroup P = Z^k x F yields a Z^k-invariant sub-Markov chain on
Z^k x {fibers}.  The excursions between visits are summed exactly through
the cut-vertex structure of the free product: an excursion re-enters the
neighborhood through the block where it left, so its weight is one
first-hit law in the factor where the excursion started, read off a box
Green row of that factor's chain stopped on the states of re-entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balls import ball_elements
from .errors import AssumptionError
from .excursions import FreeProductEngine
from .groups import FreeProductGroup, GroupElement
from .lattice import LatticeChain, absorption_distribution


@dataclass(frozen=True)
class FiberIndex:
    """Bijection between the eta-neighborhood of P and Z^k x {fibers}.

    A state (z, f)*w (lattice part z, finite part f, outward word w with
    |w| <= eta not starting in P's factor) maps to lattice point z and
    fiber (w, f).  Fibers are ordered by (distance to P, normal form of w,
    finite index), so fiber 0 is (identity, identity-component).
    """

    group: FreeProductGroup
    factor: int
    fibers: tuple[tuple[GroupElement, int], ...]

    @staticmethod
    def build(group: FreeProductGroup, factor: int, eta: int,
              state_cap: int) -> "FiberIndex":
        # ball_elements already lists the words by (length, normal form).
        spec = group.factors[factor]
        words = [g for g in ball_elements(group, eta, state_cap)
                 if g.syllable_count == 0 or g.syllables[0][0] != factor]
        fibers = tuple((w, f) for w in words for f in range(len(spec.table)))
        return FiberIndex(group=group, factor=factor, fibers=fibers)

    def __len__(self) -> int:
        return len(self.fibers)

    def state(self, z, fiber: int) -> GroupElement:
        """Group element of lattice point z in the given fiber."""
        w, f = self.fibers[fiber]
        zt = tuple(int(c) for c in z)
        base = self.group.identity
        if any(zt) or f != 0:
            base = self.group.syllable(self.factor, zt, f)
        return base * w


def induce_first_return(engine: FreeProductEngine, factor: int, eta: int,
                        state_cap: int) -> LatticeChain:
    """First-return chain of the walk on the eta-neighborhood of factor's P.

    Each kernel entry sums all excursion paths exactly (up to the engine's
    box truncation).  Steps are single syllables, so a step w -> w*s that
    leaves the neighborhood does so inside the last syllable of w*s, and
    its excursion weight is one first-hit (absorption) distribution back
    onto the neighborhood in that syllable's factor.  Lattice
    displacements occur only on direct steps inside P, so the chain's
    z-support equals the P-support of the step measure at every eta.
    """
    group = engine.group
    if not 0 <= factor < len(group.factors):
        raise ValueError(f"no factor {factor} in a {len(group.factors)}-factor product")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if 3 * eta > engine.radius:
        raise ValueError(f"eta {eta} too large for engine radius {engine.radius}; "
                         "need eta <= radius/3")
    spec = group.factors[factor]
    fibers = FiberIndex.build(group, factor, eta, state_cap)
    index = {(w.syllables, f): i for i, (w, f) in enumerate(fibers.fibers)}
    zero = (0,) * spec.rank

    # One pass in kernel order.  A direct step is the entry (k, j2, dz,
    # weight); an exit is (k, f, weight, prefix, v0, depth), expanded below
    # once the first-hit law of v0 on its (factor, depth) set is known.
    steps: list[tuple] = []
    first_hit: dict[tuple[int, int], dict] = {}  # (factor, depth) -> {start (z, j): law}
    for k, (w, f) in enumerate(fibers.fibers):
        for s, wt in engine.mu.items():
            if s.syllable_count == 0:
                steps.append((k, k, zero, wt))
                continue
            sf, sz, sj = s.syllables[0]
            if w.syllable_count == 0 and sf == factor:
                steps.append((k, index[((), spec.finite_mul(f, sj))], tuple(sz), wt))
                continue
            h = w * s
            if h.word_length <= eta:
                steps.append((k, index[(h.syllables, f)], zero, wt))
                continue
            # h leaves the ball inside its last syllable v0: the prefix
            # before it is w or a prefix of w, so |prefix| <= eta.
            v0 = h.syllables[-1]
            prefix = GroupElement(group, h.syllables[:-1])  # prefixes of normal forms are normal
            depth = eta - prefix.word_length
            first_hit.setdefault((v0[0], depth), {})[v0[1:]] = None
            steps.append((k, f, wt, prefix, v0, depth))
    for (fac, depth), starts in sorted(first_hit.items()):
        first_hit[fac, depth] = dict(zip(starts, absorption_distribution(
            engine.factor_chain(fac), list(starts), depth, engine.radius)))
    entries = []
    for step in steps:
        if len(step) == 4:
            entries.append(step)
            continue
        k, f, wt, prefix, (fac, z, j), depth = step
        for (zv, jv), prob in sorted(first_hit[fac, depth][z, j].items()):
            target = prefix * group.syllable(fac, zv, jv) if any(zv) or jv != 0 else prefix
            entries.append((k, index[(target.syllables, f)], zero, wt * prob))
    del steps, first_hit  # the chain's entries then reuse their heap: lower peak RSS
    chain = LatticeChain.build(rank=spec.rank, fiber_count=len(fibers), entries=entries)
    if not chain.is_strictly_submarkov:
        raise AssumptionError(
            "induced chain is not strictly sub-Markov; no mass escapes the "
            "neighborhood, so the level-set machinery does not apply")
    return chain


def verify_same_green(chain: LatticeChain, engine: FreeProductEngine,
                      fibers: FiberIndex) -> float:
    """kappa max_j |rho_j|, rho_j the residual of G(., e) = delta_e + P G(., e) in fiber j's row.

    kappa = max_i [(I - F(0))^-1 1]_i, the expected visit count of P (the walk watched on the
    neighborhood), scales rho, read at z = 0 only, to the scale (not a bound) of G_chain - G_walk.
    """
    n, (flat, _, w) = chain.fiber_count, chain.entry_arrays
    states = [fibers.state((0,) * chain.rank, j) for j in range(n)]
    states += [fibers.state(dz, j2) for _, j2, dz, _ in chain.entries]
    col = engine.green_matrix(states, [engine.group.identity])[:, 0]
    rho = col[:n] - np.eye(n)[0] - np.bincount(flat // n, w * col[n:], n)
    try:
        visits = np.linalg.solve(np.eye(n) - np.bincount(flat, w, n * n).reshape(n, n), np.ones(n))
    except np.linalg.LinAlgError:
        visits = np.zeros(n)
    if not np.all(visits >= 1.0):  # I - F(0) is singular, or is so up to rounding
        raise AssumptionError("I - F(0) is singular: a closed fiber class keeps all its mass")
    return float(visits.max() * np.abs(rho).max())
