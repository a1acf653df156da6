"""First-return chains on parabolic neighborhoods."""
import math
import weakref

import numpy as np
import pytest

from relwalk import (ChainGreen, FactorSpec, FiberIndex, FreeProductEngine, FreeProductGroup,
                     LatticeChain, StepMeasure, induce_first_return, minimize_lambda,
                     verify_same_green)
from relwalk import induced, lattice
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import AssumptionError
from relwalk.perron import level_set_point

from conftest import count_calls

# Lattice points (padded with zeros or cut to the chain rank) at which
# box_same_green compares the two Green's functions in every fiber.
BOX_PROBES = ((0,), (1,), (2, 1), (-1, 2), (3, 3))


def box_same_green(chain, engine, fibers) -> float:
    """Max |G_chain - G_walk| over the probe states, G_chain from a full-radius
    box of the induced chain: the check that verify_same_green's residual replaced."""
    cg = ChainGreen(chain, radius=engine.radius)
    worst = 0.0
    for z in BOX_PROBES:
        zt = (tuple(z) + (0,) * chain.rank)[:chain.rank]
        for k in range(len(fibers)):
            ref = engine.green(engine.group.identity, fibers.state(zt, k))
            worst = max(worst, abs(cg.green(0, zt, k) - ref))
    return worst


def test_fiber_enumeration_small_neighborhoods(f2_cfg, z2_cfg):
    f1 = FiberIndex.build(f2_cfg.group, factor=0, eta=1, state_cap=DEFAULT_STATE_CAP)
    assert len(f1) == 3
    z0 = FiberIndex.build(z2_cfg.group, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)
    assert len(z0) == 1
    z2 = FiberIndex.build(z2_cfg.group, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)
    assert len(z2) == 13


def test_fiber_round_trip_through_group_elements(z2_cfg):
    group = z2_cfg.group
    fibers = FiberIndex.build(group, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)
    assert fibers.state((0, 0), 0) == group.identity
    states = {fibers.state(z, k) for z in ((0, 0), (2, -1)) for k in range(len(fibers))}
    assert len(states) == 2 * len(fibers)
    for k, (w, f) in enumerate(fibers.fibers):
        g = fibers.state((2, -1), k)
        assert g == group.syllable(0, (2, -1), f) * w
        assert g.syllables[1:] == w.syllables
        assert w.word_length <= 2 and (w.is_identity or w.syllables[0][0] != 0)
    t_fiber = [k for k, (w, _) in enumerate(fibers.fibers) if w == group.word("t")]
    assert fibers.state((2, -1), t_fiber[0]) == group.word("a^2*b^-1*t")


def test_free_group_induced_chain_is_the_birth_death_oracle(f2a_chain):
    probs = {dz: w for _, _, dz, w in f2a_chain.entries}
    assert abs(probs[(0,)] - 1.0 / 6.0) < 1e-12
    assert abs(probs[(1,)] - 0.25) < 1e-12
    assert abs(probs[(-1,)] - 0.25) < 1e-12
    stray = sum(w for dz, w in probs.items() if dz not in {(0,), (1,), (-1,)})
    assert stray < 1e-10
    assert f2a_chain.fiber_count == 1
    assert f2a_chain.is_strictly_submarkov


def test_induced_chain_green_matches_the_walk(f2a_chain, f2_engine, f2_cfg):
    fibers = FiberIndex.build(f2_cfg.group, factor=0, eta=0, state_cap=DEFAULT_STATE_CAP)
    dev = verify_same_green(f2a_chain, f2_engine, fibers)
    assert dev < 1e-9


def test_rank_two_induced_chain_green_matches_the_walk(z2_chain_eta2, z2_engine, z2_cfg):
    fibers = FiberIndex.build(z2_cfg.group, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)
    dev = verify_same_green(z2_chain_eta2, z2_engine, fibers)
    assert dev < 1e-9


@pytest.mark.parametrize("engine_name, chain_name, eta", [
    ("f2_engine", "f2a_chain", 0), ("z2_engine", "z2_chain_eta0", 0),
    ("z2_engine", "z2_chain_eta2", 2),
], ids=["f2_over_a-eta0", "z2-eta0", "z2-eta2"])
def test_residual_catches_every_perturbed_entry_the_box_check_catches(engine_name, chain_name,
                                                                       eta, request):
    """Each kernel entry in turn scaled by 1 +- 1e-6: the residual figure is at
    least half the box check's Green deviation on every one (0.52-27x)."""
    engine = request.getfixturevalue(engine_name)
    chain = request.getfixturevalue(chain_name)
    fibers = FiberIndex.build(engine.group, factor=0, eta=eta, state_cap=DEFAULT_STATE_CAP)
    for i, (j1, j2, dz, w) in enumerate(chain.entries):
        for scale in (1 + 1e-6, 1 - 1e-6):
            entries = list(chain.entries)
            entries[i] = (j1, j2, dz, w * scale)
            perturbed = LatticeChain(chain.rank, chain.fiber_count, tuple(entries))
            got = verify_same_green(perturbed, engine, fibers)
            assert got >= 0.5 * box_same_green(perturbed, engine, fibers), (i, scale)


def test_same_green_builds_no_box(z2_cfg, z2_chain_eta2, monkeypatch):
    engine = FreeProductEngine(z2_cfg.group, z2_cfg.measure, radius=z2_cfg.radius)
    fibers = FiberIndex.build(z2_cfg.group, factor=0, eta=2, state_cap=DEFAULT_STATE_CAP)
    boxes = count_calls(monkeypatch, lattice, "BoxGreen")
    assert verify_same_green(z2_chain_eta2, engine, fibers) < 1e-13
    assert boxes[0] == 0


def test_closed_stochastic_fiber_class_is_an_assumption_failure(f2_cfg, f2_engine):
    # Fibers 1 and 2 pass all their mass between themselves: I - F(0) is singular.
    fibers = FiberIndex.build(f2_cfg.group, factor=0, eta=1, state_cap=DEFAULT_STATE_CAP)
    chain = LatticeChain.build(1, 3, [(0, 0, (1,), 0.25), (0, 1, (0,), 0.25),
                                      (1, 1, (1,), 0.5), (1, 2, (0,), 0.5),
                                      (2, 1, (-1,), 0.25), (2, 2, (0,), 0.75)])
    with pytest.raises(AssumptionError, match="singular"):
        verify_same_green(chain, f2_engine, fibers)


def test_neighborhood_width_does_not_move_the_boundary_point(z2_chain_eta0, z2_chain_eta2):
    th = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    b0 = level_set_point(z2_chain_eta0, th)
    b2 = level_set_point(z2_chain_eta2, th)
    assert abs(b0.u[0] - b2.u[0]) < 1e-9
    assert abs(b0.u[1] - b2.u[1]) < 1e-9
    assert abs(b0.u[0] - 0.865292073000101) < 1e-9


def test_minima_differ_between_widths_but_stay_below_one(z2_chain_eta0, z2_chain_eta2):
    m0 = minimize_lambda(z2_chain_eta0)
    m2 = minimize_lambda(z2_chain_eta2)
    assert abs(m0.value - 0.867228590794) < 1e-9
    assert abs(m2.value - 0.8869412512011429) < 1e-9
    assert m0.value < 1.0 and m2.value < 1.0


def test_induced_chain_is_symmetric_under_z_negation(z2_chain_eta0):
    probs = {dz: w for _, _, dz, w in z2_chain_eta0.entries}
    for dz, w in probs.items():
        neg = tuple(-c for c in dz)
        assert abs(w - probs[neg]) < 1e-12


@pytest.mark.parametrize("eta", [0, 1, 2])
def test_excursions_through_a_finite_factor(eta):
    # Z^2 * Z/3: excursions leave the parabolic Z^2 through the rank-0 factor.
    group = FreeProductGroup([
        FactorSpec(2, ((0,),), ("a", "b"), ()),
        FactorSpec(0, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), (), ("t", "u"))])
    mu = StepMeasure.uniform(group).lazy()
    engine = FreeProductEngine(group, mu, radius=6)
    chain = induce_first_return(engine, factor=0, eta=eta, state_cap=DEFAULT_STATE_CAP)
    fibers = FiberIndex.build(group, factor=0, eta=eta, state_cap=DEFAULT_STATE_CAP)
    assert chain.fiber_count == len(fibers)
    assert verify_same_green(chain, engine, fibers) < 1e-6
    assert box_same_green(chain, engine, fibers) < 1e-6


def complement_onto_first_fibers(chain, count: int):
    """Stochastic complement at lambda = 1 onto fibers 0..count-1, from chain.entries.

    Returns A_CC + A_CR (I - A_RR)^-1 A_RC over the undisplaced entries
    and the displaced entries as a dict; every displaced entry must lie
    in C x C, so excursions through the rest R carry no displacement.
    """
    n = chain.fiber_count
    undisplaced = np.zeros((n, n))
    displaced = {}
    for j1, j2, dz, w in chain.entries:
        if any(dz):
            displaced[j1, j2, dz] = w
        else:
            undisplaced[j1, j2] += w
    assert all(j1 < count and j2 < count for j1, j2, _ in displaced)
    c, r = slice(0, count), slice(count, n)
    excursions = undisplaced[c, r] @ np.linalg.solve(np.eye(n - count) - undisplaced[r, r],
                                                     undisplaced[r, c])
    return undisplaced[c, c] + excursions, displaced


def test_wide_neighbourhood_chain_complements_to_the_eta0_chain(
        z2_chain_eta0, z2_chain_eta2, f2_engine, f2a_chain, seeded_z2_engine, seeded_eta4_chain):
    # Watching the eta-chain only on the eta-0 fibers is watching the walk
    # on P: the complement (Meyer, SIAM Rev. 31, 1989) is the eta-0 kernel.
    pairs = {"z2 eta 2": (z2_chain_eta0, z2_chain_eta2),
             "f2_over_a eta 2": (f2a_chain, induce_first_return(f2_engine, 0, 2, DEFAULT_STATE_CAP)),
             "f2_over_a eta 4": (f2a_chain, induce_first_return(f2_engine, 0, 4, DEFAULT_STATE_CAP)),
             "seeded z2 eta 4": (induce_first_return(seeded_z2_engine, 0, 0, DEFAULT_STATE_CAP), seeded_eta4_chain)}
    for name, (base, wide) in pairs.items():
        count = base.fiber_count
        block, displaced = complement_onto_first_fibers(base, count)
        got, wide_displaced = complement_onto_first_fibers(wide, count)
        assert wide.fiber_count > count, name
        assert wide_displaced == displaced, name
        assert np.all(np.abs(got - block) <= 1e-13 * np.abs(block)), name


def test_induction_solves_each_absorbing_set_once(seeded_z2_engine, monkeypatch):
    """At eta 4 the 48 exit starts fall in 8 absorbing sets (factor, depth):
    one first-hit call each, over the same 11 stopped boxes as one call per
    start, of which no two are ever alive at once."""
    engine = seeded_z2_engine
    calls = count_calls(monkeypatch, induced, "absorption_distribution")
    built, live, most = [], [0], [0]
    init = lattice.BoxGreen.__init__

    def counted_init(self, chain, half_width, stop_depth=None):
        init(self, chain, half_width, stop_depth)
        if stop_depth is not None:
            factor = next(i for i in range(2) if engine.factor_chain(i) is chain)
            built.append((factor, half_width, stop_depth))
            live[0] += 1
            most[0] = max(most[0], live[0])
            weakref.finalize(self, lambda: live.__setitem__(0, live[0] - 1))

    monkeypatch.setattr(lattice.BoxGreen, "__init__", counted_init)
    induce_first_return(engine, factor=0, eta=4, state_cap=DEFAULT_STATE_CAP)
    assert calls[0] == 8
    assert built == [(0, 15, 0), (0, 15, 1), (0, 16, 1), (0, 16, 2), (0, 17, 2), (0, 17, 3),
                     (0, 18, 3), (1, 15, 0), (1, 16, 1), (1, 17, 2), (1, 19, 4)]
    assert most[0] == 1 and live[0] == 0
