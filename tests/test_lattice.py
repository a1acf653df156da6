"""Killed lattice chains and their box Green's functions."""
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from relwalk import LatticeChain, induce_first_return
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import ConfigError, ConvergenceError
from relwalk import induced, lattice
from relwalk.lattice import BoxGreen, ChainGreen, absorption_distribution


def killed_z(q: float = 0.2) -> LatticeChain:
    return LatticeChain.build(1, 1, [(0, 0, (1,), q), (0, 0, (-1,), q)])


def lazy(c: LatticeChain) -> LatticeChain:
    """Half of every step plus a half loop on each fiber."""
    entries = [(j1, j2, dz, 0.5 * w) for j1, j2, dz, w in c.entries]
    entries += [(j, j, (0,) * c.rank, 0.5) for j in range(c.fiber_count)]
    return LatticeChain.build(c.rank, c.fiber_count, entries)


def test_build_merges_duplicate_entries():
    c = LatticeChain.build(1, 1, [(0, 0, (1,), 0.1), (0, 0, (1,), 0.1),
                                  (0, 0, (-1,), 0.2)])
    assert len(c.entries) == 2
    assert c.row_masses() == [pytest.approx(0.4)]
    assert sorted({dz for _, _, dz, _ in c.entries}) == [(-1,), (1,)]
    assert max(abs(s) for _, _, dz, _ in c.entries for s in dz) == 1


def test_validation_rejects_malformed_entries():
    with pytest.raises(ConfigError):
        LatticeChain.build(1, 1, [(0, 1, (1,), 0.1)])
    with pytest.raises(ConfigError):
        LatticeChain.build(2, 1, [(0, 0, (1,), 0.1)])
    with pytest.raises(ConfigError):
        LatticeChain.build(1, 1, [(0, 0, (1,), -0.1)])


def test_submarkov_flag_and_lazy_transform():
    c = killed_z()
    assert c.is_strictly_submarkov
    lz = lazy(c)
    assert lz.row_masses() == [pytest.approx(0.5 + 0.5 * 0.4)]
    assert (0, 0, (0,), 0.5) in lz.entries


def test_strong_irreducibility_detection():
    assert killed_z().is_strongly_irreducible()
    one_way = LatticeChain.build(1, 2, [(0, 1, (1,), 0.3)])
    assert not one_way.is_strongly_irreducible()
    flip = LatticeChain.build(1, 2, [(0, 1, (0,), 0.4), (1, 0, (0,), 0.4)])
    assert not flip.is_strongly_irreducible()
    assert lazy(flip).is_strongly_irreducible()
    # Wielandt's pattern: an n-cycle plus one chord is first positive at the
    # power n^2 - 2n + 2 itself.
    n = 7
    wielandt = LatticeChain.build(1, n, [(j, (j + 1) % n, (1,), 0.1) for j in range(n)]
                                  + [(n - 1, 1, (0,), 0.1)])
    assert wielandt.is_strongly_irreducible()
    without_chord = LatticeChain.build(1, n, [(j, (j + 1) % n, (1,), 0.1) for j in range(n)])
    assert not without_chord.is_strongly_irreducible()
    # A reducible pattern on 60 fibers: no path leads back down.
    ladder = LatticeChain.build(1, 60, [(j, j + 1, (1,), 0.1) for j in range(59)]
                                + [(j, j, (0,), 0.1) for j in range(60)])
    assert not ladder.is_strongly_irreducible()


def test_cycle_lattice_index(seeded_eta4_chain, z2_chain_eta2, f2a_chain, lat_cfg):
    def steps(rank, fibers, moves):
        return LatticeChain.build(rank, fibers, [(j1, j2, dz, 0.1) for j1, j2, dz in moves])

    for c in (killed_z(), seeded_eta4_chain, z2_chain_eta2, f2a_chain, lat_cfg.chain):
        assert c.cycle_lattice_index() == 1
    assert steps(1, 1, [(0, 0, (2,)), (0, 0, (-2,))]).cycle_lattice_index() == 2
    # Through fiber 1 and back the walk moves by -2, 0 or 2.
    period_two = steps(1, 2, [(0, 1, (1,)), (0, 1, (-1,)), (1, 0, (1,)), (1, 0, (-1,))])
    assert period_two.cycle_lattice_index() == 2
    # Every 2 x 2 minor of (6, 0), (0, 4), (2, 2), (-5, -3) is even.
    plane = [(6, 0), (0, 4), (2, 2), (-5, -3)]
    assert steps(2, 1, [(0, 0, dz) for dz in plane]).cycle_lattice_index() == 2
    assert steps(2, 1, [(0, 0, (3, 1)), (0, 0, (1, 2))]).cycle_lattice_index() == 5
    # Closed paths on one line, or not displaced at all: infinite index.
    assert steps(2, 1, [(0, 0, (1, 1)), (0, 0, (-2, -2))]).cycle_lattice_index() == 0
    assert lazy(LatticeChain.build(1, 2, [(0, 1, (0,), 0.4), (1, 0, (0,), 0.4)])
                ).cycle_lattice_index() == 0
    assert steps(1, 3, [(0, 1, (1,)), (1, 2, (1,)), (2, 0, (-2,))]).cycle_lattice_index() == 0


def _irreducible_int64(chain) -> bool:
    """The squaring check on an int64 pattern, as it ran before float64."""
    n = chain.fiber_count
    power = np.zeros((n, n), dtype=np.int64)
    for j1, j2, _, w in chain.entries:
        power[j1, j2] = 1
    exponent = 1
    while exponent < n * n - 2 * n + 2 and power.min() == 0:
        power = np.minimum(power @ power, 1)
        exponent *= 2
    return bool(power.min() > 0)


def _pattern_chain(pattern: np.ndarray) -> LatticeChain:
    return LatticeChain.build(1, len(pattern), [(j1, j2, (j1 - j2,), 0.01)
                                                for j1, j2 in zip(*np.nonzero(pattern))])


def test_float_irreducibility_matches_the_int64_squaring(seeded_eta4_chain, z2_chain_eta0,
                                                         z2_chain_eta2, f2a_chain, lat_cfg):
    """The eta = 4 and shipped chains, and seeded random patterns with an
    imprimitive cycle (every power zero somewhere) and a reducible pattern."""
    rng = np.random.default_rng(24)
    patterns = [rng.random((n, n)) < density for n, density in
                ((5, 0.3), (12, 0.5), (40, 0.05), (90, 0.1), (150, 0.08))]
    cycle = np.roll(np.eye(30, dtype=bool), 1, axis=1)
    cycle |= np.roll(cycle, 2, axis=1)  # steps +1 and +3 mod 30: period 2
    patterns += [cycle, np.triu(rng.random((50, 50)) < 0.3)]
    chains = [seeded_eta4_chain, z2_chain_eta0, z2_chain_eta2, f2a_chain, lat_cfg.chain]
    chains += [_pattern_chain(p) for p in patterns]
    got = [c.is_strongly_irreducible() for c in chains]
    assert got == [_irreducible_int64(c) for c in chains]
    assert got[0] and not got[-1] and not got[-2]
    assert True in got[5:-2] and False in got[5:-2]


def test_box_column_is_the_transposed_row():
    """G((z, j) -> (z', j')) read from the row out of (z, j) and from the
    column into (z', j')."""
    box = BoxGreen(two_fiber_plane(), 4)
    for (z, j), (zt, jt) in [(((0, 0), 0), ((1, -2), 1)), (((2, 1), 1), ((0, 0), 0)),
                             (((-3, 0), 0), ((-3, 0), 0))]:
        from_row = box.row(j, z)[box._state_id(zt, jt)]
        from_column = box.column(jt, zt)[box._state_id(z, j)]
        assert abs(from_row - from_column) < 1e-15 * abs(from_row)


def test_box_green_matches_killed_walk_closed_form():
    q = 0.2
    cg = ChainGreen(killed_z(q), radius=60)
    g00 = cg.green(0, (0,), 0)
    assert abs(g00 - 1.0 / math.sqrt(1.0 - 4.0 * q * q)) < 1e-10
    r = (1.0 - math.sqrt(1.0 - 4.0 * q * q)) / (2.0 * q)
    for n in (1, 2, 5, -3):
        assert abs(cg.green(0, (n,), 0) - g00 * r ** abs(n)) < 1e-10
        assert abs(cg.green(0, (n,), 0) / g00 - r ** abs(n)) < 1e-10


def test_absorption_distribution_matches_first_passage():
    chain = lazy(killed_z(0.25))
    r = 2.0 - math.sqrt(3.0)
    cg = ChainGreen(chain, radius=50)
    for max_len in (0, 1):
        dist, = absorption_distribution(chain, [((3,), 0)], max_len=max_len, radius=40)
        total = sum(dist.values())
        assert 0.0 < total <= 1.0 + 1e-12
        assert set(dist) == {((max_len,), 0)}
        assert abs(total - r ** (3 - max_len)) < 1e-9
        first_passage = cg.green(0, (max_len - 3,), 0) / cg.green(0, (0,), 0)
        assert abs(total - first_passage) < 1e-9


def two_fiber_plane() -> LatticeChain:
    """Rank-2 chain on two fibers with drift and fiber switches, row masses 0.9 and 0.85."""
    return LatticeChain.build(2, 2, [
        (0, 0, (1, 0), 0.25), (0, 0, (-1, 0), 0.15), (0, 0, (0, 1), 0.2),
        (0, 0, (0, -1), 0.2), (0, 1, (0, 0), 0.1),
        (1, 1, (1, 1), 0.3), (1, 1, (-1, 0), 0.25), (1, 0, (0, -1), 0.3)])


def test_first_hit_law_decomposes_the_green_function():
    """G(x, a) = sum_b h(x, b) G(b, a) for every a in A, A holding a j != 0 state."""
    chain = two_fiber_plane()
    cg = ChainGreen(chain, radius=40)
    depth = 1
    members = [((z1, z2), j) for z1 in range(-1, 2) for z2 in range(-1, 2) for j in (0, 1)
               if abs(z1) + abs(z2) + j <= depth]
    assert ((0, 0), 1) in members
    for x in (((3, 1), 0), ((-2, 2), 1), ((0, -3), 1)):
        h, = absorption_distribution(chain, [x], max_len=depth, radius=30)
        assert set(h) <= set(members)
        assert 0.0 < sum(h.values()) < 1.0
        for za, ja in members:
            direct = cg.green(x[1], tuple(a - b for a, b in zip(za, x[0])), ja)
            through = sum(p * cg.green(jb, tuple(a - b for a, b in zip(za, zb)), ja)
                          for (zb, jb), p in h.items())
            assert abs(through - direct) < 1e-9 * direct


def test_absorption_start_inside_set_rejected():
    for starts in ([((0,), 0)], [((2,), 0), ((0,), 0)]):
        with pytest.raises(ValueError):
            absorption_distribution(killed_z(), starts, max_len=0, radius=10)


@pytest.mark.parametrize("chain, starts", [
    (two_fiber_plane(), [((3, 1), 0), ((-2, 2), 1), ((0, -3), 1), ((5, 0), 0)]),
    (lazy(killed_z(0.25)), [((3,), 0), ((-6,), 0), ((2,), 0), ((-3,), 0)])])
def test_one_call_over_several_half_widths_matches_one_start_calls(chain, starts):
    """The starts need boxes of several half-widths radius + max|z_i|; the
    laws of one call over all of them are those of one call per start, bit
    for bit."""
    assert len({max(map(abs, z)) for z, _ in starts}) >= 2
    laws = absorption_distribution(chain, starts, max_len=1, radius=12)
    assert len(laws) == len(starts)
    for start, law in zip(starts, laws):
        alone, = absorption_distribution(chain, [start], max_len=1, radius=12)
        assert law and {s: p.hex() for s, p in law.items()} == {
            s: p.hex() for s, p in alone.items()}


def test_chain_green_translation_consistency():
    cg = ChainGreen(killed_z(0.2), radius=50)
    direct = cg.green(0, (4,), 0)
    assert abs(direct - cg.green(0, (-4,), 0)) < 1e-12


def test_entry_arrays_of_a_rank_zero_chain():
    c = LatticeChain.build(0, 2, [(0, 1, (), 0.5), (1, 0, (), 0.25)])
    flat, dz, w = c.entry_arrays
    assert flat.tolist() == [1, 2]
    assert dz.shape == (2, 0)
    assert w.tolist() == [0.5, 0.25]


def reference_box(chain, half_width, stop_depth):
    """State-by-state assembly of BoxGreen's matrix: its CSC form and stop set."""
    k, n = chain.rank, chain.fiber_count
    side = 2 * half_width + 1
    by_source = [[] for _ in range(n)]
    for j1, j2, dz, w in chain.entries:
        by_source[j1].append((j2, dz, w))

    def site_id(z):
        sid = 0
        for c in z:
            sid = sid * side + (c + half_width)
        return sid

    num_states = side**k * n
    stopped, rows, cols, vals = {}, [], [], []
    coords = range(-half_width, half_width + 1)
    for site, z in enumerate(itertools.product(*[coords] * k)):
        for j1 in range(n):
            sid = site * n + j1
            if stop_depth is not None and sum(map(abs, z)) + (j1 != 0) <= stop_depth:
                stopped[(z, j1)] = sid
                continue
            for j2, dz, w in by_source[j1]:
                z2 = tuple(a + b for a, b in zip(z, dz))
                if all(abs(c) <= half_width for c in z2):
                    rows.append(sid)
                    cols.append(site_id(z2) * n + j2)
                    vals.append(w)
    q = sp.csr_matrix((vals, (rows, cols)), shape=(num_states, num_states))
    return (sp.identity(num_states, format="csr") - q).T.tocsc(), stopped


def record_band_factorizations(monkeypatch) -> list:
    """Wrap lattice.lapack.dgbtrf; each call appends (a copy of the band, kl, ku)."""
    factored = []
    dgbtrf = lattice.lapack.dgbtrf

    def recorded(ab, kl, ku, **kwargs):
        factored.append((ab.copy(order="A"), kl, ku))
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(lattice.lapack, "dgbtrf", recorded)
    return factored


def band_to_dense(ab, kl, ku) -> np.ndarray:
    """The matrix whose LAPACK band storage (kl rows of fill on top) is ab."""
    n = ab.shape[1]
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            dense[i, j] = ab[kl + ku + i - j, j]
    return dense


def long_steps_one_way() -> LatticeChain:
    """Rank-2 chain stepping (2, 0) one way and (-1, 0) back: kl = 2 side, ku = side."""
    return LatticeChain.build(2, 1, [(0, 0, (2, 0), 0.2), (0, 0, (-1, 0), 0.3),
                                     (0, 0, (0, 1), 0.2), (0, 0, (0, -1), 0.2)])


@pytest.mark.parametrize("chain, half_width, source, stop_depth", [
    (LatticeChain.build(0, 3, [(0, 1, (), 0.5), (1, 2, (), 0.25), (2, 0, (), 0.2)]), 3, None, None),
    (LatticeChain.build(0, 2, [(0, 1, (), 0.5), (1, 0, (), 0.25)]), 0, None, 0),
    (killed_z(0.2), 5, None, None),
    (LatticeChain.build(1, 2, [(0, 0, (2,), 0.2), (0, 1, (-1,), 0.3), (1, 0, (0,), 0.4),
                               (1, 1, (-3,), 0.1)]), 6, (4,), 2),
    (two_fiber_plane(), 4, None, None),
    (two_fiber_plane(), 5, (-2, 3), 1),
    (two_fiber_plane(), 3, (1, 0), 0),
    (long_steps_one_way(), 4, (1, -1), None),
])
def test_box_assembly_matches_the_state_by_state_loop(monkeypatch, chain, half_width, source,
                                                     stop_depth):
    """The factored band matrix and the stop set match the loop, and the row
    from (source, 0) (default: the origin) and the column into it solve the
    loop's system and its transpose."""
    factored = record_band_factorizations(monkeypatch)
    box = BoxGreen(chain, half_width, stop_depth=stop_depth)
    ref, stopped = reference_box(chain, half_width, stop_depth)
    ((band, kl, ku),) = factored
    assert band.flags.f_contiguous and band.shape == (2 * kl + ku + 1, ref.shape[0])
    assert not band[:kl].any()  # the fill rows start empty
    dense = ref.toarray()
    assert np.array_equal(band_to_dense(band, kl, ku), dense)
    coo = ref.tocoo()
    offsets = coo.row - coo.col
    assert (kl, ku) == (max(offsets.max(), 0), max(-offsets.min(), 0))
    assert np.array_equal(box._piv, np.arange(ref.shape[0]))  # diagonal dominance: no swaps
    assert list(box.stopped.items()) == list(stopped.items())
    assert ref.nnz > ref.shape[0]  # some step stays in the box
    if chain == long_steps_one_way():
        assert (kl, ku) == (2 * (2 * half_width + 1), 2 * half_width + 1)
    sites = list(itertools.product(range(-half_width, half_width + 1), repeat=chain.rank))
    e = np.zeros(ref.shape[0])
    e[sites.index(source or (0,) * chain.rank) * chain.fiber_count] = 1.0
    for got, want in [(box.row(0, source), np.linalg.solve(dense, e)),
                      (box.column(0, source or (0,) * chain.rank),
                       np.linalg.solve(dense.T, e))]:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_far_boxes_share_one_factorization_per_half_width(monkeypatch, z2_engine):
    """The martin-seq targets a^n*b^n, a^n and b^n of the Z^2 factor: one LU
    per half-width, and every far value read at z from an origin box of the
    half-width that the target's centre z//2 first took."""
    chain, radius = z2_engine.factor_chain(0), z2_engine.radius
    targets = [z for n in range(1, 13) for z in ((n, n), (n, 0), (0, n))]
    factored = record_band_factorizations(monkeypatch)
    cg = ChainGreen(chain, radius)
    values = [cg.green(0, z, 0) for z in targets]
    monkeypatch.undo()
    halves, far = {}, []
    for z, value in zip(targets, values):
        if max(map(abs, z)) > radius // 2:
            h = halves.setdefault((z[0] // 2, z[1] // 2), radius + max((c + 1) // 2 for c in z))
            far.append((z, h, value))
    assert len(factored) == len({radius, *halves.values()}) == 4
    boxes = {h: BoxGreen(chain, h) for h in set(halves.values())}
    for z, h, value in far:
        side = 2 * h + 1
        state = np.ravel_multi_index((z[0] + h, z[1] + h), (side, side)) * chain.fiber_count
        assert value == float(boxes[h].row(0)[state])
    assert len(far) == 15


@pytest.mark.parametrize("walk, eta", [("seeded_z2_engine", 2), ("seeded_z2_engine", 4),
                                       ("f2_engine", 0)])
def test_first_hit_laws_match_a_sparse_lu_reference(request, monkeypatch, walk, eta):
    """Every first-hit law the induction reads, against the loop's matrix
    factored by SuperLU: the same support (row[n] > 0.0), weights to 1e-13."""
    calls = []

    def recorded(chain, starts, max_len, radius):
        laws = absorption_distribution(chain, starts, max_len, radius)
        calls.append((chain, starts, max_len, radius, laws))
        return laws

    monkeypatch.setattr(induced, "absorption_distribution", recorded)
    induce_first_return(request.getfixturevalue(walk), factor=0, eta=eta,
                        state_cap=DEFAULT_STATE_CAP)
    assert calls
    for chain, starts, max_len, radius, laws in calls:
        for (z, j), law in zip(starts, laws):
            half = radius + max([max_len, *map(abs, z)])
            ref, stopped = reference_box(chain, half, max_len)
            e = np.zeros(ref.shape[0])
            e[np.ravel_multi_index(tuple(c + half for c in z), (2 * half + 1,) * chain.rank)
              * chain.fiber_count + j] = 1.0
            row = spla.splu(ref).solve(e)
            want = {s: float(row[n]) for s, n in stopped.items() if row[n] > 0.0}
            assert law.keys() == want.keys()
            np.testing.assert_allclose([law[s] for s in want], list(want.values()),
                                       rtol=1e-13, atol=0.0)


def simple_plane() -> LatticeChain:
    """The 2-D simple walk of mass 0.99."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    return LatticeChain.build(2, 1, [(0, 0, dz, 0.99 / 4) for dz in steps])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a far target is read off the origin box, only "
                   "half-width - max|z_i| deep (0.011850, where radius-deep ends give 0.035661)")
def test_far_target_is_read_at_least_radius_deep():
    """Truncation only underestimates, so a read of (9, 7) with both ends radius
    deep is at least the row from -(4, 3) read at (5, 4) in a box of half-width
    4 + 5, and at most the value in a box of half-width 96 (0.0511049)."""
    chain = simple_plane()
    got = ChainGreen(chain, 4).green(0, (9, 7), 0)
    shallow, deep = BoxGreen(chain, 9), BoxGreen(chain, 96)
    low = float(shallow.row(0, (-4, -3))[shallow._state_id((5, 4), 0)])
    high = float(deep.row(0)[deep._state_id((9, 7), 0)])
    assert low * (1 - 1e-12) <= got <= high


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="ROADMAP item 2: the first read with a centre fixes its "
                   "box's half-width, so (9, 7) after (8, 7) lies outside the box")
def test_far_target_does_not_depend_on_read_order():
    chain = simple_plane()
    first = ChainGreen(chain, 4).green(0, (9, 7), 0)
    cg = ChainGreen(chain, 4)
    cg.green(0, (8, 7), 0)
    assert cg.green(0, (9, 7), 0) == first
