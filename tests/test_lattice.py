"""Killed lattice chains and their box Green's functions."""
import math

import pytest

from relwalk import LatticeChain
from relwalk.errors import ConfigError
from relwalk.lattice import ChainGreen, absorption_distribution


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


def test_box_green_matches_killed_walk_closed_form():
    q = 0.2
    cg = ChainGreen(killed_z(q), radius=60)
    g00 = cg.green_at_origin(0, 0)
    assert abs(g00 - 1.0 / math.sqrt(1.0 - 4.0 * q * q)) < 1e-10
    r = (1.0 - math.sqrt(1.0 - 4.0 * q * q)) / (2.0 * q)
    for n in (1, 2, 5, -3):
        assert abs(cg.green(0, (n,), 0) - g00 * r ** abs(n)) < 1e-10
        assert abs(cg.green(0, (n,), 0) / g00 - r ** abs(n)) < 1e-10


def test_absorption_distribution_matches_first_passage():
    chain = lazy(killed_z(0.25))
    dist = absorption_distribution(chain, (3,), 0, max_len=0, radius=40)
    total = sum(dist.values())
    assert 0.0 < total <= 1.0 + 1e-12
    assert set(dist) == {((0,), 0)}
    r = 2.0 - math.sqrt(3.0)
    assert abs(total - r ** 3) < 1e-9
    cg = ChainGreen(chain, radius=50)
    first_passage = cg.green(0, (-3,), 0) / cg.green_at_origin(0, 0)
    assert abs(total - first_passage) < 1e-9


def test_absorption_start_inside_set_rejected():
    with pytest.raises(ValueError):
        absorption_distribution(killed_z(), (0,), 0, max_len=0, radius=10)


def test_chain_green_translation_consistency():
    cg = ChainGreen(killed_z(0.2), radius=50)
    direct = cg.green(0, (4,), 0)
    assert abs(direct - cg.green(0, (-4,), 0)) < 1e-12
