"""Normal forms, word metric, cosets, and projections in free products."""
import pytest

from relwalk import (Coset, FactorSpec, FreeProductGroup, coset_lattice_part,
                     project_to_coset)
from relwalk.errors import ConfigError, ParseError

from conftest import coset_distance


def test_word_parse_and_format_round_trip(f2_cfg):
    g = f2_cfg.group
    for text in ("a", "a^-1", "a^2*b^-3*a", "b*a*b^-1", "e"):
        assert g.format(g.word(text)) == text


def test_same_factor_syllables_merge(f2_cfg):
    g = f2_cfg.group
    assert g.word("a") * g.word("a") == g.word("a^2")
    assert g.word("a") * g.word("a^-1") == g.identity
    assert (g.word("a*b") * g.word("b^-1*a")) == g.word("a^2")


def test_cross_factor_syllables_do_not_merge(f2_cfg):
    g = f2_cfg.group
    w = g.word("a*b")
    assert w.syllable_count == 2
    assert w.word_length == 2


def test_word_length_sums_syllable_lengths(z2_cfg):
    g = z2_cfg.group
    assert g.word("a^2*t*b").word_length == 4
    assert g.word("a*b").word_length == 2
    assert g.word("a*b").syllable_count == 1
    assert g.identity.word_length == 0


def test_inverse_and_power_laws(z2_cfg):
    g = z2_cfg.group
    w = g.word("a^2*t^-1*b^3")
    assert w * w.inverse() == g.identity
    assert w.inverse().inverse() == w
    assert w ** 0 == g.identity
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) ** 2


def test_prefixes_walk_out_to_the_full_word(z2_cfg):
    g = z2_cfg.group
    w = g.word("a^2*t*b")
    pres = w.prefixes()
    assert pres[0] == g.identity
    assert pres[-1] == w
    assert len(pres) == w.syllable_count + 1


def test_sort_key_orders_by_length_first(f2_cfg):
    g = f2_cfg.group
    shorter, longer = g.word("b"), g.word("a^2")
    assert shorter.sort_key() < longer.sort_key()


def test_coset_representative_strips_trailing_factor_part(z2_cfg):
    g = z2_cfg.group
    assert Coset.of(g.word("a^2*b"), 0) == Coset.of(g.identity, 0)
    assert Coset.of(g.word("t*a^2"), 0) == Coset.of(g.word("t"), 0)
    assert Coset.of(g.word("t*a^2"), 0).rep == g.word("t")


def test_coset_membership_and_member(z2_cfg):
    g = z2_cfg.group
    c = Coset.of(g.word("t"), 0)
    assert c.contains(g.word("t*a^3*b^-1"))
    assert not c.contains(g.word("a^3"))
    assert c.member((2, -1)) == g.word("t*a^2*b^-1")
    assert coset_lattice_part(c, g.word("t*a^2*b^-1")) == (2, -1)


def test_projection_realizes_the_coset_distance(z2_cfg):
    g = z2_cfg.group
    c = Coset.of(g.identity, 0)
    x = g.word("a^2*t*b")
    assert c.contains(project_to_coset(x, c))
    assert coset_distance(x, c) == 2
    assert min((c.member((z1, z2)).inverse() * x).word_length
               for z1 in range(-4, 5) for z2 in range(-4, 5)) == 2


def test_projection_of_a_coset_member_is_itself(z2_cfg):
    g = z2_cfg.group
    c = Coset.of(g.word("t"), 0)
    x = g.word("t*a^4")
    assert project_to_coset(x, c) == x
    assert coset_distance(x, c) == 0


def test_finite_factor_arithmetic():
    c2 = FactorSpec(rank=0, table=((0, 1), (1, 0)), lattice_names=(),
                    finite_names=("s",))
    line = FactorSpec(rank=1, table=((0,),), lattice_names=("a",),
                      finite_names=())
    g = FreeProductGroup([c2, line])
    s = g.word("s")
    assert s * s == g.identity
    assert s.inverse() == s
    assert (g.word("s*a*s")).word_length == 3
    assert g.word("s^5") == s and g.word("s^-3") == s
    assert g.word("s^4") == g.identity
    assert g.word("(s*a)^-2") == g.word("a^-1*s*a^-1*s")


def test_malformed_finite_table_rejected():
    with pytest.raises(ConfigError):
        FactorSpec(rank=0, table=((0, 1), (0, 1)), lattice_names=(),
                   finite_names=("s",))
    with pytest.raises(ConfigError):
        FactorSpec(rank=1, table=((0,),), lattice_names=(), finite_names=())


def test_generator_catalog_covers_all_factors(z2_cfg):
    g = z2_cfg.group
    names = [n for n, _ in g.generators()]
    assert names == ["a", "a^-1", "b", "b^-1", "t", "t^-1"]
    assert all(e.word_length == 1 for _, e in g.generators())


def test_unknown_generator_name_rejected(f2_cfg):
    with pytest.raises(ParseError):
        f2_cfg.group.word("a*q")
    with pytest.raises(ParseError):
        f2_cfg.group.word("a^")


def test_exponents_are_written_with_a_caret(f2_cfg):
    with pytest.raises(ParseError):
        f2_cfg.group.word("a²")
