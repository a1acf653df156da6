"""Exact algebra for free products of lattice-by-finite factors.

A group here is Gamma = Gamma_1 * ... * Gamma_m where each factor is a
direct product Z^k x F with F a finite group given by its multiplication
table.  Elements are stored in syllable normal form: an ordered tuple of
(factor, lattice vector, finite index) triples in which consecutive
syllables come from different factors and no syllable is trivial.  All
products, inverses and word lengths are exact integer computations, and
the word length is taken in the generating set consisting of the lattice
basis vectors (plus inverses) and the nontrivial finite elements, so a
syllable of lattice part z and finite index j costs ||z||_1 + [j != 0].
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, ParseError

# A syllable is (factor index, lattice vector, finite element index).
# The finite index is 0-based internally; 0 is the identity of F.
Syllable = tuple[int, tuple[int, ...], int]

# The word and template grammar.  A generator name is any nonempty text
# without a space, tab, '*', '^' or parenthesis; spaces, tabs or '*'
# separate tokens.  A token is a name or a parenthesised word without
# nested parentheses, optionally raised to ^exponent.
_SEPARATORS = " \t*"
_NAME = rf"[^{_SEPARATORS}^()]+"
_TOKEN = re.compile(rf"[{_SEPARATORS}]*(?:\((?P<word>[^()]*)\)|(?P<name>{_NAME}))"
                    rf"(?:\^(?P<exp>[^{_SEPARATORS}()]+))?")


@dataclass(frozen=True)
class FactorSpec:
    """One free factor Z^rank x F, with F given by a multiplication table.

    The table is 0-based and row/column 0 must be the identity.  Names
    are used for parsing and printing: lattice_names has one entry per
    lattice dimension, finite_names one entry per nontrivial element of F.
    """

    rank: int
    table: tuple[tuple[int, ...], ...]
    lattice_names: tuple[str, ...]
    finite_names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.table)
        if n < 1:
            raise ConfigError("finite part needs at least the identity")
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ConfigError("finite table rows must be permutations of 0..n-1")
        for j in range(n):
            if self.table[0][j] != j or self.table[j][0] != j:
                raise ConfigError("index 0 must act as the identity in the finite table")
        cols = list(zip(*self.table))
        for col in cols:
            if sorted(col) != list(range(n)):
                raise ConfigError("finite table columns must be permutations of 0..n-1")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ConfigError("finite table is not associative")
        if self.rank < 0:
            raise ConfigError("rank must be >= 0")
        if self.rank + (n - 1) < 1:
            raise ConfigError("factor must be nontrivial")
        if len(self.lattice_names) != self.rank:
            raise ConfigError("need one lattice generator name per rank dimension")
        if len(self.finite_names) != n - 1:
            raise ConfigError("need one name per nontrivial finite element")

    @property
    def finite_order(self) -> int:
        return len(self.table)

    def finite_mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def finite_inv(self, a: int) -> int:
        row = self.table[a]
        return row.index(0)

    def syllable_length(self, z: tuple[int, ...], j: int) -> int:
        return sum(abs(c) for c in z) + (1 if j != 0 else 0)


class GroupElement:
    """Normal-form word in a free product; immutable and hashable."""

    __slots__ = ("group", "syllables", "_length", "_hash", "_inverse")

    def __init__(self, group: "FreeProductGroup", syllables: tuple[Syllable, ...]):
        self.group = group
        self.syllables = syllables
        self._length = -1
        self._hash: int | None = None
        self._inverse: GroupElement | None = None

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def syllable_count(self) -> int:
        return len(self.syllables)

    @property
    def word_length(self) -> int:
        if self._length < 0:
            total = 0
            for fac, z, j in self.syllables:
                total += self.group.factors[fac].syllable_length(z, j)
            self._length = total
        return self._length

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group is not other.group:
            raise ValueError("elements from different groups")
        return self.group._from_concat(self.syllables, other.syllables)

    def inverse(self) -> "GroupElement":
        if self._inverse is None:
            self._inverse = GroupElement(self.group, tuple(
                self.group.inverse_syllable(s) for s in reversed(self.syllables)))
        return self._inverse

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.group.identity
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def prefixes(self) -> list["GroupElement"]:
        """Syllable prefixes from the identity up to the element itself."""
        out = [self.group.identity]
        for i in range(1, len(self.syllables) + 1):
            out.append(GroupElement(self.group, self.syllables[:i]))
        return out

    def sort_key(self):
        return (self.word_length, self.syllables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group is other.group
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.syllables)
        return self._hash

    def __repr__(self) -> str:
        return f"<{self.group.format(self)}>"

    def __str__(self) -> str:
        return self.group.format(self)


class FreeProductGroup:
    """Free product of FactorSpec factors with a shared generator namespace."""

    def __init__(self, factors: Sequence[FactorSpec]):
        if not factors:
            raise ConfigError("need at least one factor")
        self.factors = tuple(factors)
        self.identity = GroupElement(self, ())
        self._catalog: dict[str, Syllable] = {}
        for i, spec in enumerate(self.factors):
            for d, name in enumerate(spec.lattice_names):
                z = tuple(1 if t == d else 0 for t in range(spec.rank))
                self._register(name, (i, z, 0))
            for j, name in enumerate(spec.finite_names, start=1):
                self._register(name, (i, (0,) * spec.rank, j))

    def _register(self, name: str, syl: Syllable):
        if not re.fullmatch(_NAME, name):
            raise ConfigError(f"bad generator name {name!r}")
        if name == "e" or name in self._catalog:
            raise ConfigError(f"duplicate or reserved generator name {name!r}")
        self._catalog[name] = syl

    # -- construction ---------------------------------------------------

    def syllable(self, factor: int, z: Sequence[int], j: int = 0) -> GroupElement:
        spec = self.factors[factor]
        zt = tuple(int(c) for c in z)
        if len(zt) != spec.rank:
            raise ValueError("lattice vector has wrong dimension")
        if not 0 <= j < spec.finite_order:
            raise ValueError("finite index out of range")
        if j == 0 and not any(zt):
            return self.identity
        return GroupElement(self, ((factor, zt, j),))

    def generators(self) -> list[tuple[str, GroupElement]]:
        """Standard generating set, inverses included, in catalog order."""
        gens = []
        for name, (fac, z, j) in self._catalog.items():
            g = GroupElement(self, ((fac, z, j),))
            gens.append((name, g))
            ginv = g.inverse()
            if ginv != g:
                gens.append((name + "^-1", ginv))
        return gens

    def inverse_syllable(self, syl: Syllable) -> Syllable:
        fac, z, j = syl
        return (fac, tuple(-c for c in z), self.factors[fac].finite_inv(j))

    def merge_syllables(self, left: Syllable, right: Syllable) -> Syllable | None:
        """Product of two syllables of one factor, or None when it is trivial."""
        fac, z1, j1 = left
        z = tuple(map(operator.add, z1, right[1]))
        j = self.factors[fac].table[j1][right[2]]
        return (fac, z, j) if j != 0 or any(z) else None

    def _from_concat(self, left: tuple[Syllable, ...], right: tuple[Syllable, ...]) -> GroupElement:
        """Normal form of left*right for two normal forms.

        Syllables can only cancel or merge at the junction: once a pair
        merges into a nontrivial syllable, its neighbours on both sides
        lie in other factors.
        """
        i, k = len(left), 0
        while i and k < len(right) and left[i - 1][0] == right[k][0]:
            merged = self.merge_syllables(left[i - 1], right[k])
            if merged is not None:
                return GroupElement(self, left[:i - 1] + (merged,) + right[k + 1:])
            i -= 1
            k += 1
        return GroupElement(self, left[:i] + right[k:])

    # -- parsing and printing -------------------------------------------

    def tokens(self, text: str) -> list[tuple[GroupElement, str | None]]:
        """Split a word or template into (atom, exponent text) pairs.

        The atom is a generator, the identity 'e', or the element of a
        parenthesised word; the exponent text is None when no caret
        follows.  Callers read the exponent: word() as an integer,
        classify.SequenceSpec as a*n+b.
        """
        out = []
        pos, end = 0, len(text.rstrip(_SEPARATORS))
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"cannot parse {text!r} at {text[pos:]!r}; expected a generator "
                                 "or an unnested parenthesised word, each optionally ^exponent")
            if m["word"] == "":
                raise ParseError(f"empty atom in {text!r}")
            if m["word"] is not None:
                atom = self.word(m["word"])
            elif m["name"] == "e":
                atom = self.identity
            elif m["name"] in self._catalog:
                atom = GroupElement(self, (self._catalog[m["name"]],))
            else:
                raise ParseError(f"unknown generator {m['name']!r}")
            out.append((atom, m["exp"]))
            pos = m.end()
        return out

    def word(self, text: str) -> GroupElement:
        """Parse a word like 'a^3*t*b^-2' or '(a*t)^2' (spaces also separate tokens)."""
        out = self.identity
        for atom, exp in self.tokens(text):
            try:
                k = 1 if exp is None else int(exp)
            except ValueError:
                raise ParseError(f"bad exponent {exp!r} in {text!r}") from None
            out = out * atom ** k
        return out

    def format(self, g: GroupElement) -> str:
        if g.is_identity:
            return "e"
        parts = []
        for fac, z, j in g.syllables:
            spec = self.factors[fac]
            for d, c in enumerate(z):
                if c == 1:
                    parts.append(spec.lattice_names[d])
                elif c != 0:
                    parts.append(f"{spec.lattice_names[d]}^{c}")
            if j != 0:
                parts.append(spec.finite_names[j - 1])
        return "*".join(parts)


@dataclass(frozen=True)
class Coset:
    """Left coset g*P of one free factor P, keyed by its canonical representative.

    The representative is the unique shortest element of the coset: strip
    the trailing syllable when it lies in the coset's factor.
    """

    group: FreeProductGroup
    factor: int
    rep: GroupElement

    @staticmethod
    def of(g: GroupElement, factor: int) -> "Coset":
        syls = g.syllables
        if syls and syls[-1][0] == factor:
            syls = syls[:-1]
        return Coset(g.group, factor, GroupElement(g.group, syls))

    def contains(self, x: GroupElement) -> bool:
        return Coset.of(x, self.factor) == self

    def member(self, z: Sequence[int]) -> GroupElement:
        return self.rep * self.group.syllable(self.factor, z)

    def sort_key(self):
        return (self.factor, self.rep.sort_key())

    def __repr__(self) -> str:
        return f"Coset({self.group.format(self.rep)}*F{self.factor})"


def project_to_coset(g: GroupElement, c: Coset) -> GroupElement:
    """Closest-point projection of g onto the coset, exact via normal forms.

    Writing y = rep^-1 * g, the distance from g to any coset member
    rep*p is l(p^-1) + |y| unless p cancels the leading syllable of y,
    so the projection is rep itself except when y starts with a syllable
    of the coset's factor, in which case that syllable is absorbed.  The
    projection is unique.
    """
    y = c.rep.inverse() * g
    if y.syllables and y.syllables[0][0] == c.factor:
        fac, z, j = y.syllables[0]
        return c.rep * g.group.syllable(fac, z, j)
    return c.rep


def coset_lattice_part(c: Coset, member: GroupElement) -> tuple[int, ...]:
    """Lattice coordinates of a coset member relative to the representative."""
    p = c.rep.inverse() * member
    if p.is_identity:
        return (0,) * c.group.factors[c.factor].rank
    if p.syllable_count != 1 or p.syllables[0][0] != c.factor:
        raise ValueError("element does not belong to the coset")
    return p.syllables[0][1]
