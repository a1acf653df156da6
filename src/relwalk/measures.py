"""Finitely supported step measures on a free product."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidMeasureError
from .groups import FreeProductGroup, GroupElement


class StepMeasure:
    """Finitely supported (sub-)probability measure driving the walk.

    Weights are stored as floats but may be supplied as decimal strings
    or fractions, which are converted exactly before rounding once.
    """

    def __init__(self, group: FreeProductGroup, entries: Mapping[GroupElement, float]):
        self.group = group
        clean: dict[GroupElement, float] = {}
        for g, w in entries.items():
            w = float(w)
            if w < 0:
                raise InvalidMeasureError(f"negative weight at {group.format(g)}")
            if w > 0:
                clean[g] = clean.get(g, 0.0) + w
        self._entries = dict(sorted(clean.items(), key=lambda kv: kv[0].sort_key()))
        self.total_mass = sum(self._entries.values())
        if self.total_mass > 1 + 1e-9:
            raise InvalidMeasureError(f"total mass {self.total_mass} exceeds 1")

    @staticmethod
    def uniform(group: FreeProductGroup) -> "StepMeasure":
        """Simple random walk: equal weight on every standard generator."""
        gens = {g for _, g in group.generators()}
        w = Fraction(1, len(gens))
        return StepMeasure(group, {g: float(w) for g in gens})

    @staticmethod
    def from_weights(group: FreeProductGroup, weights: Iterable[tuple[str, object]]) -> "StepMeasure":
        entries: dict[GroupElement, float] = {}
        for word, raw in weights:
            g = group.word(word)
            w = float(Fraction(str(raw)))
            entries[g] = entries.get(g, 0.0) + w
        return StepMeasure(group, entries)

    def lazy(self) -> "StepMeasure":
        """Half-lazy version (1/2 identity mass plus halved steps).

        Doubles the Green's function entrywise and leaves every Martin
        kernel unchanged, which is what makes it safe to require a
        self-loop for irreducibility arguments.
        """
        entries = {g: 0.5 * w for g, w in self._entries.items()}
        e = self.group.identity
        entries[e] = entries.get(e, 0.0) + 0.5
        return StepMeasure(self.group, entries)

    # -- queries ---------------------------------------------------------

    def __call__(self, g: GroupElement) -> float:
        return self._entries.get(g, 0.0)

    def items(self) -> list[tuple[GroupElement, float]]:
        return list(self._entries.items())

    @property
    def support(self) -> tuple[GroupElement, ...]:
        return tuple(self._entries.keys())

    @property
    def identity_mass(self) -> float:
        return self._entries.get(self.group.identity, 0.0)

    @property
    def has_syllable_support(self) -> bool:
        """True when every support element is the identity or one syllable.

        This is the shape produced by per-factor step laws and is what the
        exact cut-vertex elimination of the Green's function relies on.
        """
        return all(g.syllable_count <= 1 for g in self.support)
