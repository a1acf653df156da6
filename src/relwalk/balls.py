"""Word-metric ball enumeration and sparse walk matrices on the ball."""
from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .errors import StateCapError
from .groups import FreeProductGroup, GroupElement
from .measures import StepMeasure

DEFAULT_STATE_CAP = 2_000_000


def ball_elements(group: FreeProductGroup, radius: int,
                  state_cap: int = DEFAULT_STATE_CAP) -> list[GroupElement]:
    """All elements of word length <= radius, ordered by (length, normal form)."""
    gens = [g for _, g in group.generators()]
    seen = {group.identity}
    out = [group.identity]
    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > state_cap:
                        raise StateCapError(
                            f"ball enumeration exceeded the cap of {state_cap} states",
                            states_seen=len(seen),
                        )
        nxt.sort(key=lambda g: g.sort_key())
        out.extend(nxt)
        frontier = nxt
    return out


class BallIndex:
    """Deterministic enumeration of a word-metric ball with walk adjacency.

    States are indexed by (word length, normal form), so indices are stable
    across runs.  The ball is enumerated with the standard generators; the
    step measure only enters through transition matrices, which keeps one
    enumeration reusable for a measure and its lazy version.
    """

    def __init__(self, group: FreeProductGroup, radius: int,
                 state_cap: int = DEFAULT_STATE_CAP):
        self.group = group
        self.radius = int(radius)
        self.elements = ball_elements(group, self.radius, state_cap)
        self.index = {g: i for i, g in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.index

    def transition_matrix(self, mu: StepMeasure,
                          forbidden: Iterable[GroupElement] = ()) -> sp.csr_matrix:
        """Sub-stochastic matrix of mu on the ball, absorbing outside.

        Rows and columns of forbidden states are zeroed, which kills the
        walk on its first entry there; mass stepping off the ball is lost,
        matching the walk killed at the first exit.
        """
        banned = {self.index[g] for g in forbidden if g in self.index}
        n = len(self.elements)
        steps = mu.items()
        rows, cols, vals = [], [], []
        for i, x in enumerate(self.elements):
            if i in banned:
                continue
            for s, w in steps:
                j = self.index.get(x * s)
                if j is not None and j not in banned:
                    rows.append(i)
                    cols.append(j)
                    vals.append(w)
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def column_of(self, g: GroupElement) -> np.ndarray:
        e = np.zeros(len(self.elements))
        e[self.index[g]] = 1.0
        return e

    def sphere_indices(self, length: int) -> list[int]:
        return [i for i, g in enumerate(self.elements) if g.word_length == length]
