"""Z^k-invariant chains on Z^k x {1..N} and truncated-box Green solves.

A LatticeChain stores a finitely supported kernel p_{j1,j2}(0, z); the
Z^k-invariance is structural because only the displacement z is kept.
Green's functions are computed by direct sparse factorization on a box
[-h, h]^k (shifted by an optional center) with absorption outside, which
is exactly the walk killed at the first exit from the box.  Truncation
therefore only ever underestimates, and the error decays geometrically
in the distance from the query points to the boundary.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError


@dataclass(frozen=True)
class LatticeChain:
    """Finitely supported Z^k-invariant kernel on Z^k x {1..N}."""

    rank: int
    fiber_count: int
    entries: tuple[tuple[int, int, tuple[int, ...], float], ...]
    fiber_labels: tuple[str, ...] = ()
    provenance: str = "synthetic"

    def __post_init__(self):
        for j1, j2, dz, w in self.entries:
            if not (0 <= j1 < self.fiber_count and 0 <= j2 < self.fiber_count):
                raise ConfigError("fiber index out of range")
            if len(dz) != self.rank:
                raise ConfigError("displacement has wrong dimension")
            if w < 0:
                raise ConfigError("negative kernel weight")

    @staticmethod
    def build(rank, fiber_count, entries, fiber_labels=(), provenance="synthetic"):
        """Normalize entry order and merge duplicates before freezing."""
        acc: dict[tuple[int, int, tuple[int, ...]], float] = {}
        for j1, j2, dz, w in entries:
            key = (int(j1), int(j2), tuple(int(c) for c in dz))
            acc[key] = acc.get(key, 0.0) + float(w)
        merged = tuple(
            (j1, j2, dz, w) for (j1, j2, dz), w in sorted(acc.items()) if w != 0.0
        )
        return LatticeChain(rank, fiber_count, merged, tuple(fiber_labels), provenance)

    @cached_property
    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only entry arrays: flat fiber index j1*N + j2, displacements, weights."""
        n = self.fiber_count
        flat = np.array([j1 * n + j2 for j1, j2, _, _ in self.entries], dtype=np.intp)
        dz = np.array([dz for _, _, dz, _ in self.entries], dtype=float).reshape(-1, self.rank)
        w = np.array([w for _, _, _, w in self.entries], dtype=float)
        for arr in (flat, dz, w):
            arr.flags.writeable = False
        return flat, dz, w

    # -- structure queries -------------------------------------------------

    def row_masses(self) -> list[float]:
        out = [0.0] * self.fiber_count
        for j1, _, _, w in self.entries:
            out[j1] += w
        return out

    @property
    def is_strictly_submarkov(self) -> bool:
        return any(m < 1 - 1e-12 for m in self.row_masses())

    def by_source(self) -> list[list[tuple[int, tuple[int, ...], float]]]:
        rows: list[list[tuple[int, tuple[int, ...], float]]] = [[] for _ in range(self.fiber_count)]
        for j1, j2, dz, w in self.entries:
            rows[j1].append((j2, dz, w))
        return rows

    def is_strongly_irreducible(self) -> bool:
        """True when some power of the fiber support pattern is positive.

        The z displacement is collapsed onto the fiber adjacency, which is
        the right notion for the tilted matrix family: a positive power of
        the adjacency makes every tilt primitive.  The power cap is the
        Wielandt bound n^2 - 2n + 2.
        """
        n = self.fiber_count
        adj = np.zeros((n, n), dtype=np.int64)
        for j1, j2, _, w in self.entries:
            if w > 0:
                adj[j1, j2] = 1
        cap = max(n * n - 2 * n + 2, 1)
        power = adj.copy()
        for _ in range(cap):
            if power.min() > 0:
                return True
            power = np.minimum(power @ adj, 1)
        return bool(power.min() > 0)


class BoxGreen:
    """Green's function of a chain on a finite box with outside absorption.

    Rows G((c + 0, j1) -> (z, j2)) are available for every fiber j1 with
    the source pinned at the box center c; arbitrary sources follow from
    translation invariance as long as both points fit in one box.
    """

    def __init__(self, chain: LatticeChain, half_width: int, center: Sequence[int] | None = None):
        self.chain = chain
        self.half_width = int(half_width)
        self.center = tuple(int(c) for c in (center or (0,) * chain.rank))
        if len(self.center) != chain.rank:
            raise ConfigError("box center has wrong dimension")
        k, n = chain.rank, chain.fiber_count
        side = 2 * self.half_width + 1
        self._side = side
        coords = range(-self.half_width, self.half_width + 1)
        self._num_sites = side**k
        num_states = self._num_sites * n
        rows, cols, vals = [], [], []
        by_source = chain.by_source()
        offsets = [list(coords) for _ in range(k)]
        for site_id, z in enumerate(itertools.product(*offsets)):
            for j1 in range(n):
                sid = site_id * n + j1
                for j2, dz, w in by_source[j1]:
                    z2 = tuple(a + b for a, b in zip(z, dz))
                    if all(abs(c) <= self.half_width for c in z2):
                        rows.append(sid)
                        cols.append(self._site_id(z2) * n + j2)
                        vals.append(w)
        q = sp.csr_matrix((vals, (rows, cols)), shape=(num_states, num_states))
        a = sp.identity(num_states, format="csr") - q
        self._lu = spla.splu(a.T.tocsc())
        self._rows: dict[int, np.ndarray] = {}

    def _site_id(self, z: tuple[int, ...]) -> int:
        sid = 0
        for c in z:
            sid = sid * self._side + (c + self.half_width)
        return sid

    def _state_id(self, z_abs: tuple[int, ...], j: int) -> int:
        rel = tuple(a - c for a, c in zip(z_abs, self.center))
        if any(abs(c) > self.half_width for c in rel):
            raise ConvergenceError(
                f"point {z_abs} lies outside the box of half-width {self.half_width} "
                f"around {self.center}")
        return self._site_id(rel) * self.chain.fiber_count + j

    def row(self, j_source: int) -> np.ndarray:
        """Green row from the state (center, j_source)."""
        if j_source not in self._rows:
            e = np.zeros(self._num_sites * self.chain.fiber_count)
            e[self._state_id(self.center, j_source)] = 1.0
            self._rows[j_source] = self._lu.solve(e)
        return self._rows[j_source]

    def value(self, j_source: int, z_target: Sequence[int], j_target: int) -> float:
        """G((center, j_source) -> (z_target, j_target)), z_target absolute."""
        return float(self.row(j_source)[self._state_id(tuple(int(c) for c in z_target), j_target)])

    def green(self, z_from, j_from, z_to, j_to) -> float:
        """Arbitrary pair via translation: shift the source onto the center."""
        shift = tuple(c - a for c, a in zip(self.center, z_from))
        z2 = tuple(b + s for b, s in zip(z_to, shift))
        return self.value(j_from, z2, j_to)


class ChainGreen:
    """Memoized Green evaluations for one chain at a fixed truncation radius."""

    def __init__(self, chain: LatticeChain, radius: int):
        self.chain = chain
        self.radius = int(radius)
        self._origin = BoxGreen(chain, self.radius)
        self._boxes: dict[tuple[int, ...], BoxGreen] = {}

    def _box_for(self, z: tuple[int, ...]) -> BoxGreen:
        if all(abs(c) <= self.radius // 2 for c in z):
            return self._origin
        center = tuple(c // 2 for c in z)
        if center not in self._boxes:
            half = self.radius + max((abs(c) + 1) // 2 for c in z)
            self._boxes[center] = BoxGreen(self.chain, half, center)
        return self._boxes[center]

    def green(self, j_from: int, z: Sequence[int], j_to: int) -> float:
        """G((0, j_from) -> (z, j_to)) with both points kept deep in the box."""
        zt = tuple(int(c) for c in z)
        box = self._box_for(zt)
        return box.green((0,) * self.chain.rank, j_from, zt, j_to)

    def green_at_origin(self, j_from: int, j_to: int) -> float:
        return self._origin.value(j_from, (0,) * self.chain.rank, j_to)


def absorption_distribution(chain: LatticeChain, start_z: Sequence[int],
                            start_j: int, max_len: int,
                            radius: int) -> dict[tuple[tuple[int, ...], int], float]:
    """First-hit distribution on A = {(z,j): |z|_1 + [j != 0] <= max_len}.

    The chain starts at (start_z, start_j) outside A and runs until it
    first enters A or dies; mass escaping a box of half-width radius (plus
    the start offset) is treated as dead, consistent with the box Green
    truncation used elsewhere.
    """
    start = tuple(int(c) for c in start_z)
    if sum(abs(c) for c in start) + (1 if start_j != 0 else 0) <= max_len:
        raise ValueError("start state already lies in the absorbing set")
    k = chain.rank
    half = radius + max(max(abs(c) for c in start), max_len)
    axes = range(-half, half + 1)
    n_f = chain.fiber_count
    states: list[tuple[tuple[int, ...], int]] = []
    idx: dict[tuple[tuple[int, ...], int], int] = {}
    for z in itertools.product(axes, repeat=k):
        for j in range(n_f):
            idx[(z, j)] = len(states)
            states.append((z, j))

    def absorbed(z: tuple[int, ...], j: int) -> bool:
        return sum(abs(c) for c in z) + (1 if j != 0 else 0) <= max_len

    interior: list[int] = []
    targets: list[int] = []
    for i, (z, j) in enumerate(states):
        (targets if absorbed(z, j) else interior).append(i)
    int_pos = {s: p for p, s in enumerate(interior)}
    tgt_pos = {s: p for p, s in enumerate(targets)}
    by_src: dict[int, list[tuple[int, tuple[int, ...], float]]] = {}
    for (j1, j2, dz, w) in chain.entries:
        by_src.setdefault(j1, []).append((j2, dz, w))
    rows_q, cols_q, vals_q = [], [], []
    rows_r, cols_r, vals_r = [], [], []
    for p, i in enumerate(interior):
        z, j = states[i]
        for (j2, dz, w) in by_src.get(j, []):
            z2 = tuple(a + b for a, b in zip(z, dz))
            tgt = idx.get((z2, j2))
            if tgt is None:
                continue
            if tgt in int_pos:
                rows_q.append(p)
                cols_q.append(int_pos[tgt])
                vals_q.append(w)
            else:
                rows_r.append(p)
                cols_r.append(tgt_pos[tgt])
                vals_r.append(w)
    n_i = len(interior)
    Q = sp.csr_matrix((vals_q, (rows_q, cols_q)), shape=(n_i, n_i))
    R = sp.csr_matrix((vals_r, (rows_r, cols_r)), shape=(n_i, len(targets)))
    A = sp.identity(n_i, format="csc") - Q.T.tocsc()
    e = np.zeros(n_i)
    e[int_pos[idx[(start, start_j)]]] = 1.0
    x = spla.splu(A).solve(e)
    h = R.T @ x
    return {states[t]: float(h[p]) for p, t in enumerate(targets) if h[p] > 0.0}
