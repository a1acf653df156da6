"""Word-metric ball enumeration."""
from __future__ import annotations

from functools import lru_cache

from .errors import StateCapError
from .groups import FreeProductGroup, GroupElement


@lru_cache(maxsize=16)
def ball_elements(group: FreeProductGroup, radius: int,
                  state_cap: int) -> tuple[GroupElement, ...]:
    """All elements of word length <= radius, ordered by (length, normal form).

    Memoized per (group, radius, state_cap), hence an immutable tuple.
    """
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
                            f"ball enumeration exceeded the cap of {state_cap} states")
        nxt.sort(key=lambda g: g.sort_key())
        out.extend(nxt)
        frontier = nxt
    return tuple(out)

