"""Seeded random instance generators for testing and regression checking.

All generators take an explicit ``random.Random``, so a check that seeds
its own is reproducible across runs.
"""

from __future__ import annotations

import random
from typing import Optional

from .arena import Arena, Lasso
from .objectives import Buchi, CoBuchi, CostRRSpec, Safety
from .ranked import RankedGame
from .resilience import FaultArena
from .rrcost import CostRRGame

def random_arena(rng: random.Random, n: int, max_outdeg: int = 3,
                 p0_max_outdeg: Optional[int] = None) -> Arena:
    """Random non-terminal arena on vertices v0..v{n-1}, initial v0.

    ``p0_max_outdeg`` caps Player 0 branching separately; enumeration
    oracles are exponential in exactly that branching.
    """
    names = [f"v{i}" for i in range(n)]
    owner = {v: rng.randint(0, 1) for v in names}
    edges = set()
    for v in names:
        cap = max_outdeg if owner[v] == 1 or p0_max_outdeg is None else p0_max_outdeg
        k = rng.randint(1, max(1, min(cap, n)))
        for w in rng.sample(names, k):
            edges.add((v, w))
    return Arena(owner, edges, "v0")


def random_subset(rng: random.Random, arena: Arena, p: float = 0.5) -> frozenset:
    return frozenset(v for v in arena.vertices if rng.random() < p)


def random_lasso(rng: random.Random, arena: Arena, wander: int = 6) -> Lasso:
    """Random play: wander a few steps, then walk until a vertex repeats.
    It steps through the id rows ``out``, which list each vertex's
    successors in the arena's order."""
    out, verts = arena.out, arena.vertices
    walk = [arena.index[arena.initial]]
    for _ in range(rng.randint(0, wander)):
        walk.append(rng.choice(out[walk[-1]]))
    seen = {walk[-1]: len(walk) - 1}
    while True:
        nxt = rng.choice(out[walk[-1]])
        if nxt in seen:
            i = seen[nxt]
            play = tuple(verts[k] for k in walk)
            return Lasso(play[:i], play[i:])
        seen[nxt] = len(walk)
        walk.append(nxt)


def random_ranked_game(rng: random.Random, n: int, max_rank: int,
                       mode: Optional[str] = None,
                       p0_max_outdeg: int = 3) -> RankedGame:
    arena = random_arena(rng, n, p0_max_outdeg=p0_max_outdeg)
    kind = rng.choice(("safety", "buchi", "cobuchi"))
    if kind == "safety":
        objective = Safety(random_subset(rng, arena, 0.75) | {arena.initial})
    elif kind == "buchi":
        objective = Buchi(random_subset(rng, arena, 0.45))
    else:
        objective = CoBuchi(random_subset(rng, arena, 0.35))
    rk = {v: rng.randint(0, max_rank) for v in arena.vertices}
    return RankedGame(arena, objective, rk, mode or rng.choice(("sup", "lim")))


def random_costrr_game(rng: random.Random, n: int, d: int, max_cost: int,
                       p0_max_outdeg: int = 2,
                       response_density: float = 0.5) -> CostRRGame:
    """Random request-response game with costs.

    Response sets are kept nonempty so requests are usually answerable and
    cost counters keep resetting; sparse Player 0 branching keeps the
    strategy-enumeration oracle within its candidate guard.
    """
    arena = random_arena(rng, n, p0_max_outdeg=p0_max_outdeg)
    pairs = []
    for _ in range(d):
        q = random_subset(rng, arena, 0.4)
        p = random_subset(rng, arena, response_density)
        if not p:
            p = frozenset({rng.choice(arena.vertices)})
        pairs.append((q, p))
    costs = {}
    for c in range(d):
        for e in sorted(arena.edges):
            w = rng.randint(0, max_cost)
            if w:
                costs[(c, e)] = w
    return CostRRGame(arena, CostRRSpec(tuple(pairs), costs))


def random_fault_arena(rng: random.Random, n: int, max_faults: int) -> FaultArena:
    arena = random_arena(rng, n)
    safe = random_subset(rng, arena, 0.7) | {arena.initial}
    p0 = [v for v in arena.vertices if arena.owner[v] == 0]
    faults = set()
    if p0:
        for _ in range(rng.randint(0, max_faults)):
            faults.add((rng.choice(p0), rng.choice(arena.vertices)))
    return FaultArena(arena, frozenset(faults), safe)
