"""Fault-resilient safety synthesis.

Faults let the environment overrule a move of Player 0: at one of her
vertices the play may be diverted along a fault pair instead of her
choice.  Per vertex, ``val`` is the least number of faults the opponent
needs to force the play out of the safe set; ranking vertices by
``|V| - val`` turns maximizing fault tolerance into minimizing a
vertex-ranked sup cost (or limsup cost, for tolerance after a start-up
phase) over the fault-free arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict

from .arena import Arena, Vertex, _attract, _mask, _minus
from .errors import InputError
from .extnat import INF, ExtNat, is_finite
from .memory import FiniteStateStrategy
from .objectives import Safety
from .ranked import RankedGame, optimize as optimize_ranked


@dataclass(frozen=True)
class FaultArena:
    """Arena with a safe set and fault pairs rooted at Player 0 vertices.

    Fault targets need not be edges of the arena; the regular game is
    always played on the fault-free graph.
    """

    arena: Arena
    faults: frozenset
    safe: frozenset

    def __post_init__(self):
        object.__setattr__(self, "faults", frozenset(self.faults))
        object.__setattr__(self, "safe", frozenset(self.safe))
        owner = self.arena.owner
        if not owner.keys() >= self.safe:
            raise InputError("safe set mentions unknown vertices")
        if not (owner.keys() >= {v for _, v in self.faults}
                and {0} >= {owner.get(u) for u, _ in self.faults}):
            for u, v in sorted(self.faults):  # the least faulty pair is reported
                if u not in owner or v not in owner:
                    raise InputError(f"fault ({u!r}, {v!r}) mentions an unknown vertex")
                if owner[u] != 0:
                    raise InputError(f"fault source {u!r} must be owned by Player 0")


def compute_val(fa: FaultArena) -> Dict[Vertex, ExtNat]:
    """Minimal number of faults the opponent needs, per vertex.

    Level 0 is his plain attractor to the unsafe set; each further level
    adds the vertices whose fault pairs reach the previous level and
    attracts again.  The fixpoint settles within |V| rounds.  The test
    suite holds it to a budget-game oracle: a safety game on an explicit
    expansion whose states carry the remaining fault budget.
    """
    arena = fa.arena
    every, index = _mask(arena), arena.index
    faults = [(index[u], index[w]) for u, w in fa.faults]
    level, _ = _attract(arena, 1, _minus(every, _mask(arena, fa.safe)), every)
    val = [0 if at else INF for at in level]
    for k in range(1, len(arena) + 1):
        target = bytearray(level)
        for u, w in faults:
            if level[w]:
                target[u] = 1
        nxt, _ = _attract(arena, 1, target, every)
        if nxt == level:
            break
        for i in compress(range(len(val)), _minus(nxt, level)):
            val[i] = k
        level = nxt
    return dict(zip(arena.vertices, val))


def resilience_rank(fa: FaultArena) -> Dict[Vertex, int]:
    """Rank encoding of ``val``: |V| - val on vertices with finite value,
    zero elsewhere."""
    return _rank_of_val(fa, compute_val(fa))


def _rank_of_val(fa: FaultArena, val: Dict[Vertex, ExtNat]) -> Dict[Vertex, int]:
    n = len(fa.arena)
    return {v: (n - val[v] if is_finite(val[v]) else 0) for v in fa.arena.vertices}


@dataclass(frozen=True)
class ResilienceResult:
    val: dict
    bound: ExtNat
    resilience: ExtNat
    strategy: FiniteStateStrategy

    @property
    def player1_wins(self) -> bool:
        return not is_finite(self.bound)


def max_resilience(fa: FaultArena, mode: str = "sup") -> ResilienceResult:
    """Most faults a single strategy can tolerate from the initial vertex.

    Optimizes the rank-encoded game on the fault-free arena.  A strategy
    that tolerates m faults keeps every play with fewer than m faults
    safe; with the optimal bound b this gives tolerance |V| - b, and
    bound 0 means the play never leaves the region the opponent cannot
    crack with any number of faults, so tolerance is unbounded.  In lim
    mode the tolerance applies after a finite start-up phase.
    """
    val = compute_val(fa)
    game = RankedGame(fa.arena, Safety(fa.safe), _rank_of_val(fa, val), mode)
    res = optimize_ranked(game)
    if not is_finite(res.cost):
        return ResilienceResult(val, INF, 0, res.strategy)
    if res.cost == 0:
        return ResilienceResult(val, 0, INF, res.strategy)
    return ResilienceResult(val, res.cost, len(fa.arena) - res.cost, res.strategy)

