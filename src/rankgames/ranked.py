"""Vertex-ranked games: bounded solving and optimization.

A vertex-ranked game charges a play the highest rank it visits at all
("sup" mode) or infinitely often ("lim" mode), provided the play meets a
qualitative objective; otherwise the play costs infinity.  Player 0
minimizes.  Solving with respect to a bound b reduces to qualitative
solving after pruning what Player 1 can force above b; the optimum is
found by binary search over the realized rank values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .arena import Arena, Vertex, attractor, restrict_any
from .errors import CapabilityError, InputError
from .extnat import INF, ExtNat
from .memory import FiniteStateStrategy, MemoryStructure, positional_strategy
from .objectives import (Buchi, CoBuchi, Objective, Safety, rank_cost_lasso,
                         restrict_objective, validate_objective, validate_rank)
from .qualsolve import SolveResult, solve_objective, solve_safety_cobuchi

MODES = ("sup", "lim")

_PREFIX_INDEPENDENT = (Buchi, CoBuchi)


@dataclass(frozen=True)
class RankedGame:
    """Arena, qualitative objective, vertex ranking, and mode."""

    arena: Arena
    objective: Objective
    rk: dict
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        validate_objective(self.objective, self.arena)
        validate_rank(self.rk, self.arena)
        if self.mode == "lim" and not isinstance(
                self.objective, _PREFIX_INDEPENDENT + (Safety,)):
            raise CapabilityError(
                "lim mode is supported for safety, Buchi and coBuchi objectives only")

    def lasso_cost(self, lasso) -> ExtNat:
        return rank_cost_lasso(self.rk, self.objective, self.mode, lasso)

    def relabeled(self, fn) -> "RankedGame":
        from .arena import relabel
        from .objectives import relabel_objective

        return RankedGame(relabel(self.arena, fn),
                          relabel_objective(self.objective, fn),
                          {fn(v): r for v, r in self.rk.items()}, self.mode)

    def rank_values(self) -> Tuple[int, ...]:
        return tuple(sorted({self.rk[v] for v in self.arena.vertices}))

    def max_rank(self) -> int:
        return self.rank_values()[-1]


@dataclass(frozen=True)
class RankedCondition:
    """Rank-cost claim for strategy verification at some bound."""

    objective: Objective
    rk: dict
    mode: str


def _merge_positional(arena: Arena, owner: int, base: FiniteStateStrategy,
                      extra: Dict[Vertex, Vertex]) -> FiniteStateStrategy:
    """Overlay positional moves onto a strategy, extending its memory with
    stay-put entries for edges of ``arena`` it has not seen.  The overlay
    only fills vertices the base strategy leaves open."""
    mem = base.memory
    missing = {(s, e): s for s in mem.states for e in arena.edges
               if (s, e) not in mem.update}
    if missing:
        upd = dict(mem.update)
        upd.update(missing)
        mem = MemoryStructure(mem.states, mem.initial, upd)
    next_move = dict(base.next_move)
    for v in arena.owned_by(owner):
        fallback = extra.get(v, arena.succ[v][0])
        for s in mem.states:
            next_move.setdefault((v, s), fallback)
    return FiniteStateStrategy(owner, mem, next_move)


def solve_sup_with_bound(game: RankedGame, bound: int) -> SolveResult:
    """Decide, per vertex, whether Player 0 keeps the sup-cost at most b.

    Player 1 wins wherever he can drag the play into a vertex ranked
    above b; elsewhere the qualitative solver on the pruned sub-arena
    decides.  Player 0's strategy never enters the pruned part, so its
    cost is bounded by b wherever it wins.
    """
    if game.mode != "sup":
        raise InputError("solve_sup_with_bound needs a sup-mode game")
    if bound < 0:
        raise InputError("bound must be non-negative")
    arena = game.arena
    high = frozenset(v for v in arena.vertices if game.rk[v] > bound)
    attr_1, toward_high = attractor(arena, 1, high)
    keep = frozenset(arena.vertices) - attr_1
    if not keep:
        empty_0 = positional_strategy(arena, 0, {}, fill=True)
        tau = positional_strategy(arena, 1, toward_high, fill=True)
        return SolveResult(frozenset(), frozenset(arena.vertices), empty_0, tau)
    sub = restrict_any(arena, keep)
    qres = solve_objective(sub, restrict_objective(game.objective, keep))
    strat_0 = _merge_positional(arena, 0, qres.strategy_0, {})
    strat_1 = _merge_positional(arena, 1, qres.strategy_1, toward_high)
    return SolveResult(qres.region_0, attr_1 | qres.region_1, strat_0, strat_1)


def solve_lim_with_bound(game: RankedGame, bound: int) -> SolveResult:
    """Decide, per vertex, whether Player 0 keeps the limsup-cost at most b.

    Safety objectives reduce to the safety/coBuchi conjunction (ranks above
    b may appear only finitely often).  Prefix-independent objectives are
    peeled iteratively: take the sup-winning region of the current
    sub-arena, hand Player 0 its 0-attractor, repeat; her strategy stitches
    the attractor moves with the sup-game strategies.
    """
    if game.mode != "lim":
        raise InputError("solve_lim_with_bound needs a lim-mode game")
    if bound < 0:
        raise InputError("bound must be non-negative")
    arena = game.arena
    if isinstance(game.objective, Safety):
        avoid = frozenset(v for v in arena.vertices if game.rk[v] > bound)
        return solve_safety_cobuchi(arena, game.objective.safe, avoid)
    cur = frozenset(arena.vertices)
    moves_0: Dict[Vertex, Vertex] = {}
    last: Optional[SolveResult] = None
    region_0 = set()
    while cur:
        sub = restrict_any(arena, cur)
        sup_sub = RankedGame(sub, restrict_objective(game.objective, cur),
                             {v: game.rk[v] for v in cur}, "sup")
        sres = solve_sup_with_bound(sup_sub, bound)
        core = sres.region_0
        if not core:
            last = sres
            break
        chunk, toward_core = attractor(sub, 0, core)
        for v in sorted(core):
            if arena.owner[v] == 0:
                moves_0[v] = sres.strategy_0.next_move[(v, _only_state(sres.strategy_0))]
        moves_0.update(toward_core)
        region_0 |= chunk
        cur = cur - chunk
    strat_0 = positional_strategy(arena, 0, moves_0, fill=True)
    if cur and last is not None:
        moves_1 = {v: w for (v, _s), w in last.strategy_1.next_move.items() if v in cur}
        strat_1 = positional_strategy(arena, 1, moves_1, fill=True)
    else:
        strat_1 = positional_strategy(arena, 1, {}, fill=True)
    return SolveResult(frozenset(region_0), frozenset(cur), strat_0, strat_1)


def _only_state(strat: FiniteStateStrategy):
    if len(strat.memory) != 1:
        raise InputError("expected a positional strategy")
    return strat.memory.states[0]


def solve_with_bound(game: RankedGame, bound: int) -> SolveResult:
    return (solve_sup_with_bound if game.mode == "sup" else solve_lim_with_bound)(game, bound)


@dataclass(frozen=True)
class OptimizeResult:
    """Least achievable cost from the initial vertex, with a witnessing
    strategy: Player 0's when the cost is finite, Player 1's otherwise."""

    cost: ExtNat
    strategy: FiniteStateStrategy

    @property
    def winner(self) -> int:
        return 0 if isinstance(self.cost, int) else 1


def least_winning_bound(probe, candidates):
    """Least of the ascending ``candidates`` at which Player 0 wins.

    ``probe(c)`` returns ``(wins, result)``, and winning must be monotone
    in c.  The top candidate is probed first, then binary-search
    midpoints.  Returns the least winning candidate with its probe's
    result, or ``None`` with the top candidate's result when even that
    one loses.
    """
    wins, best = probe(candidates[-1])
    if not wins:
        return None, best
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        wins, res = probe(candidates[mid])
        if wins:
            hi, best = mid, res
        else:
            lo = mid + 1
    return candidates[hi], best


def optimize(game: RankedGame) -> OptimizeResult:
    """Binary search for the least bound Player 0 wins with.

    Winning with respect to b is monotone in b, and the achievable costs
    are realized rank values, so only those are probed.  Player 1 wins
    outright when even the largest rank fails, which is exactly failing
    the qualitative game.
    """
    def probe(bound: int):
        res = solve_with_bound(game, bound)
        return game.arena.initial in res.region_0, res

    cost, res = least_winning_bound(probe, game.rank_values())
    if cost is None:
        return OptimizeResult(INF, res.strategy_1)
    return OptimizeResult(cost, res.strategy_0)
