"""Vertex-ranked games: bounded solving and optimization.

A vertex-ranked game charges a play the highest rank it visits at all
("sup" mode) or infinitely often ("lim" mode), provided the play meets a
qualitative objective; otherwise the play costs infinity.  Player 0
minimizes.  Solving with respect to a bound b reduces to qualitative
solving after pruning what Player 1 can force above b.  The optimum is a
realized rank value.  A sup game starts at its floor, the least rank b
whose Player 1 attractor to the ranks above b misses the initial vertex,
and searches further only when that probe loses below the top rank; a lim
game bisects all realized ranks.  That bisection,
:func:`least_winning_bound`, also searches the bounds of request-response
games with costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from typing import Tuple

from .arena import Arena, _and, _attract, _mask, _minus, _spread
from .errors import CapabilityError, InputError
from .extnat import INF, ExtNat
from .memory import FiniteStateStrategy
from .objectives import (Buchi, CoBuchi, Objective, Safety, rank_cost_lasso,
                         validate_objective, validate_rank)
from .qualsolve import SolveResult, _buchi, _positional, _pruned, _result, _solver

MODES = ("sup", "lim")

_PREFIX_INDEPENDENT = (Buchi, CoBuchi)


def _check_ranked(arena: Arena, objective: Objective, rk: dict, mode: str) -> None:
    """The checks a ranked game, and a rank-cost claim verified on
    ``arena``, pass: a known mode, an objective naming arena vertices
    only, and a natural rank for every vertex and for nothing else."""
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    validate_objective(objective, arena)
    validate_rank(rk, arena)


@dataclass(frozen=True)
class RankedGame:
    """Arena, qualitative objective, vertex ranking, and mode."""

    arena: Arena
    objective: Objective
    rk: dict
    mode: str

    def __post_init__(self):
        _check_ranked(self.arena, self.objective, self.rk, self.mode)
        if self.mode == "lim" and not isinstance(
                self.objective, _PREFIX_INDEPENDENT + (Safety,)):
            raise CapabilityError(
                "lim mode is supported for safety, Buchi and coBuchi objectives only")

    def lasso_cost(self, lasso) -> ExtNat:
        return rank_cost_lasso(self.rk, self.objective, self.mode, lasso)

    def rank_values(self) -> Tuple[int, ...]:
        return tuple(sorted({self.rk[v] for v in self.arena.vertices}))

    @cached_property
    def _on_ids(self):
        """The objective's solver on the arena's ids (:func:`_solver`) and
        the rank of each id, built on the first probe and shared by all."""
        return _solver(self.arena, self.objective), [self.rk[v] for v in self.arena.vertices]


@dataclass(frozen=True)
class RankedCondition:
    """Rank-cost claim for strategy verification at some bound."""

    objective: Objective
    rk: dict
    mode: str


def _check_bound(bound, what: str = "bound") -> None:
    """Reject a bound that is not a non-negative int (a bool is not one)."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise InputError(f"{what} must be an integer, got {bound!r}")
    if bound < 0:
        raise InputError(f"{what} must be non-negative")


def solve_sup_with_bound(game: RankedGame, bound: int) -> SolveResult:
    """Decide, per vertex, whether Player 0 keeps the sup-cost at most b.

    Player 1 wins wherever he can drag the play into a vertex ranked
    above b; elsewhere the qualitative solver on the pruned sub-arena
    decides.  Player 0's strategy never enters the pruned part, so its
    cost is bounded by b wherever it wins.  Over a request-response
    objective the strategies are claimed winning only from the initial
    vertex (see :func:`rankgames.qualsolve.solve_pruned`), which is where
    the CLI and :func:`rankgames.quantred.lift_strategy` read them.
    """
    if game.mode != "sup":
        raise InputError("solve_sup_with_bound needs a sup-mode game")
    _check_bound(bound)
    solve, ranks = game._on_ids
    return _result(game.arena, _pruned(game.arena, bytes([r > bound for r in ranks]), solve,
                                       _mask(game.arena)))


def solve_lim_with_bound(game: RankedGame, bound: int) -> SolveResult:
    """Decide, per vertex, whether Player 0 keeps the limsup-cost at most b.

    Safety objectives reduce to the safety/coBuchi conjunction (ranks above
    b may appear only finitely often), solved as :func:`_solver` solves it
    and on masks: the unsafe set pruned, then the ranks above b avoided.
    Prefix-independent objectives are peeled iteratively: take the
    sup-winning region inside the alive set, hand Player 0 its
    0-attractor, shrink the alive set, repeat.  Both strategies are
    positional and the result gives ``moves`` like every positional
    result: hers stitches each round's attractor moves with its core's
    moves, read off the round's inner result, the solve of the rest it
    pruned, and his is the last round's pruned moves.  The rounds run on
    the arena's ids, with the alive set a mask.
    """
    if game.mode != "lim":
        raise InputError("solve_lim_with_bound needs a lim-mode game")
    _check_bound(bound)
    arena = game.arena
    solve, ranks = game._on_ids
    high, every = bytes([r > bound for r in ranks]), _mask(arena)
    if isinstance(game.objective, Safety):
        unsafe = _minus(every, _mask(arena, game.objective.safe))
        return _result(arena, _pruned(arena, unsafe, partial(_buchi, arena, high, p=1), every))
    cur = every
    rounds = []
    last = None
    while 1 in cur:
        sres = _pruned(arena, _and(high, cur), solve, cur)
        if 1 not in sres.win:
            last = sres
            break
        chunk, toward_core = _attract(arena, 0, sres.win, cur)
        rounds.append((sres, toward_core))
        cur = _minus(cur, chunk)

    def moves_of(player):
        moves = {}
        if player == 0:
            # a round's core is its rest's region, where the rest's moves
            # win; its attractor moves lead there
            for pruned, toward_core in rounds:
                core_moves = pruned.inner.moves(0)
                for i in compress(range(len(cur)), pruned.win):
                    if arena.owners[i] == 0:
                        moves[i] = core_moves[i]
                moves.update(toward_core)
        elif last is not None:
            # the last round's pruned result is positional: its move table,
            # with no one-state strategy tabulated around it
            moves = last.moves(1)
        return moves
    return _result(arena, _positional(arena, every, _minus(every, cur), moves_of))


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


def least_winning_bound(initial, probe, candidates) -> OptimizeResult:
    """Least of the ascending ``candidates`` at which Player 0 wins from
    ``initial``, with her strategy from that candidate's probe.

    ``probe(c)`` returns a result whose regions decide ``initial``, and
    winning must be monotone in c.  The top candidate is probed first,
    then binary-search midpoints.  When even the top candidate loses, the
    cost is ``INF`` with Player 1's strategy from the top probe.
    """
    best = probe(candidates[-1])
    if initial not in best.region_0:
        return OptimizeResult(INF, best.strategy_1)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(candidates[mid])
        if initial in res.region_0:
            hi, best = mid, res
        else:
            lo = mid + 1
    return OptimizeResult(candidates[hi], best.strategy_0)


def _floor(game: RankedGame) -> int:
    """Least realized rank b whose Player 1 attractor to the ranks above b
    misses the initial vertex.  Every sup cost is at least this floor: at
    each lower realized b, Player 1 forces a rank above b from the initial
    vertex.  The rank levels enter one growing attractor
    (:func:`rankgames.arena._spread`) from the top down, until the initial
    vertex is inside."""
    _, ranks = game._on_ids
    arena = game.arena
    levels = {}
    for i, r in enumerate(ranks):
        levels.setdefault(r, []).append(i)
    values = sorted(levels, reverse=True)
    at, n = arena.index[arena.initial], len(ranks)
    inside, counters, every = bytearray(n), [0] * n, b"\1" * n
    for above in values[:-1]:
        queue = [i for i in levels[above] if not inside[i]]
        for i in queue:
            inside[i] = 1
        _spread(arena, 1, every, inside, counters, queue, {})
        if inside[at]:
            return above
    return values[-1]


def optimize(game: RankedGame) -> OptimizeResult:
    """Least bound Player 0 wins with.

    Winning with respect to b is monotone in b, and the achievable costs
    are realized rank values, so only those are probed.  A sup game is
    first probed at its floor (:func:`_floor`), below which Player 1
    forces a higher rank: a win there is the optimum, a loss at the top
    rank is cost ``INF`` with that probe's Player 1 strategy, and any
    other loss bisects the ranks above the floor.  A lim game bisects all
    realized ranks.  Player 1 wins outright when even the largest rank
    fails, which is exactly failing the qualitative game.  Either way the
    strategy comes from the probe at the optimum, or at the top rank.
    """
    initial, ranks = game.arena.initial, game.rank_values()
    if game.mode == "lim":
        return least_winning_bound(initial, partial(solve_lim_with_bound, game), ranks)
    floor = _floor(game)
    res = solve_sup_with_bound(game, floor)
    if initial in res.region_0:
        return OptimizeResult(floor, res.strategy_0)
    if floor == ranks[-1]:
        return OptimizeResult(INF, res.strategy_1)
    return least_winning_bound(initial, partial(solve_sup_with_bound, game),
                               ranks[ranks.index(floor) + 1:])
