"""Region solvers for the shipped qualitative objectives.

Each solver returns both winning regions together with finite-state
winning strategies.  All shipped objectives are determined, so the two
regions always partition the vertex set.  Safety, Buchi, coBuchi and the
safety/coBuchi conjunction admit positional strategies; request-response
strategies carry the open-request memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .arena import Arena, Vertex, attractor, restrict_any
from .errors import InputError
from .memory import (FiniteStateStrategy, MemoryStructure, compose_strategy,
                     expand, explore, positional_strategy)
from .objectives import (Buchi, CoBuchi, Objective, RequestResponse, Safety,
                         SafetyAndCoBuchi, validate_objective)


@dataclass(frozen=True)
class SolveResult:
    """Winning regions plus a winning strategy for each player.

    Strategies are total (moves outside a player's own region are filler)
    but only claimed winning on that player's region.
    """

    region_0: frozenset
    region_1: frozenset
    strategy_0: FiniteStateStrategy
    strategy_1: FiniteStateStrategy

    def __post_init__(self):
        if self.region_0 & self.region_1:
            raise InputError("winning regions overlap")

    def region_of(self, player: int) -> frozenset:
        return self.region_0 if player == 0 else self.region_1

    def strategy_of(self, player: int) -> FiniteStateStrategy:
        return self.strategy_0 if player == 0 else self.strategy_1


def _positional(arena: Arena, owner: int, moves: Dict[Vertex, Vertex]) -> FiniteStateStrategy:
    return positional_strategy(arena, owner, moves, fill=True)


def solve_safety(arena: Arena, safe) -> SolveResult:
    """Player 1 wins exactly on the 1-attractor of the unsafe vertices."""
    safe = frozenset(safe)
    validate_objective(Safety(safe), arena)
    unsafe = frozenset(arena.vertices) - safe
    region_1, toward_unsafe = attractor(arena, 1, unsafe)
    region_0 = frozenset(arena.vertices) - region_1
    moves_0 = {}
    for v in region_0:
        if arena.owner[v] == 0:
            moves_0[v] = next(w for w in arena.succ[v] if w in region_0)
    return SolveResult(region_0, region_1,
                       _positional(arena, 0, moves_0),
                       _positional(arena, 1, toward_unsafe))


def solve_buchi(arena: Arena, accept) -> SolveResult:
    """Classical iterated-attractor solver.

    Repeatedly: everything that cannot reach the accepting set inside the
    current sub-arena is a Player 1 trap; hand its 1-attractor to Player 1
    and shrink the sub-arena.  What survives is Player 0's region, on
    which her strategy attracts to the accepting set and re-enters it.
    """
    accept = frozenset(accept)
    validate_objective(Buchi(accept), arena)
    cur = set(arena.vertices)
    moves_1: Dict[Vertex, Vertex] = {}
    while cur:
        sub = restrict_any(arena, cur)
        reach_acc, _ = attractor(sub, 0, accept & cur)
        losing = cur - reach_acc
        if not losing:
            break
        trapdoor, toward_losing = attractor(sub, 1, losing)
        for v in sorted(losing):
            if arena.owner[v] == 1:
                moves_1[v] = next(w for w in sub.succ[v] if w in losing)
        moves_1.update(toward_losing)
        cur -= trapdoor
    region_0 = frozenset(cur)
    region_1 = frozenset(arena.vertices) - region_0
    moves_0: Dict[Vertex, Vertex] = {}
    if cur:
        sub = restrict_any(arena, cur)
        target = accept & cur
        _, toward_accept = attractor(sub, 0, target)
        moves_0.update(toward_accept)
        for v in sorted(target):
            if arena.owner[v] == 0:
                moves_0[v] = sub.succ[v][0]
    return SolveResult(region_0, region_1,
                       _positional(arena, 0, moves_0),
                       _positional(arena, 1, moves_1))


def solve_cobuchi(arena: Arena, avoid) -> SolveResult:
    """Dual of the Buchi solver: swap the players' vertices, solve the
    Buchi game on ``avoid``, and read the regions back crosswise."""
    avoid = frozenset(avoid)
    validate_objective(CoBuchi(avoid), arena)
    res = solve_buchi(arena.swap_owners(), avoid)
    strat_0 = FiniteStateStrategy(0, res.strategy_1.memory, dict(res.strategy_1.next_move))
    strat_1 = FiniteStateStrategy(1, res.strategy_0.memory, dict(res.strategy_0.next_move))
    return SolveResult(res.region_1, res.region_0, strat_0, strat_1)


def rr_open_update(pairs, open_set: tuple, entered: Vertex) -> tuple:
    """Open requests after entering a vertex: new requests are added, then
    answered ones removed, so a vertex that both requests and responds
    answers its own request."""
    opened = set(open_set)
    for c, (q, _p) in enumerate(pairs):
        if entered in q:
            opened.add(c)
    for c, (_q, p) in enumerate(pairs):
        if entered in p:
            opened.discard(c)
    return tuple(sorted(opened))


def rr_seed_state(pairs, vertex: Vertex) -> tuple:
    """Memory state a request-response play anchored at ``vertex`` starts in."""
    return (rr_open_update(pairs, (), vertex), 0)


def rr_memory(arena: Arena, pairs) -> Tuple[MemoryStructure, Dict[Vertex, tuple]]:
    """Open-request memory with a round-robin pointer.

    States are (open requests, pointer).  The pointer advances, cyclically,
    exactly when leaving a state whose pointed-at pair is currently not
    pending; those states are the progress states.  A play satisfies the
    request-response condition iff its run passes through progress states
    infinitely often, which the product Buchi game below checks.

    Of the d * 2^d such states, the memory holds only those reachable from
    the per-vertex seed states it returns alongside, and its update table
    holds exactly the reachable (state, edge) pairs.
    """
    d = len(pairs)
    if d == 0:
        raise InputError("request-response needs at least one pair")
    seeds = {v: rr_seed_state(pairs, v) for v in arena.vertices}

    def step(state, edge):
        opened, r = state
        r2 = (r + 1) % d if r not in opened else r
        return rr_open_update(pairs, opened, edge[1]), r2

    reached, _edges, update = explore(arena, seeds.items(), step)
    states = tuple(sorted({s for _v, s in reached}))
    return MemoryStructure(states, seeds[arena.initial], update), seeds


def solve_request_response(arena: Arena, pairs) -> SolveResult:
    """Reduce to a Buchi game over the open-request memory product.

    Player 0 wins from a vertex iff she wins the product Buchi game from
    that vertex paired with its fresh memory state.  Her strategy is the
    product strategy folded back through the memory, of size at most
    (number of pairs) * 2^(number of pairs); both strategies are tabulated
    on what plays from every seeded vertex can reach.
    """
    objective = RequestResponse(tuple(pairs))
    validate_objective(objective, arena)
    pairs = objective.pairs
    mem, seeds = rr_memory(arena, pairs)
    product = expand(arena, mem, seeds=seeds.items())
    accept = frozenset(pv for pv in product.vertices if pv[1][1] not in pv[1][0])
    res = solve_buchi(product, accept)
    region_0 = frozenset(v for v in arena.vertices if (v, seeds[v]) in res.region_0)
    region_1 = frozenset(arena.vertices) - region_0
    strat_0 = compose_strategy(mem, res.strategy_0, arena, seeds.items())
    strat_1 = compose_strategy(mem, res.strategy_1, arena, seeds.items())
    return SolveResult(region_0, region_1, strat_0, strat_1)


def solve_safety_cobuchi(arena: Arena, safe, avoid) -> SolveResult:
    """Conjunction of a safety and a coBuchi condition.

    Remove the 1-attractor of the unsafe set, then solve coBuchi on what
    remains; Player 1 keeps the attractor plus his coBuchi region.
    """
    safe, avoid = frozenset(safe), frozenset(avoid)
    validate_objective(SafetyAndCoBuchi(safe, avoid), arena)
    unsafe = frozenset(arena.vertices) - safe
    attr_1, toward_unsafe = attractor(arena, 1, unsafe)
    keep = frozenset(arena.vertices) - attr_1
    if not keep:
        return SolveResult(frozenset(), frozenset(arena.vertices),
                           _positional(arena, 0, {}),
                           _positional(arena, 1, toward_unsafe))
    sub = restrict_any(arena, keep)
    res = solve_cobuchi(sub, avoid & keep)
    moves_0 = {v: w for (v, _s), w in res.strategy_0.next_move.items()}
    moves_1 = {v: w for (v, _s), w in res.strategy_1.next_move.items()
               if v in res.region_1}
    moves_1.update(toward_unsafe)
    return SolveResult(res.region_0, attr_1 | res.region_1,
                       _positional(arena, 0, moves_0),
                       _positional(arena, 1, moves_1))


def solve_objective(arena: Arena, obj: Objective) -> SolveResult:
    if isinstance(obj, Safety):
        return solve_safety(arena, obj.safe)
    if isinstance(obj, Buchi):
        return solve_buchi(arena, obj.accept)
    if isinstance(obj, CoBuchi):
        return solve_cobuchi(arena, obj.avoid)
    if isinstance(obj, RequestResponse):
        return solve_request_response(arena, obj.pairs)
    if isinstance(obj, SafetyAndCoBuchi):
        return solve_safety_cobuchi(arena, obj.safe, obj.avoid)
    raise InputError(f"no solver for objective {obj!r}")
