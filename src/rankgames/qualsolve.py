"""Region solvers for the shipped qualitative objectives.

Each solver returns both winning regions together with a builder for
finite-state winning strategies.  All shipped objectives are determined,
so the two regions always partition the vertex set.  Safety, Buchi,
coBuchi and the safety/coBuchi conjunction admit positional strategies;
request-response strategies carry the open-request memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Tuple

from .arena import Arena, Vertex, attractor, restrict_any
from .errors import InputError
from .memory import (FiniteStateStrategy, MemoryStructure, compose_strategy,
                     explore, explore_product, positional_strategy)
from .objectives import (Buchi, CoBuchi, Objective, RequestResponse, Safety,
                         SafetyAndCoBuchi, restrict_objective, validate_objective)


@dataclass(frozen=True)
class SolveResult:
    """Winning regions plus a winning strategy for each player.

    ``build(player)`` constructs that player's strategy.  Strategies are
    built on first read of ``strategy_0``, ``strategy_1`` or
    ``strategy_of`` and cached, so callers that need only the regions
    never build one.  Builders call the ``build`` of the results they
    extend, so only the outermost result keeps a strategy.  Strategies
    are total (moves outside a player's own region are filler) but only
    claimed winning on that player's region.
    """

    region_0: frozenset
    region_1: frozenset
    build: Callable[[int], FiniteStateStrategy] = field(repr=False, compare=False)

    def __post_init__(self):
        if self.region_0 & self.region_1:
            raise InputError("winning regions overlap")

    @cached_property
    def strategy_0(self) -> FiniteStateStrategy:
        return self.build(0)

    @cached_property
    def strategy_1(self) -> FiniteStateStrategy:
        return self.build(1)

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

    def build(player):
        if player == 1:
            return _positional(arena, 1, toward_unsafe)
        moves_0 = {v: next(w for w in arena.succ[v] if w in region_0)
                   for v in region_0 if arena.owner[v] == 0}
        return _positional(arena, 0, moves_0)
    return SolveResult(region_0, region_1, build)


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
        reach_acc, toward_accept = attractor(sub, 0, accept & cur)
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
    moves_0 = dict(toward_accept) if cur else {}
    for v in sorted(accept & cur):
        if arena.owner[v] == 0:
            moves_0[v] = sub.succ[v][0]
    return SolveResult(region_0, region_1, lambda player: _positional(
        arena, player, moves_1 if player == 1 else moves_0))


def solve_cobuchi(arena: Arena, avoid) -> SolveResult:
    """Dual of the Buchi solver: swap the players' vertices, solve the
    Buchi game on ``avoid``, and read the regions back crosswise."""
    avoid = frozenset(avoid)
    validate_objective(CoBuchi(avoid), arena)
    res = solve_buchi(arena.swap_owners(), avoid)

    def build(player):
        dual = res.build(1 - player)
        return FiniteStateStrategy(player, dual.memory, dict(dual.next_move))
    return SolveResult(res.region_1, res.region_0, build)


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


def rr_memory(arena: Arena, pairs) -> Tuple[MemoryStructure, Dict[Vertex, tuple], Arena]:
    """Open-request memory with a round-robin pointer.

    States are (open requests, pointer).  The pointer advances, cyclically,
    exactly when leaving a state whose pointed-at pair is currently not
    pending; those states are the progress states.  A play satisfies the
    request-response condition iff its run passes through progress states
    infinitely often, which the product Buchi game below checks.

    Returns the memory, the per-vertex seed states and the product arena
    from one walk over what plays from the seeded vertices reach: of the
    d * 2^d states the memory holds only those, one row per product edge.
    """
    d = len(pairs)
    if d == 0:
        raise InputError("request-response needs at least one pair")
    seeds = {v: rr_seed_state(pairs, v) for v in arena.vertices}
    # the open set after an edge depends only on (open set, entered vertex)
    opened_after: Dict[tuple, tuple] = {}

    def step(state, edge):
        opened, r = state
        r2 = (r + 1) % d if r not in opened else r
        key = (opened, edge[1])
        nxt = opened_after.get(key)
        if nxt is None:
            nxt = opened_after[key] = rr_open_update(pairs, opened, edge[1])
        return nxt, r2

    mem, product = explore_product(arena, seeds[arena.initial], step, seeds.items())
    return mem, seeds, product


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
    mem, seeds, product = rr_memory(arena, pairs)
    accept = frozenset(pv for pv in product.vertices if pv[1][1] not in pv[1][0])
    res = solve_buchi(product, accept)
    region_0 = frozenset(v for v in arena.vertices if (v, seeds[v]) in res.region_0)
    region_1 = frozenset(arena.vertices) - region_0
    return SolveResult(region_0, region_1, lambda player: compose_strategy(
        mem, res.build(player), arena, seeds.items()))


def solve_pruned(arena: Arena, bad, objective: Objective) -> SolveResult:
    """Hand Player 1 his attractor to ``bad`` and solve ``objective`` on
    the rest; Player 0's strategy never enters the attractor.  The rest's
    strategies extend to ``arena`` only on what plays consistent with them
    reach from every vertex with the initial memory state: the memory stays
    put where it has no row, and vertices they leave open take Player 1's
    attractor moves or their first successor."""
    attr_1, toward_bad = attractor(arena, 1, bad)
    keep = frozenset(arena.vertices) - attr_1
    if keep:
        res = solve_objective(restrict_any(arena, keep), restrict_objective(objective, keep))
    else:
        res = SolveResult(keep, keep, lambda player: FiniteStateStrategy(
            player, MemoryStructure((0,), 0, {}), {}))

    def build(player):
        base = res.build(player)
        mem, moves = base.memory, base.next_move

        def step(s, e):
            return mem.update.get((s, e), s)

        def move(v, s):
            return moves[(v, s)] if (v, s) in moves else toward_bad.get(v, arena.succ[v][0])

        reached, update = explore(arena, [(v, mem.initial) for v in arena.vertices], step,
                                  player, move)
        next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == player}
        return FiniteStateStrategy(player, MemoryStructure(mem.states, mem.initial, update),
                                   next_move)
    return SolveResult(res.region_0, attr_1 | res.region_1, build)


def solve_safety_cobuchi(arena: Arena, safe, avoid) -> SolveResult:
    """Conjunction of a safety and a coBuchi condition.

    Remove the 1-attractor of the unsafe set, then solve coBuchi on what
    remains; Player 1 keeps the attractor plus his coBuchi region.
    """
    safe, avoid = frozenset(safe), frozenset(avoid)
    validate_objective(SafetyAndCoBuchi(safe, avoid), arena)
    return solve_pruned(arena, frozenset(arena.vertices) - safe, CoBuchi(avoid))


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
