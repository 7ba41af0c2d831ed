"""Region solvers for the shipped qualitative objectives.

Each solver returns both winning regions together with a builder for
finite-state winning strategies.  All shipped objectives are determined,
so the two regions always partition the vertex set.  Safety, Buchi,
coBuchi and the safety/coBuchi conjunction admit positional strategies;
request-response strategies carry the open-request memory.

Every solver takes an optional alive set ``within`` (see
:mod:`rankgames.arena`) and then solves the sub-arena it induces, on the
one arena it is given: iterated solvers shrink that set round by round
instead of building a sub-arena per round.  Regions then partition the
alive set, and strategies have moves only inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from .arena import Arena, Vertex, anchor, attractor, first_successor
from .errors import InputError
from .memory import (FiniteStateStrategy, MemoryStructure, compose_strategy,
                     explore, explore_product, positional_strategy)
from .objectives import (Buchi, CoBuchi, Objective, RequestResponse, Safety,
                         SafetyAndCoBuchi, validate_objective)


@dataclass(frozen=True)
class SolveResult:
    """Winning regions plus a winning strategy for each player.

    ``build(player)`` constructs that player's strategy.  Strategies are
    built on first read of ``strategy_0``, ``strategy_1`` or
    ``strategy_of`` and cached, so callers that need only the regions
    never build one.  Builders call the ``build`` of the results they
    extend, so only the outermost result keeps a strategy.  Strategies
    are total (moves outside a player's own region are filler) but only
    claimed winning on that player's region.  A result of
    :func:`solve_pruned` keeps the inner result it extends as ``kept``.
    """

    region_0: frozenset
    region_1: frozenset
    build: Callable[[int], FiniteStateStrategy] = field(repr=False, compare=False)
    kept: Optional[SolveResult] = field(default=None, repr=False, compare=False)

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


def _alive(arena: Arena, within) -> frozenset:
    return frozenset(arena.vertices) if within is None else frozenset(within)


def _positional(arena: Arena, owner: int, moves: Dict[Vertex, Vertex],
                within=None) -> FiniteStateStrategy:
    return positional_strategy(arena, owner, moves, fill=True, within=within)


def solve_safety(arena: Arena, safe, within=None) -> SolveResult:
    """Player 1 wins exactly on the 1-attractor of the unsafe vertices."""
    safe = frozenset(safe)
    validate_objective(Safety(safe), arena)
    alive = _alive(arena, within)
    region_1, toward_unsafe = attractor(arena, 1, alive - safe, within)
    region_0 = alive - region_1

    def build(player):
        if player == 1:
            return _positional(arena, 1, toward_unsafe, within)
        moves_0 = {v: first_successor(arena, v, region_0)
                   for v in region_0 if arena.owner[v] == 0}
        return _positional(arena, 0, moves_0, within)
    return SolveResult(region_0, region_1, build)


def _buchi(arena: Arena, accept: frozenset, within, p: int) -> SolveResult:
    """Classical iterated-attractor solver for Player ``p`` visiting
    ``accept`` infinitely often.

    Repeatedly: everything from which ``p`` cannot reach the accepting set
    inside the alive set is a trap for ``p``; hand its attractor to the
    opponent and shrink the alive set.  What survives is ``p``'s region,
    on which her strategy attracts to the accepting set and re-enters it.
    """
    owner, q = arena.owner, 1 - p
    alive = _alive(arena, within)
    cur = set(alive)
    moves_q: Dict[Vertex, Vertex] = {}
    while cur:
        reach_acc, toward_accept = attractor(arena, p, accept & cur, cur)
        losing = cur - reach_acc
        if not losing:
            break
        trapdoor, toward_losing = attractor(arena, q, losing, cur)
        for v in sorted(losing):
            if owner[v] == q:
                moves_q[v] = first_successor(arena, v, losing)
        moves_q.update(toward_losing)
        cur -= trapdoor
    moves_p = dict(toward_accept) if cur else {}
    for v in sorted(accept & cur):
        if owner[v] == p:
            moves_p[v] = first_successor(arena, v, cur)
    region_p = frozenset(cur)
    regions = (region_p, alive - region_p)
    return SolveResult(regions[p], regions[q], lambda player: _positional(
        arena, player, moves_p if player == p else moves_q, within))


def solve_buchi(arena: Arena, accept, within=None) -> SolveResult:
    """Player 0 visits ``accept`` infinitely often."""
    accept = frozenset(accept)
    validate_objective(Buchi(accept), arena)
    return _buchi(arena, accept, within, 0)


def solve_cobuchi(arena: Arena, avoid, within=None) -> SolveResult:
    """Dual of the Buchi game: Player 1 visits ``avoid`` infinitely often
    exactly where Player 0 loses."""
    avoid = frozenset(avoid)
    validate_objective(CoBuchi(avoid), arena)
    return _buchi(arena, avoid, within, 1)


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


def rr_memory(arena: Arena, pairs, within=None
              ) -> Tuple[MemoryStructure, Dict[Vertex, tuple], Arena]:
    """Open-request memory with a round-robin pointer.

    States are (open requests, pointer).  The pointer advances, cyclically,
    exactly when leaving a state whose pointed-at pair is currently not
    pending; those states are the progress states.  A play satisfies the
    request-response condition iff its run passes through progress states
    infinitely often, which the product Buchi game below checks.

    Returns the memory, the per-vertex seed states and the product arena
    from one walk over what plays from the seeded vertices reach: of the
    d * 2^d states the memory holds only those, one row per product edge.
    Every vertex of ``within`` is seeded, and the memory starts in the
    seed state of the alive set's anchor.
    """
    d = len(pairs)
    if d == 0:
        raise InputError("request-response needs at least one pair")
    alive = arena.vertices if within is None else sorted(within)
    seeds = {v: rr_seed_state(pairs, v) for v in alive}
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

    mem, product = explore_product(arena, seeds[anchor(arena, within)], step,
                                   seeds.items(), within)
    return mem, seeds, product


def solve_request_response(arena: Arena, pairs, within=None) -> SolveResult:
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
    mem, seeds, product = rr_memory(arena, pairs, within)
    accept = frozenset(pv for pv in product.vertices if pv[1][1] not in pv[1][0])
    res = solve_buchi(product, accept)
    region_0 = frozenset(v for v, s in seeds.items() if (v, s) in res.region_0)
    region_1 = frozenset(seeds) - region_0
    return SolveResult(region_0, region_1, lambda player: compose_strategy(
        mem, res.build(player), arena, seeds.items(), within))


def solve_pruned(arena: Arena, bad, objective: Objective, within=None) -> SolveResult:
    """Hand Player 1 his attractor to ``bad`` and solve ``objective`` on
    the rest, ``kept`` in the result; Player 0's strategy never enters the
    attractor.  The rest's strategies extend to the alive set only on what
    plays consistent with them reach from every alive vertex with the
    initial memory state: the memory stays put where it has no row, and
    vertices they leave open take Player 1's attractor moves or their
    first successor."""
    attr_1, toward_bad = attractor(arena, 1, bad, within)
    keep = _alive(arena, within) - attr_1
    if keep:
        res = solve_objective(arena, objective, keep)
    else:
        res = SolveResult(keep, keep, lambda player: FiniteStateStrategy(
            player, MemoryStructure((0,), 0, {}), {}))

    def build(player):
        base = res.build(player)
        mem, moves = base.memory, base.next_move

        def step(s, e):
            return mem.update.get((s, e), s)

        def move(v, s):
            if (v, s) in moves:
                return moves[(v, s)]
            return toward_bad[v] if v in toward_bad else first_successor(arena, v, within)

        alive = arena.vertices if within is None else sorted(within)
        reached, update = explore(arena, [(v, mem.initial) for v in alive], step,
                                  player, move, within)
        next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == player}
        return FiniteStateStrategy(player, MemoryStructure(mem.states, mem.initial, update),
                                   next_move)
    return SolveResult(res.region_0, attr_1 | res.region_1, build, kept=res)


def solve_safety_cobuchi(arena: Arena, safe, avoid, within=None) -> SolveResult:
    """Conjunction of a safety and a coBuchi condition.

    Remove the 1-attractor of the unsafe set, then solve coBuchi on what
    remains; Player 1 keeps the attractor plus his coBuchi region.
    """
    safe, avoid = frozenset(safe), frozenset(avoid)
    validate_objective(SafetyAndCoBuchi(safe, avoid), arena)
    return solve_pruned(arena, _alive(arena, within) - safe, CoBuchi(avoid), within)


def solve_objective(arena: Arena, obj: Objective, within=None) -> SolveResult:
    """Solve ``obj`` on the sub-arena induced by the alive set ``within``
    (default: the whole arena)."""
    if isinstance(obj, Safety):
        return solve_safety(arena, obj.safe, within)
    if isinstance(obj, Buchi):
        return solve_buchi(arena, obj.accept, within)
    if isinstance(obj, CoBuchi):
        return solve_cobuchi(arena, obj.avoid, within)
    if isinstance(obj, RequestResponse):
        return solve_request_response(arena, obj.pairs, within)
    if isinstance(obj, SafetyAndCoBuchi):
        return solve_safety_cobuchi(arena, obj.safe, obj.avoid, within)
    raise InputError(f"no solver for objective {obj!r}")
