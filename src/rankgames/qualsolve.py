"""Region solvers for the shipped qualitative objectives.

Each solver returns both winning regions together with a builder for
finite-state winning strategies.  All shipped objectives are determined,
so the two regions always partition the vertex set.  Safety, Buchi,
coBuchi and the safety/coBuchi conjunction admit positional strategies;
request-response strategies carry the open-request memory.  Open request
sets are stated here once, as bitmasks coded with the round-robin pointer
as ``open_mask * d + pointer`` and ordered by their decoded states
(:func:`rr_product`); the oracle in :mod:`rankgames.verify` states them
once on its own, as sorted tuples.  The request-response product is not
an :class:`~rankgames.arena.Arena`: the Buchi solver reads the numbered
product's ``vertices``, ``owner``, ``succ`` and ``pred`` directly.

Every solver takes an optional alive set ``within`` (see
:mod:`rankgames.arena`) and then solves the sub-arena it induces, on the
one arena it is given: iterated solvers shrink that set round by round
instead of building a sub-arena per round.  Regions then partition the
alive set, and strategies have moves only inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

from .arena import Arena, Vertex, anchor, attractor, first_successor
from .errors import InputError
from .memory import (FiniteStateStrategy, MemoryStructure, NumberedProduct, explore,
                     filled_moves, positional_strategy)
from .objectives import (Buchi, CoBuchi, Objective, RequestResponse, Safety,
                         SafetyAndCoBuchi, validate_objective)


@dataclass(frozen=True)
class SolveResult:
    """Winning regions plus a winning strategy for each player.

    ``build(player)`` constructs that player's strategy.  Strategies are
    built on first read of ``strategy_0``, ``strategy_1`` or
    ``strategy_of`` and cached, so callers that need only the regions
    never build one.  Results that extend another read its ``moves`` or
    call its ``build``, so only the outermost result keeps a strategy.
    Strategies are total (moves outside a player's own region are filler)
    but only claimed winning on that player's region, except that a
    :func:`solve_pruned` result over a request-response objective claims
    its strategies winning only from the alive set's anchor (see there).

    Every result whose strategies are positional gives ``moves(player)``,
    the move table its one-state strategy wraps, so results that extend it
    need not build the one-state memory with a row for every edge that
    ``build`` adds.  Results whose strategies carry memory, request-response
    results and pruned results over them, leave ``moves`` as ``None``.
    """

    region_0: frozenset
    region_1: frozenset
    build: Callable[[int], FiniteStateStrategy] = field(repr=False, compare=False)
    moves: Optional[Callable[[int], Dict[Vertex, Vertex]]] = field(
        default=None, repr=False, compare=False)

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


def _positional(arena: Arena, region_0, region_1, moves_of, within) -> SolveResult:
    """Result whose strategies are positional: ``moves_of(player)``, filled
    inside the alive set.  Every positional result is built here."""
    def moves(player):
        return filled_moves(arena, player, moves_of(player), within)
    return SolveResult(region_0, region_1,
                       lambda player: positional_strategy(arena, player, moves(player)),
                       moves=moves)


def solve_safety(arena: Arena, safe, within=None) -> SolveResult:
    """Player 1 wins exactly on the 1-attractor of the unsafe vertices."""
    safe = frozenset(safe)
    validate_objective(Safety(safe), arena)
    alive = _alive(arena, within)
    region_1, toward_unsafe = attractor(arena, 1, alive - safe, within)
    region_0 = alive - region_1

    def moves_of(player):
        if player == 1:
            return toward_unsafe
        return {v: first_successor(arena, v, region_0)
                for v in region_0 if arena.owner[v] == 0}
    return _positional(arena, region_0, region_1, moves_of, within)


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
    return _positional(arena, regions[p], regions[q],
                       lambda player: moves_p if player == p else moves_q, within)


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


def rr_product(arena: Arena, pairs, within=None) -> NumberedProduct:
    """Product of the arena with the open-request memory and its
    round-robin pointer, numbered.

    Memory states are (open requests, pointer).  The pointer advances,
    cyclically, exactly when leaving a state whose pointed-at pair is
    currently not pending; those states are the progress states.  A play
    satisfies the request-response condition iff its run passes through
    progress states infinitely often, which the product Buchi game of
    :func:`solve_request_response` checks.

    The walk runs on integers.  Alive vertices are numbered by their
    position in sorted order, open sets are bitmasks (entering ``w`` takes
    ``open`` to ``(open | requests[w]) & ~responses[w]``), and a product
    node is the one integer ``i * span + open_mask * d + pointer`` for
    vertex number ``i``, with ``span = d * 2^d``.  The pointer is stepped
    once per node the walk leaves, not once per edge.

    The walk runs inside ``within`` from every alive vertex paired with its
    seed state, the requests it opens itself: of the d * 2^d states it
    reaches only those plays from there reach.  Each reached state code is
    decoded once to its ``(open tuple, pointer)`` state, and the product is
    numbered in sorted ``(vertex, state)`` order (:class:`NumberedProduct`),
    by sorting the nodes on vertex number and decoded-state rank.  A node's
    successors have distinct vertices, listed in sorted order, so their
    ids come out increasing.  The product starts at the alive set's anchor.
    No memory update table and no :class:`~rankgames.arena.Arena` is built:
    the solvers read the product as it is.
    """
    d = len(pairs)
    if d == 0:
        raise InputError("request-response needs at least one pair")
    alive = arena.vertices if within is None else sorted(within)
    index = {v: i for i, v in enumerate(alive)}
    # per vertex number: the requests entering it opens, and the mask of
    # the pairs it leaves open
    add, keep = [0] * len(alive), [-1] * len(alive)
    for c, (q, p) in enumerate(pairs):
        for v in q:
            if v in index:
                add[index[v]] |= 1 << c
        for v in p:
            if v in index:
                keep[index[v]] &= ~(1 << c)
    span = d << d
    succ = [[(index[w] * span, add[index[w]], keep[index[w]])
             for w in arena.succ[v] if w in index] for v in alive]
    seeds = [i * span + (add[i] & keep[i]) * d for i in range(len(alive))]
    order, reached, outs = list(seeds), set(seeds), {}
    for node in order:
        i, code = divmod(node, span)
        mask, ptr = divmod(code, d)
        if not mask >> ptr & 1:
            ptr = (ptr + 1) % d
        out = outs[node] = [base + ((mask | plus) & kept) * d + ptr
                            for base, plus, kept in succ[i]]
        for nxt in out:
            if nxt not in reached:
                reached.add(nxt)
                order.append(nxt)
    state = {}
    for code in {node % span for node in order}:
        mask, ptr = divmod(code, d)
        state[code] = (tuple([c for c in range(d) if mask >> c & 1]), ptr)
    codes = sorted(state, key=state.__getitem__)
    rank = {code: j for j, code in enumerate(codes)}
    order.sort(key=lambda node: node - node % span + rank[node % span])
    number = {node: j for j, node in enumerate(order)}.__getitem__
    labels = tuple((alive[node // span], state[node % span]) for node in order)
    starts = tuple(map(number, seeds))
    return NumberedProduct(
        {j: arena.owner[v] for j, (v, _s) in enumerate(labels)},
        {j: list(map(number, outs[node])) for j, node in enumerate(order)},
        starts[index[anchor(arena, within)]], labels, starts,
        tuple(state[code] for code in codes))


def solve_request_response(arena: Arena, pairs, within=None) -> SolveResult:
    """Reduce to a Buchi game over the open-request memory product.

    Player 0 wins from a vertex iff she wins the product Buchi game from
    that vertex paired with its fresh memory state.  :func:`solve_buchi`
    runs on the integer-numbered product of :func:`rr_product` itself, and
    each player's positional strategy there is read back through that
    product by :meth:`rankgames.memory.NumberedProduct.pull_back`.  Her
    strategy is the product strategy folded back through the memory, of
    size at most (number of pairs) * 2^(number of pairs); both strategies
    are tabulated on what plays from every seeded vertex can reach.
    """
    objective = RequestResponse(tuple(pairs))
    validate_objective(objective, arena)
    alive = _alive(arena, within)
    if not alive:
        return _positional(arena, alive, alive, lambda player: {}, alive)
    product = rr_product(arena, objective.pairs, within)
    res = solve_buchi(product, frozenset(
        i for i, (_v, (opened, ptr)) in enumerate(product.pairs) if ptr not in opened))
    region_0 = frozenset(product.pairs[i][0] for i in product.starts if i in res.region_0)
    region_1 = alive - region_0

    def build(player):
        return FiniteStateStrategy(player, *product.pull_back(player, res.moves(player)))
    return SolveResult(region_0, region_1, build)


def solve_pruned(arena: Arena, bad, objective: Objective, within=None) -> SolveResult:
    """Hand Player 1 his attractor to ``bad`` and solve ``objective`` on
    the rest, also when the rest is empty: every solver gives empty regions
    and move tables on an empty alive set.  Player 0's strategy never
    enters the attractor.  The rest's strategies extend to the alive set
    only on what plays consistent with them reach from every alive vertex
    with the initial memory state: the memory stays put where it has no
    row, and vertices they leave open take Player 1's attractor moves or
    their first successor.

    Positional inner strategies have one memory state, so this holds
    them winning on their whole region, and every alive vertex is a start
    the walk visits once.  The result is then positional too and gives
    ``moves``: each owner vertex of the alive set with its inner move,
    attractor move or first successor.  Its one-state strategy is
    tabulated in one pass over the sorted alive set, one row per owner
    vertex for its move and one per successor inside the alive set
    elsewhere.  Only a memoryful inner result, request-response, is
    walked with its memory.

    A request-response strategy's initial state is the seed state of the
    rest's anchor, while its region is solved with every vertex in its own
    seed state.  So from another vertex of its region, the walk can reach
    pairs the inner strategy has no move for, take the filler move there
    and leave a request open forever.  The result's strategies are then
    claimed winning only from the alive set's anchor."""
    alive = _alive(arena, within)
    attr_1, toward_bad = attractor(arena, 1, bad, within)
    res = solve_objective(arena, objective, alive - attr_1)

    def fill(v):
        return toward_bad[v] if v in toward_bad else first_successor(arena, v, within)

    def moves(player):
        inner = res.moves(player)
        return {v: inner[v] if v in inner else fill(v)
                for v in alive if arena.owner[v] == player}

    def build(player):
        starts = arena.vertices if within is None else sorted(within)
        if res.moves is not None:
            # one state: a walk would visit each alive vertex once, in order
            table, update = moves(player), {}
            for v in starts:
                for w in (table[v],) if v in table else arena.succ[v]:
                    if within is None or w in within:
                        update[(0, (v, w))] = 0
            return FiniteStateStrategy(player, MemoryStructure._checked((0,), 0, update),
                                       {(v, 0): w for v, w in table.items()})
        base = res.build(player)
        mem, inner = base.memory, base.next_move

        def step(s, e):
            return mem.update.get((s, e), s)

        def move(v, s):
            return inner[(v, s)] if (v, s) in inner else fill(v)

        reached, update = explore(arena, [(v, mem.initial) for v in starts], step,
                                  player, move, within)
        next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == player}
        return FiniteStateStrategy(
            player, MemoryStructure._checked(mem.states, mem.initial, update), next_move)
    return SolveResult(res.region_0, attr_1 | res.region_1, build,
                       moves=None if res.moves is None else moves)


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
