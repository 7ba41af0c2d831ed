"""Region solvers for the shipped qualitative objectives.

Each solver returns both winning regions together with a builder for
finite-state winning strategies.  All shipped objectives are determined,
so the two regions always partition the vertex set.  Safety, Buchi,
coBuchi and the safety/coBuchi conjunction admit positional strategies;
request-response strategies carry the open-request memory.  Open request
sets are stated here once, as bitmasks coded with the round-robin pointer
as ``open_mask * d + pointer`` and ordered by their decoded states
(:func:`rr_product`); the oracle in :mod:`rankgames.verify` states them
once on its own, as sorted tuples.

Every solver takes an optional alive set ``within`` (see
:mod:`rankgames.arena`) and then solves the sub-arena it induces, on the
one arena it is given: iterated solvers shrink that set round by round
instead of building a sub-arena per round.  Regions then partition the
alive set, and strategies have moves only inside it.

Solving runs on vertex ids.  A library call maps its labels to ids once,
on entry; the fixpoints (attractor, Buchi and coBuchi, safety, pruning)
run on the graph's id rows, with alive sets, regions and targets as masks
over the ids and moves as id-to-id tables (:class:`_Solved`); and labels
come back only where a :class:`SolveResult` hands out its regions and
move tables.  Its one-state strategies, the positional results' and the
pruned one-state results', are filled straight from the id move tables:
a strategy on ids (:class:`rankgames.memory._OnIds`), whose label tables
are built on first read and which the strategy writer writes from its id
rows.  The request-response product is not an
:class:`~rankgames.arena.Arena`: it gives the same id rows, and the same
Buchi loop solves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress
from typing import Callable, Dict, NamedTuple, Optional, get_args

from .arena import Arena, Vertex, _alive_mask, _and, _attract, _checked_mask, _first, _mask, _minus
from .errors import InputError
from .memory import FiniteStateStrategy, MemoryStructure, NumberedProduct, _OnIds, _reach, explore
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
    Strategies of results whose regions cover the alive set are total
    (moves outside a player's own region are filler) but only claimed
    winning on that player's region, except that a :func:`solve_pruned`
    result over a request-response objective claims its strategies winning
    only from the alive set's anchor (see there).  A result that decides
    only the initial vertex, as cost-RR results do, has strategies defined
    on the plays from there only.

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


class _Solved(NamedTuple):
    """A solve on vertex ids: the alive mask it ran in and Player 0's region,
    a mask inside it (Player 1 has the rest).  ``moves(player)``, from id to
    id, is filled with first successors at that player's other alive ids,
    or is None where strategies carry memory; ``build(player)`` builds the
    strategy, or is None for the one-state strategy on ids wrapping
    ``moves``.  A pruned result keeps the ``inner`` result of its rest."""

    alive: bytes
    win: bytes
    moves: Optional[Callable[[int], dict]]
    build: Optional[Callable[[int], FiniteStateStrategy]] = None
    inner: Optional["_Solved"] = None


def _result(arena: Arena, res: _Solved) -> SolveResult:
    """``res`` handed out with its regions and move tables on labels."""
    verts = arena.vertices

    def moves(player):
        return {verts[i]: verts[k] for i, k in res.moves(player).items()}

    def positional(player):
        # a one-state memory with a row for every edge
        return _OnIds._of(player, arena, res.moves(player), arena.out)
    return SolveResult(frozenset(compress(verts, res.win)),
                       frozenset(compress(verts, _minus(res.alive, res.win))),
                       res.build or positional, moves=None if res.moves is None else moves)


def _positional(graph, alive, win, moves_of) -> _Solved:
    """Result whose strategies are positional: ``moves_of(player)``, which
    moves only at that player's alive ids, filled inside the alive set, in
    increasing id order.  The safety, Buchi, coBuchi and lim results and
    a request-response result on an empty alive set are built here;
    :func:`_pruned` builds its own one-state moves and rows."""
    owners = graph.owners

    def moves(player):
        table = moves_of(player)
        return {i: table[i] if i in table else _first(graph, i, alive)
                for i in compress(range(len(alive)), alive) if owners[i] == player}
    return _Solved(alive, win, moves)


def _safety(graph, safe, alive) -> _Solved:
    """Player 1 wins exactly on the 1-attractor of the unsafe vertices."""
    region_1, toward_unsafe = _attract(graph, 1, _minus(alive, safe), alive)
    region_0 = _minus(alive, region_1)

    def moves_of(player):
        if player == 1:
            return toward_unsafe
        return {i: _first(graph, i, region_0)
                for i in compress(range(len(alive)), region_0) if graph.owners[i] == 0}
    return _positional(graph, alive, region_0, moves_of)


def _buchi(graph, accept, alive, p: int) -> _Solved:
    """Classical iterated-attractor solver for Player ``p`` visiting
    ``accept`` infinitely often.

    Repeatedly: everything from which ``p`` cannot reach the accepting set
    inside the alive set is a trap for ``p``; hand its attractor to the
    opponent and shrink the alive set.  What survives is ``p``'s region,
    on which her strategy attracts to the accepting set and re-enters it.
    """
    owners, q, ids = graph.owners, 1 - p, range(len(alive))
    cur = alive
    moves_q: Dict[int, int] = {}
    while 1 in cur:
        reach_acc, toward_accept = _attract(graph, p, _and(accept, cur), cur)
        losing = _minus(cur, reach_acc)
        if 1 not in losing:
            break
        trapdoor, toward_losing = _attract(graph, q, losing, cur)
        for i in compress(ids, losing):
            if owners[i] == q:
                moves_q[i] = _first(graph, i, losing)
        moves_q.update(toward_losing)
        cur = _minus(cur, trapdoor)
    moves_p = dict(toward_accept) if 1 in cur else {}
    for i in compress(ids, _and(accept, cur)):
        if owners[i] == p:
            moves_p[i] = _first(graph, i, cur)
    win = cur if p == 0 else _minus(alive, cur)
    return _positional(graph, alive, win,
                       lambda player: moves_p if player == p else moves_q)


def _solver(arena: Arena, obj: Objective) -> Callable[[bytes], _Solved]:
    """The solver of ``obj`` on ids, as a function of the alive mask; the
    objective's vertex sets are mapped to masks once, here."""
    if isinstance(obj, Safety):
        return partial(_safety, arena, _mask(arena, obj.safe))
    if isinstance(obj, Buchi):
        return partial(_buchi, arena, _mask(arena, obj.accept), p=0)
    if isinstance(obj, CoBuchi):
        return partial(_buchi, arena, _mask(arena, obj.avoid), p=1)
    if isinstance(obj, RequestResponse):
        return partial(_request_response, arena, obj.pairs)
    # the safety/coBuchi conjunction: prune the unsafe set, solve coBuchi
    safe, inner = _mask(arena, obj.safe), _solver(arena, CoBuchi(obj.avoid))
    return lambda alive: _pruned(arena, _minus(alive, safe), inner, alive)


def _checked_solver(arena: Arena, obj) -> Callable[[bytes], _Solved]:
    """:func:`_solver` of an objective a library caller gave, checked first."""
    if not isinstance(obj, get_args(Objective)):
        raise InputError(f"no solver for objective {obj!r}")
    validate_objective(obj, arena)
    return _solver(arena, obj)


def solve_objective(arena: Arena, obj: Objective, within=None) -> SolveResult:
    """Solve ``obj`` on the sub-arena induced by the alive set ``within``
    (default: the whole arena): its labels are mapped to ids on entry, its
    id solver is the one :func:`_solver` picks, and the result is handed
    out on labels.  Every ``solve_*`` call of one objective kind solves
    through here."""
    return _result(arena, _checked_solver(arena, obj)(_alive_mask(arena, within)))


def solve_safety(arena: Arena, safe, within=None) -> SolveResult:
    """Player 1 wins exactly on the 1-attractor of the unsafe vertices."""
    return solve_objective(arena, Safety(frozenset(safe)), within)


def solve_buchi(arena: Arena, accept, within=None) -> SolveResult:
    """Player 0 visits ``accept`` infinitely often."""
    return solve_objective(arena, Buchi(frozenset(accept)), within)


def solve_cobuchi(arena: Arena, avoid, within=None) -> SolveResult:
    """Dual of the Buchi game: Player 1 visits ``avoid`` infinitely often
    exactly where Player 0 loses."""
    return solve_objective(arena, CoBuchi(frozenset(avoid)), within)


def rr_product(arena: Arena, pairs, within=None) -> NumberedProduct:
    """Product of the arena with the open-request memory and its
    round-robin pointer, numbered.

    Memory states are (open requests, pointer).  The pointer advances,
    cyclically, exactly when leaving a state whose pointed-at pair is
    currently not pending; those states are the progress states.  A play
    satisfies the request-response condition iff its run passes through
    progress states infinitely often, which the product Buchi game of
    :func:`solve_request_response` checks.

    The walk (:func:`rankgames.memory._reach`) runs on integers, over the
    arena's id rows.  Open sets are bitmasks (entering ``w`` takes ``open``
    to ``(open | requests[w]) & ~responses[w]``), and a product node is
    the one integer ``i * span + open_mask * d + pointer`` for vertex id
    i, with ``span = d * 2^d``.  The pointer is stepped once per node the
    walk leaves, not once per edge.

    The walk runs inside ``within`` from every alive vertex paired with its
    seed state, the requests it opens itself: of the d * 2^d states it
    reaches only those plays from there reach.  Each reached state code is
    decoded once to its ``(open tuple, pointer)`` state, and the product is
    numbered in sorted ``(vertex, state)`` order (:class:`NumberedProduct`),
    by sorting the nodes on vertex id and decoded-state rank.  A node's
    successors have distinct vertices, listed in id order, so their ids
    come out increasing.  The product starts at the alive set's anchor:
    the initial vertex if it is alive, otherwise the least alive vertex.
    No memory update table and no :class:`~rankgames.arena.Arena` is built:
    the solvers read the product as it is.
    """
    return _rr_product(arena, pairs, _alive_mask(arena, within))


def _rr_product(arena: Arena, pairs, alive) -> NumberedProduct:
    """:func:`rr_product` inside the alive mask ``alive``."""
    d = len(pairs)
    if d == 0:
        raise InputError("request-response needs at least one pair")
    verts, index, n = arena.vertices, arena.index, len(alive)
    ids = list(compress(range(n), alive))
    # per vertex id: the requests entering it opens, and the mask of the
    # pairs it leaves open
    add, keep = [0] * n, [-1] * n
    for c, (q, p) in enumerate(pairs):
        for v in q:
            add[index[v]] |= 1 << c
        for v in p:
            keep[index[v]] &= ~(1 << c)
    span = d << d
    succ = {i: [(k * span, add[k], keep[k]) for k in arena.out[i] if alive[k]] for i in ids}
    seeds = [i * span + (add[i] & keep[i]) * d for i in ids]
    outs = {}

    def successors(node):
        i, code = divmod(node, span)
        mask, ptr = divmod(code, d)
        ptr = ptr if mask >> ptr & 1 else (ptr + 1) % d
        out = outs[node] = [base + ((mask | plus) & kept) * d + ptr
                            for base, plus, kept in succ[i]]
        return out
    order = _reach(seeds, successors)
    state = {}
    for code in {node % span for node in order}:
        mask, ptr = divmod(code, d)
        state[code] = (tuple([c for c in range(d) if mask >> c & 1]), ptr)
    codes = sorted(state, key=state.__getitem__)
    rank = {code: j for j, code in enumerate(codes)}
    order.sort(key=lambda node: node - node % span + rank[node % span])
    number = {node: j for j, node in enumerate(order)}.__getitem__
    starts = tuple(map(number, seeds))
    anchor = index[arena.initial]
    return NumberedProduct(
        bytes([arena.owners[node // span] for node in order]),
        [list(map(number, outs[node])) for node in order],
        starts[ids.index(anchor)] if alive[anchor] else starts[0],
        tuple((verts[node // span], state[node % span]) for node in order), starts,
        tuple(state[code] for code in codes))


def _request_response(arena: Arena, pairs, alive) -> _Solved:
    """:func:`solve_request_response` on ids."""
    if 1 not in alive:
        return _positional(arena, alive, alive, lambda player: {})
    product = _rr_product(arena, pairs, alive)
    res = _buchi(product, bytes([ptr not in opened for _v, (opened, ptr) in product.pairs]),
                 _mask(product), 0)
    win = bytearray(len(alive))
    for i, start in zip(compress(range(len(alive)), alive), product.starts):
        win[i] = res.win[start]

    def build(player):
        return FiniteStateStrategy(player, *product.pull_back(player, res.moves(player)))
    return _Solved(alive, win, None, build)


def solve_request_response(arena: Arena, pairs, within=None) -> SolveResult:
    """Reduce to a Buchi game over the open-request memory product.

    Player 0 wins from a vertex iff she wins the product Buchi game from
    that vertex paired with its fresh memory state.  The Buchi loop runs
    on the integer-numbered product of :func:`rr_product` itself, and
    each player's positional strategy there is read back through that
    product by :meth:`rankgames.memory.NumberedProduct.pull_back`.  Her
    strategy is the product strategy folded back through the memory, of
    size at most (number of pairs) * 2^(number of pairs); both strategies
    are tabulated on what plays from every seeded vertex can reach, and
    declare only the memory states their rows name, in sorted order.
    """
    return solve_objective(arena, RequestResponse(tuple(pairs)), within)


def _pruned(arena: Arena, bad, solve, alive) -> _Solved:
    """:func:`solve_pruned` on ids, with ``solve`` the inner objective's
    solver (:func:`_solver`)."""
    attr_1, toward_bad = _attract(arena, 1, bad, alive)
    res = solve(_minus(alive, attr_1))
    verts, owners, ids = arena.vertices, arena.owners, range(len(alive))

    def fill(i):
        return toward_bad[i] if i in toward_bad else _first(arena, i, alive)

    def moves(player):
        inner = res.moves(player)
        return {i: inner[i] if i in inner else fill(i)
                for i in compress(ids, alive) if owners[i] == player}

    def build(player):
        if res.moves is not None:
            # one state: a walk would visit each alive vertex once, in order
            table, out = moves(player), arena.out
            rows = [[table[i]] if i in table else [k for k in out[i] if alive[k]]
                    if alive[i] else [] for i in ids]
            return _OnIds._of(player, arena, table, rows)
        base = res.build(player)
        mem, inner, index = base.memory, base.next_move, arena.index

        def step(s, e):
            return mem.update.get((s, e), s)

        def move(v, s):
            return inner[(v, s)] if (v, s) in inner else verts[fill(index[v])]

        starts = list(compress(verts, alive))
        reached, update = explore(arena, [(v, mem.initial) for v in starts], step,
                                  player, move, None if 0 not in alive else frozenset(starts))
        next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == player}
        named = {s for _v, s in reached}
        states = tuple(s for s in mem.states if s in named)
        return FiniteStateStrategy(
            player, MemoryStructure._checked(states, mem.initial, update), next_move)
    return _Solved(alive, res.win, None if res.moves is None else moves, build, res)


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
    attractor move or first successor.  Its one-state strategy is held
    on ids, with its memory rows filled in one pass over the ids: one row
    per owner vertex for its move and one per successor inside the alive
    set elsewhere.  Only a memoryful inner result, request-response, is
    walked with its memory, and its strategy declares the inner states
    that walk reached, the states its rows name, in the inner order.

    A request-response strategy's initial state is the seed state of the
    rest's anchor, while its region is solved with every vertex in its own
    seed state.  So from another vertex of its region, the walk can reach
    pairs the inner strategy has no move for, take the filler move there
    and leave a request open forever.  The result's strategies are then
    claimed winning only from the alive set's anchor."""
    bad, solve = _checked_mask(arena, bad, "target"), _checked_solver(arena, objective)
    return _result(arena, _pruned(arena, bad, solve, _alive_mask(arena, within, bad)))


def solve_safety_cobuchi(arena: Arena, safe, avoid, within=None) -> SolveResult:
    """Conjunction of a safety and a coBuchi condition.

    Remove the 1-attractor of the unsafe set, then solve coBuchi on what
    remains; Player 1 keeps the attractor plus his coBuchi region.
    """
    return solve_objective(arena, SafetyAndCoBuchi(frozenset(safe), frozenset(avoid)), within)
