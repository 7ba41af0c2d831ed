"""Request-response games with costs.

Plays are charged the worst summed edge cost between opening a request
and its earliest answer; Player 0 minimizes that worst cost.  Solving
goes through the quantitative reduction at parameter b+1: a per-pair cost
counter memory, saturating at b+1, turns the game into a vertex-ranked
sup game over request-response pairs that is exact below b+1.  Bounded
solving and optimization share one galloping search that builds one
reduction per probed bound, and bounded solving stops at the asked bound,
so no product is larger than the bound in question needs.  Every probe is
a ``SolveResult`` that decides the initial vertex and lifts a strategy
through its reduction only on first read; optimization bisects with
:func:`rankgames.ranked.least_winning_bound`, as vertex-ranked
optimization does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .arena import Arena, Edge, Vertex
from .errors import InputError
from .extnat import ExtNat
from .memory import explore_product
from .objectives import CostRRSpec, RequestResponse, cost_rr_lasso, validate_objective
from .qualsolve import SolveResult, solve_request_response
from .quantred import Cap, QuantReduction, lift_strategy
from .ranked import (OptimizeResult, RankedGame, _check_bound, least_winning_bound,
                     solve_sup_with_bound)

IDLE = ("idle",)


def _check_costrr(arena: Arena, spec: CostRRSpec) -> None:
    """The checks a cost-RR game, and a response-cost claim verified on
    ``arena``, pass: pairs naming arena vertices only, and costs on arena
    edges only."""
    validate_objective(spec.rr_objective(), arena)
    for (_c, e) in spec.edge_costs:
        if e not in arena.edges:
            raise InputError(f"cost assigned to missing edge {e!r}")


@dataclass(frozen=True)
class CostRRGame:
    """Arena plus request-response pairs with per-pair edge costs."""

    arena: Arena
    spec: CostRRSpec

    def __post_init__(self):
        _check_costrr(self.arena, self.spec)

    def lasso_cost(self, lasso) -> ExtNat:
        return cost_rr_lasso(self.spec, lasso)


def cap_bound(game: CostRRGame) -> int:
    """Upper bound on the optimum whenever it is finite:
    pairs * 2^pairs * vertices * largest edge cost."""
    d = game.spec.d
    if d > 62:
        raise InputError(f"{d} request-response pairs is beyond this solver's range")
    return d * (2 ** d) * len(game.arena) * game.spec.max_cost


def counter_seed(spec: CostRRSpec, vertex: Vertex) -> tuple:
    """Counter vector after the play's first visit, to ``vertex``: the idle
    vector's step into ``vertex``.  An idle counter is charged nothing, so
    that step reads neither an edge cost nor the cap."""
    return counter_step(spec, 0, (IDLE,) * spec.d, (vertex, vertex))


def counter_step(spec: CostRRSpec, cap: int, state: tuple, edge: Edge) -> tuple:
    """Advance the counter vector along one edge.

    Per pair: last step's answer marker ages out, an accumulating counter
    adds the edge's cost (saturating at ``cap``), an answered counter
    freezes its peak in an answer marker, and a request arrival starts an
    idle counter at zero.  A vertex that requests and answers at once
    yields an immediately answered zero counter; a pending counter absorbs
    new requests, since the older request always costs at least as much.
    """
    entered = edge[1]
    out = []
    for c, (q, p) in enumerate(spec.pairs):
        st = state[c]
        if st[0] == "ans":
            st = IDLE
        if st[0] == "act":
            st = ("act", min(st[1] + spec.cost(c, edge), cap))
        if entered in p and st[0] == "act":
            st = ("ans", st[1])
        if entered in q and st == IDLE:
            st = ("ans", 0) if entered in p else ("act", 0)
        out.append(st)
    return tuple(out)


def counter_value(status: tuple) -> int:
    return 0 if status == IDLE else status[1]


def counter_pending(status: tuple) -> bool:
    return status[0] == "act"


def build_reduction(game: CostRRGame, b: int) -> QuantReduction:
    """Reduce to a vertex-ranked sup request-response game at parameter b+1.

    The memory tracks, per pair, the cost accumulated by the oldest open
    request, saturating at b+1; the rank of a product vertex is the largest
    tracked value.  Plays costing at most b keep their exact cost as the
    target's sup rank; plays costing more are pushed to at least b+1.
    Memory and product are built together over the reachable part.
    """
    _check_bound(b, "reduction bound")
    spec, arena = game.spec, game.arena
    memory, product = explore_product(arena, counter_seed(spec, arena.initial),
                                      partial(counter_step, spec, b + 1))
    ranks = {pv: max(counter_value(st) for st in pv[1]) for pv in product.vertices}
    lifted = tuple(
        (frozenset(pv for pv in product.vertices if pv[0] in q),
         frozenset(pv for pv in product.vertices if pv[0] in p))
        for q, p in spec.pairs)
    target = RankedGame(product, RequestResponse(lifted), ranks, "sup")
    return QuantReduction(memory, Cap(b + 1), b + 1, game, target)


def _deciding(game: CostRRGame, wins: bool, build) -> SolveResult:
    """Result that decides the initial vertex only: in Player 0's region
    when she wins there, otherwise in Player 1's."""
    initial = frozenset((game.arena.initial,))
    none = frozenset()
    return SolveResult(initial if wins else none, none if wins else initial, build)


def _probe(game: CostRRGame, b: int) -> SolveResult:
    """Reduction built at bound b and its sup game solved at b.  A strategy
    is built and lifted through the reduction on first read."""
    r = build_reduction(game, b)
    res = solve_sup_with_bound(r.target, b)
    return _deciding(game, r.target.arena.initial in res.region_0,
                     lambda player: lift_strategy(r, res.strategy_of(player)))


def _gallop(game: CostRRGame, bound: int):
    """Probe b = 0, 1, 3, 7, ..., clamped to ``min(bound, cap)``, until
    Player 0 wins or that last bound is probed (Bentley and Yao, "An
    almost optimal algorithm for unbounded searching", 1976).

    Before a second probe, and before a loss at the cap, the plain
    request-response game on the source arena decides cost ``INF``: a
    finite-state win there costs at most the cap, so losing it is losing
    every bound.  Winning is monotone in the bound, every probe builds its
    own reduction at its bound, and no bound is probed twice.

    Returns ``(lo, b, result)``: the last losing probe below b (-1 if
    none), the last probe, and the result that decides the initial vertex
    at b.  At cost ``INF`` that result's strategies are the
    request-response ones; otherwise they are lifted from the probe at b.
    """
    cap = cap_bound(game)
    stop = min(bound, cap)
    lo, b, rr = -1, 0, None
    while True:
        res = _probe(game, b)
        if game.arena.initial in res.region_0 or (b == stop and b < cap):
            return lo, b, res
        if rr is None:
            rr = solve_request_response(game.arena, game.spec.pairs)
            if game.arena.initial not in rr.region_0:
                return lo, b, _deciding(game, False, rr.strategy_of)
        if b == cap:
            raise InputError("internal error: request-response game won but not within the cap")
        lo, b = b, min(2 * b + 1, stop)


def solve_with_bound(game: CostRRGame, b: int) -> SolveResult:
    """Whether Player 0 keeps the response cost at most b from the initial
    vertex, with strategies built on first read.

    The result decides the initial vertex only: its regions partition
    ``{initial}``.  Gallops up to ``min(b, cap)``, so no reduction is built
    at a bound above the least winning probe: a win at b' <= b is a win at
    b, and Player 0's strategy lifted from b' is certified at b.  Bounds
    beyond the cap are clamped, which is sound because a finitely winnable
    game is winnable within the cap.
    """
    _check_bound(b)
    return _gallop(game, b)[2]


def optimize(game: CostRRGame) -> OptimizeResult:
    """Least worst-case response cost Player 0 can guarantee.

    Gallops up to the cap until Player 0 wins, which also decides cost
    ``INF`` (Player 1 then gets his request-response strategy), then
    bisects the last gap, reusing the gallop's result at its last probe.
    Only the winning probe's strategy is built and lifted.
    """
    lo, b, top = _gallop(game, cap_bound(game))
    return least_winning_bound(game.arena.initial,
                               lambda c: top if c == b else _probe(game, c),
                               range(lo + 1, b + 1))
