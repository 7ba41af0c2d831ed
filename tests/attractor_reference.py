"""Reference label-keyed fixpoints: the attractor and the positional solvers
as they stood before solving ran on vertex ids.

``attractor``, ``_buchi``, ``solve_safety``, the positional part of
``solve_pruned`` and ``solve_lim_with_bound`` are copied from the package
of that time, with the helpers they read (``_alive``, ``_positional``,
``filled_moves`` and ``first_successor``).  They hash vertex labels
through dicts and sets.  Arenas no longer keep label-keyed predecessor
lists, so ``_label_pred`` builds them here, in the order the package
built them: sorted vertices, each with its sorted successors.  The tests
hold the id kernels to this module: same regions, same move-table
contents for both players and same optima.
"""

from collections import deque
from typing import Dict

from rankgames.arena import Vertex
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.memory import FiniteStateStrategy, MemoryStructure, positional_strategy
from rankgames.objectives import Buchi, CoBuchi, Safety, SafetyAndCoBuchi
from rankgames.qualsolve import SolveResult
from rankgames.ranked import OptimizeResult


def _label_pred(arena):
    pred = {v: [] for v in arena.vertices}
    for v in arena.vertices:
        for w in arena.succ[v]:
            pred[w].append(v)
    return pred


def first_successor(arena, v, within=None):
    """First successor of ``v``, in the arena's order, inside ``within``."""
    for w in arena.succ[v]:
        if within is None or w in within:
            return w
    raise InputError(f"vertex {v!r} has no successor inside the alive set")


def attractor(arena, player, target, within=None):
    tgt = frozenset(target)
    owner = arena.owner
    unknown = [v for v in tgt if v not in owner]
    if unknown:
        raise InputError(f"target contains unknown vertices: {sorted(unknown)!r}")
    alive = owner if within is None else within
    succ, pred = arena.succ, _label_pred(arena)
    inside = set(tgt)
    counters: Dict[Vertex, int] = {}
    strategy: Dict[Vertex, Vertex] = {}
    queue = deque(sorted(tgt))
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if u in inside or u not in alive:
                continue
            if owner[u] == player:
                inside.add(u)
                strategy[u] = v
                queue.append(u)
            else:
                left = counters.get(u)
                if left is None:
                    left = (len(succ[u]) if within is None
                            else sum(1 for w in succ[u] if w in within))
                counters[u] = left = left - 1
                if left == 0:
                    inside.add(u)
                    queue.append(u)
    return frozenset(inside), strategy


def filled_moves(arena, owner, moves, within=None):
    table = dict(moves)
    for v, player in arena.owner.items():
        if player == owner and v not in table and (within is None or v in within):
            table[v] = first_successor(arena, v, within)
    return table


def _alive(arena, within):
    return frozenset(arena.vertices) if within is None else frozenset(within)


def _positional(arena, region_0, region_1, moves_of, within):
    def moves(player):
        return filled_moves(arena, player, moves_of(player), within)
    return SolveResult(region_0, region_1,
                       lambda player: positional_strategy(arena, player, moves(player)),
                       moves=moves)


def solve_safety(arena, safe, within=None):
    safe = frozenset(safe)
    alive = _alive(arena, within)
    region_1, toward_unsafe = attractor(arena, 1, alive - safe, within)
    region_0 = alive - region_1

    def moves_of(player):
        if player == 1:
            return toward_unsafe
        return {v: first_successor(arena, v, region_0)
                for v in region_0 if arena.owner[v] == 0}
    return _positional(arena, region_0, region_1, moves_of, within)


def _buchi(arena, accept, within, p):
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


def solve_buchi(arena, accept, within=None):
    return _buchi(arena, frozenset(accept), within, 0)


def solve_cobuchi(arena, avoid, within=None):
    return _buchi(arena, frozenset(avoid), within, 1)


def solve_pruned(arena, bad, objective, within=None):
    """The positional part: ``objective`` has a positional solver."""
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
        # one state: a walk would visit each alive vertex once, in order
        table, update = moves(player), {}
        for v in starts:
            for w in (table[v],) if v in table else arena.succ[v]:
                if within is None or w in within:
                    update[(0, (v, w))] = 0
        return FiniteStateStrategy(player, MemoryStructure._checked((0,), 0, update),
                                   {(v, 0): w for v, w in table.items()})
    return SolveResult(res.region_0, attr_1 | res.region_1, build, moves=moves)


def solve_safety_cobuchi(arena, safe, avoid, within=None):
    safe, avoid = frozenset(safe), frozenset(avoid)
    return solve_pruned(arena, _alive(arena, within) - safe, CoBuchi(avoid), within)


def solve_objective(arena, obj, within=None):
    if isinstance(obj, Safety):
        return solve_safety(arena, obj.safe, within)
    if isinstance(obj, Buchi):
        return solve_buchi(arena, obj.accept, within)
    if isinstance(obj, CoBuchi):
        return solve_cobuchi(arena, obj.avoid, within)
    if isinstance(obj, SafetyAndCoBuchi):
        return solve_safety_cobuchi(arena, obj.safe, obj.avoid, within)
    raise InputError(f"no positional solver for objective {obj!r}")


def solve_sup_with_bound(game, bound):
    high = frozenset(v for v in game.arena.vertices if game.rk[v] > bound)
    return solve_pruned(game.arena, high, game.objective)


def solve_lim_with_bound(game, bound):
    arena = game.arena
    high = frozenset(v for v in arena.vertices if game.rk[v] > bound)
    if isinstance(game.objective, Safety):
        return solve_safety_cobuchi(arena, game.objective.safe, high)
    cur = frozenset(arena.vertices)
    rounds = []
    last = None
    while cur:
        sres = solve_pruned(arena, high & cur, game.objective, cur)
        if not sres.region_0:
            last = sres
            break
        chunk, toward_core = attractor(arena, 0, sres.region_0, cur)
        rounds.append((sres, toward_core))
        cur = cur - chunk

    def moves_of(player):
        moves = {}
        if player == 0:
            # a round's pruned moves win on its core, its attractor moves lead there
            for pruned, toward_core in rounds:
                core_moves = pruned.moves(0)
                for v in sorted(pruned.region_0):
                    if arena.owner[v] == 0:
                        moves[v] = core_moves[v]
                moves.update(toward_core)
        elif last is not None:
            # the last round's pruned result is positional: its move table,
            # with no one-state strategy tabulated around it
            moves = last.moves(1)
        return moves
    return _positional(arena, frozenset(arena.vertices) - cur, cur, moves_of, None)


def optimize(game):
    """The least realized rank Player 0 wins with from the initial vertex,
    by trying every rank in turn, with the strategy of that probe."""
    solve = solve_sup_with_bound if game.mode == "sup" else solve_lim_with_bound
    for b in game.rank_values():
        res = solve(game, b)
        if game.arena.initial in res.region_0:
            return OptimizeResult(b, res.strategy_0)
    return OptimizeResult(INF, res.strategy_1)
