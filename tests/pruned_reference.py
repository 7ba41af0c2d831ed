"""Reference pruned solve, building every strategy by one product walk.

This is ``solve_pruned`` as it stood before one-state strategies were
tabulated in one pass over the alive set: whatever the inner result, its
builder runs ``explore`` from every alive vertex paired with the inner
memory's initial state, under a ``step`` and ``move`` per edge, and a
positional inner result enters the walk as a one-state memory with no
rows; the memory is trimmed to the states the walk names.
``solve_safety_cobuchi`` and ``solve_objective`` route the safety/coBuchi
conjunction back here, so a nested pruned solve walks at both levels.
The tests hold the package's builder to it: same memory states, initial
state, update rows in order, and moves.
"""

from attractor_reference import _alive, _positional, first_successor
from pullback_reference import trimmed
from rankgames import qualsolve
from rankgames.arena import attractor
from rankgames.memory import FiniteStateStrategy, MemoryStructure, explore
from rankgames.objectives import CoBuchi, SafetyAndCoBuchi
from rankgames.qualsolve import SolveResult


def solve_pruned(arena, bad, objective, within=None):
    attr_1, toward_bad = attractor(arena, 1, bad, within)
    keep = _alive(arena, within) - attr_1
    if keep:
        res = solve_objective(arena, objective, keep)
    else:
        res = _positional(arena, keep, keep, lambda player: {}, keep)

    def build(player):
        if res.moves is None:
            base = res.build(player)
            mem, moves = base.memory, base.next_move
        else:
            # one state, whose rows the walk below would only read as stay-put
            mem = MemoryStructure._checked((0,), 0, {})
            moves = {(v, 0): w for v, w in res.moves(player).items()}

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
        return FiniteStateStrategy(
            player, trimmed(MemoryStructure._checked(mem.states, mem.initial, update)), next_move)
    return SolveResult(res.region_0, attr_1 | res.region_1, build)


def solve_safety_cobuchi(arena, safe, avoid, within=None):
    return solve_pruned(arena, _alive(arena, within) - frozenset(safe), CoBuchi(avoid),
                        within)


def solve_objective(arena, obj, within=None):
    if isinstance(obj, SafetyAndCoBuchi):
        return solve_safety_cobuchi(arena, obj.safe, obj.avoid, within)
    return qualsolve.solve_objective(arena, obj, within)
