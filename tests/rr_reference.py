"""Reference request-response solver on tuple open sets.

This is the solver as it stood before open sets became bitmasks: memory
states are ``(open tuple, pointer)`` pairs from the start, the product
arena is labelled with ``(vertex, state)`` pairs, and a strategy is the
product strategy composed back through the memory by a walk that runs the
memory alongside the product strategy's own.  The tests hold the
package's solver to it: same memory, regions and strategies.
"""

from pullback_reference import trimmed
from rankgames.arena import Arena
from rankgames.memory import FiniteStateStrategy, MemoryStructure, explore
from rankgames.qualsolve import SolveResult, solve_buchi
from rankgames.verify import rr_open_update


def anchor(arena, within=None):
    """Initial vertex of the sub-arena induced by ``within``: the arena's
    own if it is alive, otherwise the least alive vertex."""
    if within is None or arena.initial in within:
        return arena.initial
    return min(within)


def rr_seed_state(pairs, vertex):
    """Open-request memory state, (open tuple, pointer), that a
    request-response play anchored at ``vertex`` starts in."""
    return (rr_open_update(pairs, (), vertex), 0)


def rr_memory(arena, pairs, within=None):
    """Memory, per-vertex seed states and labelled product of one walk
    inside ``within``, from its anchor and from every alive vertex."""
    d = len(pairs)
    alive = arena.vertices if within is None else sorted(within)
    seeds = {v: rr_seed_state(pairs, v) for v in alive}

    def step(state, edge):
        opened, r = state
        return rr_open_update(pairs, opened, edge[1]), (r + 1) % d if r not in opened else r

    start = (anchor(arena, within), seeds[anchor(arena, within)])
    reached, update = explore(arena, [start, *seeds.items()], step, within=within)
    mem = MemoryStructure(tuple(sorted({s for _v, s in reached})), start[1], update)
    owner = {pv: arena.owner[pv[0]] for pv in reached}
    edges = frozenset(((u, s), (w, t)) for (s, (u, w)), t in update.items())
    return mem, seeds, Arena(owner, edges, start)


def _compose(mem, strat, arena, seeds, within):
    """The product strategy ``strat`` pulled back to ``arena``: states are
    the (memory state, strategy state) pairs it names, in product order,
    rows what plays consistent with it reach from the anchor and every
    seed."""
    m2 = strat.memory

    def step(state, edge):
        s1, s2 = state
        t1 = mem.step(s1, edge)
        return t1, m2.step(s2, ((edge[0], s1), (edge[1], t1)))

    def move(v, state):
        return strat.move((v, state[0]), state[1])[0]

    initial = (mem.initial, m2.initial)
    starts = [(anchor(arena, within), initial)]
    starts += [(v, (s1, m2.initial)) for v, s1 in seeds.items()]
    reached, update = explore(arena, starts, step, strat.owner, move, within)
    states = tuple((s1, s2) for s1 in mem.states for s2 in m2.states)
    next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == strat.owner}
    return FiniteStateStrategy(strat.owner, trimmed(MemoryStructure(states, initial, update)),
                               next_move)


def solve_request_response(arena, pairs, within=None):
    """Buchi game on the labelled product; strategies composed back."""
    mem, seeds, product = rr_memory(arena, pairs, within)
    accept = frozenset(pv for pv in product.vertices if pv[1][1] not in pv[1][0])
    res = solve_buchi(product, accept)
    region_0 = frozenset(v for v, s in seeds.items() if (v, s) in res.region_0)
    region_1 = frozenset(seeds) - region_0
    return SolveResult(region_0, region_1, lambda player: _compose(
        mem, res.build(player), arena, seeds, within))
