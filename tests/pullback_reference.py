"""Reference pull-backs of product strategies and memories.

These are the three walks that read product strategies back to the source
arena before one walk of the product replaced them.  ``compose_strategy``
and ``product_memory`` run the first memory over the source arena
alongside the second and declare every state pair, as the paper's
calculus does; ``lifted_strategy`` is ``compose_strategy`` declared only on
the pairs it names, as the package lifts a strategy through a reduction;
``compose_numbered`` walks the labelled request-response product of
``tests/rr_reference.py`` under a numbered product's moves, read on their
labels, and is declared on the states it names too.
The tests hold the package's pull-back to them: same owner, states,
initial state, update rows and moves.
"""

from rankgames.errors import InputError
from rankgames.memory import FiniteStateStrategy, MemoryStructure, explore


def _product_walk(m1, m2, arena, owner=None, move=None):
    """``explore`` under ``m1`` run alongside ``m2``, a memory over the
    ``m1``-expanded arena's edges, from the initial vertex."""
    def step(state, edge):
        s1, s2 = state
        t1 = m1.step(s1, edge)
        return t1, m2.step(s2, ((edge[0], s1), (edge[1], t1)))

    initial = (m1.initial, m2.initial)
    reached, update = explore(arena, [(arena.initial, initial)], step, owner, move)
    states = tuple((s1, s2) for s1 in m1.states for s2 in m2.states)
    return reached, MemoryStructure(states, initial, update)


def product_memory(m1, m2, arena):
    for (_s, e) in m2.update:
        if not all(isinstance(pv, tuple) and len(pv) == 2 for pv in e):
            raise InputError("second memory must read edges of the expanded arena")
        break
    return _product_walk(m1, m2, arena)[1]


def compose_strategy(m1, strat, arena):
    def move(v, state):
        return strat.move((v, state[0]), state[1])[0]

    reached, memory = _product_walk(m1, strat.memory, arena, strat.owner, move)
    next_move = {pv: move(*pv) for pv in reached if arena.owner[pv[0]] == strat.owner}
    return FiniteStateStrategy(strat.owner, memory, next_move)


def named_states(memory):
    """The states a memory's initial state and update rows name."""
    return {memory.initial, *memory.update.values(), *(s for s, _e in memory.update)}


def trimmed(memory):
    """``memory`` on the states its initial state and rows name, in its
    own order."""
    named = named_states(memory)
    return MemoryStructure(tuple(s for s in memory.states if s in named), memory.initial,
                           memory.update)


def lifted_strategy(m1, strat, arena):
    """``compose_strategy`` on the state pairs its initial state and rows
    name, in the order of the full product."""
    full = compose_strategy(m1, strat, arena)
    return FiniteStateStrategy(full.owner, trimmed(full.memory), full.next_move)


def compose_numbered(m1, product, starts, moves, owner):
    """The positional strategy ``moves`` of a numbered request-response
    product, given on its (vertex, state) labels, pulled back from the
    start pairs ``starts`` through ``product``, the labelled product of
    ``m1``, and trimmed to the states it names."""
    reached, rows = explore(product, [(pv, 0) for pv in starts], lambda _s, _e: 0, owner,
                            lambda pv, _s: moves[pv])
    states = tuple((s, 0) for s in m1.states)
    update = {((s, 0), (u, w)): (t, 0) for _s, ((u, s), (w, t)) in rows}
    next_move = {(v, (s, 0)): moves[(v, s)][0]
                 for (v, s), _s in reached if product.owner[(v, s)] == owner}
    return FiniteStateStrategy(owner, trimmed(MemoryStructure(states, (m1.initial, 0), update)),
                               next_move)
