"""Reference pull-backs of product strategies and memories.

These are the three walks that read product strategies back to the source
arena before one walk of the product replaced them.  ``compose_strategy``
and ``product_memory`` run the first memory over the source arena
alongside the second; ``compose_numbered`` walks a numbered
request-response product and reads every vertex back through its pairs.
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


def compose_numbered(m1, product, moves, owner):
    """The positional strategy ``moves`` on a numbered product of ``m1``,
    pulled back from the product's start pairs."""
    reached, rows = explore(product.arena, [(i, 0) for i in product.starts],
                            lambda _s, _e: 0, owner, lambda i, _s: moves[i])
    states = tuple((s, 0) for s in m1.states)
    vertex = [v for v, _s in product.pairs]
    state = [(s, 0) for _v, s in product.pairs]
    update = {(state[i], (vertex[i], vertex[k])): state[k] for _s, (i, k) in rows}
    next_move = {(vertex[i], state[i]): vertex[moves[i]]
                 for i, _s in reached if product.arena.owner[i] == owner}
    return FiniteStateStrategy(owner, MemoryStructure(states, (m1.initial, 0), update),
                               next_move)
