"""Reference one-state strategy builders on vertex labels.

``_result`` and ``_pruned`` are copied from ``rankgames.qualsolve`` as they
stood before one-state strategies were held on vertex ids, with the two
helpers of ``rankgames.memory`` the positional wrap read (``trivial_memory``
and ``positional_strategy``).  Each builds the label-keyed memory and move
table at once: the positional wrap maps the solver's id move table to
labels, checks every move against the arena and tabulates the one-state
memory with a row for every edge; the pruned one-state builder tabulates a
row per owner vertex's move and per successor inside the alive set
elsewhere.  ``patched`` puts both in place of the package's, where
``qualsolve`` and ``ranked`` call them, so the same solves build their
strategies the old way.  The tests hold the strategies on ids to them.
"""

from contextlib import contextmanager
from itertools import compress

from rankgames import qualsolve, ranked
from rankgames.arena import _attract, _first, _minus
from rankgames.errors import InputError
from rankgames.memory import FiniteStateStrategy, MemoryStructure, explore
from rankgames.qualsolve import SolveResult, _Solved


def trivial_memory(arena):
    verts = arena.vertices
    return MemoryStructure._checked(
        (0,), 0, {(0, (v, verts[k])): 0 for v, row in zip(verts, arena.out) for k in row})


def positional_strategy(arena, owner, moves):
    mem = trivial_memory(arena)
    next_move = {}
    for v, w in moves.items():
        if arena.owner.get(v) != owner:
            raise InputError(f"move given for vertex {v!r} not owned by player {owner}")
        if not arena.has_edge(v, w):
            raise InputError(f"move ({v!r} -> {w!r}) is not an edge")
        next_move[(v, 0)] = w
    return FiniteStateStrategy(owner, mem, next_move)


def _result(arena, res):
    verts = arena.vertices

    def moves(player):
        return {verts[i]: verts[k] for i, k in res.moves(player).items()}
    build = res.build or (lambda player: positional_strategy(arena, player, moves(player)))
    return SolveResult(frozenset(compress(verts, res.win)),
                       frozenset(compress(verts, _minus(res.alive, res.win))), build,
                       moves=None if res.moves is None else moves)


def _pruned(arena, bad, solve, alive):
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
            table, update = moves(player), {}
            for i in compress(ids, alive):
                for k in (table[i],) if i in table else arena.out[i]:
                    if alive[k]:
                        update[(0, (verts[i], verts[k]))] = 0
            return FiniteStateStrategy(player, MemoryStructure._checked((0,), 0, update),
                                       {(verts[i], 0): verts[k] for i, k in table.items()})
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
        return FiniteStateStrategy(
            player, MemoryStructure._checked(mem.states, mem.initial, update), next_move)
    return _Solved(alive, res.win, None if res.moves is None else moves, build, res)


@contextmanager
def patched(monkeypatch):
    """The package's solvers, building their strategies with this module's
    builders until the block ends."""
    with monkeypatch.context() as m:
        for module in (qualsolve, ranked):
            m.setattr(module, "_result", _result)
            m.setattr(module, "_pruned", _pruned)
        yield
