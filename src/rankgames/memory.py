"""Memory structures, product arenas, and finite-state strategies.

A memory structure is a deterministic transducer whose update function
reads edges of a fixed arena, so memories can react to which edge was
taken, not only to the vertex reached.  Vertex-driven updates are the
special case that ignores the edge source.

The one-state strategies the solvers build stay on vertex ids, and their
label-keyed memory and move table are built on first read (:class:`_OnIds`);
strategies with memory, strategies read from files and hand-built ones are
label-keyed from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Optional, Tuple

from .arena import Arena, Edge, Vertex, _pred_rows
from .errors import InputError

State = Any


@dataclass(frozen=True)
class MemoryStructure:
    """Finite deterministic transducer over an arena's edges.

    ``update`` maps (state, edge) pairs to states.  It must cover every
    pair that can occur along a play of the associated arena; builders in
    this package tabulate generated memories exactly on those reachable
    pairs, while small hand-built memories are simply total.

    The constructor checks that the initial state and every state in
    ``update`` are listed; the strategy-file reader and the builders here,
    whose rows hold that already, use the private ``_checked`` instead.
    """

    states: tuple
    initial: State
    update: dict

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        sset = set(states)
        if self.initial not in sset:
            raise InputError(f"initial memory state {self.initial!r} is not a state")
        for (s, _e), t in self.update.items():
            if s not in sset or t not in sset:
                raise InputError("memory update mentions an unknown state")

    @classmethod
    def _checked(cls, states: tuple, initial: State, update: dict) -> "MemoryStructure":
        """The memory the constructor builds, from a tuple of states that
        holds ``initial`` and every state ``update`` mentions, unchecked."""
        mem = object.__new__(cls)
        object.__setattr__(mem, "states", states)
        object.__setattr__(mem, "initial", initial)
        object.__setattr__(mem, "update", update)
        return mem

    def __len__(self) -> int:
        return len(self.states)

    def step(self, state: State, edge: Edge) -> State:
        try:
            return self.update[(state, edge)]
        except KeyError:
            raise InputError(
                f"memory update undefined for state {state!r} on edge {edge!r}") from None


def trivial_memory(arena: Arena) -> MemoryStructure:
    """One-state memory over the given arena's edges, rows in sorted edge
    order, read off the arena's id rows."""
    verts = arena.vertices
    return MemoryStructure._checked(
        (0,), 0, {(0, (v, verts[k])): 0 for v, row in zip(verts, arena.out) for k in row})


def _reach(starts, successors) -> list:
    """The nodes reachable from ``starts``, in breadth-first visit order:
    the starts first, each once, in the order given, then each node's new
    successors in the order ``successors(node)`` lists them.  That call
    is made once per node, in visit order, so a product walk records the
    rows it takes there."""
    order = list(dict.fromkeys(starts))
    reached = set(order)
    for node in order:
        for nxt in successors(node):
            if nxt not in reached:
                reached.add(nxt)
                order.append(nxt)
    return order


def explore(arena: Arena, starts: Iterable[Tuple[Vertex, State]], step,
            owner: Optional[int] = None, move=None, within=None):
    """Breadth-first walk (:func:`_reach`) over the (vertex, state) pairs
    reachable from ``starts``.

    ``step(state, edge)`` gives the state after taking an edge.  With
    ``owner`` set, that player's vertices follow only ``move(vertex,
    state)``, so the walk covers exactly the plays consistent with that
    player's strategy.  Other vertices follow their successors inside the
    alive set ``within`` (default: all of them).  Returns the set of
    reached pairs and the update table ``{(state, edge): next state}``
    holding exactly the reached (state, edge) pairs, one per product edge.
    """
    succ, own = arena.succ, arena.owner
    if within is not None:
        succ = {v: tuple(w for w in succ[v] if w in within) for v in within}
    update = {}

    def successors(node):
        v, s = node
        for w in (move(v, s),) if own[v] == owner else succ[v]:
            t = update[(s, (v, w))] = step(s, (v, w))
            yield w, t
    return set(_reach(starts, successors)), update


def explore_product(arena: Arena, initial: State, step) -> Tuple[MemoryStructure, Arena]:
    """Memory and product arena of one :func:`explore` walk from the
    initial vertex paired with ``initial``; both hold exactly what the
    walk reached."""
    start = (arena.initial, initial)
    reached, update = explore(arena, [start], step)
    memory = MemoryStructure._checked(tuple(sorted({s for _v, s in reached})), initial, update)
    owner = {pv: arena.owner[pv[0]] for pv in reached}
    edges = [((u, s), (w, t)) for (s, (u, w)), t in update.items()]
    return memory, Arena._checked(owner, edges, start)


@dataclass(frozen=True)
class NumberedProduct:
    """Product graph on the ids 0..N-1, numbering the (vertex, state) pairs
    one walk reached in sorted order; built by
    :func:`rankgames.qualsolve.rr_product`.

    It gives the rows the solvers read of a graph, as an :class:`Arena`
    does (see :mod:`rankgames.arena`), so both are solved by the same
    attractor and Buchi loops: ``owners[i]`` is the owner of id i's
    vertex, ``out[i]`` lists the walk's successor ids of i, increasing,
    and ``pred`` is built on first read.  ``initial`` is the anchor's
    start id.  Solving runs on the ids alone; the (vertex, state) labels
    are read only where a strategy is read back (:meth:`pull_back`).

    ``pairs[i]`` decodes id i to its (vertex, memory state) pair.
    ``starts`` holds one id per alive vertex, in vertex order: the vertex
    paired with its seed state.  ``states`` lists the memory states the
    walk reached, sorted; the memory's initial state is the anchor's seed
    state, ``pairs[initial][1]``.
    """

    owners: bytes
    out: list
    initial: int
    pairs: tuple
    starts: tuple
    states: tuple

    @cached_property
    def pred(self) -> list:
        """Predecessor ids of each id, increasing."""
        return _pred_rows(self.out)

    def pull_back(self, owner: int, moves) -> Tuple[MemoryStructure, dict]:
        """Read ``owner``'s positional moves on this product, a map from id
        to id, back to the source.

        One walk (:func:`_reach`) from the start ids, in which ``owner``'s
        ids follow only their move, decodes each row as it takes it, and the
        moves are read off the ids it reached.  Returns the memory, with
        the walk's rows, on the states ``(memory state, 0)`` of the ids it
        reached, which are the states its initial state and rows name
        (every reached id takes a row), in sorted order; and the moves at
        reached ``owner`` vertices: what :func:`pull_back` gives for
        ``moves`` under a one-state memory, without tabulating that
        memory."""
        out, own = self.out, self.owners
        vertex = [v for v, _s in self.pairs]
        state = [(s, 0) for _v, s in self.pairs]
        update = {}

        def successors(i):
            row = (moves[i],) if own[i] == owner else out[i]
            for k in row:
                update[(state[i], (vertex[i], vertex[k]))] = state[k]
            return row
        order = _reach(self.starts, successors)
        next_move = {(vertex[i], state[i]): vertex[moves[i]] for i in order if own[i] == owner}
        named = {self.pairs[i][1] for i in order}
        states = tuple((s, 0) for s in self.states if s in named)
        return MemoryStructure._checked(states, state[self.initial], update), next_move


def pull_back(m1: MemoryStructure, product: Arena, m2: MemoryStructure,
              owner: Optional[int] = None, move=None) -> Tuple[MemoryStructure, dict]:
    """Read ``m2``, a memory over the edges of ``product``, an ``m1``
    expansion with (vertex, ``m1`` state) pairs as vertices, and the moves
    ``move(product vertex, m2 state)`` of ``owner`` there back to the source.

    One :func:`explore` walk runs from the product's initial vertex, and
    each vertex it reaches is read as its pair.  As the product's
    successors of (u, s1) are exactly (w, ``m1.step(s1, (u, w))``), this
    reaches what ``m1`` run alongside ``m2`` over the source would.
    Returns the memory, on the state pairs its initial state and the
    walk's rows name, in product order, and the moves at reached ``owner``
    vertices.  A numbered request-response product reads its positional
    moves back with :meth:`NumberedProduct.pull_back` instead."""
    rows = explore(product, [(product.initial, m2.initial)], m2.step, owner, move)[1]
    update, next_move = {}, {}
    for (s2, ((v, s1), (w, t1))), t2 in rows.items():
        update[((s1, s2), (v, w))] = (t1, t2)
        if product.owner[(v, s1)] == owner:  # the walk's one row there is the move
            next_move[(v, (s1, s2))] = w
    initial = (m1.initial, m2.initial)
    at1, at2 = ({s: k for k, s in enumerate(m.states)} for m in (m1, m2))
    # a row's source state is the initial one or another row's target
    named = sorted({initial, *update.values()}, key=lambda p: (at1[p[0]], at2[p[1]]))
    return MemoryStructure._checked(tuple(named), initial, update), next_move


@dataclass(frozen=True)
class FiniteStateStrategy:
    """A player's strategy given by a memory structure and a move table.

    ``next_move`` maps (vertex, memory state) pairs of the owner's
    vertices to successor vertices.  The reported size of the strategy is
    the size of its memory.

    The one-state strategies the solvers build are held on vertex ids, as
    instances of the private subclass :class:`_OnIds`, whose label-keyed
    ``memory`` and ``next_move`` are built on first read.
    """

    owner: int
    memory: MemoryStructure
    next_move: dict

    def __post_init__(self):
        if self.owner not in (0, 1):
            raise InputError("strategy owner must be 0 or 1")

    def size(self) -> int:
        return len(self.memory)

    def move(self, vertex: Vertex, state: State) -> Vertex:
        try:
            return self.next_move[(vertex, state)]
        except KeyError:
            raise InputError(
                f"strategy has no move at vertex {vertex!r} in state {state!r}") from None


class _OnIds(FiniteStateStrategy):
    """A one-state strategy held on the ids of an arena: ``_ids`` is the
    arena, the owner's move table from id to id and the memory's rows, the
    successor ids each vertex id's row takes, both in increasing id order.

    Its label-keyed ``memory`` and ``next_move`` are built on first read,
    as :attr:`Arena.succ` is: the memory's one state is 0, with its update
    rows in id order.  The strategy writer reads the id rows and builds
    neither, and ``size`` needs neither.  It equals a label-keyed strategy
    with the same tables.  The lazy tables live on this subclass so that
    reading a field of any other strategy stays a plain attribute read.
    """

    @classmethod
    def _of(cls, owner: int, arena: Arena, moves: dict, rows: list) -> FiniteStateStrategy:
        """The one-state strategy of ``owner`` with the move table ``moves``
        and the memory rows ``rows`` on the ids of ``arena``."""
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "owner", owner)
        object.__setattr__(strategy, "_ids", (arena, moves, rows))
        strategy.__post_init__()
        return strategy

    @cached_property
    def memory(self) -> MemoryStructure:
        arena, _moves, rows = self._ids
        verts = arena.vertices
        return MemoryStructure._checked(
            (0,), 0, {(0, (verts[i], verts[k])): 0 for i, row in enumerate(rows) for k in row})

    @cached_property
    def next_move(self) -> dict:
        arena, moves, _rows = self._ids
        verts = arena.vertices
        return {(verts[i], 0): verts[k] for i, k in moves.items()}

    def size(self) -> int:
        # dataclasses.replace gives a copy its tables, not the id rows
        return 1 if "_ids" in self.__dict__ else len(self.memory)

    def __eq__(self, other):
        return isinstance(other, FiniteStateStrategy) and (
            (self.owner, self.memory, self.next_move)
            == (other.owner, other.memory, other.next_move))


def positional_strategy(arena: Arena, owner: int,
                        moves: Mapping[Vertex, Vertex]) -> FiniteStateStrategy:
    """Wrap a vertex-to-vertex move map as a one-state strategy."""
    mem = trivial_memory(arena)
    next_move = {}
    for v, w in moves.items():
        if arena.owner.get(v) != owner:
            raise InputError(f"move given for vertex {v!r} not owned by player {owner}")
        if not arena.has_edge(v, w):
            raise InputError(f"move ({v!r} -> {w!r}) is not an edge")
        next_move[(v, 0)] = w
    return FiniteStateStrategy(owner, mem, next_move)
