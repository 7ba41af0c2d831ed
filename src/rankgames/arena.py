"""Game graphs: arenas, lassos, and attractor computation.

An arena is a finite directed graph whose vertices are split between
Player 0 and Player 1, with a designated initial vertex and no terminal
vertices.  Vertex identifiers are opaque but must be totally ordered
within one arena; every iteration in this package follows that order, so
identical inputs always produce identical outputs.

Solvers work on one fixed arena.  Where a round of a solver has given
part of the graph away, the vertices still in play form an alive set
``within``: a set of vertices in which each keeps a successor, so it
induces a sub-arena.  Functions taking ``within`` act as on that
sub-arena, with the same iteration order, without building it; ``None``
means the whole arena.

An arena's vertices are its owner map's keys.  The arena invariants are
checked once per input.  ``Arena(owner, edges, initial)`` checks them for
callers of the library; the game-file parser and the product walks, which
produce rows that hold them by construction, build arenas from the same
three arguments through the private ``Arena._checked`` without checking
again.  Both set their fields through one builder.  Predecessor lists are
built on first read of ``pred``, so requests that never run an attractor
never build them.

The solvers and the attractor read four fields of the graph they are
given: ``vertices``, ``owner`` (in the order of ``vertices``), ``succ``
(each vertex's successors sorted) and ``pred``.  An :class:`Arena` gives
them, and so does :class:`rankgames.memory.NumberedProduct`, the
request-response product, which is solved without building an arena.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, Mapping, Tuple

from .errors import InputError

Vertex = Any
Edge = Tuple[Vertex, Vertex]


@dataclass(frozen=True)
class Arena:
    """Finite game graph with an ownership partition and initial vertex.

    ``vertices`` is derived: the owner map's keys, sorted.  Invariants
    checked by the constructor: there is a vertex, every owner is 0 or 1,
    the initial vertex is known, every edge endpoint is a known vertex,
    and every vertex has at least one outgoing edge.  ``owner`` follows
    the order of ``vertices``, and ``succ[v]`` holds ``v``'s successors
    sorted.  ``pred[v]``, its predecessors in the order of the sorted edge
    list, is built on first read.
    """

    vertices: tuple = field(init=False)
    owner: dict
    edges: frozenset
    initial: Vertex
    succ: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owner = self.owner
        if not owner:
            raise InputError("an arena needs at least one vertex")
        bad = [v for v, pl in owner.items() if pl not in (0, 1)]
        if bad:
            v = min(bad)
            raise InputError(f"owner of {v!r} must be 0 or 1, got {owner[v]!r}")
        if self.initial not in owner:
            raise InputError(f"initial vertex {self.initial!r} is not a vertex")
        edges = frozenset(self.edges)
        unknown = [(u, w) for u, w in edges if u not in owner or w not in owner]
        if unknown:
            u, w = min(unknown)
            raise InputError(f"edge ({u!r}, {w!r}) mentions an unknown vertex")
        self._set(owner, edges)
        for v, out in self.succ.items():
            if not out:
                raise InputError(f"vertex {v!r} has no outgoing edge")

    @classmethod
    def _checked(cls, owner: Mapping[Vertex, int], edges: Iterable[Edge],
                 initial: Vertex) -> "Arena":
        """The arena ``Arena(owner, edges, initial)`` builds, from rows that
        already hold its invariants, without checking them again."""
        arena = object.__new__(cls)
        object.__setattr__(arena, "initial", initial)
        arena._set(owner, edges)
        return arena

    def _set(self, owner: Mapping[Vertex, int], edges: Iterable[Edge]):
        """Set the fields from rows whose edges join owned vertices:
        ``vertices`` the sorted owner keys, ``owner`` in their order,
        ``edges`` a frozenset and ``succ[v]`` ``v``'s successors sorted.
        Rows given as a list with no repeats fill each successor list in
        their order; game files list edges sorted, so the sorts then only
        confirm the order."""
        verts, rows, edges = tuple(sorted(owner)), edges, frozenset(edges)
        if type(rows) is not list or len(rows) != len(edges):
            rows = edges
        succ = {v: [] for v in verts}
        for u, w in rows:
            succ[u].append(w)
        for out in succ.values():
            out.sort()
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "owner", {v: owner[v] for v in verts})
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "succ", {v: tuple(out) for v, out in succ.items()})

    @cached_property
    def pred(self) -> dict:
        """Predecessors of each vertex, in the order of the sorted edge list
        (sorted vertices, each with its sorted successors)."""
        return _predecessors(self.succ)

    def __len__(self) -> int:
        return len(self.vertices)

    def owned_by(self, player: int) -> tuple:
        return tuple(v for v in self.vertices if self.owner[v] == player)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self.edges

    def with_initial(self, v: Vertex) -> "Arena":
        if v == self.initial:
            return self
        return Arena(self.owner, self.edges, v)


def _predecessors(succ: Mapping) -> dict:
    """Predecessor lists of a successor map whose successors are all keys,
    keyed in the map's order, each in the order the map lists its edges."""
    pred: dict = {n: [] for n in succ}
    for n, ws in succ.items():
        for w in ws:
            pred[w].append(n)
    return pred


def anchor(arena: Arena, within=None) -> Vertex:
    """Initial vertex of the sub-arena induced by ``within``: the arena's
    own if it is alive, otherwise the least alive vertex."""
    if within is None or arena.initial in within:
        return arena.initial
    return min(within)


def first_successor(arena: Arena, v: Vertex, within=None) -> Vertex:
    """First successor of ``v``, in the arena's order, inside ``within``."""
    for w in arena.succ[v]:
        if within is None or w in within:
            return w
    raise InputError(f"vertex {v!r} has no successor inside the alive set")


def attractor(arena: Arena, player: int, target: Iterable[Vertex], within=None):
    """Vertices from which ``player`` can force a visit to ``target``.

    Returns the attractor set together with a positional strategy for
    ``player``, defined on attractor vertices of that player outside the
    target; every prescribed move decreases the distance to the target
    by one.  Backward worklist with per-vertex outdegree counters; runs
    in time linear in the number of edges.  With ``within``, plays stay
    inside that alive set, which must contain the target: predecessors
    outside it are skipped, and an opponent vertex's counter starts, on
    its first decrement, at its number of successors inside it.
    """
    tgt = frozenset(target)
    owner = arena.owner
    unknown = [v for v in tgt if v not in owner]
    if unknown:
        raise InputError(f"target contains unknown vertices: {sorted(unknown)!r}")
    alive = owner if within is None else within
    succ, pred = arena.succ, arena.pred
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


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic play: ``prefix``, then ``loop`` forever."""

    prefix: tuple
    loop: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "loop", tuple(self.loop))
        if not self.loop:
            raise InputError("a lasso needs a nonempty loop")

    def first(self) -> Vertex:
        return self.prefix[0] if self.prefix else self.loop[0]

    def vertex_at(self, i: int) -> Vertex:
        """Vertex at position ``i`` of the infinite play."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]

    def spine(self) -> tuple:
        return self.prefix + self.loop

    def vertices(self) -> frozenset:
        return frozenset(self.spine())

    def steps(self):
        """All edges the play ever takes (prefix edges plus loop edges,
        including the closing loop edge)."""
        sp = self.spine()
        back = (self.loop[-1], self.loop[0])
        return [(sp[i], sp[i + 1]) for i in range(len(sp) - 1)] + [back]

    def check_in(self, arena: Arena) -> "Lasso":
        unknown = self.vertices() - set(arena.vertices)
        if unknown:
            raise InputError(f"lasso mentions unknown vertices: {sorted(unknown)!r}")
        if self.first() != arena.initial:
            raise InputError(
                f"lasso starts at {self.first()!r}, not the initial vertex {arena.initial!r}")
        for u, v in self.steps():
            if not arena.has_edge(u, v):
                raise InputError(f"lasso uses missing edge ({u!r}, {v!r})")
        return self
