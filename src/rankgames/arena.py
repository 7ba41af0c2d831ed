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
again.  Both set their fields through one builder, which also numbers the
vertices: vertex id i is the i-th label in sorted order, so a loop over
ids follows the arena's order.

The solvers run on those ids.  They read three rows of the graph they are
given: ``owners`` (the owner of each id), ``out`` (each id's successor
ids, increasing) and ``pred`` (each id's predecessor ids, increasing,
built on first read).  Alive sets, targets and regions are masks: one
byte per id, 1 for a member, as ``bytes`` or ``bytearray``; whole masks
are intersected and subtracted as integers (:func:`_and`,
:func:`_minus`).  An :class:`Arena` gives the rows, and so does
:class:`rankgames.memory.NumberedProduct`, the request-response product,
so :func:`_spread` is the one attractor loop for both.  It can be resumed:
the mask, the opponent counters and the queue it grows from are handed
in, so a caller that adds target ids and queues just those grows the
attractor to the larger target, and :func:`_attract` runs it once from a
fresh target.  Labels are
mapped to ids where a library call enters (``index``) and back where its
result leaves (``vertices``).  The label-keyed successor map ``succ`` is
built on first read, for the walks that step through labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Any, Iterable, Mapping, Tuple

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
    the order of ``vertices``.  ``index`` maps each vertex to its id, its
    position in ``vertices``; ``owners[i]`` is the owner of id i and
    ``out[i]`` lists its successor ids, increasing.  ``pred[i]``, the
    predecessor ids of i, increasing, and ``succ[v]``, ``v``'s successors
    sorted, are built on first read.
    """

    vertices: tuple = field(init=False)
    owner: dict
    edges: frozenset
    initial: Vertex
    index: dict = field(init=False, repr=False, compare=False)
    owners: bytes = field(init=False, repr=False, compare=False)
    out: list = field(init=False, repr=False, compare=False)

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
        if not all(self.out):
            v = self.vertices[self.out.index([])]
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
        ``edges`` a frozenset, and the id rows ``index``, ``owners`` and
        ``out``.  Rows given as a list with no repeats fill each successor
        row in their order; game files list edges sorted, so the sorts then
        only confirm the order."""
        verts, rows, edges = tuple(sorted(owner)), edges, frozenset(edges)
        if type(rows) is not list or len(rows) != len(edges):
            rows = edges
        index = {v: i for i, v in enumerate(verts)}
        out = [[] for _ in verts]
        for u, w in rows:
            out[index[u]].append(index[w])
        for row in out:
            row.sort()
        owner = {v: owner[v] for v in verts}
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "owners", bytes(owner.values()))
        object.__setattr__(self, "out", out)

    @cached_property
    def pred(self) -> list:
        """Predecessor ids of each id, increasing."""
        return _pred_rows(self.out)

    @cached_property
    def succ(self) -> dict:
        """Each vertex's successors, sorted."""
        verts = self.vertices
        return {v: tuple([verts[k] for k in row]) for v, row in zip(verts, self.out)}

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


def _pred_rows(out: list) -> list:
    """Predecessor rows of successor-id rows: the ids listing each id,
    increasing, as the rows are read in id order."""
    pred = [[] for _ in out]
    for i, row in enumerate(out):
        for k in row:
            pred[k].append(i)
    return pred


def _mask(arena: Arena, vertices=None) -> bytearray:
    """Mask over the arena's ids of ``vertices`` (default: every vertex)."""
    if vertices is None:
        return bytearray(b"\1") * len(arena.out)
    mask, index = bytearray(len(arena.out)), arena.index
    for v in vertices:
        mask[index[v]] = 1
    return mask


def _target_mask(arena: Arena, target: Iterable[Vertex]) -> bytearray:
    """:func:`_mask` of a target a library caller gave, checked first."""
    unknown = [v for v in frozenset(target) if v not in arena.owner]
    if unknown:
        raise InputError(f"target contains unknown vertices: {sorted(unknown)!r}")
    return _mask(arena, target)


def _and(a, b) -> bytes:
    """The mask of the ids in both masks ``a`` and ``b``: the masks' bytes
    are 0 or 1, so their integers are and-ed bit for bit."""
    return (int.from_bytes(a, "big") & int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _minus(a, b) -> bytes:
    """The mask of the ids in mask ``a`` and not in mask ``b``."""
    return (int.from_bytes(a, "big") & ~int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _first(graph, i: int, alive):
    """First successor id of id ``i`` in the mask ``alive``; None if none."""
    for k in graph.out[i]:
        if alive[k]:
            return k


def first_successor(arena: Arena, v: Vertex, within=None) -> Vertex:
    """First successor of ``v``, in the arena's order, inside ``within``."""
    k = _first(arena, arena.index[v], _mask(arena, within))
    if k is None:
        raise InputError(f"vertex {v!r} has no successor inside the alive set")
    return arena.vertices[k]


def _attract(graph, player: int, target, alive) -> Tuple[bytearray, dict]:
    """:func:`attractor` on ids: ``target`` and ``alive`` are masks over the
    ids of ``graph`` (an arena or a numbered product), the target inside
    the alive set.  Returns the attractor's mask and ``player``'s moves,
    from id to id.  Targets are queued in id order, with no counter
    started, and :func:`_spread` grows the mask from them."""
    inside, strategy = bytearray(target), {}
    _spread(graph, player, alive, inside, [0] * len(inside),
            list(compress(range(len(inside)), inside)), strategy)
    return inside, strategy


def _spread(graph, player: int, alive, inside: bytearray, counters: list,
            queue: list, strategy: dict) -> None:
    """The attractor loop: grow the mask ``inside`` from the ids in
    ``queue``, which it holds and whose predecessors are not yet counted.
    Each id it adds is appended to ``queue``, and ``player``'s move from
    it to ``strategy``.  An opponent id's counter lives in ``counters``,
    started on its first decrement at its number of successors inside the
    alive set.  The mask, the counters and the moves are left as a later
    call resumes them: a caller that sets more ids in ``inside`` and
    queues just those gets the attractor to the larger target."""
    out, owners, pred = graph.out, graph.owners, graph.pred
    whole = 0 not in alive
    for v in queue:
        for u in pred[v]:
            if inside[u] or not alive[u]:
                continue
            if owners[u] == player:
                inside[u] = 1
                strategy[u] = v
                queue.append(u)
            else:
                left = counters[u] or (len(out[u]) if whole
                                       else sum(map(alive.__getitem__, out[u])))
                counters[u] = left = left - 1
                if left == 0:
                    inside[u] = 1
                    queue.append(u)


def attractor(arena: Arena, player: int, target: Iterable[Vertex], within=None):
    """Vertices from which ``player`` can force a visit to ``target``.

    Returns the attractor set together with a positional strategy for
    ``player``, defined on attractor vertices of that player outside the
    target; every prescribed move decreases the distance to the target
    by one.  Backward worklist with per-vertex outdegree counters; runs
    in time linear in the number of edges.  With ``within``, plays stay
    inside that alive set, which must contain the target: predecessors
    outside it are skipped, and an opponent vertex's counter starts, on
    its first decrement, at its number of successors inside it.  Runs
    :func:`_attract` on the arena's ids.
    """
    inside, strategy = _attract(arena, player, _target_mask(arena, target),
                                _mask(arena, within))
    verts = arena.vertices
    return frozenset(compress(verts, inside)), {verts[u]: verts[v] for u, v in strategy.items()}


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
