"""Strategy certification.

Everything here decides universal path properties exactly, by cycle
analysis over strongly connected components of strategy-restricted
product graphs.  Certification answers "does every play consistent with
this strategy meet the claim"; refutations come with a concrete
ultimately periodic counterexample play, consistent with the strategy up
to and including the violating visit.

A claim is decided on the product nodes reachable from its start.  The
product stops at decided nodes, so every path in it runs through
undecided nodes only and needs no further constraint.  The claim fails
exactly when its failure query has a core there: a decided node, whose
visit sinks a Player 0 claim, or a cycle-carrying component that sinks
the claim.  A decided node refutes on its own; the cycle analysis runs
only when there is none, and it reads the successor map alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple, get_args

from .arena import Arena, Lasso, Vertex
from .errors import InputError
from .memory import FiniteStateStrategy
from .objectives import CostRRSpec, Objective, conjuncts, validate_objective
from .ranked import RankedCondition, _check_ranked
from .rrcost import _check_costrr, counter_pending, counter_seed, counter_step, counter_value


@dataclass(frozen=True)
class Verdict:
    certified: bool
    witness: Optional[Lasso] = None

    def __bool__(self) -> bool:
        return self.certified


# ---------------------------------------------------------------------------
# graph analyses; nodes are opaque, and succ maps every node to a tuple of
# nodes, the only view of a graph these read

def _loop_comps(succ, region) -> List[set]:
    """SCCs of the subgraph ``region`` induces that carry at least one edge.

    One iterative depth-first pass with lowlinks (Tarjan 1972).  ``low``
    holds the lowlinks of the nodes still on the component stack; the pass
    closes a component, the nodes stacked from a node on, when it leaves
    that node with its lowlink at its own number.  The pass stays inside
    the region."""
    num, low, stack, out = {}, {}, [], []
    for root in region:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in region:
                    continue
                if w not in num:
                    num[w] = low[w] = len(num)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in low and num[w] < low[node]:
                    low[node] = num[w]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == num[node]:
                    comp = set()
                    while node not in comp:
                        w = stack.pop()
                        del low[w]
                        comp.add(w)
                    if len(comp) > 1 or node in succ[node]:
                        out.append(comp)
    return out


def _bfs_path(succ, start, targets: set, allowed) -> List:
    """Shortest node path from start into ``targets``, start included, with
    every node before the last in ``allowed``.  A start outside ``targets``
    must lie in ``allowed``.  Every search here is for targets known to be
    reachable, so the raise marks a broken invariant."""
    if start in targets:
        return [start]
    parent = {start: None}
    queue = deque([start])
    while queue:
        n = queue.popleft()
        for w in succ.get(n, ()):
            if w in parent:
                continue
            if w in targets:
                parent[w] = n
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            if w not in allowed:
                continue
            parent[w] = n
            queue.append(w)
    raise InputError("internal error: failure detected but no witness found")


def _closed_walk(succ, comp: set, entry, anchors: Iterable) -> List:
    """Closed walk entry -> entry inside the component, visiting every
    anchor; returned without the final repetition of the entry.  Each
    segment is a shortest path, the last one into a node of the component
    with an edge to the entry."""
    walk = [entry]
    for a in anchors:
        walk += _bfs_path(succ, walk[-1], {a}, comp)[1:]
    into = {p for p in comp if entry in succ[p]}
    return walk + _bfs_path(succ, walk[-1], into, comp)[1:]


# ---------------------------------------------------------------------------
# the strategy-restricted product
#
# Product nodes are (vertex, strategy state, tracker value).  A tracker is
# a (seed, step) pair: seed(vertex) gives the value after the play's first
# visit, step(value, edge) advances it along an edge.

_NO_TRACKER = (lambda v: None, lambda t, e: None)


def rr_open_update(pairs, open_set: tuple, entered: Vertex) -> tuple:
    """Open requests after entering a vertex: new requests are added, then
    answered ones removed, so a vertex that both requests and responds
    answers its own request.

    This is the oracle's own statement, on sorted tuples of pair indices;
    the solver states the same step once, on bitmasks, in the walk of
    :func:`rankgames.qualsolve.rr_product`."""
    opened = set(open_set)
    for c, (q, _p) in enumerate(pairs):
        if entered in q:
            opened.add(c)
    for c, (_q, p) in enumerate(pairs):
        if entered in p:
            opened.discard(c)
    return tuple(sorted(opened))


def _open_tracker(pairs):
    """Open requests, as a sorted tuple of pair indices."""
    return (partial(rr_open_update, pairs, ()),
            lambda t, e: rr_open_update(pairs, t, e[1]))


def _counter_tracker(spec: CostRRSpec, cap: int):
    """Per-pair cost counters saturating at ``cap``."""
    return partial(counter_seed, spec), partial(counter_step, spec, cap)


def _counter_rank(node) -> int:
    return max(map(counter_value, node[2]))


def _counter_pending(node) -> frozenset:
    return frozenset(c for c, st in enumerate(node[2]) if counter_pending(st))


def _product_graph(arena: Arena, strategy: FiniteStateStrategy, start: Vertex,
                   start_state, tracker, halt: Callable) -> Tuple[tuple, Dict]:
    """The root and successor map of the product from ``start``.

    The map holds exactly the nodes reachable from the root, and decided
    nodes (where ``halt`` holds) get no successors, so every path in it,
    and every path a search over it finds, runs through undecided nodes
    before its last node.  A failing play of the claim's failure query
    may only take such paths, so the root fails exactly when the query
    has a core, and a search for that core needs no path constraint.
    The arena is read through its id rows: an opponent node's row is
    mapped to labels as the walk leaves it, and a strategy move is checked
    against the edge set."""
    seed, step_t = tracker
    index, out, label = arena.index, arena.out, arena.vertices.__getitem__
    root = (start, start_state, seed(start))
    succ: Dict = {}
    frontier = deque([root])
    seen = {root}
    while frontier:
        node = frontier.popleft()
        v, s, t = node
        if halt(node):
            succ[node] = ()
            continue
        if arena.owner[v] == strategy.owner:
            w = strategy.move(v, s)
            if (v, w) not in arena.edges:
                raise InputError(f"strategy moves along {(v, w)!r}, which is not an edge")
            moves = (w,)
        else:
            moves = map(label, out[index[v]])
        outs = []
        for w in moves:
            e = (v, w)
            child = (w, strategy.memory.step(s, e), step_t(t, e))
            outs.append(child)
            if child not in seen:
                seen.add(child)
                frontier.append(child)
        succ[node] = tuple(outs)
    return root, succ


def _reach_witness(arena: Arena, path_nodes: List) -> Lasso:
    """Path to a violating node, continued along first successors until a
    vertex repeats."""
    verts = [n[0] for n in path_nodes]
    walk = [verts[-1]]
    pos = {verts[-1]: 0}
    while True:
        nxt = arena.vertices[arena.out[arena.index[walk[-1]]][0]]
        if nxt in pos:
            i = pos[nxt]
            return Lasso(tuple(verts[:-1] + walk[:i]), tuple(walk[i:]))
        pos[nxt] = len(walk)
        walk.append(nxt)


# ---------------------------------------------------------------------------
# violation queries
#
# A query describes how a claim can fail on a restricted product:
#   - bad:    nodes whose mere visit sinks the claim (reach-style),
#   - loops:  families of (region, anchors_fn) whose internal cycles,
#             visiting one anchor batch, sink the claim (cycle-style).

@dataclass
class _Query:
    bad: set
    loops: List[Tuple[set, Callable]]


def _anchors(marked: Optional[set] = None, pending_of=None, d: int = 0):
    """Anchor batch of a component: its least ``marked`` node (when marking
    is asked for), then per pair its least node with that pair answered;
    None when the component has no such node, which makes it unusable."""
    def pick(comp):
        anchors = []
        if marked is not None:
            hit = min(marked & comp, default=None)
            if hit is None:
                return None
            anchors.append(hit)
        for c in range(d):
            closed = min((n for n in comp if c not in pending_of(n)), default=None)
            if closed is None:
                return None
            anchors.append(closed)
        return tuple(anchors)
    return pick


def _claim_failure_query(nodes, obj: Objective, mode: Optional[str], bnd, rank_of,
                         pending_of, player: int) -> _Query:
    """How the claim "every consistent play is good for ``player``" fails.

    The claim is on ``obj`` at rank cost at most ``bnd`` in ``mode`` ("sup"
    or "lim"); a qualitative claim has mode None.  Player 0's claim fails
    at a decided node (see :func:`_decided`), or on a cycle through
    ``avoid``, missing ``accept``, on which some pair stays pending, or in
    lim mode through a node above the bound.  Player 1 claims cost above
    the bound, so a failing play satisfies ``obj`` with low ranks: its
    cycle lies on undecided nodes, in lim mode none above the bound,
    avoids ``avoid`` and visits ``accept`` and an answer per pair."""
    decided = _decided(obj, mode, bnd, rank_of)
    nodes = set(nodes)
    high = {n for n in nodes if rank_of(n) > bnd} if mode == "lim" else set()
    _safe, avoid, accept, pairs = conjuncts(obj)
    if player == 1:
        sub = {n for n in nodes - high if not decided(n) and n[0] not in avoid}
        marked = None if accept is None else {n for n in sub if n[0] in accept}
        return _Query(set(), [(sub, _anchors(marked, pending_of, len(pairs)))])
    loops = [(nodes, _anchors({n for n in nodes if n[0] in avoid}))] if avoid else []
    if accept is not None:
        loops.append(({n for n in nodes if n[0] not in accept}, _anchors()))
    for c in range(len(pairs)):
        loops.append(({n for n in nodes if c in pending_of(n)}, _anchors()))
    if mode == "lim":
        loops.append((nodes, _anchors(high)))
    return _Query(set(filter(decided, nodes)), loops)


def _cycles(succ, query: _Query) -> List[List[Tuple[set, tuple]]]:
    """Per loop family of the query, its cycle-carrying components that
    have an anchor batch, each with that batch."""
    return [[(comp, batch) for comp in _loop_comps(succ, region)
             if (batch := anchors_fn(comp)) is not None]
            for region, anchors_fn in query.loops]


def _loop_witness(succ, root, family) -> Lasso:
    """Counterexample play from the root around the component of
    ``family`` that a shortest path from the root enters first."""
    path = _bfs_path(succ, root, {n for comp, _anchors in family for n in comp}, succ)
    comp, anchors = next((c, a) for c, a in family if path[-1] in c)
    loop = _closed_walk(succ, comp, path[-1], anchors)
    return Lasso(tuple(n[0] for n in path[:-1]), tuple(n[0] for n in loop))


# ---------------------------------------------------------------------------
# claim normalization and the public checker

def _normalize_condition(condition, bound):
    """The claim as (objective, mode, bound, rank_of, tracker, pending_of).
    A qualitative claim has mode None; a response-cost claim is a sup rank
    claim over its request-response pairs, ranked by the largest cost
    counter.  The tracker keeps what the claim's pending sets are read
    from: the cost counters, else the open requests when there are pairs,
    else nothing."""
    if isinstance(condition, get_args(Objective)):
        if bound is not None:
            raise InputError("qualitative objectives take no bound")
        obj, mode, rank_of = condition, None, None
    elif isinstance(condition, RankedCondition):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise InputError("rank-cost claims need a non-negative integer bound")
        rk = condition.rk
        obj, mode, rank_of = condition.objective, condition.mode, lambda n: rk[n[0]]
    elif isinstance(condition, CostRRSpec):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise InputError("response-cost claims need a non-negative integer bound")
        return (condition.rr_objective(), "sup", bound, _counter_rank,
                _counter_tracker(condition, bound + 1), _counter_pending)
    else:
        raise InputError(f"cannot verify condition {condition!r}")
    pairs = conjuncts(obj)[3]
    if pairs:
        return obj, mode, bound, rank_of, _open_tracker(pairs), lambda n: n[2]
    return obj, mode, bound, rank_of, _NO_TRACKER, lambda n: ()


def _decided(obj: Objective, mode: Optional[str], bnd: Optional[int], rank_of):
    """Nodes where the play's verdict is settled and exploration may stop:
    safety breaches always; rank breaches only when the whole play's
    maximum matters (sup mode)."""
    safe = conjuncts(obj)[0]
    if mode != "sup":
        return (lambda node: False) if safe is None else (lambda node: node[0] not in safe)
    if safe is None:
        return lambda node: rank_of(node) > bnd
    return lambda node: node[0] not in safe or rank_of(node) > bnd


def verify_strategy(arena: Arena, condition, strategy: FiniteStateStrategy,
                    bound: Optional[int] = None, start: Optional[Vertex] = None,
                    start_state=None) -> Verdict:
    """Certify or refute a strategy against a claim.

    For Player 0 strategies the claim is that every consistent play
    satisfies the condition (at cost at most ``bound`` for quantitative
    ones); for Player 1 strategies, that every consistent play violates
    it (costs more than ``bound``).  Decided on the restricted product of
    arena, strategy memory, and a tracker for the bookkeeping the claim
    needs: open requests for request-response claims, nothing extra for
    the other qualitative and rank-cost claims.  A response-cost claim is
    checked as a sup rank claim over its request-response pairs on the
    counter product: per-pair cost counters saturating at ``bound`` + 1,
    a node ranked by its largest counter.  The claim is checked against
    the arena first, as the game constructors check a game: its objective
    names only arena vertices, a rank-cost claim has a mode and ranks
    every vertex and nothing else (:func:`rankgames.ranked._check_ranked`),
    and a response-cost claim puts its costs on arena edges only
    (:func:`rankgames.rrcost._check_costrr`).  A strategy move
    that is not an arena edge raises ``InputError``.
    """
    obj, mode, bnd, rank_of, tracker, pending_of = _normalize_condition(condition, bound)
    if isinstance(condition, RankedCondition):
        _check_ranked(arena, obj, condition.rk, mode)
    elif isinstance(condition, CostRRSpec):
        _check_costrr(arena, condition)
    else:
        validate_objective(obj, arena)
    start = arena.initial if start is None else start
    if start not in arena.owner:
        raise InputError(f"unknown start vertex {start!r}")
    state = strategy.memory.initial if start_state is None else start_state
    root, succ = _product_graph(arena, strategy, start, state, tracker,
                                _decided(obj, mode, bnd, rank_of))
    query = _claim_failure_query(succ, obj, mode, bnd, rank_of, pending_of, strategy.owner)
    if query.bad:
        witness = _reach_witness(arena, _bfs_path(succ, root, query.bad, succ))
    else:
        family = next(filter(None, _cycles(succ, query)), None)
        if family is None:
            return Verdict(True)
        witness = _loop_witness(succ, root, family)
    return Verdict(False, witness)
