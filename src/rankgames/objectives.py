"""Winning conditions and their exact evaluation on ultimately periodic plays.

Every qualitative objective is a conjunction of four demands on a play:
stay inside a safe set, visit an avoid set only finitely often, visit an
accepting set infinitely often, and answer every request of each
request-response pair.  Each of the five objective classes is such a
conjunction, and ``conjuncts`` states which demands each one makes;
validation and evaluation read that statement instead of listing the
classes.

Qualitative objectives decide win/lose; the quantitative evaluators assign
an extended natural.  All evaluators work on lassos and are independent of
how the lasso is written (unrolling or rotating the loop never changes the
result), because they only ever inspect the infinite play the lasso denotes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple, Union

from .arena import Arena, Edge, Lasso, Vertex, _listed
from .errors import InputError
from .extnat import INF, ExtNat


class _VertexSets:
    """Objectives whose fields are all vertex sets, frozen on construction."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, frozenset(getattr(self, f.name)))


@dataclass(frozen=True)
class Safety(_VertexSets):
    """Every visited vertex must lie in ``safe``."""
    safe: frozenset


@dataclass(frozen=True)
class Buchi(_VertexSets):
    """Some vertex of ``accept`` must be visited infinitely often."""
    accept: frozenset


@dataclass(frozen=True)
class CoBuchi(_VertexSets):
    """Vertices of ``avoid`` may be visited only finitely often."""
    avoid: frozenset


@dataclass(frozen=True)
class RequestResponse:
    """Every visit to a request set must be followed (or accompanied) by a
    visit to the matching response set."""
    pairs: tuple  # of (request: frozenset, response: frozenset)

    def __post_init__(self):
        pairs = tuple((frozenset(q), frozenset(p)) for q, p in self.pairs)
        if not pairs:
            raise InputError("request-response needs at least one pair")
        object.__setattr__(self, "pairs", pairs)


@dataclass(frozen=True)
class SafetyAndCoBuchi(_VertexSets):
    """Stay inside ``safe`` forever and visit ``avoid`` only finitely often."""
    safe: frozenset
    avoid: frozenset


Objective = Union[Safety, Buchi, CoBuchi, RequestResponse, SafetyAndCoBuchi]

RankFunction = Dict[Vertex, int]

_EMPTY = frozenset()


def conjuncts(obj: Objective) -> Tuple[Optional[frozenset], frozenset,
                                       Optional[frozenset], tuple]:
    """What ``obj`` demands of a play, as ``(safe, avoid, accept, pairs)``:
    every vertex in ``safe`` (None: no safety demand), ``avoid`` visited
    finitely often, ``accept`` visited infinitely often (None: no such
    demand), and every request of ``pairs`` answered."""
    if isinstance(obj, Safety):
        return obj.safe, _EMPTY, None, ()
    if isinstance(obj, Buchi):
        return None, _EMPTY, obj.accept, ()
    if isinstance(obj, CoBuchi):
        return None, obj.avoid, None, ()
    if isinstance(obj, SafetyAndCoBuchi):
        return obj.safe, obj.avoid, None, ()
    if isinstance(obj, RequestResponse):
        return None, _EMPTY, None, obj.pairs
    raise InputError(f"unknown objective {obj!r}")


def validate_objective(obj: Objective, arena: Arena) -> None:
    """Every vertex the objective names must be a vertex of the arena."""
    safe, avoid, accept, pairs = conjuncts(obj)
    named = [("safe set", safe), ("accepting set", accept), ("avoid set", avoid)]
    for c, (q, p) in enumerate(pairs):
        named += [(f"request set {c}", q), (f"response set {c}", p)]
    for what, vs in named:
        extra = vs and vs.difference(arena.owner)
        if extra:
            raise InputError(f"{what} mentions unknown vertices: {_listed(extra)!r}")


def validate_rank(rk: Mapping[Vertex, int], arena: Arena) -> None:
    """Every vertex must have a natural-number rank, and only vertices may
    have one; the first vertex in order that has none is reported, before
    the keys that are not vertices."""
    # a bool is an int equal to 0 or 1, so the types are checked exactly
    if (rk.keys() == arena.owner.keys() and {int} >= set(map(type, rk.values()))
            and min(rk.values(), default=0) >= 0):
        return
    for v in arena.vertices:
        r = rk.get(v)
        if not isinstance(r, int) or isinstance(r, bool) or r < 0:
            raise InputError(f"rank of {v!r} must be a non-negative integer, got {r!r}")
    extra = rk.keys() - arena.owner.keys()
    if extra:
        raise InputError(f"rank map mentions unknown vertices: {_listed(extra)!r}")


@dataclass(frozen=True)
class CostRRSpec:
    """Request-response pairs plus per-pair edge costs.

    ``edge_costs`` maps (pair index, edge) to a natural; unlisted entries
    cost zero, which makes the map total over pairs and edges.  ``max_cost``
    is the largest cost assigned to any edge (0 when all costs vanish).
    """

    pairs: tuple
    edge_costs: dict
    max_cost: int = field(init=False, compare=False)

    def __post_init__(self):
        pairs = tuple((frozenset(q), frozenset(p)) for q, p in self.pairs)
        if not pairs:
            raise InputError("cost spec needs at least one request-response pair")
        costs = {}
        for (c, e), w in self.edge_costs.items():
            if not (0 <= c < len(pairs)):
                raise InputError(f"cost entry for unknown pair index {c}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise InputError(f"edge cost must be a natural number, got {w!r}")
            if w:
                costs[(c, e)] = w
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "edge_costs", costs)
        object.__setattr__(self, "max_cost", max(costs.values(), default=0))

    @property
    def d(self) -> int:
        return len(self.pairs)

    def cost(self, c: int, edge: Edge) -> int:
        return self.edge_costs.get((c, edge), 0)

    def rr_objective(self) -> RequestResponse:
        return RequestResponse(self.pairs)


def eval_qualitative(obj: Objective, lasso: Lasso) -> bool:
    """Does the infinite play denoted by the lasso satisfy the objective?"""
    safe, avoid, accept, pairs = conjuncts(obj)
    loop_set = frozenset(lasso.loop)
    if safe is not None and not lasso.vertices() <= safe:
        return False
    if loop_set & avoid or (accept is not None and not loop_set & accept):
        return False
    # Positions in prefix plus one loop copy are representative; an answer,
    # if any, shows up within one further loop unrolling.
    window = lasso.prefix + lasso.loop + lasso.loop
    horizon = len(lasso.prefix) + len(lasso.loop)
    for q, p in pairs:
        for j in range(horizon):
            if window[j] in q and not any(window[i] in p for i in range(j, len(window))):
                return False
    return True


def cost_of_response(spec: CostRRSpec, lasso: Lasso, position: int, pair: int) -> ExtNat:
    """Cost charged to the request of ``pair`` opened at ``position``.

    Zero at non-request positions.  Otherwise the summed edge costs up to
    the earliest answering position; an answer at the request position
    itself costs zero (empty sum).  Unanswerable requests cost ``INF``,
    detected within the prefix plus two loop unrollings, which is where an
    answer must appear if it ever does.
    """
    if not (0 <= position < len(lasso.prefix) + len(lasso.loop)):
        raise InputError("position must index the prefix or the first loop copy")
    q, p = spec.pairs[pair]
    if lasso.vertex_at(position) not in q:
        return 0
    window = lasso.prefix + lasso.loop + lasso.loop
    total = 0
    for j in range(position, len(window)):
        if window[j] in p:
            return total
        if j + 1 < len(window):
            total += spec.cost(pair, (window[j], window[j + 1]))
    return INF


def cost_rr_lasso(spec: CostRRSpec, lasso: Lasso) -> ExtNat:
    """Largest cost any request of the play incurs.

    Positions beyond the first loop copy repeat an earlier loop position
    with an identical suffix, hence identical cost of response, so the
    supremum is a maximum over the prefix plus one loop period.
    """
    worst: ExtNat = 0
    for j in range(len(lasso.prefix) + len(lasso.loop)):
        for c in range(spec.d):
            worst = max(worst, cost_of_response(spec, lasso, j, c))
    return worst


def rank_cost_lasso(rk: Mapping[Vertex, int], obj: Objective, mode: str,
                    lasso: Lasso) -> ExtNat:
    """Cost of a play in a vertex-ranked game: highest rank ever visited
    (``sup``) or visited infinitely often (``lim``), infinite on plays that
    miss the qualitative objective."""
    if mode not in ("sup", "lim"):
        raise InputError(f"mode must be 'sup' or 'lim', got {mode!r}")
    if not eval_qualitative(obj, lasso):
        return INF
    if mode == "sup":
        return max(rk[v] for v in lasso.spine())
    return max(rk[v] for v in lasso.loop)
