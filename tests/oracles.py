"""Independent oracles the tests hold the solvers to.

These check the package's answers and are not part of what it solves:

- strategy enumeration (``enumerate_regions``, ``enumerate_solve``):
  winning regions, and uniform witness strategies, by certifying every
  positional strategy over a sufficient memory template;
- ``max_response_cost``: the worst response cost a strategy concedes, on
  its restricted counter product;
- ``simulate_faults``: a strategy played out against every fault
  injection up to a budget and a depth;
- ``budget_oracle``: the opponent's least fault budget, decided on an
  explicit budget expansion, independently of ``resilience.compute_val``.

The first two reuse ``verify``'s cycle analysis, which certification
shares.  The enumeration oracle also owns the backward closure that turns
a candidate's failure cores into every start node that fails, and the
predecessor map that closure reads, which ``verify`` does without.  A
candidate graph has a start per vertex and does not stop at decided
nodes, so it needs that answer for all starts, along paths through
undecided nodes only; it works that allowed set out itself, from
``verify._decided``.  ``verify`` decides one root on a product that stops
at decided nodes, so the root fails exactly when a core exists.
"""

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from rankgames.arena import Arena, Vertex
from rankgames.errors import CapabilityError, CapacityError, InputError
from rankgames.extnat import INF, ExtNat
from rankgames.memory import FiniteStateStrategy, MemoryStructure, explore
from rankgames.objectives import CostRRSpec, conjuncts
from rankgames.qualsolve import SolveResult, solve_safety
from rankgames.resilience import FaultArena
from rankgames.rrcost import CostRRGame
from rankgames.verify import (_claim_failure_query, _counter_rank, _cycles,
                              _decided, _normalize_condition, _product_graph,
                              _Query)


# ---------------------------------------------------------------------------
# brute-force solving oracle

def _seed_nodes(arena: Arena, template: MemoryStructure, seeds):
    if seeds is None:
        return {v: (v, template.initial) for v in arena.vertices}
    seed_map = dict(seeds)
    missing = [v for v in arena.vertices if v not in seed_map]
    if missing:
        raise InputError(f"seed states missing for vertices {missing!r}")
    return {v: (v, seed_map[v]) for v in arena.vertices}


def _template_pending(pairs, template: MemoryStructure):
    """Open requests of a node of the template expansion, read off its
    template state.  Claims without request-response pairs have none; for
    a claim with pairs, every template state must be an (open tuple,
    pointer) pair over the claim's pair indices."""
    if not pairs:
        return lambda n: ()
    indices = range(len(pairs))
    for s in template.states:
        if not (isinstance(s, tuple) and len(s) == 2 and isinstance(s[0], tuple)
                and all(c in indices for c in s[0]) and s[1] in indices):
            raise InputError(f"template state {s!r} is not an (open tuple, pointer) "
                             f"pair over the claim's {len(pairs)} pairs")
    return lambda n: n[1][0]


def _candidate_graphs(product: Arena, owner: int, guard: int):
    """Successor maps of every positional restriction of ``owner``'s moves,
    in deterministic order.  Guarded by the candidate count."""
    choice = [pv for pv in product.vertices if product.owner[pv] == owner]
    total = 1
    for pv in choice:
        total *= len(product.succ[pv])
        if total > guard:
            raise CapacityError(
                f"strategy enumeration needs more than {guard} candidates")
    fixed = {pv: product.succ[pv] for pv in product.vertices
             if product.owner[pv] != owner}
    options = [product.succ[pv] for pv in choice]
    for assignment in itertools.product(*options):
        succ = dict(fixed)
        for pv, w in zip(choice, assignment):
            succ[pv] = (w,)
        yield succ


def _pred_map(succ) -> dict:
    """Predecessor lists of a successor map whose successors are all keys."""
    pred: dict = {n: [] for n in succ}
    for n, ws in succ.items():
        for w in ws:
            pred[w].append(n)
    return pred


def _backward_closure(pred, cores: set, allowed: set) -> set:
    """The cores, and the nodes in ``allowed`` from which some path through
    ``allowed`` reaches them."""
    out = set(cores)
    queue = deque(out)
    while queue:
        for p in pred[queue.popleft()]:
            if p not in out and p in allowed:
                out.add(p)
                queue.append(p)
    return out


def _query_failures(pred, query: _Query, cycles, allowed: set) -> set:
    """All start nodes from which the query finds a failing play whose
    path to its core runs through ``allowed``, the undecided nodes."""
    cores = set(query.bad)
    for family in cycles:
        for comp, _anchors in family:
            cores |= comp
    return _backward_closure(pred, cores, allowed)


def _enumeration(arena: Arena, condition, template: MemoryStructure, seeds, bound,
                 guard):
    """Start node per vertex, and a generator of ``owner``'s positional
    candidates over the template expansion, each with the nodes from which
    its claim fails."""
    obj, mode, bnd, rank_of, _tracker, _pending = _normalize_condition(condition, bound)
    if isinstance(condition, CostRRSpec):
        raise CapabilityError("response-cost values have a dedicated oracle")
    pending_of = _template_pending(conjuncts(obj)[3], template)
    starts = _seed_nodes(arena, template, seeds)
    start = (arena.initial, template.initial)
    reached, update = explore(arena, [start, *starts.values()], template.step)
    product = Arena._checked({pv: arena.owner[pv[0]] for pv in reached},
                             [((u, s), (w, t)) for (s, (u, w)), t in update.items()], start)
    def candidates(owner: int):
        # every candidate has the product's vertices, so one query and one
        # allowed set serve all
        query = _claim_failure_query(product.vertices, obj, mode, bnd, rank_of,
                                     pending_of, owner)
        decided = _decided(obj, mode, bnd, rank_of)
        allowed = {pv for pv in product.vertices if not decided(pv)}
        for succ in _candidate_graphs(product, owner, guard):
            yield succ, _query_failures(_pred_map(succ), query, _cycles(succ, query),
                                        allowed)

    return starts, product, candidates


def _enumerated_regions(arena: Arena, starts, candidates) -> Tuple[frozenset, frozenset]:
    undecided = set(arena.vertices)
    region_0 = set()
    for _succ, failures in candidates(0):
        for v in list(undecided):
            if starts[v] not in failures:
                region_0.add(v)
                undecided.discard(v)
        if not undecided:
            break
    return frozenset(region_0), frozenset(arena.vertices) - frozenset(region_0)


def enumerate_regions(arena: Arena, condition, template: MemoryStructure,
                      seeds=None, bound: Optional[int] = None,
                      guard: int = 10 ** 6) -> Tuple[frozenset, frozenset]:
    """Winning regions by exhaustive strategy enumeration.

    Every positional Player 0 strategy over the template expansion is
    certified per start vertex; a vertex is in region 0 iff some candidate
    is certified from it.  Region 1 is the complement, all shipped
    conditions being determined.  The template must be known sufficient
    for the condition (trivial memory for safety, Buchi, coBuchi and
    rank-cost claims over those; the open-request memory for
    request-response).  Pending requests are read off the template states,
    so a claim with request-response pairs over a template whose states
    are not (open tuple, pointer) pairs raises ``InputError``.
    """
    starts, _product, candidates = _enumeration(arena, condition, template, seeds,
                                                bound, guard)
    return _enumerated_regions(arena, starts, candidates)


def enumerate_solve(arena: Arena, condition, template: MemoryStructure,
                    seeds=None, bound: Optional[int] = None,
                    guard: int = 10 ** 6) -> SolveResult:
    """Brute-force solver: regions by enumeration plus uniform witness
    strategies for both players, found by further enumeration passes."""
    starts, product, candidates = _enumeration(arena, condition, template, seeds,
                                               bound, guard)
    region_0, region_1 = _enumerated_regions(arena, starts, candidates)

    def uniform(owner: int, region: frozenset) -> FiniteStateStrategy:
        want = {starts[v] for v in region}
        for succ, failures in candidates(owner):
            if not (want & failures):
                moves = {}
                for pv, ws in succ.items():
                    if product.owner[pv] == owner:
                        moves[pv] = ws[0][0]
                return FiniteStateStrategy(owner, template, moves)
        raise InputError(f"no uniform winning strategy for player {owner} "
                         "among positional candidates")

    strat_0 = uniform(0, region_0) if region_0 else FiniteStateStrategy(0, template, {})
    strat_1 = uniform(1, region_1) if region_1 else FiniteStateStrategy(1, template, {})
    return SolveResult(region_0, region_1, (strat_0, strat_1).__getitem__)


def max_response_cost(game: CostRRGame, strategy: FiniteStateStrategy,
                      cap: int) -> ExtNat:
    """Worst response cost the strategy concedes, exact up to ``cap``.

    Infinity stands for an unanswered request or any cost beyond the cap;
    otherwise the value is the largest rank in the strategy-restricted
    counter product.  That is the largest answered accumulation, since
    every pending counter there is answered later at no less.
    """
    obj, mode, bnd, rank_of, tracker, pending_of = _normalize_condition(game.spec, cap)
    _root, succ = _product_graph(game.arena, strategy, game.arena.initial,
                                 strategy.memory.initial, tracker,
                                 _decided(obj, mode, bnd, rank_of))
    query = _claim_failure_query(succ, obj, mode, bnd, rank_of, pending_of, 0)
    if query.bad or any(_cycles(succ, query)):
        return INF
    return max(map(_counter_rank, succ))


# ---------------------------------------------------------------------------
# fault-injection simulation and the budget game

def _fault_targets(fa: FaultArena) -> dict:
    """Targets of the faults rooted at each source, sorted."""
    targets: dict = {}
    for u, w in sorted(fa.faults):
        targets.setdefault(u, []).append(w)
    return targets


@dataclass(frozen=True)
class FaultSimVerdict:
    safe: bool
    witness: Optional[tuple] = None  # vertex path ending at the breach


def simulate_faults(fa: FaultArena, strategy: FiniteStateStrategy, budget: int,
                    depth: int) -> FaultSimVerdict:
    """Exhaustively play the strategy against up to ``budget`` faults.

    The opponent controls his vertices and may additionally divert
    Player 0 along any fault pair, spending one budget unit per fault.
    Explores every play of at most ``depth`` moves breadth first and
    reports the first unsafe visit.  Fault steps are usually not arena
    edges; a strategy memory that has no entry for such a step keeps its
    state across it (positional strategies are unaffected).
    """
    arena = fa.arena
    if arena.initial not in fa.safe:
        return FaultSimVerdict(False, (arena.initial,))
    fault_targets = _fault_targets(fa)
    start = (arena.initial, strategy.memory.initial, budget)
    seen = {start}
    queue = deque([(start, 0, (arena.initial,))])
    while queue:
        (v, s, rem), d, path = queue.popleft()
        if d >= depth:
            continue
        moves = []
        if arena.owner[v] == 0:
            moves.append((strategy.move(v, s), rem))
            if rem > 0:
                for w in fault_targets.get(v, ()):
                    moves.append((w, rem - 1))
        else:
            moves.extend((w, rem) for w in arena.succ[v])
        for w, rem2 in moves:
            s2 = strategy.memory.update.get((s, (v, w)), s)
            child = (w, s2, rem2)
            if child in seen:
                continue
            seen.add(child)
            if w not in fa.safe:
                return FaultSimVerdict(False, path + (w,))
            queue.append((child, d + 1, path + (w,)))
    return FaultSimVerdict(True)


def budget_expansion(fa: FaultArena, budget: int) -> Arena:
    """Safety game in which faults are explicit moves.

    States carry the remaining fault budget.  Before Player 0 moves, the
    opponent may fire any fault pair from the current vertex, paying one
    budget unit; a gate vertex owned by Player 1 models that choice.
    """
    arena = fa.arena
    fault_targets = _fault_targets(fa)
    owner = {}
    edges = []
    for v in arena.vertices:
        fts = fault_targets.get(v, ())
        for r in range(budget + 1):
            gate = ("chk", v, r)
            move = ("mov", v, r)
            owner[gate] = 1
            owner[move] = arena.owner[v]
            edges.append((gate, move))
            if r > 0:
                for w in fts:
                    edges.append((gate, ("chk", w, r - 1)))
            for w in arena.succ[v]:
                edges.append((move, ("chk", w, r)))
    return Arena(owner, edges, ("chk", arena.initial, budget))


def budget_oracle(fa: FaultArena, vertex: Vertex, budget: int) -> bool:
    """Can the opponent force the play unsafe from ``vertex`` using at
    most ``budget`` faults?  Solved on the explicit budget expansion,
    independently of the fixpoint in ``resilience.compute_val``."""
    if vertex not in set(fa.arena.vertices):
        raise InputError(f"unknown vertex {vertex!r}")
    exp = budget_expansion(fa, budget)
    safe = frozenset(pv for pv in exp.vertices if pv[1] in fa.safe)
    res = solve_safety(exp, safe)
    return ("chk", vertex, budget) in res.region_1
