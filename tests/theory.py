"""The paper's calculus of quantitative reductions, checked against the
reductions the package builds.

The package ships the one path the CLI runs: ``rrcost.build_reduction``
builds a ``QuantReduction``, the target is solved, and
``quantred.lift_strategy`` reads the strategy back through
``memory.pull_back``.  The claims that path rests on are checked here and
are not part of what the package solves:

- costs correspond exactly below the parameter and stay above the
  correction's value from it on (``check_reduction_on_lasso``, on the
  extended play ``extend_lasso`` gives);
- reductions compose (``compose``): the memory is the memory product, the
  cap the smaller one, the parameter the minimum;
- a lifted strategy's size is the product of the memories
  (``compose_strategy``, ``product_memory``, both through
  ``memory.pull_back``).  The calculus declares every state pair, so
  these two list the full product themselves: ``pull_back`` declares
  only the pairs its rows name, the memory the package writes.

Renaming the vertices of a game, which ``compose`` needs to re-associate
a doubly-expanded target, is ``relabel_game``; it knows ranked and
cost-RR games.
"""

from dataclasses import dataclass, fields
from typing import Iterable

from rankgames.arena import Arena, Lasso, Vertex
from rankgames.errors import InputError
from rankgames.extnat import INF, ExtNat, check_extnat
from rankgames.memory import (FiniteStateStrategy, MemoryStructure, explore_product,
                              pull_back, trivial_memory)
from rankgames.objectives import CostRRSpec, Objective, RequestResponse, _VertexSets
from rankgames.quantred import Cap, QuantReduction
from rankgames.ranked import RankedGame
from rankgames.rrcost import CostRRGame


# ---------------------------------------------------------------------------
# arenas and games

def restrict(arena: Arena, keep: Iterable[Vertex]) -> Arena:
    """Sub-arena induced by ``keep``; errors if the initial vertex is dropped
    or a kept vertex loses all its successors."""
    kset = frozenset(keep)
    unknown = kset - set(arena.vertices)
    if unknown:
        raise InputError(f"keep contains unknown vertices: {sorted(unknown)!r}")
    if arena.initial not in kset:
        raise InputError(f"initial vertex {arena.initial!r} not in the kept set")
    edges = [(u, v) for (u, v) in arena.edges if u in kset and v in kset]
    with_out = {u for u, _ in edges}
    for v in sorted(kset):
        if v not in with_out:
            raise InputError(f"not a valid sub-arena: vertex {v!r} would become terminal")
    return Arena({v: arena.owner[v] for v in kset}, edges, arena.initial)


def relabel(arena: Arena, fn) -> Arena:
    """Rename every vertex through an injective function."""
    owner = {fn(v): p for v, p in arena.owner.items()}
    if len(owner) != len(arena.vertices):
        raise InputError("relabeling is not injective")
    edges = frozenset((fn(u), fn(w)) for u, w in arena.edges)
    return Arena(owner, edges, fn(arena.initial))


def map_sets(obj: Objective, fn) -> Objective:
    """The same kind of condition with ``fn`` applied to each vertex set."""
    if isinstance(obj, RequestResponse):
        return RequestResponse(tuple((fn(q), fn(p)) for q, p in obj.pairs))
    if not isinstance(obj, _VertexSets):
        raise InputError(f"unknown objective {obj!r}")
    return type(obj)(*(fn(getattr(obj, f.name)) for f in fields(obj)))


def relabel_objective(obj: Objective, fn) -> Objective:
    """The same condition with every vertex renamed through ``fn``."""
    return map_sets(obj, lambda vs: frozenset(map(fn, vs)))


def relabel_game(game, fn):
    """The same ranked or cost-RR game with every vertex renamed through
    an injective ``fn``."""
    if isinstance(game, RankedGame):
        return RankedGame(relabel(game.arena, fn), relabel_objective(game.objective, fn),
                          {fn(v): r for v, r in game.rk.items()}, game.mode)
    if isinstance(game, CostRRGame):
        pairs = relabel_objective(game.spec.rr_objective(), fn).pairs
        costs = {(c, (fn(u), fn(w))): x for (c, (u, w)), x in game.spec.edge_costs.items()}
        return CostRRGame(relabel(game.arena, fn), CostRRSpec(pairs, costs))
    raise InputError("target game does not support vertex relabeling")


# ---------------------------------------------------------------------------
# memories, expansions and plays

def update_plus(mem: MemoryStructure, prefix: Iterable[Vertex]):
    """Fold the update function along a nonempty play prefix.

    A single-vertex prefix yields the initial state.  Steps that are not
    covered by the memory (in particular non-edges) raise ``InputError``.
    """
    seq = tuple(prefix)
    if not seq:
        raise InputError("update_plus needs a nonempty prefix")
    state = mem.initial
    for i in range(len(seq) - 1):
        state = mem.step(state, (seq[i], seq[i + 1]))
    return state


def expand(arena: Arena, mem: MemoryStructure) -> Arena:
    """Product of an arena with a memory structure, reachable part only:
    (vertex, state) pairs owned as their vertex, from the initial vertex
    paired with the memory's initial state."""
    return explore_product(arena, mem.initial, mem.step)[1]


def extend_lasso(mem: MemoryStructure, lasso: Lasso) -> Lasso:
    """The unique extended play of a lasso, again as a lasso.

    States are threaded along the prefix, then the loop is unrolled until
    a (loop offset, state) pair repeats; the extended loop length always
    divides loop length times memory size.
    """
    state, prefix, loop = mem.initial, [], lasso.loop
    for v, w in zip(lasso.prefix, lasso.spine()[1:]):
        prefix.append((v, state))
        state = mem.step(state, (v, w))
    seen, tail, offset = {}, [], 0  # tail: (vertex, state) pairs of the unrolled loop
    while (offset, state) not in seen:
        seen[(offset, state)] = len(tail)
        tail.append((loop[offset], state))
        nxt = (offset + 1) % len(loop)
        state = mem.step(state, (loop[offset], loop[nxt]))
        offset = nxt
    start = seen[(offset, state)]
    return Lasso(tuple(prefix + tail[:start]), tuple(tail[start:]))


def product_memory(m1: MemoryStructure, m2: MemoryStructure, arena: Arena) -> MemoryStructure:
    """Memory over ``arena`` running ``m1`` alongside a memory ``m2`` over
    the ``m1``-expanded arena's edges, pulled back from ``expand(arena,
    m1)``: all state pairs, with rows on exactly the (state, edge) pairs
    that plays from the initial vertex reach.  ``m1`` and ``m2`` need rows
    wherever those plays go; a missing one raises ``InputError``."""
    for (_s, e) in m2.update:
        if not all(isinstance(pv, tuple) and len(pv) == 2 for pv in e):
            raise InputError("second memory must read edges of the expanded arena")
        break
    return _on_all_pairs(m1, m2, pull_back(m1, expand(arena, m1), m2)[0])


def compose_strategy(m1: MemoryStructure, strat: FiniteStateStrategy,
                     arena: Arena) -> FiniteStateStrategy:
    """Pull a strategy on the ``m1``-expanded arena back to ``arena``
    through ``expand(arena, m1)``.  It runs ``m1`` alongside ``strat``'s
    memory, so its size is exactly ``len(m1) * len(strat.memory)``; its
    rows cover what plays consistent with it reach from the initial
    vertex."""
    memory, next_move = pull_back(m1, expand(arena, m1), strat.memory, strat.owner, strat.move)
    return FiniteStateStrategy(strat.owner, _on_all_pairs(m1, strat.memory, memory), next_move)


def _on_all_pairs(m1: MemoryStructure, m2: MemoryStructure,
                  pulled: MemoryStructure) -> MemoryStructure:
    """``pulled``, a memory ``pull_back`` read, declared on every state pair
    of ``m1`` and ``m2``, in product order."""
    states = tuple((s1, s2) for s1 in m1.states for s2 in m2.states)
    return MemoryStructure(states, pulled.initial, pulled.update)


# ---------------------------------------------------------------------------
# reductions

def is_correction(f: Cap, b: ExtNat) -> bool:
    """Check the three correction-function requirements for parameter b.

    Strictly increasing below b, strictly below the value at b, and never
    below it from b on.  A cap meets them exactly up to its own bound.
    """
    return check_extnat(b, "correction parameter") <= f.bound


def compose_functions(f1: Cap, f2: Cap) -> Cap:
    """Pointwise composition f2 after f1: two caps clamp at the smaller bound."""
    return Cap(min(f1.bound, f2.bound))


def validate_expansion(r: QuantReduction) -> None:
    """Structural check that the target arena is the source's expansion."""
    if expand(r.source.arena, r.memory) != r.target.arena:
        raise InputError("target arena is not the memory expansion of the source")


def trivial_reduction(game, target_builder) -> QuantReduction:
    """Reduction of a game to itself over the one-state memory.

    ``target_builder(product_arena, memory)`` must produce the game with
    the same cost structure over the expanded arena.
    """
    mem = trivial_memory(game.arena)
    return QuantReduction(mem, Cap(INF), INF, game,
                          target_builder(expand(game.arena, mem), mem))


@dataclass(frozen=True)
class ReductionCheck:
    consistent: bool
    source_cost: ExtNat
    target_cost: ExtNat
    detail: str = ""


def check_reduction_on_lasso(r: QuantReduction, lasso) -> ReductionCheck:
    """Evaluate one play in both games and test the reduction conditions."""
    src = r.source.lasso_cost(lasso)
    tgt = r.target.lasso_cost(extend_lasso(r.memory, lasso))
    if src < r.b:
        want = r.f.apply(src)
        if tgt != want:
            return ReductionCheck(
                False, src, tgt,
                f"cost {src} below parameter {r.b} must map to "
                f"{want}, target play costs {tgt}")
    else:
        floor = r.f.apply(r.b)
        if not tgt >= floor:
            return ReductionCheck(
                False, src, tgt,
                f"cost {src} at or above parameter {r.b} needs target "
                f"cost >= {floor}, got {tgt}")
    return ReductionCheck(True, src, tgt)


def compose(r1: QuantReduction, r2: QuantReduction) -> QuantReduction:
    """Chain two reductions.

    The combined memory is the memory product, the function the pointwise
    composition, and the parameter min(b1, b2): a valid cap keeps b1 fixed,
    so f1(b1) = b1 and the second reduction covers it exactly when b2 >= b1.
    The chained target lives over doubly-expanded vertices ((v, m1), m2);
    they are re-associated to (v, (m1, m2)) to match the product memory.
    """
    if r2.source is not r1.target and r2.source != r1.target:
        raise InputError("reductions do not chain: second source differs from first target")
    mem = product_memory(r1.memory, r2.memory, r1.source.arena)

    def reassociate(pv):
        (v, s1), s2 = pv
        return (v, (s1, s2))

    return QuantReduction(mem, compose_functions(r1.f, r2.f), min(r1.b, r2.b), r1.source,
                          relabel_game(r2.target, reassociate))
