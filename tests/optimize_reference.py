"""Reference optimizers: the ranked bisection and the per-level fault
fixpoint as they stood before attractors grew a level at a time.

``optimize`` bisects every realized rank of a sup or lim game, probing the
top rank first, with ``least_winning_bound``'s loop copied here.
``compute_val`` runs one cold attractor per fault level, and
``max_resilience`` optimizes the rank encoding of that ``val`` with this
``optimize``.  The probes and the attractor are the package's own, so a
test holding the package to this module compares only the searches: same
costs, same ``val`` and the same strategy from the same probe.
"""

from functools import partial
from itertools import compress

from rankgames.arena import _attract, _mask, _minus
from rankgames.extnat import INF, is_finite
from rankgames.objectives import Safety
from rankgames.ranked import OptimizeResult, RankedGame, solve_with_bound
from rankgames.resilience import ResilienceResult, _rank_of_val


def least_winning_bound(initial, probe, candidates):
    best = probe(candidates[-1])
    if initial not in best.region_0:
        return OptimizeResult(INF, best.strategy_1)
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        res = probe(candidates[mid])
        if initial in res.region_0:
            hi, best = mid, res
        else:
            lo = mid + 1
    return OptimizeResult(candidates[hi], best.strategy_0)


def optimize(game):
    return least_winning_bound(game.arena.initial, partial(solve_with_bound, game),
                               game.rank_values())


def compute_val(fa):
    arena = fa.arena
    every, index = _mask(arena), arena.index
    faults = [(index[u], index[w]) for u, w in fa.faults]
    level, _ = _attract(arena, 1, _minus(every, _mask(arena, fa.safe)), every)
    val = [0 if at else INF for at in level]
    for k in range(1, len(arena) + 1):
        target = bytearray(level)
        for u, w in faults:
            if level[w]:
                target[u] = 1
        nxt, _ = _attract(arena, 1, target, every)
        if nxt == level:
            break
        for i in compress(range(len(val)), _minus(nxt, level)):
            val[i] = k
        level = nxt
    return dict(zip(arena.vertices, val))


def max_resilience(fa, mode="sup"):
    val = compute_val(fa)
    game = RankedGame(fa.arena, Safety(fa.safe), _rank_of_val(fa, val), mode)
    res = optimize(game)
    if not is_finite(res.cost):
        return ResilienceResult(val, INF, 0, res.strategy)
    if res.cost == 0:
        return ResilienceResult(val, 0, INF, res.strategy)
    return ResilienceResult(val, res.cost, len(fa.arena) - res.cost, res.strategy)
