"""The fixpoints on vertex ids, held to the label-keyed reference in
``attractor_reference``.

On seeded and drawn ``random_arena`` games of 2 to 60 vertices, and on two
1000-vertex games, with random targets, alive sets (traps) and ranks: the
attractor for both players, the safety, Buchi, coBuchi and safety/coBuchi
solvers and pruned solves inside and outside an alive set, and ranked sup
and lim probes at every realized bound must give the reference's regions
and, for both players, the same move-table contents; optimization must give
the same optimum and the same strategy moves.  The Buchi loop on a
request-response product's ids must agree with the reference Buchi solver
on ``rr_reference``'s labelled product.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import attractor_reference as ref
import rr_reference
from rankgames.arena import _mask, attractor
from rankgames.gen import random_arena, random_subset
from rankgames.objectives import Buchi, CoBuchi, Safety, SafetyAndCoBuchi
from rankgames.qualsolve import (_buchi, rr_product, solve_buchi, solve_cobuchi,
                                 solve_pruned, solve_safety, solve_safety_cobuchi)
from rankgames.ranked import (RankedGame, optimize, solve_lim_with_bound,
                              solve_sup_with_bound)


def _assert_same(got, want):
    assert (got.region_0, got.region_1) == (want.region_0, want.region_1)
    for player in (0, 1):
        assert got.moves(player) == want.moves(player), player


def _trap(rng, arena):
    region, _ = ref.attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.2))
    return frozenset(arena.vertices) - region or None


def _objectives(rng, arena):
    return (Safety(random_subset(rng, arena, 0.9)), Buchi(random_subset(rng, arena, 0.3)),
            CoBuchi(random_subset(rng, arena, 0.3)),
            SafetyAndCoBuchi(random_subset(rng, arena, 0.9), random_subset(rng, arena, 0.3)))


def _check_qualitative(rng, arena):
    for within in (None, _trap(rng, arena)):
        alive = frozenset(arena.vertices) if within is None else within
        for player in (0, 1):
            target = random_subset(rng, arena, rng.choice((0.05, 0.3))) & alive
            assert (attractor(arena, player, target, within)
                    == ref.attractor(arena, player, target, within))
        safety, buchi, cobuchi, both = _objectives(rng, arena)
        _assert_same(solve_safety(arena, safety.safe, within),
                     ref.solve_safety(arena, safety.safe, within))
        _assert_same(solve_buchi(arena, buchi.accept, within),
                     ref.solve_buchi(arena, buchi.accept, within))
        _assert_same(solve_cobuchi(arena, cobuchi.avoid, within),
                     ref.solve_cobuchi(arena, cobuchi.avoid, within))
        _assert_same(solve_safety_cobuchi(arena, both.safe, both.avoid, within),
                     ref.solve_safety_cobuchi(arena, both.safe, both.avoid, within))
        bad = random_subset(rng, arena, 0.2) & alive
        for objective in (safety, buchi, cobuchi, both):
            _assert_same(solve_pruned(arena, bad, objective, within),
                         ref.solve_pruned(arena, bad, objective, within))


def _check_ranked(rng, arena, max_rank):
    rk = {v: rng.randint(0, max_rank) for v in arena.vertices}
    for objective in _objectives(rng, arena)[:3]:
        for mode in ("sup", "lim"):
            game = RankedGame(arena, objective, rk, mode)
            solve, want = ((solve_sup_with_bound, ref.solve_sup_with_bound) if mode == "sup"
                           else (solve_lim_with_bound, ref.solve_lim_with_bound))
            for b in game.rank_values():
                _assert_same(solve(game, b), want(game, b))
            got, best = optimize(game), ref.optimize(game)
            assert got.cost == best.cost
            assert got.strategy.next_move == best.strategy.next_move


def _check_rr_product(rng, arena):
    pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                  for _ in range(rng.randint(1, 3)))
    for within in (None, _trap(rng, arena)):
        product = rr_product(arena, pairs, within)
        name = product.pairs
        res = _buchi(product, bytes([ptr not in opened for _v, (opened, ptr) in name]),
                     _mask(product), 0)
        _mem, _seeds, labelled = rr_reference.rr_memory(arena, pairs, within)
        want = ref.solve_buchi(labelled, frozenset(
            pv for pv in labelled.vertices if pv[1][1] not in pv[1][0]))
        assert frozenset(pv for pv, w in zip(name, res.win) if w) == want.region_0
        for player in (0, 1):
            moves = {name[i]: name[k] for i, k in res.moves(player).items()}
            assert moves == want.moves(player)


def _check(rng, n, max_rank=6):
    arena = random_arena(rng, n)
    _check_qualitative(rng, arena)
    _check_ranked(rng, arena, max_rank)
    _check_rr_product(rng, arena)


def test_seeded_games_of_2_to_60_vertices():
    for seed in range(60):
        rng = random.Random(f"id-kernels:{seed}")
        _check(rng, rng.randint(2, 60))


@given(st.integers(0, 2 ** 32), st.integers(2, 60))
@settings(max_examples=40, deadline=None)
def test_drawn_games(seed, n):
    _check(random.Random(seed), n)


def test_two_1000_vertex_games():
    for seed in (1, 2):
        rng = random.Random(f"id-kernels-large:{seed}")
        arena = random_arena(rng, 1000, max_outdeg=2, p0_max_outdeg=4)
        _check_qualitative(rng, arena)
        _check_ranked(rng, arena, 8)
