"""Pruned solves, held to the walk-based builder in ``pruned_reference``.

Over a positional inner result the pruned strategy has one memory state,
and the package tabulates it in one pass over the alive set instead of
walking it.  On seeded games of every positional inner objective, inside
and outside an alive trap, at every realized rank of ranked sup and lim
probes, and with nested pruning, each player's strategy must agree with
the reference on memory states, initial state, update rows in order and
moves.  Request-response inner results keep the walk.  Lim results give
the move tables their strategies wrap, and an empty rest, whatever the
inner objective, goes to its solver like any other alive set.
"""

import random

import pytest

import pruned_reference as ref
from attractor_reference import filled_moves
from rankgames import qualsolve
from rankgames.arena import attractor
from rankgames.gen import random_arena, random_subset
from rankgames.memory import positional_strategy
from rankgames.objectives import Buchi, CoBuchi, RequestResponse, Safety, SafetyAndCoBuchi
from rankgames.qualsolve import solve_pruned, solve_safety_cobuchi
from rankgames.ranked import RankedGame, solve_lim_with_bound, solve_sup_with_bound

KINDS = ("safety", "buchi", "cobuchi", "safety-cobuchi")


def _rows(strategy):
    mem = strategy.memory
    return (strategy.owner, mem.states, mem.initial, list(mem.update.items()),
            strategy.next_move)


def _assert_matches(res, reference):
    assert (res.region_0, res.region_1) == (reference.region_0, reference.region_1)
    for player in (0, 1):
        assert _rows(res.build(player)) == _rows(reference.build(player))


def _objective(rng, arena, kind):
    if kind == "safety":
        return Safety(random_subset(rng, arena, 0.8))
    if kind == "buchi":
        return Buchi(random_subset(rng, arena, 0.4))
    if kind == "cobuchi":
        return CoBuchi(random_subset(rng, arena, 0.3))
    return SafetyAndCoBuchi(random_subset(rng, arena, 0.85), random_subset(rng, arena, 0.3))


def _trap(rng, arena):
    region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.3))
    return frozenset(arena.vertices) - region or None


def _ranked(rng, kind, mode):
    arena = random_arena(rng, rng.randint(2, 12))
    rk = {v: rng.randint(0, 4) for v in arena.vertices}
    return RankedGame(arena, _objective(rng, arena, kind), rk, mode)


def _high(game, bound):
    return frozenset(v for v in game.arena.vertices if game.rk[v] > bound)


def test_positional_inner_results_inside_and_outside_an_alive_set():
    for seed in range(60):
        rng = random.Random(f"pruned-qual:{seed}")
        arena = random_arena(rng, rng.randint(1, 12))
        for kind in KINDS:
            objective = _objective(rng, arena, kind)
            for within in (None, _trap(rng, arena)):
                alive = frozenset(arena.vertices) if within is None else within
                bad = random_subset(rng, arena, 0.3) & alive
                res = solve_pruned(arena, bad, objective, within)
                _assert_matches(res, ref.solve_pruned(arena, bad, objective, within))
                for player in (0, 1):  # the move table the strategy wraps
                    assert res.moves(player) == {
                        v: w for (v, _s), w in res.build(player).next_move.items()}


def test_safety_cobuchi_inside_and_outside_an_alive_set():
    for seed in range(40):
        rng = random.Random(f"pruned-safety-cobuchi:{seed}")
        arena = random_arena(rng, rng.randint(2, 12))
        safe, avoid = random_subset(rng, arena, 0.8), random_subset(rng, arena, 0.3)
        for within in (None, _trap(rng, arena)):
            _assert_matches(solve_safety_cobuchi(arena, safe, avoid, within),
                            ref.solve_safety_cobuchi(arena, safe, avoid, within))


def test_sup_probes_at_every_realized_rank_nested_pruning_included(monkeypatch):
    nested = 0
    solve = qualsolve._pruned

    def spy(*args):  # the safety/coBuchi solver's call, one level inside a probe
        nonlocal nested
        nested += 1
        return solve(*args)
    monkeypatch.setattr(qualsolve, "_pruned", spy)
    for seed in range(40):
        rng = random.Random(f"pruned-sup:{seed}")
        for kind in KINDS:
            game = _ranked(rng, kind, "sup")
            for b in game.rank_values():
                res = solve_sup_with_bound(game, b)
                _assert_matches(res, ref.solve_pruned(game.arena, _high(game, b),
                                                      game.objective))
    assert nested > 100


def test_lim_probes_at_every_realized_rank():
    player_1_rounds = 0
    for seed in range(40):
        rng = random.Random(f"pruned-lim:{seed}")
        for kind in ("safety", "buchi", "cobuchi"):
            game = _ranked(rng, kind, "lim")
            arena = game.arena
            for b in game.rank_values():
                high, res = _high(game, b), solve_lim_with_bound(game, b)
                if kind == "safety":
                    _assert_matches(res, ref.solve_safety_cobuchi(
                        arena, game.objective.safe, high))
                    continue
                # the peeling rounds, each pruned solve against the reference
                cur, last = frozenset(arena.vertices), None
                while cur:
                    sres = solve_pruned(arena, high & cur, game.objective, cur)
                    ref_sres = ref.solve_pruned(arena, high & cur, game.objective, cur)
                    _assert_matches(sres, ref_sres)
                    if not sres.region_0:
                        last = ref_sres
                        break
                    cur -= attractor(arena, 0, sres.region_0, cur)[0]
                assert res.region_1 == cur
                if last is not None:  # Player 1's strategy as the walk read it
                    player_1_rounds += 1
                    old = {v: w for (v, _s), w in last.build(1).next_move.items()}
                    assert _rows(res.strategy_1) == _rows(
                        positional_strategy(arena, 1, filled_moves(arena, 1, old)))
    assert player_1_rounds > 50


def test_lim_results_give_the_move_tables_their_strategies_wrap():
    for seed in range(40):
        rng = random.Random(f"pruned-lim:{seed}")
        for kind in ("safety", "buchi", "cobuchi"):
            game = _ranked(rng, kind, "lim")
            for b in game.rank_values():
                res = solve_lim_with_bound(game, b)
                for player in (0, 1):
                    assert res.moves(player) == {
                        v: w for (v, _s), w in res.build(player).next_move.items()}


def test_an_empty_rest_for_every_inner_kind_inside_and_outside_an_alive_set():
    for seed in range(30):
        rng = random.Random(f"pruned-empty:{seed}")
        arena = random_arena(rng, rng.randint(1, 10))
        rr = RequestResponse(tuple((random_subset(rng, arena, 0.4), random_subset(rng, arena))
                                   for _ in range(rng.randint(1, 3))))
        for objective in [_objective(rng, arena, kind) for kind in KINDS] + [rr]:
            for within in (None, _trap(rng, arena)):
                alive = frozenset(arena.vertices) if within is None else within
                res = solve_pruned(arena, alive, objective, within)
                assert (res.region_0, res.region_1) == (frozenset(), alive)
                _assert_matches(res, ref.solve_pruned(arena, alive, objective, within))


def test_request_response_inner_results_keep_the_walk():
    for seed in range(40):
        rng = random.Random(f"pruned-rr:{seed}")
        arena = random_arena(rng, rng.randint(2, 8))
        objective = RequestResponse(tuple(
            (random_subset(rng, arena, 0.4), random_subset(rng, arena))
            for _ in range(rng.randint(1, 3))))
        for within in (None, _trap(rng, arena)):
            alive = frozenset(arena.vertices) if within is None else within
            bad = random_subset(rng, arena, 0.2) & alive
            res = solve_pruned(arena, bad, objective, within)
            assert res.moves is None or (not res.region_0 and res.region_1 == alive)
            _assert_matches(res, ref.solve_pruned(arena, bad, objective, within))


class _Walked(Exception):
    pass


def _no_walk(*_args, **_kwargs):
    raise _Walked


def test_positional_pruned_strategies_are_built_without_a_walk(monkeypatch):
    monkeypatch.setattr(qualsolve, "explore", _no_walk)
    built = 0
    for seed in range(30):
        rng = random.Random(f"pruned-no-walk:{seed}")
        for kind in ("safety", "buchi", "cobuchi"):
            for mode in ("sup", "lim"):
                game = _ranked(rng, kind, mode)
                for b in game.rank_values():
                    res = (solve_sup_with_bound if mode == "sup"
                           else solve_lim_with_bound)(game, b)
                    assert (res.strategy_0.owner, res.strategy_1.owner) == (0, 1)
                    built += 2
            arena = game.arena
            res = solve_safety_cobuchi(arena, random_subset(rng, arena, 0.8),
                                       random_subset(rng, arena, 0.3))
            assert (res.strategy_0.owner, res.strategy_1.owner) == (0, 1)
    assert built > 500


def test_request_response_pruned_strategies_reach_the_walk(monkeypatch):
    monkeypatch.setattr(qualsolve, "explore", _no_walk)
    rng = random.Random("pruned-rr-walk")
    arena = random_arena(rng, 6)
    objective = RequestResponse(((random_subset(rng, arena), random_subset(rng, arena)),))
    res = solve_sup_with_bound(RankedGame(arena, objective, {v: 0 for v in arena.vertices},
                                          "sup"), 0)
    for player in (0, 1):
        with pytest.raises(_Walked):
            res.build(player)
