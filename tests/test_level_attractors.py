"""Attractors grown a level at a time, held to ``optimize_reference``.

Sup-mode ``optimize`` first probes at the rank floor, the least realized
rank b whose Player 1 attractor to the ranks above b misses the initial
vertex, and ``compute_val`` grows one attractor through the fault levels.
On seeded games of 2 to 40 vertices with 1 to 40 distinct ranks and on a
1000-vertex game of the bench's positional-large family, both must give
the reference's costs, ``val`` and strategy documents.  The floor must
equal a brute force over the public ``attractor``, a floor that wins must
take one probe, and ``compute_val`` must run no cold attractor.
"""

import json
import random

import pytest

import optimize_reference as ref
from rankgames import arena as arena_mod
from rankgames import ranked, resilience
from rankgames.arena import Arena, attractor
from rankgames.extnat import INF
from rankgames.fileformat import strategy_to_doc
from rankgames.gen import random_arena, random_fault_arena, random_subset
from rankgames.objectives import Buchi, CoBuchi, RequestResponse, Safety
from rankgames.ranked import RankedGame, _floor, optimize
from rankgames.resilience import FaultArena, compute_val, max_resilience


def _doc(strategy) -> str:
    return json.dumps(strategy_to_doc(strategy))


def _objectives(rng, arena):
    return (Safety(random_subset(rng, arena, 0.8) | {arena.initial}),
            Buchi(random_subset(rng, arena, 0.3)), CoBuchi(random_subset(rng, arena, 0.3)))


def _ranked_games():
    """Safety, Buchi and coBuchi games in both modes and request-response
    games in sup mode, on seeded arenas of 2 to 40 vertices with 1 to 40
    distinct ranks, the first with a single rank."""
    rng = random.Random(3701)
    for k in range(40):
        arena = random_arena(rng, rng.randint(2, 40))
        top = 0 if k == 0 else rng.randint(1, 39)
        rk = {v: rng.randint(0, top) for v in arena.vertices}
        for objective in _objectives(rng, arena):
            for mode in ("sup", "lim"):
                yield RankedGame(arena, objective, rk, mode)
        pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.5))
                      for _ in range(rng.randint(1, 2)))
        yield RankedGame(arena, RequestResponse(pairs), rk, "sup")


def _large_games():
    """The bench's positional-large family: one 1000-vertex arena, ranks
    up to 30, and its fault arena with 500 fault pairs."""
    rng = random.Random(3702)
    arena = random_arena(rng, 1000, max_outdeg=2, p0_max_outdeg=4)
    rk = {v: rng.randint(0, 30) for v in arena.vertices}
    safe = random_subset(rng, arena, 0.95) | {arena.initial}
    objectives = (Buchi(random_subset(rng, arena, 0.2)),
                  CoBuchi(random_subset(rng, arena, 0.2)), Safety(safe))
    games = [RankedGame(arena, objective, rk, mode)
             for objective in objectives for mode in ("sup", "lim")]
    p0 = arena.owned_by(0)
    faults = frozenset((rng.choice(p0), rng.choice(arena.vertices)) for _ in range(500))
    return games, FaultArena(arena, faults, safe)


def _assert_same_optimum(game):
    got, want = optimize(game), ref.optimize(game)
    assert got.cost == want.cost, game
    assert _doc(got.strategy) == _doc(want.strategy), game
    return got


def test_optimize_matches_the_bisection_on_seeded_games():
    # every branch of the sup search is taken: the floor wins, the floor
    # is the top rank and loses, a lower floor loses to an INF optimum,
    # and a lower floor loses to a finite optimum above it
    branches = set()
    for game in _ranked_games():
        got = _assert_same_optimum(game)
        if game.mode == "sup":
            floor, top = _floor(game), game.rank_values()[-1]
            if got.cost == floor:
                branches.add("floor wins")
            elif got.cost is INF:
                branches.add("top floor loses" if floor == top else "INF above the floor")
            else:
                assert got.cost > floor
                branches.add("finite above the floor")
    assert branches == {"floor wins", "top floor loses", "INF above the floor",
                        "finite above the floor"}


def test_optimize_and_compute_val_match_the_reference_at_1000_vertices():
    games, fa = _large_games()
    for game in games:
        _assert_same_optimum(game)
    val = compute_val(fa)
    assert val == ref.compute_val(fa)
    assert max(v for v in val.values() if v is not INF) >= 2


def test_fault_games_match_the_reference():
    rng = random.Random(3703)
    for _ in range(60):
        fa = random_fault_arena(rng, rng.randint(2, 30), rng.randint(0, 12))
        assert compute_val(fa) == ref.compute_val(fa)
        for mode in ("sup", "lim"):
            got, want = max_resilience(fa, mode), ref.max_resilience(fa, mode)
            assert (got.val, got.bound, got.resilience) == (
                want.val, want.bound, want.resilience)
            assert _doc(got.strategy) == _doc(want.strategy)


def test_floor_is_the_least_bound_the_attractor_misses():
    rng = random.Random(3704)
    for _ in range(80):
        arena = random_arena(rng, rng.randint(2, 40))
        rk = {v: rng.randint(0, rng.randint(0, 12)) for v in arena.vertices}
        game = RankedGame(arena, Safety(frozenset(arena.vertices)), rk, "sup")
        brute = min(b for b in game.rank_values()
                    if arena.initial not in attractor(
                        arena, 1, {v for v in arena.vertices if rk[v] > b})[0])
        assert _floor(game) == brute


def test_a_winning_floor_takes_one_probe(monkeypatch):
    games, _ = _large_games()
    game = games[0]
    assert game.mode == "sup" and len(game.rank_values()) > 1
    assert ref.optimize(game).cost == _floor(game)
    probes = []
    solve = ranked.solve_sup_with_bound

    def counted(game, bound):
        probes.append(bound)
        return solve(game, bound)
    monkeypatch.setattr(ranked, "solve_sup_with_bound", counted)
    assert optimize(game).cost == _floor(game)
    assert probes == [_floor(game)]


def test_compute_val_runs_no_cold_attractor(monkeypatch):
    _, fa = _large_games()
    want = ref.compute_val(fa)

    def cold(*args):
        raise AssertionError("compute_val ran a cold attractor")
    monkeypatch.setattr(arena_mod, "_attract", cold)
    monkeypatch.setattr(resilience, "_attract", cold, raising=False)
    assert compute_val(fa) == want


@pytest.mark.parametrize("faults, val", [
    # a chain: each fault reaches the level before, one level per vertex
    ({("a", "x"), ("b", "a"), ("c", "b")}, {"x": 0, "a": 1, "b": 2, "c": 3}),
    # two faults from one source into one level add it once
    ({("a", "x"), ("a", "b"), ("b", "x"), ("c", "c")},
     {"x": 0, "a": 1, "b": 1, "c": INF}),
])
def test_levels_grow_one_attractor(faults, val):
    owner = {"a": 0, "b": 0, "c": 0, "x": 1}
    edges = {(v, v) for v in owner}
    fa = FaultArena(Arena(owner, edges, "c"), frozenset(faults), frozenset("abc"))
    assert compute_val(fa) == val == ref.compute_val(fa)
