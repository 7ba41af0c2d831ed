import random

import pytest

from oracles import enumerate_regions
from rankgames.arena import Arena
from rankgames.errors import CapabilityError
from rankgames.extnat import INF
from rankgames.gen import random_arena, random_ranked_game, random_subset
from rankgames.memory import trivial_memory
from rankgames.objectives import Buchi, CoBuchi, RequestResponse, Safety
from rankgames.fileformat import strategy_to_doc
from rankgames.qualsolve import solve_objective, solve_safety_cobuchi
from rankgames.ranked import (RankedCondition, RankedGame, optimize,
                              solve_lim_with_bound, solve_sup_with_bound,
                              solve_with_bound)
from rankgames.verify import verify_strategy


def ranked(arena, objective, rk, mode):
    return RankedGame(arena, objective, rk, mode)


class TestSolveSupWithBound:
    def test_zero_ranks_match_qualitative(self, a1):
        game = ranked(a1, Buchi(frozenset({"b"})), {"a": 0, "b": 0}, "sup")
        res = solve_sup_with_bound(game, 0)
        qual = solve_objective(a1, game.objective)
        assert res.region_0 == qual.region_0

    def test_bound_above_max_rank_matches_qualitative(self, a1):
        game = ranked(a1, Safety(frozenset({"a", "b"})), {"a": 1, "b": 3}, "sup")
        res = solve_sup_with_bound(game, 3)
        assert res.region_0 == frozenset({"a", "b"})

    def test_a1_forced_through_high_rank(self, a1):
        game = ranked(a1, Safety(frozenset({"a", "b"})), {"a": 0, "b": 2}, "sup")
        res = solve_sup_with_bound(game, 1)
        assert res.region_0 == frozenset()
        assert res.region_1 == frozenset({"a", "b"})

    def test_strategies_certified_at_bound(self, a1):
        game = ranked(a1, Safety(frozenset({"a", "b"})), {"a": 0, "b": 2}, "sup")
        cond = RankedCondition(game.objective, game.rk, "sup")
        for b in (0, 1, 2, 3):
            res = solve_sup_with_bound(game, b)
            for v in sorted(res.region_0):
                assert verify_strategy(a1, cond, res.strategy_0, bound=b,
                                       start=v).certified
            for v in sorted(res.region_1):
                assert verify_strategy(a1, cond, res.strategy_1, bound=b,
                                       start=v).certified

    def test_no_rows_for_player0_edges_never_taken(self):
        # at her own vertices the strategy's memory reads only the edges she
        # moves along; the edges she never takes get no update row
        rng = random.Random(17)
        untaken = 0
        for _ in range(30):
            game = random_ranked_game(rng, rng.randint(3, 8), 4, mode="sup")
            strat = solve_sup_with_bound(game, 2).strategy_0
            for (s, (v, w)) in strat.memory.update:
                if game.arena.owner[v] == 0:
                    assert strat.next_move[(v, s)] == w
            untaken += sum(len(game.arena.succ[v]) - 1 for v in game.arena.owned_by(0))
        assert untaken > 0

    def test_random_instances_certified_both_players(self):
        rng = random.Random(7207)
        for _ in range(30):
            game = random_ranked_game(rng, rng.randint(2, 5), 3, mode="sup")
            cond = RankedCondition(game.objective, game.rk, "sup")
            b = rng.randint(0, 3)
            res = solve_sup_with_bound(game, b)
            for v in sorted(res.region_0):
                assert verify_strategy(game.arena, cond, res.strategy_0,
                                       bound=b, start=v).certified
            for v in sorted(res.region_1):
                assert verify_strategy(game.arena, cond, res.strategy_1,
                                       bound=b, start=v).certified

    def test_request_response_winner_certified_from_the_initial_vertex(self):
        # a pruned request-response strategy walks every vertex from the
        # anchor's memory state, so it is claimed winning from the initial
        # vertex only, which is where the CLI and lift_strategy read it
        rng = random.Random(7311)
        for _ in range(200):
            arena = random_arena(rng, rng.randint(3, 8))
            pairs = tuple((random_subset(rng, arena, 0.4), random_subset(rng, arena))
                          for _ in range(rng.randint(1, 3)))
            rk = {v: rng.randint(0, 3) for v in arena.vertices}
            game = ranked(arena, RequestResponse(pairs), rk, "sup")
            cond = RankedCondition(game.objective, rk, "sup")
            for b in game.rank_values():
                res = solve_sup_with_bound(game, b)
                winner = 0 if arena.initial in res.region_0 else 1
                assert verify_strategy(arena, cond, res.strategy_of(winner),
                                       bound=b).certified, (b, winner)


class TestSolveLimWithBound:
    def test_zero_ranks_match_qualitative(self, a1):
        for objective in (Safety(frozenset({"a", "b"})), Buchi(frozenset({"b"})),
                          CoBuchi(frozenset({"a"}))):
            game = ranked(a1, objective, {"a": 0, "b": 0}, "lim")
            res = solve_lim_with_bound(game, 0)
            assert res.region_0 == solve_objective(a1, objective).region_0

    def test_high_rank_visited_finitely(self):
        arena = Arena({"a": 0, "b": 0}, [("a", "a"), ("a", "b"), ("b", "a")], "a")
        game = ranked(arena, Buchi(frozenset({"a"})), {"a": 0, "b": 2}, "lim")
        res = solve_lim_with_bound(game, 0)
        assert res.region_0 == frozenset({"a", "b"})

    def test_sup_region_contained_in_lim_region(self):
        rng = random.Random(5150)
        checked = 0
        for _ in range(100):
            game = random_ranked_game(rng, rng.randint(2, 5), 3, mode="sup")
            b = rng.randint(0, 3)
            sup = solve_sup_with_bound(game, b)
            lim_game = RankedGame(game.arena, game.objective, game.rk, "lim")
            lim = solve_lim_with_bound(lim_game, b)
            assert sup.region_0 <= lim.region_0
            checked += 1
        assert checked == 100

    def test_safety_probes_equal_the_safety_cobuchi_solve(self):
        # a lim safety probe runs the safety/coBuchi solver on masks; it must
        # give what the library call on labels gives, strategies included
        rng = random.Random(3939)
        probes = 0
        while probes < 400:
            game = random_ranked_game(rng, rng.randint(1, 25), rng.randint(0, 6), mode="lim")
            if not isinstance(game.objective, Safety):
                continue
            arena, safe = game.arena, game.objective.safe
            for b in game.rank_values():
                res = solve_lim_with_bound(game, b)
                ref = solve_safety_cobuchi(arena, safe,
                                           {v for v in arena.vertices if game.rk[v] > b})
                assert (res.region_0, res.region_1) == (ref.region_0, ref.region_1)
                for player in (0, 1):
                    assert res.moves(player) == ref.moves(player)
                    assert (strategy_to_doc(res.strategy_of(player))
                            == strategy_to_doc(ref.strategy_of(player)))
                probes += 1

    def test_request_response_rejected(self, a2):
        with pytest.raises(CapabilityError):
            RankedGame(a2, RequestResponse(((frozenset({"q"}), frozenset({"p"})),)),
                       {"q": 0, "p": 0}, "lim")

    def test_remainder_strategy_certified(self):
        # from every vertex Player 1 keeps, his strategy forces cost above b
        rng = random.Random(909)
        for _ in range(40):
            game = random_ranked_game(rng, rng.randint(2, 5), 3, mode="lim")
            b = rng.randint(0, 3)
            res = solve_lim_with_bound(game, b)
            cond = RankedCondition(game.objective, game.rk, "lim")
            for v in sorted(res.region_1):
                assert verify_strategy(game.arena, cond, res.strategy_1, bound=b,
                                       start=v).certified


class TestMonotonicity:
    def test_region_grows_with_bound(self):
        rng = random.Random(62)
        for _ in range(60):
            game = random_ranked_game(rng, rng.randint(2, 5), 3)
            prev = frozenset()
            for b in range(0, 4):
                cur = solve_with_bound(game, b).region_0
                assert prev <= cur
                prev = cur


class TestOptimize:
    def test_zero_ranks_winnable(self, a1):
        game = ranked(a1, Buchi(frozenset({"b"})), {"a": 0, "b": 0}, "sup")
        res = optimize(game)
        assert res.cost == 0
        assert res.winner == 0

    def test_qualitative_loss_gives_player1(self, a1):
        game = ranked(a1, Safety(frozenset({"a"})), {"a": 0, "b": 0}, "sup")
        res = optimize(game)
        assert res.cost is INF
        assert res.winner == 1

    def test_a1_unavoidable_rank(self, a1):
        game = ranked(a1, Safety(frozenset({"a", "b"})), {"a": 0, "b": 2}, "sup")
        assert optimize(game).cost == 2

    def test_binary_search_equals_linear_scan(self):
        rng = random.Random(4096)
        for _ in range(60):
            game = random_ranked_game(rng, rng.randint(2, 5), 3)
            res = optimize(game)
            linear = INF
            for b in sorted(set(game.rk.values())):
                if game.arena.initial in solve_with_bound(game, b).region_0:
                    linear = b
                    break
            assert res.cost == linear

    def test_optimal_strategy_certified(self):
        rng = random.Random(88)
        for _ in range(30):
            game = random_ranked_game(rng, rng.randint(2, 5), 3)
            res = optimize(game)
            cond = RankedCondition(game.objective, game.rk, game.mode)
            if res.winner == 0:
                assert verify_strategy(game.arena, cond, res.strategy,
                                       bound=res.cost).certified
            else:
                assert verify_strategy(game.arena, cond, res.strategy,
                                       bound=game.rank_values()[-1]).certified


class TestAgainstEnumeration:
    def test_bounded_verdicts_match_oracle(self):
        rng = random.Random(321)
        for _ in range(25):
            game = random_ranked_game(rng, rng.randint(2, 4), 3, p0_max_outdeg=2)
            cond = RankedCondition(game.objective, game.rk, game.mode)
            template = trivial_memory(game.arena)
            for b in range(0, 4):
                res = solve_with_bound(game, b)
                oracle = enumerate_regions(game.arena, cond, template, bound=b)
                assert res.region_0 == oracle[0], (game, b)


class TestStrategiesBuiltOnce:
    def test_optimize_builds_no_more_than_one_solve(self, strategies_built):
        # the bound probes compute regions only; the strategy is built once,
        # at the optimum
        game = random_ranked_game(random.Random(3), 8, 4, mode="sup")
        res = optimize(game)
        by_optimize, strategies_built[0] = strategies_built[0], 0
        solve_with_bound(game, res.cost).strategy_0  # the one strategy optimize reads
        assert len(game.rank_values()) > 2
        assert by_optimize <= strategies_built[0]

    def test_strategy_is_built_on_first_read_and_cached(self, a1, strategies_built):
        game = RankedGame(a1, Buchi(frozenset({"b"})), {"a": 1, "b": 0}, "sup")
        res = solve_sup_with_bound(game, 1)
        assert strategies_built[0] == 0
        assert res.strategy_0 is res.strategy_0
        assert res.strategy_of(0) is res.strategy_0
