import random

import pytest

from oracles import max_response_cost
from pullback_reference import named_states
from rankgames import rrcost
from rankgames.arena import Arena, Lasso
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.gen import random_costrr_game, random_lasso
from rankgames.objectives import CostRRSpec, RequestResponse
from rankgames.qualsolve import solve_request_response
from rankgames.ranked import solve_sup_with_bound
from rankgames.rrcost import (CostRRGame, build_reduction, cap_bound,
                              counter_seed, counter_step, optimize,
                              solve_with_bound)
from rankgames.verify import verify_strategy
from theory import check_reduction_on_lasso, extend_lasso, validate_expansion


def solve_winner(game, b):
    """Winner at bound b and the winner's strategy, read from the result."""
    res = solve_with_bound(game, b)
    winner = 0 if game.arena.initial in res.region_0 else 1
    return winner, res.strategy_of(winner)


class TestCapBound:
    def test_a2_instantiation(self, a2_game):
        # 1 pair * 2^1 * 2 vertices * largest cost 3
        assert cap_bound(a2_game) == 12

    def test_zero_costs(self, a2):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        assert cap_bound(CostRRGame(a2, spec)) == 0

    def test_two_pairs(self):
        arena = Arena({"a": 0, "b": 0, "c": 1},
                      [("a", "b"), ("b", "c"), ("c", "a")], "a")
        spec = CostRRSpec(((frozenset({"a"}), frozenset({"b"})),
                           (frozenset({"b"}), frozenset({"c"}))),
                          {(0, ("a", "b")): 1})
        assert cap_bound(CostRRGame(arena, spec)) == 2 * 4 * 3 * 1

    def test_pair_count_guard(self, a2):
        pairs = tuple((frozenset({"q"}), frozenset({"p"})) for _ in range(63))
        spec = CostRRSpec(pairs, {})
        with pytest.raises(InputError, match="pairs"):
            cap_bound(CostRRGame(a2, spec))


class TestCounterMemory:
    def test_seed_opens_request(self, a2_game):
        assert counter_seed(a2_game.spec, "q") == (("act", 0),)
        assert counter_seed(a2_game.spec, "p") == (("idle",),)

    def test_self_answering_seed(self):
        spec = CostRRSpec(((frozenset({"x"}), frozenset({"x"})),), {})
        assert counter_seed(spec, "x") == (("ans", 0),)

    def test_step_accumulates_and_answers(self, a2_game):
        spec = a2_game.spec
        s = counter_seed(spec, "q")
        s = counter_step(spec, 13, s, ("q", "p"))
        assert s == (("ans", 3),)
        s = counter_step(spec, 13, s, ("p", "q"))
        assert s == (("act", 0),)

    def test_saturation(self, a2_game):
        spec = a2_game.spec
        s = (("act", 12),)
        assert counter_step(spec, 13, s, ("q", "p")) == (("ans", 13),)

    def test_pending_absorbs_new_request(self):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),),
                          {(0, ("q", "q")): 2})
        s = (("act", 5),)
        # a new request at q while one is pending keeps the older counter
        assert counter_step(spec, 99, s, ("q", "q")) == (("act", 7),)


class TestBuildReduction:
    def test_zero_costs_zero_ranks(self, a2):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        r = build_reduction(CostRRGame(a2, spec), 0)
        assert all(r.target.rk[pv] == 0 for pv in r.target.arena.vertices)

    def test_a2_extended_play_peaks_at_three(self, a2_game):
        r = build_reduction(a2_game, 12)
        ext = extend_lasso(r.memory, Lasso((), ("q", "p")))
        peak = max(r.target.rk[pv] for pv in ext.loop)
        assert peak == 3

    def test_memory_size_within_counter_budget(self):
        rng = random.Random(1)
        for _ in range(10):
            game = random_costrr_game(rng, rng.randint(2, 4), rng.randint(1, 2),
                                      rng.randint(0, 2))
            b = min(cap_bound(game), 8)
            r = build_reduction(game, b)
            d = game.spec.d
            assert len(r.memory) <= (2 * (b + 2) + 1) ** d

    def test_expansion_matches_target(self, a2_game):
        r = build_reduction(a2_game, cap_bound(a2_game))
        validate_expansion(r)

    def test_reduction_checks_on_random_lassos(self):
        # regression guard
        rng = random.Random(2)
        for _ in range(6):
            game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2), 2)
            r = build_reduction(game, cap_bound(game))
            for _ in range(80):
                chk = check_reduction_on_lasso(r, random_lasso(rng, game.arena))
                assert chk.consistent, chk.detail


class TestSolveWithBound:
    def test_a2_wins_at_three(self, a2_game):
        winner, strategy = solve_winner(a2_game, 3)
        assert winner == 0
        assert verify_strategy(a2_game.arena, a2_game.spec, strategy,
                               bound=3).certified

    def test_a2_loses_at_two(self, a2_game):
        winner, strategy = solve_winner(a2_game, 2)
        assert winner == 1
        assert verify_strategy(a2_game.arena, a2_game.spec, strategy,
                               bound=2).certified

    def test_decides_the_initial_vertex_and_builds_on_first_read(self, a2_game,
                                                                  strategies_built):
        # the regions partition {initial}; no strategy is built or lifted
        # until the winner's strategy is read
        for b, region_0, region_1 in ((3, {"q"}, set()), (2, set(), {"q"})):
            strategies_built[0] = 0
            res = solve_with_bound(a2_game, b)
            assert (res.region_0, res.region_1) == (region_0, region_1)
            assert strategies_built[0] == 0
            winner = 0 if region_0 else 1
            assert res.strategy_of(winner).owner == winner
            assert strategies_built[0] > 0

    def test_strategies_are_certified_from_the_initial_vertex_as_the_regions_say(self):
        # the result decides the initial vertex only, and each player's
        # strategy is certified from there exactly when that player wins it
        rng = random.Random(4101)
        certified = [0, 0]
        for _ in range(60):
            game = random_costrr_game(rng, 3, rng.randint(1, 2), 2)
            for b in range(3):
                res = solve_with_bound(game, b)
                for player in (0, 1):
                    wins = game.arena.initial in (res.region_0, res.region_1)[player]
                    verdict = verify_strategy(game.arena, game.spec,
                                              res.strategy_of(player), bound=b)
                    assert verdict.certified == wins
                    certified[player] += wins
        assert min(certified) > 0

    def test_bound_beyond_cap_clamps(self, a2_game):
        winner, _ = solve_winner(a2_game, 10 ** 9)
        assert winner == 0

    def test_builds_reduction_at_clamped_bound(self, a2_game, a3_game):
        # the strategy is lifted through the reduction at the probe that
        # decided it, and declares the pairs of that reduction's memory and
        # the target strategy's that it names; on a3 at bound 0 that memory
        # is smaller than the cap's.  a2 at 10**9 is won at probe 3, whose
        # memory has the cap's size
        for game, b in ((a2_game, 3), (a2_game, 10 ** 9), (a3_game, 0)):
            bound = min(b, cap_bound(game))
            r = build_reduction(game, bound)
            target = solve_sup_with_bound(r.target, bound)
            winner, strategy = solve_winner(game, b)
            tau = target.strategy_of(winner)
            assert strategy.size() == len(named_states(strategy.memory))
            assert strategy.size() <= len(r.memory) * len(tau.memory)


class TestOptimize:
    def test_a2_costs_three(self, a2_game):
        res = optimize(a2_game)
        assert res.cost == 3
        assert verify_strategy(a2_game.arena, a2_game.spec, res.strategy,
                               bound=3).certified
        assert not verify_strategy(a2_game.arena, a2_game.spec, res.strategy,
                                   bound=2).certified

    def test_a3_opponent_picks_dear_answer(self, a3_game):
        res = optimize(a3_game)
        assert res.cost == 5

    def test_zero_cost_game(self, a2):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        res = optimize(CostRRGame(a2, spec))
        assert res.cost == 0

    def test_unanswerable_request_gives_player1(self):
        arena = Arena({"q": 0, "t": 1, "p": 0},
                      [("q", "t"), ("t", "t"), ("t", "p"), ("p", "q")], "q")
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),),
                          {(0, ("q", "t")): 1})
        res = optimize(CostRRGame(arena, spec))
        assert res.cost is INF
        assert res.strategy.owner == 1

    def test_finite_optimum_within_cap(self):
        rng = random.Random(3)
        for _ in range(10):
            game = random_costrr_game(rng, rng.randint(2, 4), 1, 2)
            res = optimize(game)
            if res.cost is not INF:
                assert res.cost <= cap_bound(game)

    def test_finite_cost_strategy_wins_qualitatively(self):
        # finite response cost implies the plain request-response condition
        rng = random.Random(5)
        for _ in range(10):
            game = random_costrr_game(rng, rng.randint(2, 4), 1, 2)
            res = optimize(game)
            if res.cost is INF:
                continue
            rr = RequestResponse(game.spec.pairs)
            assert verify_strategy(game.arena, rr, res.strategy).certified

    def test_player1_witness_below_the_optimum(self):
        # just under the optimum, the opponent's returned strategy is a
        # certified witness that no cheaper play can be forced
        rng = random.Random(8)
        checked = 0
        for _ in range(30):
            game = random_costrr_game(rng, rng.randint(2, 4), 1, 2)
            res = optimize(game)
            if res.cost is INF or res.cost == 0:
                continue
            winner, tau = solve_winner(game, res.cost - 1)
            assert winner == 1
            assert verify_strategy(game.arena, game.spec, tau,
                                   bound=res.cost - 1).certified
            checked += 1
        assert checked >= 3

    def test_matches_response_cost_evaluation(self, a2_game):
        res = optimize(a2_game)
        assert max_response_cost(a2_game, res.strategy, cap_bound(a2_game)) == 3

    def test_lifted_size_is_memory_product(self, a2_game):
        # the winning probe at the optimum 3 built its reduction at 3
        r = build_reduction(a2_game, 3)
        target = solve_sup_with_bound(r.target, 3)
        res = optimize(a2_game)
        assert res.strategy.size() == len(named_states(res.strategy.memory))
        assert res.strategy.size() <= len(r.memory) * len(target.strategy_0.memory)

    def test_trimmed_lifting_certifies_identically(self, a2_game):
        # the lifted strategy is tabulated only where consistent plays can
        # go, declares only the pairs it names and certifies as before
        from rankgames.quantred import lift_strategy

        r = build_reduction(a2_game, cap_bound(a2_game))
        target = solve_sup_with_bound(r.target, 3)
        trimmed = lift_strategy(r, target.strategy_0)
        assert trimmed.size() == len(named_states(trimmed.memory))
        assert trimmed.size() <= len(r.memory) * len(target.strategy_0.memory)
        for bound, expect in ((3, True), (2, False)):
            verdict = verify_strategy(a2_game.arena, a2_game.spec, trimmed,
                                      bound=bound)
            assert verdict.certified == expect


@pytest.mark.parametrize("n, d, max_cost, seeds", [
    (4, 2, 1, range(20)), (20, 3, 2, range(20)), (100, 4, 5, range(3))])
def test_lifted_strategies_declare_the_named_pairs_in_product_order(n, d, max_cost, seeds):
    # the optimal strategy, lifted through the reduction at the optimum,
    # declares exactly the state pairs its initial state and rows name,
    # ordered as in the product of the reduction memory and the target
    # strategy's; it is certified at the optimum and refuted one below
    finite = 0
    for seed in seeds:
        game = random_costrr_game(random.Random(seed), n, d, max_cost, p0_max_outdeg=3)
        res = optimize(game)
        if res.cost is INF:
            continue
        r = build_reduction(game, res.cost)
        target_memory = solve_sup_with_bound(r.target, res.cost).strategy_0.memory
        at1, at2 = ({s: k for k, s in enumerate(m.states)} for m in (r.memory, target_memory))
        states = res.strategy.memory.states
        assert set(states) == named_states(res.strategy.memory)
        order = [(at1[s1], at2[s2]) for s1, s2 in states]
        assert order == sorted(set(order))
        assert res.strategy.size() <= len(r.memory) * len(target_memory)
        assert verify_strategy(game.arena, game.spec, res.strategy, bound=res.cost).certified
        if res.cost > 0:
            assert not verify_strategy(game.arena, game.spec, res.strategy,
                                       bound=res.cost - 1).certified
        finite += 1
    assert finite > 0


def test_optimize_builds_no_more_strategies_than_one_solve(a3_game, strategies_built):
    # the binary search probes several bounds, but only the winning probe's
    # strategy is ever built and lifted
    res = optimize(a3_game)
    by_optimize, strategies_built[0] = strategies_built[0], 0
    winner, _strategy = solve_winner(a3_game, res.cost)
    assert winner == 0
    assert by_optimize <= strategies_built[0]


@pytest.fixture
def reductions_built(monkeypatch):
    """Bounds at which rrcost builds its reductions, in call order."""
    bounds = []
    build = rrcost.build_reduction

    def spy(game, b):
        bounds.append(b)
        return build(game, b)

    monkeypatch.setattr(rrcost, "build_reduction", spy)
    return bounds


def test_optimize_gallops_below_twice_the_optimum(a3_game, reductions_built):
    # probes 0, 1, 3, 7, then bisects 4..7: never the cap, never a bound twice
    res = optimize(a3_game)
    assert res.cost == 5
    assert max(reductions_built) <= 2 * res.cost + 1
    assert cap_bound(a3_game) not in reductions_built
    assert len(set(reductions_built)) == len(reductions_built)


def test_optimize_finishes_the_cap_blowup_instance(monkeypatch):
    # a reduction at this game's cap (3 pairs, 20 vertices) grew past 4 GB;
    # the guard makes a regression fail at once instead
    game = random_costrr_game(random.Random(3), 20, 3, 2, p0_max_outdeg=3)
    cap = cap_bound(game)
    build = rrcost.build_reduction

    def guarded(g, b):
        if b >= cap:
            raise AssertionError(f"reduction built at the cap {cap}")
        return build(g, b)

    monkeypatch.setattr(rrcost, "build_reduction", guarded)
    res = optimize(game)
    assert res.cost == 3
    assert verify_strategy(game.arena, game.spec, res.strategy, bound=3).certified
    winner, tau = solve_winner(game, 2)
    assert winner == 1
    assert verify_strategy(game.arena, game.spec, tau, bound=2).certified


def test_optimum_is_least_winning_bound_by_linear_scan():
    # INF exactly when the plain request-response game is lost; otherwise
    # the galloping optimum equals a linear scan over the bounds
    rng = random.Random(20)
    finite = infinite = 0
    for _ in range(200):
        game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2),
                                  rng.randint(0, 3))
        res = optimize(game)
        rr = solve_request_response(game.arena, game.spec.pairs)
        assert (res.cost is INF) == (game.arena.initial not in rr.region_0)
        if res.cost is INF:
            infinite += 1
            continue
        finite += 1
        top = min(cap_bound(game), res.cost + 2)
        winners = [solve_winner(game, b)[0] for b in range(top + 1)]
        assert winners == [1] * res.cost + [0] * (top + 1 - res.cost), game
    assert finite >= 50 and infinite >= 10


def test_solve_far_above_the_optimum_stops_at_the_first_winning_probe(reductions_built):
    # the reduction at bound 40 took 15 s and 272 MB, at 200 it did not
    # finish; galloping stops at the first winning probe, 3
    game = random_costrr_game(random.Random(3), 20, 3, 2, p0_max_outdeg=3)
    for b in (40, 200):
        reductions_built.clear()
        winner, strategy = solve_winner(game, b)
        assert winner == 0
        assert reductions_built == [0, 1, 3]
        assert verify_strategy(game.arena, game.spec, strategy, bound=b).certified


def test_solve_around_the_optimum_agrees_with_optimize(reductions_built):
    # Player 0 wins exactly from the optimum on, each verdict's strategy is
    # certified at its bound, and bound 0 is one probe
    rng = random.Random(33)
    infinite = 0
    for _ in range(80):
        game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2),
                                  rng.randint(0, 3))
        cost = optimize(game).cost
        cap = cap_bound(game)
        bounds = {0, cap + 5}
        if cost is INF:
            infinite += 1
        else:
            bounds |= {b for b in (cost - 1, cost, cost + 1) if b >= 0}
        for b in sorted(bounds):
            reductions_built.clear()
            winner, strategy = solve_winner(game, b)
            assert winner == (0 if cost is not INF and b >= cost else 1), (game, b)
            assert verify_strategy(game.arena, game.spec, strategy, bound=b).certified
            if b == 0:
                assert reductions_built == [0]
    assert infinite >= 5
