import random

import pytest

from rankgames.arena import Lasso
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.gen import random_costrr_game, random_lasso
from rankgames.objectives import (Buchi, CoBuchi, CostRRSpec, RequestResponse,
                                  Safety, SafetyAndCoBuchi, cost_of_response,
                                  cost_rr_lasso, eval_qualitative,
                                  rank_cost_lasso)

from conftest import play_positions, rotated, with_loop_repeated


@pytest.fixture
def a2_spec():
    return CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {(0, ("q", "p")): 3})


class TestEvalQualitative:
    def test_safety_everything_safe(self, a1):
        lasso = Lasso(("a",), ("b", "a"))
        assert eval_qualitative(Safety(frozenset({"a", "b"})), lasso)

    def test_safety_violation(self):
        assert not eval_qualitative(Safety(frozenset({"a"})), Lasso((), ("a", "b")))

    def test_buchi_loop_hit(self, a1):
        assert eval_qualitative(Buchi(frozenset({"b"})), Lasso(("a",), ("b",)))

    def test_buchi_prefix_only_visit_loses(self):
        assert not eval_qualitative(Buchi(frozenset({"a"})), Lasso(("a",), ("b",)))

    def test_cobuchi(self):
        assert eval_qualitative(CoBuchi(frozenset({"a"})), Lasso(("a",), ("b",)))
        assert not eval_qualitative(CoBuchi(frozenset({"b"})), Lasso(("a",), ("b",)))

    def test_safety_and_cobuchi(self):
        obj = SafetyAndCoBuchi(frozenset({"a", "b"}), frozenset({"a"}))
        assert eval_qualitative(obj, Lasso(("a",), ("b",)))
        assert not eval_qualitative(obj, Lasso((), ("a", "b")))

    def test_rr_answered(self):
        obj = RequestResponse(((frozenset({"q"}), frozenset({"p"})),))
        assert eval_qualitative(obj, Lasso((), ("q", "p")))

    def test_rr_unanswered_self_loop(self):
        obj = RequestResponse(((frozenset({"q"}), frozenset({"p"})),))
        assert not eval_qualitative(obj, Lasso((), ("q",)))

    def test_rr_self_answering_vertex(self):
        # a vertex in both sets answers its own request
        obj = RequestResponse(((frozenset({"x"}), frozenset({"x"})),))
        assert eval_qualitative(obj, Lasso((), ("x",)))

    def test_rr_prefix_request_answered_in_loop(self):
        obj = RequestResponse(((frozenset({"q"}), frozenset({"p"})),))
        assert eval_qualitative(obj, Lasso(("q", "a"), ("a", "p")))
        assert not eval_qualitative(obj, Lasso(("q", "p"), ("q",)))


class TestCostOfResponse:
    def test_non_request_position_costs_zero(self, a2_spec):
        assert cost_of_response(a2_spec, Lasso((), ("q", "p")), 1, 0) == 0

    def test_single_edge_sum(self, a2_spec):
        assert cost_of_response(a2_spec, Lasso((), ("q", "p")), 0, 0) == 3

    def test_unanswerable_is_infinite(self, a2_spec):
        assert cost_of_response(a2_spec, Lasso((), ("q",)), 0, 0) is INF

    def test_self_answer_costs_zero(self):
        spec = CostRRSpec(((frozenset({"x"}), frozenset({"x"})),),
                          {(0, ("x", "x")): 7})
        assert cost_of_response(spec, Lasso((), ("x",)), 0, 0) == 0

    def test_all_zero_costs(self):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        assert cost_of_response(spec, Lasso((), ("q", "p")), 0, 0) == 0

    def test_position_out_of_range(self, a2_spec):
        with pytest.raises(InputError):
            cost_of_response(a2_spec, Lasso((), ("q", "p")), 2, 0)


class TestCostRRLasso:
    def test_a2_alternation(self, a2_spec):
        assert cost_rr_lasso(a2_spec, Lasso((), ("q", "p"))) == 3

    def test_zero_costs_and_satisfied(self):
        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        assert cost_rr_lasso(spec, Lasso((), ("q", "p"))) == 0

    def test_violating_lasso_is_infinite(self, a2_spec):
        assert cost_rr_lasso(a2_spec, Lasso(("q",), ("x",))) is INF

    def test_coincides_with_qualitative_at_zero_costs(self):
        rng = random.Random(4242)
        for _ in range(30):
            game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2), 0)
            lasso = random_lasso(rng, game.arena)
            cost = cost_rr_lasso(game.spec, lasso)
            wins = eval_qualitative(game.spec.rr_objective(), lasso)
            assert (cost == 0) == wins
            assert (cost is INF) == (not wins)

    def test_deep_unroll_oracle(self):
        # the one-period maximum agrees with a brutally deep position scan
        rng = random.Random(1234)
        for _ in range(40):
            game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2),
                                      rng.randint(0, 3))
            spec = game.spec
            lasso = random_lasso(rng, game.arena)
            n_pre, n_loop = len(lasso.prefix), len(lasso.loop)
            deep = play_positions(lasso, n_pre + 20 * n_loop + 1)
            worst = 0
            for j in range(n_pre + 10 * n_loop):
                for c, (q, p) in enumerate(spec.pairs):
                    if deep[j] not in q:
                        continue
                    total, answered = 0, False
                    for i in range(j, len(deep)):
                        if deep[i] in p:
                            answered = True
                            break
                        if i + 1 < len(deep):
                            total += spec.cost(c, (deep[i], deep[i + 1]))
                    worst = max(worst, total if answered else INF)
            assert cost_rr_lasso(spec, lasso) == worst


class TestRankCost:
    def test_zero_ranks(self, a1):
        rk = {"a": 0, "b": 0}
        lasso = Lasso(("a",), ("b",))
        obj = Safety(frozenset({"a", "b"}))
        assert rank_cost_lasso(rk, obj, "sup", lasso) == 0
        assert rank_cost_lasso(rk, obj, "lim", lasso) == 0

    def test_sup_sees_prefix_lim_does_not(self):
        rk = {"h": 5, "x": 2, "y": 1}
        lasso = Lasso(("h",), ("x", "y"))
        obj = Safety(frozenset({"h", "x", "y"}))
        assert rank_cost_lasso(rk, obj, "sup", lasso) == 5
        assert rank_cost_lasso(rk, obj, "lim", lasso) == 2

    def test_losing_lasso_is_infinite(self):
        rk = {"a": 0, "b": 0}
        assert rank_cost_lasso(rk, Safety(frozenset({"a"})), "sup",
                               Lasso((), ("a", "b"))) is INF

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            rank_cost_lasso({"a": 0}, Safety(frozenset({"a"})), "max", Lasso((), ("a",)))

    def test_lim_at_most_sup(self):
        rng = random.Random(77)
        for _ in range(40):
            from rankgames.gen import random_ranked_game
            game = random_ranked_game(rng, rng.randint(2, 5), 3, mode="sup")
            lasso = random_lasso(rng, game.arena)
            sup = rank_cost_lasso(game.rk, game.objective, "sup", lasso)
            lim = rank_cost_lasso(game.rk, game.objective, "lim", lasso)
            assert lim <= sup


class TestRepresentationIndependence:
    def test_all_evaluators_ignore_lasso_form(self):
        rng = random.Random(31337)
        for _ in range(25):
            game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2),
                                      rng.randint(0, 2))
            lasso = random_lasso(rng, game.arena)
            rk = {v: rng.randint(0, 3) for v in game.arena.vertices}
            obj = game.spec.rr_objective()
            forms = [with_loop_repeated(lasso, k) for k in (2, 3, 4)]
            forms += [rotated(lasso, rng.randint(1, 6)) for _ in range(3)]
            for other in forms:
                assert eval_qualitative(obj, other) == eval_qualitative(obj, lasso)
                assert cost_rr_lasso(game.spec, other) == cost_rr_lasso(game.spec, lasso)
                for mode in ("sup", "lim"):
                    assert rank_cost_lasso(rk, obj, mode, other) == \
                        rank_cost_lasso(rk, obj, mode, lasso)
