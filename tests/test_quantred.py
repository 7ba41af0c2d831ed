import dataclasses
import random

import pytest

from rankgames.arena import Lasso
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.gen import random_costrr_game, random_lasso
from rankgames.memory import trivial_memory
from rankgames.objectives import RequestResponse, Safety
from rankgames.quantred import Cap, QuantReduction, lift_strategy
from rankgames.ranked import RankedGame
from rankgames.rrcost import build_reduction, cap_bound
from pullback_reference import named_states
from theory import (check_reduction_on_lasso, compose, compose_functions, expand,
                    extend_lasso, is_correction, relabel_game, trivial_reduction,
                    validate_expansion)


def lift_ranked(game: RankedGame):
    """Target builder for a trivial reduction of a vertex-ranked game."""
    def build(product, mem):
        lifted = _objective_over(game.objective, product)
        rk = {pv: game.rk[pv[0]] for pv in product.vertices}
        return RankedGame(product, lifted, rk, game.mode)
    return build


def _objective_over(obj, product):
    verts = product.vertices
    if isinstance(obj, RequestResponse):
        return RequestResponse(tuple(
            (frozenset(pv for pv in verts if pv[0] in q),
             frozenset(pv for pv in verts if pv[0] in p)) for q, p in obj.pairs))
    fields = dataclasses.asdict(obj)
    lifted = {k: frozenset(pv for pv in verts if pv[0] in v)
              for k, v in fields.items()}
    return type(obj)(**lifted)


class TestIsCorrection:
    def test_cap_for_its_own_parameter(self):
        for b in (0, 1, 5, INF):
            assert is_correction(Cap(b), b)

    def test_cap_below_its_bound(self):
        assert is_correction(Cap(5), 3)
        assert not is_correction(Cap(5), 6)
        assert not is_correction(Cap(5), INF)

    def test_invalid_correction_names_its_parameter(self, a2_game):
        r = build_reduction(a2_game, 3)
        with pytest.raises(InputError) as exc:
            QuantReduction(r.memory, Cap(3), INF, r.source, r.target)
        assert str(exc.value) == \
            "function Cap(bound=3) is not a valid correction for parameter inf"


class TestComposeFunctions:
    def test_two_caps_clamp_at_minimum(self):
        f = compose_functions(Cap(5), Cap(7))
        assert isinstance(f, Cap) and f.bound == 5
        assert f.apply(3) == 3 and f.apply(9) == 5 and f.apply(INF) is INF

    def test_identity_is_neutral(self):
        f = compose_functions(Cap(INF), Cap(3))
        for x in (0, 1, 2, 3, 4, 10, INF):
            assert f.apply(x) == Cap(3).apply(x)


class TestComposeReductions:
    def _capped_rank_target(self, source: RankedGame, clamp: int):
        """Reduce a ranked game to itself with ranks clamped at ``clamp``;
        play costs map through min(clamp, cost), the cap at ``clamp``."""
        mem = trivial_memory(source.arena)
        product = expand(source.arena, mem)
        lifted = _objective_over(source.objective, product)
        rk = {pv: min(source.rk[pv[0]], clamp) for pv in product.vertices}
        target = RankedGame(product, lifted, rk, source.mode)
        return QuantReduction(mem, Cap(clamp), clamp, source, target)

    def test_parameter_case_split(self, a2_game):
        # the first reduction carries parameter b1 + 1 with the matching cap
        # function; chaining with a clamp at b2 keeps b1 + 1 when b2 covers
        # it and otherwise drops to the largest value the cap keeps within b2
        for b1 in range(0, 7):
            for b2 in range(0, 7):
                r1 = build_reduction(a2_game, b1)
                r2 = self._capped_rank_target(r1.target, b2)
                composed = compose(r1, r2)
                inner = b1 + 1
                want = inner if b2 >= inner else b2
                assert composed.b == want, (b1, b2)

    def test_identity_composition_preserves_checks(self, a2_game):
        r1 = build_reduction(a2_game, cap_bound(a2_game))
        r2 = trivial_reduction(r1.target, lift_ranked(r1.target))
        composed = compose(r1, r2)
        assert len(composed.memory) == len(r1.memory) * 1
        rng = random.Random(40)
        for _ in range(60):
            lasso = random_lasso(rng, a2_game.arena)
            assert check_reduction_on_lasso(r1, lasso).consistent
            assert check_reduction_on_lasso(composed, lasso).consistent

    def test_composition_with_rank_clamp(self, a2_game):
        r1 = build_reduction(a2_game, cap_bound(a2_game))
        r2 = self._capped_rank_target(r1.target, 5)
        composed = compose(r1, r2)
        rng = random.Random(41)
        for _ in range(120):
            lasso = random_lasso(rng, a2_game.arena)
            first = check_reduction_on_lasso(r1, lasso)
            second = check_reduction_on_lasso(
                r2, extend_lasso(r1.memory, lasso))
            both = check_reduction_on_lasso(composed, lasso)
            if first.consistent and second.consistent:
                assert both.consistent, both.detail

    def test_composed_functions_are_caps(self, a2_game):
        rng = random.Random(43)
        for b in (0, 2, 5):
            r1 = build_reduction(a2_game, b)
            composed = compose(r1, trivial_reduction(r1.target, lift_ranked(r1.target)))
            assert composed.f == Cap(b + 1) and composed.b == b + 1
            for _ in range(40):
                lasso = random_lasso(rng, a2_game.arena)
                assert check_reduction_on_lasso(composed, lasso).consistent
        r1 = trivial_reduction(a2_game, lambda product, mem: relabel_game(
            a2_game, lambda v: (v, 0)))
        composed = compose(r1, trivial_reduction(r1.target, lambda product, mem:
                                                 relabel_game(r1.target, lambda v: (v, 0))))
        assert composed.f == Cap(INF) and composed.b is INF

    def test_mismatched_chain_rejected(self, a2_game, a3_game):
        r1 = build_reduction(a2_game, 3)
        r3 = build_reduction(a3_game, 3)
        with pytest.raises(InputError, match="chain"):
            compose(r1, r3)


class TestCheckReduction:
    def test_trivial_reduction_always_consistent(self, a3_game):
        r = trivial_reduction(a3_game, lambda product, mem: _trivial_cost_target(
            a3_game, product))
        validate_expansion(r)
        rng = random.Random(17)
        for _ in range(50):
            assert check_reduction_on_lasso(r, random_lasso(rng, a3_game.arena)).consistent

    def test_lemma_style_reduction_on_a2(self, a2_game):
        r = build_reduction(a2_game, 13)
        chk = check_reduction_on_lasso(r, Lasso((), ("q", "p")))
        assert chk.consistent
        assert chk.source_cost == 3 and chk.target_cost == 3

    def test_corrupted_target_reports_violation(self, a2_game):
        r = build_reduction(a2_game, 13)
        broken_rk = dict(r.target.rk)
        bumped = max(broken_rk, key=lambda pv: broken_rk[pv])
        broken_rk[bumped] = broken_rk[bumped] + 1
        broken = QuantReduction(
            r.memory, r.f, r.b, r.source,
            RankedGame(r.target.arena, r.target.objective, broken_rk, "sup"))
        rng = random.Random(23)
        verdicts = [check_reduction_on_lasso(broken, random_lasso(rng, a2_game.arena))
                    for _ in range(80)]
        bad = [v for v in verdicts if not v.consistent]
        assert bad
        assert "must map to" in bad[0].detail or "needs target" in bad[0].detail

    def test_target_below_the_floor_reports_violation(self, a1):
        safe = Safety(frozenset(a1.vertices))
        twos = RankedGame(a1, safe, {v: 2 for v in a1.vertices}, "sup")
        zeros = RankedGame(a1, safe, {v: 0 for v in a1.vertices}, "sup")
        r = trivial_reduction(zeros, lift_ranked(zeros))
        # every play of twos costs 2 >= b = 1, its extension costs 0 < f(1)
        low = QuantReduction(r.memory, Cap(INF), 1, twos, r.target)
        chk = check_reduction_on_lasso(low, Lasso((), ("a", "b")))
        assert not chk.consistent
        assert (chk.source_cost, chk.target_cost) == (2, 0)
        assert chk.detail == "cost 2 at or above parameter 1 needs target cost >= 1, got 0"

    def test_downward_closure(self, a2_game):
        r = build_reduction(a2_game, cap_bound(a2_game))
        rng = random.Random(29)
        lassos = [random_lasso(rng, a2_game.arena) for _ in range(40)]
        assert all(check_reduction_on_lasso(r, l).consistent for l in lassos)
        for smaller in (r.b - 1, 3, 1, 0):
            weakened = QuantReduction(r.memory, r.f, smaller, r.source, r.target)
            assert all(check_reduction_on_lasso(weakened, l).consistent
                       for l in lassos)

    def test_contrapositives(self):
        rng = random.Random(99)
        for _ in range(8):
            game = random_costrr_game(rng, rng.randint(2, 4), 1, 2)
            b = cap_bound(game)
            r = build_reduction(game, b)
            for _ in range(40):
                lasso = random_lasso(rng, game.arena)
                src = r.source.lasso_cost(lasso)
                tgt = r.target.lasso_cost(extend_lasso(r.memory, lasso))
                for bp in range(0, min(b + 1, 8)):
                    fb = r.f.apply(bp)
                    if tgt < fb:
                        assert src < bp
                    if tgt == fb:
                        assert src == bp


def _trivial_cost_target(game, product):
    from rankgames.objectives import CostRRSpec
    from rankgames.rrcost import CostRRGame

    pairs = tuple(
        (frozenset(pv for pv in product.vertices if pv[0] in q),
         frozenset(pv for pv in product.vertices if pv[0] in p))
        for q, p in game.spec.pairs)
    costs = {}
    for (c, e), w in game.spec.edge_costs.items():
        for pe in product.edges:
            if (pe[0][0], pe[1][0]) == e:
                costs[(c, pe)] = w
    return CostRRGame(product, CostRRSpec(pairs, costs))


class TestCostRRRelabeled:
    """``relabel_game`` on a cost-RR game builds the target of a trivial
    reduction of it, and ``compose`` calls it on a cost-RR second target."""

    @staticmethod
    def _trivial(game):
        return trivial_reduction(game, lambda product, mem: relabel_game(
            game, lambda v: (v, 0)))

    def test_equals_the_trivial_target_over_the_expansion(self, a2_game, a3_game):
        for game in (a2_game, a3_game):
            product = expand(game.arena, trivial_memory(game.arena))
            assert relabel_game(game, lambda v: (v, 0)) == _trivial_cost_target(game, product)

    def test_composed_trivial_reductions_stay_consistent(self, a2_game, a3_game):
        rng = random.Random(52)
        for game in (a2_game, a3_game):
            r1 = self._trivial(game)
            composed = compose(r1, self._trivial(r1.target))
            assert composed.target.arena.initial == (game.arena.initial, (0, 0))
            for _ in range(50):
                chk = check_reduction_on_lasso(composed, random_lasso(rng, game.arena))
                assert chk.consistent, chk.detail


class TestLiftStrategy:
    def test_trivial_reduction_keeps_moves(self, a3_game):
        r = trivial_reduction(a3_game, lambda product, mem: _trivial_cost_target(
            a3_game, product))
        from rankgames.rrcost import solve_with_bound

        # borrow a solved strategy on the product via the real pipeline
        res = solve_with_bound(a3_game, 5)
        winner = 0 if a3_game.arena.initial in res.region_0 else 1
        strat = res.strategy_of(winner)
        assert winner == 0
        lifted_size = strat.size()
        assert lifted_size >= 1

    def test_size_is_exact_product(self, a2_game):
        B = cap_bound(a2_game)
        r = build_reduction(a2_game, B)
        from rankgames.ranked import solve_sup_with_bound

        res = solve_sup_with_bound(r.target, 3)
        lifted = lift_strategy(r, res.strategy_0)
        assert lifted.size() == len(named_states(lifted.memory))
        assert lifted.size() <= len(r.memory) * len(res.strategy_0.memory)
