"""Pulling product strategies back to the source arena, held to the
reference walks in ``pullback_reference``.

Memory products, composed strategies, strategies lifted through
quantitative reductions (composed ones included) and request-response
strategies read back through their numbered product must all agree with
the reference on owner, states, initial state, update rows and moves.
"""

import random

import pullback_reference as ref
import rr_reference
from rankgames import memory, qualsolve, rrcost
from rankgames.arena import Arena, _mask, attractor
from rankgames.extnat import INF
from rankgames.gen import random_arena, random_costrr_game, random_subset
from rankgames.memory import FiniteStateStrategy, MemoryStructure, trivial_memory
from rankgames.objectives import RequestResponse
from rankgames.qualsolve import _buchi, rr_product, solve_request_response
from rankgames.quantred import Cap, QuantReduction, lift_strategy
from rankgames.ranked import RankedGame, solve_sup_with_bound
from rankgames.rrcost import build_reduction, cap_bound, optimize
from theory import compose, compose_strategy, expand, product_memory


def _rows(strategy):
    mem = strategy.memory
    return strategy.owner, mem.states, mem.initial, mem.update, strategy.next_move


def _random_memory(rng, arena, states):
    """Memory on ``states`` with a random row for every (state, edge)."""
    update = {(s, e): rng.choice(states) for s in states for e in sorted(arena.edges)}
    return MemoryStructure(states, rng.choice(states), update)


def _random_strategy(rng, product, owner):
    """Random strategy on ``product`` with a memory of up to three letters."""
    m2 = _random_memory(rng, product, tuple("xyz"[:rng.randint(1, 3)]))
    moves = {(pv, s): rng.choice(product.succ[pv])
             for pv in product.owned_by(owner) for s in m2.states}
    return FiniteStateStrategy(owner, m2, moves)


def _assert_lifts_match(r, target_result, arena):
    for player in (0, 1):
        strat = target_result.strategy_of(player)
        assert _rows(lift_strategy(r, strat)) == \
            _rows(ref.lifted_strategy(r.memory, strat, arena))


def _toggled(game: RankedGame) -> QuantReduction:
    """Reduction of a ranked request-response game to its product with a
    two-state memory that flips on every edge, ranks and pairs carried
    over."""
    arena = game.arena
    mem = MemoryStructure((0, 1), 0, {(s, e): 1 - s for s in (0, 1) for e in arena.edges})
    product = expand(arena, mem)
    pairs = tuple((frozenset(pv for pv in product.vertices if pv[0] in q),
                   frozenset(pv for pv in product.vertices if pv[0] in p))
                  for q, p in game.objective.pairs)
    rk = {pv: game.rk[pv[0]] for pv in product.vertices}
    target = RankedGame(product, RequestResponse(pairs), rk, game.mode)
    return QuantReduction(mem, Cap(INF), INF, game, target)


class TestMemoryProductsAndComposedStrategies:
    def test_random_arenas_with_random_memories(self):
        rng = random.Random(1101)
        for _ in range(60):
            arena = random_arena(rng, rng.randint(2, 8))
            m1 = _random_memory(rng, arena, tuple(range(rng.randint(1, 3))))
            product = expand(arena, m1)
            m2 = _random_memory(rng, product, ("x", "y"))
            got, want = product_memory(m1, m2, arena), ref.product_memory(m1, m2, arena)
            assert (got.states, got.initial, got.update) == \
                (want.states, want.initial, want.update)
            for owner in (0, 1):
                strat = _random_strategy(rng, product, owner)
                assert _rows(compose_strategy(m1, strat, arena)) == \
                    _rows(ref.compose_strategy(m1, strat, arena))


class TestLiftedReductionStrategies:
    def test_bounds_zero_optimum_and_cap(self, a2_game, a3_game):
        rng = random.Random(1102)
        games = [a2_game, a3_game] + [random_costrr_game(rng, 5, 2, 1) for _ in range(10)]
        costs = set()
        for game in games:
            cost = optimize(game).cost
            costs.add(cost)
            for b in sorted({0, cap_bound(game)} | ({cost} if cost != INF else set())):
                r = build_reduction(game, b)
                _assert_lifts_match(r, solve_sup_with_bound(r.target, b), game.arena)
        assert {0, 3, INF} <= costs

    def test_composed_reduction(self, a2_game):
        rng = random.Random(1103)
        games = [a2_game] + [random_costrr_game(rng, 5, 2, 1) for _ in range(4)]
        for game in games:
            for b in (0, 2):
                r1 = build_reduction(game, b)
                composed = compose(r1, _toggled(r1.target))
                assert len(composed.memory) == 2 * len(r1.memory)
                _assert_lifts_match(composed, solve_sup_with_bound(composed.target, b),
                                    game.arena)


def _six_pair_game():
    """A 20-vertex request-response game with 6 pairs."""
    rng = random.Random(2021)
    arena = random_arena(rng, 20, p0_max_outdeg=3)
    return arena, tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                        for _ in range(6))


class TestRequestResponseStrategies:
    def _assert_builder_matches(self, arena, pairs, within):
        product = rr_product(arena, pairs, within)
        # the Buchi loop on the product's ids, as solve_request_response runs it
        accept = bytes([ptr not in opened for _v, (opened, ptr) in product.pairs])
        res = _buchi(product, accept, _mask(product), 0)
        ref_mem, _seeds, ref_product = rr_reference.rr_memory(arena, pairs, within)
        name = product.pairs
        starts = [name[i] for i in product.starts]
        got = solve_request_response(arena, pairs, within)
        for player in (0, 1):
            moves = {name[i]: name[k] for i, k in res.moves(player).items()}
            want = ref.compose_numbered(ref_mem, ref_product, starts, moves, player)
            assert _rows(got.build(player)) == _rows(want)

    def test_inside_and_outside_an_alive_set(self):
        rng = random.Random(1104)
        for i in range(16):
            arena = random_arena(rng, 12, p0_max_outdeg=3)
            pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                          for _ in range(1 + i % 4))
            region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.1))
            keep = frozenset(arena.vertices) - region
            for within in (None, keep or None):
                self._assert_builder_matches(arena, pairs, within)

    def test_no_one_state_memory_is_tabulated(self, monkeypatch):
        # the positional product moves are read back without a one-state
        # memory holding a row per product edge
        calls = []

        def spy(arena):
            calls.append(arena)
            return trivial_memory(arena)
        for module in (memory, qualsolve):
            monkeypatch.setattr(module, "trivial_memory", spy, raising=False)
        arena, pairs = _six_pair_game()
        for player in (0, 1):
            assert solve_request_response(arena, pairs).strategy_of(player).next_move
        assert calls == []

    def test_the_buchi_game_is_solved_on_the_numbered_product(self, monkeypatch):
        # no arena is built for the product: the Buchi solver reads the
        # numbered product itself
        arena, pairs = _six_pair_game()
        calls = []
        build = Arena._set

        def spy(self, owner, edges):
            calls.append(len(owner))
            return build(self, owner, edges)
        monkeypatch.setattr(Arena, "_set", spy)
        res = solve_request_response(arena, pairs)
        for player in (0, 1):
            assert res.strategy_of(player).next_move
        assert calls == []


class TestDeclaredStatesAreNamed:
    """Every memoryful strategy the package builds declares exactly the
    states its initial state and rows name, in the product's order: each
    memory it runs declares its own states sorted, so its states and state
    pairs come out sorted."""

    @staticmethod
    def _assert_named(strategy):
        states = strategy.memory.states
        assert set(states) == ref.named_states(strategy.memory)
        assert list(states) == sorted(states)
        return len(states) > 1

    def test_request_response_inside_and_outside_an_alive_set(self):
        rng = random.Random(1105)
        memoryful = 0
        for i in range(16):
            arena = random_arena(rng, 12, p0_max_outdeg=3)
            pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                          for _ in range(1 + i % 4))
            region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.1))
            for within in (None, frozenset(arena.vertices) - region or None):
                res = solve_request_response(arena, pairs, within)
                memoryful += sum(self._assert_named(res.strategy_of(p)) for p in (0, 1))
        arena, pairs = _six_pair_game()
        res = solve_request_response(arena, pairs)
        memoryful += sum(self._assert_named(res.strategy_of(p)) for p in (0, 1))
        assert memoryful > 30

    def test_ranked_sup_probes_over_request_response(self):
        rng = random.Random(1106)
        memoryful = 0
        for i in range(20):
            arena = random_arena(rng, rng.randint(2, 10), p0_max_outdeg=3)
            pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                          for _ in range(1 + i % 3))
            game = RankedGame(arena, RequestResponse(pairs),
                              {v: rng.randint(0, 4) for v in arena.vertices}, "sup")
            for b in game.rank_values():
                res = solve_sup_with_bound(game, b)
                memoryful += sum(self._assert_named(res.strategy_of(p)) for p in (0, 1))
        assert memoryful > 30

    def test_cost_request_response_lifted_and_at_cost_inf(self):
        rng = random.Random(1107)
        memoryful = infinite = 0
        for _ in range(30):
            game = random_costrr_game(rng, rng.randint(3, 6), 2, 2)
            for b in range(cap_bound(game) + 1):
                res = rrcost.solve_with_bound(game, b)
                memoryful += sum(self._assert_named(res.strategy_of(p)) for p in (0, 1))
            best = optimize(game)
            if best.cost == INF:
                infinite += 1
                self._assert_named(best.strategy)
        assert memoryful > 30 and infinite > 3
