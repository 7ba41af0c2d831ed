"""Acceptance suite: oracle equivalences, closed-form values, end-to-end
optimization, and the scale smoke check.

Each test prints one PASS line with its headline numbers; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  Randomized parts
are seeded; instance generators keep Player 0 branching sparse enough for
the strategy-enumeration oracles to stay within their candidate guards.
"""

import itertools
import random
import time
from functools import lru_cache

import pytest

import rr_reference
from oracles import (_candidate_graphs, budget_oracle, enumerate_regions,
                     enumerate_solve, max_response_cost, simulate_faults)
from pullback_reference import named_states
from rankgames.arena import Arena
from rankgames.extnat import INF, is_finite
from rankgames.gen import (random_arena, random_costrr_game,
                           random_fault_arena, random_lasso,
                           random_ranked_game, random_subset)
from rankgames.memory import FiniteStateStrategy, trivial_memory
from rankgames.objectives import Buchi, CoBuchi, RequestResponse, Safety
from rankgames.qualsolve import (solve_buchi, solve_cobuchi,
                                 solve_request_response, solve_safety)
from rankgames.quantred import Cap, QuantReduction, lift_strategy
from rankgames.ranked import (RankedCondition, RankedGame, optimize,
                              solve_sup_with_bound, solve_with_bound)
from rankgames.resilience import compute_val, max_resilience
from rankgames.rrcost import (CostRRGame, build_reduction, cap_bound,
                              optimize as optimize_cost,
                              solve_with_bound as solve_cost)
from rankgames.verify import verify_strategy
from theory import (check_reduction_on_lasso, compose, expand, extend_lasso,
                    product_memory, relabel_game, relabel_objective, trivial_reduction)


# ---------------------------------------------------------------------------
# shared instances

def a2_game():
    arena = Arena({"q": 0, "p": 0}, [("q", "p"), ("p", "q")], "q")
    from rankgames.objectives import CostRRSpec

    spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {(0, ("q", "p")): 3})
    return CostRRGame(arena, spec)


def a3_game():
    arena = Arena({"q": 0, "s": 1, "p": 0, "r": 0},
                  [("q", "s"), ("s", "p"), ("s", "r"), ("p", "q"), ("r", "q")], "q")
    from rankgames.objectives import CostRRSpec

    spec = CostRRSpec(((frozenset({"q"}), frozenset({"p", "r"})),),
                      {(0, ("q", "s")): 1, (0, ("s", "p")): 4, (0, ("s", "r")): 2})
    return CostRRGame(arena, spec)


def fs_arena():
    from rankgames.resilience import FaultArena

    return FaultArena(Arena({"s": 0, "u": 0}, [("s", "s"), ("u", "u")], "s"),
                      {("s", "u")}, {"s"})


def fe_arena():
    from rankgames.resilience import FaultArena

    return FaultArena(
        Arena({"s": 0, "u": 0, "x": 1}, [("s", "s"), ("u", "s"), ("x", "x")], "u"),
        {("s", "u"), ("u", "x")}, {"s", "u"})


# ---------------------------------------------------------------------------
# criterion 1: qualitative solvers against exhaustive enumeration

def _successor_choices(names):
    subsets = []
    for size in range(1, len(names) + 1):
        subsets.extend(itertools.combinations(names, size))
    return subsets


def _exhaustive_small_arenas(cap=5000):
    arenas = []
    for n in (1, 2, 3):
        names = [f"v{i}" for i in range(n)]
        subsets = _successor_choices(names)
        for owner_bits in range(2 ** n):
            owner = {names[i]: (owner_bits >> i) & 1 for i in range(n)}
            for choice in itertools.product(subsets, repeat=n):
                edges = [(names[i], w) for i in range(n) for w in choice[i]]
                arenas.append(Arena(owner, edges, "v0"))
    names = [f"v{i}" for i in range(4)]
    subsets = _successor_choices(names)
    rng = random.Random(48112)
    seen = set()
    while len(arenas) < cap:
        owner_bits = rng.randrange(16)
        choice = tuple(rng.randrange(len(subsets)) for _ in range(4))
        key = (owner_bits, choice)
        if key in seen:
            continue
        seen.add(key)
        owner = {names[i]: (owner_bits >> i) & 1 for i in range(4)}
        edges = [(names[i], w) for i in range(4) for w in subsets[choice[i]]]
        arenas.append(Arena(owner, edges, "v0"))
    return arenas


def test_c1_qualitative_solvers_match_enumeration_oracle():
    started = time.time()
    arenas = _exhaustive_small_arenas(cap=5000)
    rng = random.Random(515)
    arenas += [random_arena(rng, rng.randint(5, 6), p0_max_outdeg=2)
               for _ in range(200)]
    rng_targets = random.Random(99)
    disagreements = 0
    for idx, arena in enumerate(arenas):
        template = trivial_memory(arena)
        target = frozenset(v for v in arena.vertices if rng_targets.random() < 0.5)
        for objective, solver in ((Safety(target), solve_safety),
                                  (Buchi(target), solve_buchi),
                                  (CoBuchi(target), solve_cobuchi)):
            res = solver(arena, target)
            oracle = enumerate_regions(arena, objective, template)
            if (res.region_0, res.region_1) != oracle:
                disagreements += 1
        if idx % 500 == 0:
            # periodically exercise the full oracle, strategies included
            full = enumerate_solve(arena, Safety(target), template)
            assert full.region_0 == solve_safety(arena, target).region_0
    elapsed = time.time() - started
    assert disagreements == 0
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.0f}s"
    print(f"\nACCEPTANCE qualitative-oracle-equivalence: PASS "
          f"({len(arenas)} arenas x 3 objectives, 0 disagreements, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 2: request-response against the pointer-memory oracle

def _rr_instances(count=100):
    rng = random.Random(7321)
    games = []
    while len(games) < count:
        d = 1 if len(games) % 2 == 0 else 2
        n = rng.randint(2, 6) if d == 1 else rng.randint(2, 3)
        arena = random_arena(rng, n, p0_max_outdeg=2)
        pairs = tuple((random_subset(rng, arena, 0.5), random_subset(rng, arena, 0.5))
                      for _ in range(d))
        games.append((arena, pairs))
    return games


def test_c2_request_response_oracle_and_memory_bound():
    checked = 0
    for arena, pairs in _rr_instances(100):
        d = len(pairs)
        res = solve_request_response(arena, pairs)
        mem, seeds, _product = rr_reference.rr_memory(arena, pairs)
        oracle = enumerate_regions(arena, RequestResponse(pairs), mem,
                                   seeds=seeds.items(), guard=10 ** 6)
        assert (res.region_0, res.region_1) == oracle, (arena, pairs)
        assert res.strategy_0.size() <= d * 2 ** d
        for v in sorted(res.region_0):
            state = (rr_reference.rr_seed_state(pairs, v), 0)
            assert verify_strategy(arena, RequestResponse(pairs), res.strategy_0,
                                   start=v, start_state=state).certified
        checked += 1
    assert checked == 100
    print(f"\nACCEPTANCE request-response-oracle: PASS "
          f"(100 games, memory bound d*2^d held, all strategies certified)")


# ---------------------------------------------------------------------------
# criterion 3: bounded ranked solving against the oracle

@lru_cache(maxsize=1)
def _ranked_instances():
    rng = random.Random(2718)
    return tuple(random_ranked_game(rng, rng.randint(2, 5), 3, p0_max_outdeg=2)
                 for _ in range(100))


def test_c3_ranked_bounded_solving_matches_oracle():
    games = _ranked_instances()
    for game in games:
        cond = RankedCondition(game.objective, game.rk, game.mode)
        template = trivial_memory(game.arena)
        previous = frozenset()
        for b in range(0, 4):
            res = solve_with_bound(game, b)
            oracle = enumerate_regions(game.arena, cond, template, bound=b)
            assert (res.region_0, res.region_1) == oracle, (game, b)
            assert previous <= res.region_0, "monotonicity violated"
            previous = res.region_0
        best = optimize(game)
        linear = INF
        for b in sorted(set(game.rk.values())):
            if game.arena.initial in solve_with_bound(game, b).region_0:
                linear = b
                break
        assert best.cost == linear
    print("\nACCEPTANCE ranked-bounded-oracle: PASS "
          "(100 games x bounds 0..3, monotone, binary == linear scan)")


# ---------------------------------------------------------------------------
# criterion 4: reduction soundness on random plays

def test_c4_reduction_soundness_on_random_lassos():
    rng = random.Random(1618)
    violations = 0
    for _ in range(20):
        game = random_costrr_game(rng, rng.randint(2, 5), rng.randint(1, 2), 2)
        r = build_reduction(game, cap_bound(game))
        for _ in range(500):
            lasso = random_lasso(rng, game.arena)
            chk = check_reduction_on_lasso(r, lasso)
            if not chk.consistent:
                violations += 1
                continue
            src = chk.source_cost
            tgt = chk.target_cost
            for bp in range(0, min(r.b, 10)):
                fb = r.f.apply(bp)
                if tgt < fb:
                    assert src < bp, (src, tgt, bp)
                if tgt == fb:
                    assert src == bp, (src, tgt, bp)
    assert violations == 0
    print("\nACCEPTANCE reduction-soundness: PASS "
          "(20 games x 500 lassos, 0 violations, contrapositives held)")


# ---------------------------------------------------------------------------
# criterion 5: cost request-response end to end

def _oracle_friendly_cost_games(count=30):
    rng = random.Random(3141)
    games = []
    while len(games) < count:
        game = random_costrr_game(rng, rng.randint(2, 4), 1, 2,
                                  p0_max_outdeg=2, response_density=0.6)
        r = build_reduction(game, cap_bound(game))
        mem, _seeds, _product = rr_reference.rr_memory(r.target.arena,
                                                       r.target.objective.pairs)
        template = product_memory(r.memory, mem, game.arena)
        product = expand(game.arena, template)
        total = 1
        for pv in product.vertices:
            if product.owner[pv] == 0:
                total *= len(product.succ[pv])
            if total > 20000:
                break
        if total > 20000:
            continue
        games.append((game, r, template, product))
    return games


def _enumerated_minimum(game, template, product):
    cap = cap_bound(game)
    best = INF
    for succ in _candidate_graphs(product, 0, guard=30000):
        moves = {(pv[0], pv[1]): ws[0][0] for pv, ws in succ.items()
                 if product.owner[pv] == 0}
        strat = FiniteStateStrategy(0, template, moves)
        cost = max_response_cost(game, strat, cap)
        best = min(best, cost)
    return best


@lru_cache(maxsize=1)
def _cost_artifacts():
    started = time.time()
    a2, a3 = a2_game(), a3_game()
    for game, expected in ((a2, 3), (a3, 5)):
        r = build_reduction(game, cap_bound(game))
        mem, _, _ = rr_reference.rr_memory(r.target.arena, r.target.objective.pairs)
        template = product_memory(r.memory, mem, game.arena)
        product = expand(game.arena, template)
        assert _enumerated_minimum(game, template, product) == expected
    results = []
    for game, r, template, product in _oracle_friendly_cost_games(30):
        res = optimize_cost(game)
        oracle = _enumerated_minimum(game, template, product)
        assert res.cost == oracle, (game, res.cost, oracle)
        if is_finite(res.cost):
            assert res.cost <= cap_bound(game)
            assert verify_strategy(game.arena, game.spec, res.strategy,
                                   bound=res.cost).certified
            if res.cost > 0:
                assert not verify_strategy(game.arena, game.spec, res.strategy,
                                           bound=res.cost - 1).certified
        results.append((game, r, res))
    return tuple(results), time.time() - started


def test_c5_cost_rr_end_to_end_optimization():
    assert optimize_cost(a2_game()).cost == 3
    assert optimize_cost(a3_game()).cost == 5
    results, elapsed = _cost_artifacts()
    finite = sum(1 for _g, _r, res in results if is_finite(res.cost))
    assert len(results) == 30
    assert elapsed < 600, f"runtime target exceeded: {elapsed:.0f}s"
    print(f"\nACCEPTANCE cost-rr-end-to-end: PASS (A2=3, A3=5, 30 games match "
          f"the enumeration oracle, {finite} finite optima, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 6: reduction composition

def _clamp_reduction(source: RankedGame, clamp: int) -> QuantReduction:
    mem = trivial_memory(source.arena)
    product = expand(source.arena, mem)
    lift = lambda v: next(pv for pv in product.vertices if pv[0] == v)
    lifted = relabel_objective(source.objective, lambda v: (v, 0))
    rk = {pv: min(source.rk[pv[0]], clamp) for pv in product.vertices}
    target = RankedGame(product, lifted, rk, source.mode)
    return QuantReduction(mem, Cap(clamp), clamp, source, target)


def test_c6_reduction_composition():
    game = a2_game()
    rng = random.Random(606)
    # parameter case split over the cap grid
    for b1 in range(0, 7):
        r1 = build_reduction(game, b1)
        for b2 in range(0, 7):
            r2 = _clamp_reduction(r1.target, b2)
            composed = compose(r1, r2)
            inner = b1 + 1
            assert composed.b == (inner if b2 >= inner else b2), (b1, b2)
    # composed checks pass whenever both components pass
    for make_second in (lambda tgt: trivial_reduction(
            tgt, lambda product, mem: relabel_game(tgt, lambda v: (v, 0))),
            lambda tgt: _clamp_reduction(tgt, 5)):
        r1 = build_reduction(game, cap_bound(game))
        r2 = make_second(r1.target)
        composed = compose(r1, r2)
        for _ in range(200):
            lasso = random_lasso(rng, game.arena)
            first = check_reduction_on_lasso(r1, lasso)
            second = check_reduction_on_lasso(r2, extend_lasso(r1.memory, lasso))
            if first.consistent and second.consistent:
                both = check_reduction_on_lasso(composed, lasso)
                assert both.consistent, both.detail
    print("\nACCEPTANCE reduction-composition: PASS "
          "(case split on 7x7 grid, composed checks consistent)")


# ---------------------------------------------------------------------------
# criterion 7: resilience values and certification

def test_c7_resilience_oracle_and_certification():
    rng = random.Random(1414)
    disagreements = 0
    for _ in range(200):
        fa = random_fault_arena(rng, rng.randint(1, 6), 4)
        val = compute_val(fa)
        for v in fa.arena.vertices:
            oracle = INF
            for k in range(len(fa.arena)):
                if budget_oracle(fa, v, k):
                    oracle = k
                    break
            if val[v] != oracle:
                disagreements += 1
    assert disagreements == 0

    fs, fe = fs_arena(), fe_arena()
    n_fs, n_fe = len(fs.arena), len(fe.arena)
    res_fs = max_resilience(fs, "sup")
    assert res_fs.resilience == 1
    assert simulate_faults(fs, res_fs.strategy, 0, 2 * n_fs).safe
    assert not simulate_faults(fs, res_fs.strategy, 1, 2 * n_fs).safe

    res_sup = max_resilience(fe, "sup")
    res_lim = max_resilience(fe, "lim")
    assert res_sup.resilience == 1
    assert res_lim.resilience == 2
    assert simulate_faults(fe, res_sup.strategy, 0, 2 * n_fe).safe
    assert not simulate_faults(fe, res_sup.strategy, 1, 2 * n_fe).safe
    # eventual tolerance: after recovering to s, one further fault is safe
    from rankgames.resilience import FaultArena

    recovered = FaultArena(fe.arena.with_initial("s"), fe.faults, fe.safe)
    assert simulate_faults(recovered, res_lim.strategy, 1, 2 * n_fe).safe
    assert not simulate_faults(recovered, res_lim.strategy, 2, 2 * n_fe).safe
    print("\nACCEPTANCE resilience: PASS (200 fault arenas, val == budget "
          "oracle; Fs sup 1; Fe sup 1, eventual 2; simulations certified)")


# ---------------------------------------------------------------------------
# criterion 8: strategy lifting

def test_c8_strategy_lifting_cost_and_size():
    lifted_checked = 0
    # ranked optima lifted through a one-state reduction
    for game in _ranked_instances()[:40]:
        source_best = optimize(game)
        if not is_finite(source_best.cost):
            continue
        r = trivial_reduction(game, lambda product, mem:
                              relabel_game(game, lambda v: (v, 0)))
        target_best = optimize(r.target)
        assert target_best.cost == source_best.cost
        lifted = lift_strategy(r, target_best.strategy)
        assert lifted.size() == len(named_states(lifted.memory))
        assert lifted.size() <= len(r.memory) * len(target_best.strategy.memory)
        cond = RankedCondition(game.objective, game.rk, game.mode)
        assert verify_strategy(game.arena, cond, lifted,
                               bound=source_best.cost).certified
        if source_best.cost > 0:
            assert not verify_strategy(game.arena, cond, lifted,
                                       bound=source_best.cost - 1).certified
        lifted_checked += 1
    assert lifted_checked >= 10

    # cost optima lifted through the counter reduction
    results, _elapsed = _cost_artifacts()
    cost_checked = 0
    for game, r, res in results:
        if not is_finite(res.cost):
            continue
        target_solution = solve_sup_with_bound(r.target, res.cost)
        assert r.target.arena.initial in target_solution.region_0
        lifted = lift_strategy(r, target_solution.strategy_0)
        assert lifted.size() == len(named_states(lifted.memory))
        assert lifted.size() <= len(r.memory) * len(target_solution.strategy_0.memory)
        d = game.spec.d
        assert len(target_solution.strategy_0.memory) <= d * 2 ** d
        assert lifted.size() <= len(r.memory) * d * 2 ** d
        assert verify_strategy(game.arena, game.spec, lifted,
                               bound=res.cost).certified
        if res.cost > 0:
            assert not verify_strategy(game.arena, game.spec, lifted,
                                       bound=res.cost - 1).certified
        cost_checked += 1
    print(f"\nACCEPTANCE strategy-lifting: PASS ({lifted_checked} ranked + "
          f"{cost_checked} cost optima, exact sizes and costs)")


# ---------------------------------------------------------------------------
# criterion 9: scale smoke test

def test_c9_large_instance_smoke():
    rng = random.Random(42)
    game = random_costrr_game(rng, 20, 2, 4, p0_max_outdeg=3,
                              response_density=0.5)
    assert len(game.arena) == 20 and game.spec.d == 2 and game.spec.max_cost == 4
    started = time.time()
    res = solve_cost(game, 50)
    winner = 0 if game.arena.initial in res.region_0 else 1
    strategy = res.strategy_of(winner)
    elapsed = time.time() - started
    assert winner in (0, 1)
    assert strategy.size() >= 1
    assert elapsed < 300, f"scale smoke exceeded 5 minutes: {elapsed:.0f}s"
    print(f"\nACCEPTANCE scale-smoke: PASS (n=20 d=2 W=4, winner {winner}, "
          f"strategy size {strategy.size()}, {elapsed:.1f}s)")
