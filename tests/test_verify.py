import random

import networkx as nx
import pytest

import oracles
import rr_reference
import walk_reference
from oracles import (FaultSimVerdict, enumerate_regions, enumerate_solve,
                     max_response_cost, simulate_faults)
from rankgames.arena import Arena, Lasso
from rankgames.errors import CapacityError, InputError
from rankgames.extnat import INF
from rankgames.gen import random_arena, random_costrr_game, random_subset
from rankgames.memory import (FiniteStateStrategy, MemoryStructure,
                              positional_strategy, trivial_memory)
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi, eval_qualitative, cost_rr_lasso,
                                  rank_cost_lasso)
from rankgames.qualsolve import (solve_buchi, solve_cobuchi,
                                 solve_request_response, solve_safety)
from rankgames.ranked import RankedCondition
from rankgames.rrcost import cap_bound, optimize, solve_with_bound
from rankgames import verify
from rankgames.verify import _closed_walk, _loop_comps, verify_strategy


class TestVerifyStrategy:
    def test_safety_attractor_complement_certified(self, a1):
        res = solve_safety(a1, {"a", "b"})
        assert verify_strategy(a1, Safety(frozenset({"a", "b"})),
                               res.strategy_0).certified

    def test_bad_move_into_unsafe_refuted_with_witness(self):
        arena = Arena({"a": 0, "z": 0}, [("a", "a"), ("a", "z"), ("z", "z")], "a")
        bad = positional_strategy(arena, 0, {"a": "z", "z": "z"})
        verdict = verify_strategy(arena, Safety(frozenset({"a"})), bad)
        assert not verdict.certified
        assert not eval_qualitative(Safety(frozenset({"a"})), verdict.witness)

    def test_verdict_is_true_exactly_when_certified(self):
        arena = Arena({"a": 0, "z": 0}, [("a", "a"), ("a", "z"), ("z", "z")], "a")
        safe = Safety(frozenset({"a"}))
        stay = positional_strategy(arena, 0, {"a": "a", "z": "z"})
        leave = positional_strategy(arena, 0, {"a": "z", "z": "z"})
        assert bool(verify_strategy(arena, safe, stay)) is True
        assert bool(verify_strategy(arena, safe, leave)) is False

    def test_buchi_strategies_both_sides(self, a1):
        res = solve_buchi(a1, {"b"})
        assert verify_strategy(a1, Buchi(frozenset({"b"})), res.strategy_0).certified
        res = solve_buchi(a1, {"a"})
        assert verify_strategy(a1, Buchi(frozenset({"a"})), res.strategy_1).certified

    def test_witnesses_violate_the_evaluators(self):
        # refutation witnesses, fed back to the play evaluators, must violate
        # the claimed condition
        rng = random.Random(12)
        checked = 0
        for _ in range(60):
            arena = random_arena(rng, rng.randint(2, 5))
            accept = random_subset(rng, arena)
            res = solve_buchi(arena, accept)
            strat = res.strategy_0
            for v in sorted(res.region_1):
                verdict = verify_strategy(arena, Buchi(accept), strat, start=v)
                if not verdict.certified:
                    assert not eval_qualitative(Buchi(accept), verdict.witness)
                    checked += 1
        assert checked > 10

    def test_rr_cost_certification_both_bounds(self, a2_game):
        res = optimize(a2_game)
        assert verify_strategy(a2_game.arena, a2_game.spec, res.strategy,
                               bound=3).certified
        verdict = verify_strategy(a2_game.arena, a2_game.spec, res.strategy,
                                  bound=2)
        assert not verdict.certified
        assert cost_rr_lasso(a2_game.spec, verdict.witness) > 2

    def test_ranked_witness_exceeds_bound(self, a1):
        cond = RankedCondition(Safety(frozenset({"a", "b"})), {"a": 0, "b": 2}, "sup")
        stay = positional_strategy(a1, 0, {"a": "b"})
        verdict = verify_strategy(a1, cond, stay, bound=1)
        assert not verdict.certified
        cost = rank_cost_lasso({"a": 0, "b": 2}, Safety(frozenset({"a", "b"})),
                               "sup", verdict.witness)
        assert cost > 1

    def test_player1_strategy_certified_and_refuted(self, a1):
        res = solve_safety(a1, {"a"})
        tau = res.strategy_1
        assert verify_strategy(a1, Safety(frozenset({"a"})), tau).certified
        # against the full safe set the same moves prove nothing
        verdict = verify_strategy(a1, Safety(frozenset({"a", "b"})), tau)
        assert not verdict.certified
        assert eval_qualitative(Safety(frozenset({"a", "b"})), verdict.witness)

    def test_move_that_is_not_an_edge_rejected(self):
        # a -> a is not an edge, although the memory has a row for it
        arena = Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "b")], "a")
        memory = MemoryStructure((0,), 0, {(0, ("a", "a")): 0, (0, ("a", "b")): 0,
                                           (0, ("b", "b")): 0})
        stay = FiniteStateStrategy(0, memory, {("a", 0): "a"})
        with pytest.raises(InputError, match="not an edge"):
            verify_strategy(arena, Safety(frozenset({"a"})), stay)

    def test_cost_rr_player1_certified_and_refuted(self, a3_game):
        # the optimum is 5: below it the opponent's strategy is certified,
        # at it the refutation is a play consistent with it costing at most 5
        res = solve_with_bound(a3_game, 4)
        winner = 0 if a3_game.arena.initial in res.region_0 else 1
        tau = res.strategy_of(winner)
        assert winner == 1
        assert verify_strategy(a3_game.arena, a3_game.spec, tau, bound=4).certified
        verdict = verify_strategy(a3_game.arena, a3_game.spec, tau, bound=5)
        assert not verdict.certified
        assert cost_rr_lasso(a3_game.spec, verdict.witness) <= 5
        walk = verdict.witness.prefix + verdict.witness.loop
        state = tau.memory.initial
        for v, w in zip(walk, walk[1:] + verdict.witness.loop[:1]):
            if a3_game.arena.owner[v] == 1:
                assert tau.move(v, state) == w
            state = tau.memory.step(state, (v, w))


class TestCertificationSoundness:
    def test_certified_strategies_satisfy_random_consistent_plays(self):
        # the property must hold for any draw: plays consistent with a
        # certified strategy meet the objective
        rng = random.Random(606)
        checked = 0
        while checked < 1000:
            arena = random_arena(rng, rng.randint(2, 5))
            accept = random_subset(rng, arena)
            res = solve_buchi(arena, accept)
            if not res.region_0:
                continue
            assert verify_strategy(arena, Buchi(accept), res.strategy_0,
                                   start=min(res.region_0)).certified
            for _ in range(25):
                lasso = _consistent_lasso(rng, arena, res.strategy_0,
                                          min(res.region_0))
                assert eval_qualitative(Buchi(accept), lasso)
                checked += 1


def _consistent_lasso(rng, arena, strategy, start):
    """Random play following the strategy at its owner's vertices."""
    walk = [start]
    state = strategy.memory.initial
    states = [state]
    seen = {(start, state): 0}
    while True:
        v = walk[-1]
        if arena.owner[v] == strategy.owner:
            w = strategy.move(v, state)
        else:
            w = rng.choice(arena.succ[v])
        state = strategy.memory.step(state, (v, w))
        key = (w, state)
        if key in seen:
            i = seen[key]
            return Lasso(tuple(walk[:i]), tuple(walk[i:]))
        seen[key] = len(walk)
        walk.append(w)
        states.append(state)


class TestEnumerate:
    def test_matches_solvers_on_small_arenas(self):
        rng = random.Random(9)
        for _ in range(15):
            arena = random_arena(rng, rng.randint(1, 4))
            target = random_subset(rng, arena)
            template = trivial_memory(arena)
            assert enumerate_regions(arena, Safety(target), template)[0] == \
                solve_safety(arena, target).region_0
            assert enumerate_regions(arena, Buchi(target), template)[0] == \
                solve_buchi(arena, target).region_0
            assert enumerate_regions(arena, CoBuchi(target), template)[0] == \
                solve_cobuchi(arena, target).region_0

    def test_rr_with_pointer_template(self):
        rng = random.Random(10)
        for _ in range(10):
            arena = random_arena(rng, rng.randint(2, 4), p0_max_outdeg=2)
            pairs = ((random_subset(rng, arena), random_subset(rng, arena)),)
            mem, seeds, _product = rr_reference.rr_memory(arena, pairs)
            oracle = enumerate_regions(arena, RequestResponse(pairs), mem,
                                       seeds=seeds.items())
            assert oracle[0] == solve_request_response(arena, pairs).region_0

    def test_rr_claim_over_a_template_without_open_sets_refused(self):
        # the oracle reads pending requests off (open tuple, pointer) states;
        # over the trivial memory it would never see a request pending and
        # give Player 0 both vertices, where the solver gives her none
        arena = Arena({"q": 0, "x": 1}, [("q", "x"), ("x", "x")], "q")
        pairs = ((frozenset({"x"}), frozenset({"q"})),)
        assert solve_request_response(arena, pairs).region_0 == frozenset()
        template = trivial_memory(arena)
        claims = [(RequestResponse(pairs), None),
                  (RankedCondition(RequestResponse(pairs), {"q": 0, "x": 0}, "sup"), 0)]
        for claim, bound in claims:
            with pytest.raises(InputError, match="not an \\(open tuple, pointer\\) pair"):
                enumerate_regions(arena, claim, template, bound=bound)
            with pytest.raises(InputError, match="not an \\(open tuple, pointer\\) pair"):
                enumerate_solve(arena, claim, template, bound=bound)

    def test_certification_runs_no_solver_open_set_code(self, monkeypatch):
        # verify tracks open requests on sorted tuples itself; with the
        # solver's bitmask walk disabled, it still certifies and refutes
        import rankgames.qualsolve as qualsolve

        rng = random.Random(13)
        cases = []
        for _ in range(6):
            arena = random_arena(rng, 10, p0_max_outdeg=3)
            pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                          for _ in range(4))
            res = solve_request_response(arena, pairs)
            cases.append((arena, pairs, res.strategy_0, arena.initial in res.region_0))

        def disabled(*_args, **_kwargs):
            raise AssertionError("the solver's open-set code ran")
        monkeypatch.setattr(qualsolve, "rr_product", disabled)
        verdicts = [verify_strategy(arena, RequestResponse(pairs), strategy).certified
                    for arena, pairs, strategy, _wins in cases]
        assert verdicts == [wins for *_rest, wins in cases]
        assert set(verdicts) == {True, False}

    def test_enumerate_solve_returns_certified_strategies(self, a1):
        res = enumerate_solve(a1, Buchi(frozenset({"b"})), trivial_memory(a1))
        assert res.region_0 == frozenset({"a", "b"})
        for v in sorted(res.region_0):
            assert verify_strategy(a1, Buchi(frozenset({"b"})), res.strategy_0,
                                   start=v).certified

    def test_candidate_guard(self):
        rng = random.Random(11)
        arena = random_arena(rng, 6, max_outdeg=6, p0_max_outdeg=6)
        with pytest.raises(CapacityError):
            enumerate_regions(arena, Safety(frozenset(arena.vertices)),
                              trivial_memory(arena), guard=2)


class TestLoopComponents:
    def test_matches_networkx_on_random_digraphs(self):
        # the cycle-carrying SCCs of the subgraph a region induces, against
        # networkx on that subgraph; graphs have self-loops, nodes without
        # successors and regions that cut components apart
        rng = random.Random(15)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 14)
            p = rng.choice((0.08, 0.15, 0.3))
            succ = {u: tuple(w for w in range(n) if rng.random() < p) for u in range(n)}
            region = {u for u in range(n) if rng.random() < 0.75}
            graph = nx.DiGraph()
            graph.add_nodes_from(succ)
            graph.add_edges_from((u, w) for u, ws in succ.items() for w in ws)
            sub = graph.subgraph(region)
            expected = {frozenset(c) for c in nx.strongly_connected_components(sub)
                        if len(c) > 1 or any(sub.has_edge(u, u) for u in c)}
            found = _loop_comps(succ, region)
            assert len(found) == len(expected)
            assert {frozenset(c) for c in found} == expected
            checked += len(expected)
        assert checked > 300

    def test_matches_networkx_on_larger_digraphs(self):
        # graphs of 20 to 80 nodes where a lowlink slip shows: a chain
        # through every node, in shuffled order, that makes the depth-first
        # stack deep, back edges into it that nest cycles inside cycles, a
        # few random edges and self-loops, and regions that cut components
        # apart; successor order is shuffled
        rng = random.Random(17)
        largest = checked = 0
        for _ in range(150):
            n = rng.randint(20, 80)
            chain = rng.sample(range(n), n)
            edges = set(zip(chain, chain[1:]))
            for _ in range(rng.randint(0, n // 4)):
                i = rng.randrange(n)
                edges.add((chain[i], chain[rng.randint(0, i)]))
            edges.update((rng.randrange(n), rng.randrange(n)) for _ in range(n // 8))
            edges.update((u, u) for u in rng.sample(range(n), rng.randint(0, 4)))
            succ = {u: [] for u in range(n)}
            for u, w in sorted(edges):
                succ[u].append(w)
            succ = {u: tuple(rng.sample(ws, len(ws))) for u, ws in succ.items()}
            region = (set(succ) if rng.random() < 0.3
                      else {u for u in range(n) if rng.random() < 0.85})
            sub = nx.DiGraph(sorted(edges)).subgraph(region)
            expected = {frozenset(c) for c in nx.strongly_connected_components(sub)
                        if len(c) > 1 or sub.has_edge(*c, *c)}
            found = _loop_comps(succ, region)
            assert len(found) == len(expected)
            assert {frozenset(c) for c in found} == expected
            checked += len(expected)
            largest = max(largest, *map(len, expected), 0)
        assert checked > 300 and largest >= 60


class TestClosedWalk:
    def test_matches_the_two_search_reference_on_random_digraphs(self):
        # every cycle-carrying SCC of the subgraphs random regions induce in
        # random digraphs, with random entries and anchor batches that repeat
        # nodes and hit the entry; successor order is shuffled, since both
        # walks follow it
        rng = random.Random(16)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            p = rng.choice((0.1, 0.2, 0.4))
            succ = {u: tuple(rng.sample(range(n), n)) for u in range(n)}
            succ = {u: tuple(w for w in ws if rng.random() < p) for u, ws in succ.items()}
            graph = nx.DiGraph()
            graph.add_nodes_from(succ)
            graph.add_edges_from((u, w) for u, ws in succ.items() for w in ws)
            sub = graph.subgraph(u for u in range(n) if rng.random() < 0.75)
            for comp in nx.strongly_connected_components(sub):
                if len(comp) == 1 and not sub.has_edge(*comp, *comp):
                    continue
                nodes = sorted(comp)
                for _ in range(3):
                    entry = rng.choice(nodes)
                    anchors = tuple(rng.choice(nodes) for _ in range(rng.randint(0, 3)))
                    walk = _closed_walk(succ, comp, entry, anchors)
                    assert walk == walk_reference.closed_walk(succ, comp, entry, anchors)
                    assert walk[0] == entry and set(anchors) <= set(walk) <= comp
                    assert all(w in succ[u] for u, w in zip(walk, walk[1:] + walk[:1]))
                    checked += 1
        assert checked > 500

    def test_refuted_claim_analyses_each_loop_family_once(self, monkeypatch):
        # two pending-pair families; the play q x x x ... leaves pair 1
        # pending forever, so the witness comes from the second family, and
        # no search looks for a component of the first, which has none
        calls = []
        searched = []
        loop_comps = verify._loop_comps
        bfs_path = verify._bfs_path

        def counting(succ, region):
            calls.append(len(region))
            return loop_comps(succ, region)

        def recording(succ, start, targets, allowed):
            searched.append(len(targets))
            return bfs_path(succ, start, targets, allowed)

        monkeypatch.setattr(verify, "_loop_comps", counting)
        monkeypatch.setattr(verify, "_bfs_path", recording)
        arena = Arena({"q": 0, "x": 0, "p": 0},
                      [("q", "x"), ("x", "x"), ("x", "p"), ("p", "q")], "q")
        claim = RequestResponse(((frozenset({"p"}), frozenset({"q"})),
                                 (frozenset({"q"}), frozenset({"p"}))))
        lazy = positional_strategy(arena, 0, {"q": "x", "x": "x", "p": "q"})
        verdict = verify_strategy(arena, claim, lazy)
        assert verdict.witness == Lasso(("q",), ("x",))
        assert len(calls) == 2
        assert searched and 0 not in searched


def _root_fails_for_all_starts_oracle(arena, condition, strategy, bound, start, state):
    """Whether the enumeration oracle's all-starts closure puts the root in
    its failing set, on the product ``verify_strategy`` builds."""
    obj, mode, bnd, rank_of, tracker, pending_of = verify._normalize_condition(
        condition, bound)
    state = strategy.memory.initial if state is None else state
    decided = verify._decided(obj, mode, bnd, rank_of)
    root, succ = verify._product_graph(arena, strategy, start, state, tracker, decided)
    query = verify._claim_failure_query(succ, obj, mode, bnd, rank_of, pending_of,
                                        strategy.owner)
    allowed = {n for n in succ if not decided(n)}
    return root in oracles._query_failures(oracles._pred_map(succ), query,
                                           verify._cycles(succ, query), allowed)


def _random_positional(rng, arena, owner):
    return positional_strategy(arena, owner, {v: rng.choice(arena.succ[v])
                                              for v in arena.owned_by(owner)})


def _differential_cases(rng, rounds):
    """(arena, claim, bound, strategy, start states) for seeded claims of
    every kind, with random positional strategies of both players, plus
    the solver's strategies for request-response claims, whose memory
    starts at each vertex from that vertex's seed state."""
    for _ in range(rounds):
        arena = random_arena(rng, rng.randint(2, 5))
        strategies = [_random_positional(rng, arena, owner) for owner in (0, 1)]
        pairs = tuple((random_subset(rng, arena, 0.4), random_subset(rng, arena, 0.5))
                      for _ in range(rng.randint(1, 2)))
        qualitative = [Safety(random_subset(rng, arena, 0.75)),
                       Buchi(random_subset(rng, arena, 0.45)),
                       CoBuchi(random_subset(rng, arena, 0.35)),
                       SafetyAndCoBuchi(random_subset(rng, arena, 0.75),
                                        random_subset(rng, arena, 0.35)),
                       RequestResponse(pairs)]
        for claim in qualitative:
            for strategy in strategies:
                yield arena, claim, None, strategy, {}
        res = solve_request_response(arena, pairs)
        seeds = {v: (rr_reference.rr_seed_state(pairs, v), 0) for v in arena.vertices}
        for strategy in (res.strategy_0, res.strategy_1):
            yield arena, RequestResponse(pairs), None, strategy, seeds
        rk = {v: rng.randint(0, 3) for v in arena.vertices}
        for mode in ("sup", "lim"):
            claim = RankedCondition(rng.choice(qualitative), rk, mode)
            for strategy in strategies:
                yield arena, claim, rng.randint(0, 3), strategy, {}
        game = random_costrr_game(rng, rng.randint(2, 4), rng.randint(1, 2), 2)
        for owner in (0, 1):
            yield (game.arena, game.spec, rng.randint(0, 4),
                   _random_positional(rng, game.arena, owner), {})


class TestFailureCores:
    def test_verdicts_match_the_all_starts_closure(self):
        # verify decides a claim by whether its failure query has a core;
        # on the product it builds, that is whether the all-starts backward
        # closure of the enumeration oracle contains the root
        rng = random.Random(28)
        verdicts = {True: 0, False: 0}
        for arena, claim, bound, strategy, states in _differential_cases(rng, 40):
            for v in arena.vertices:
                certified = verify_strategy(arena, claim, strategy, bound=bound, start=v,
                                            start_state=states.get(v)).certified
                assert certified == (not _root_fails_for_all_starts_oracle(
                    arena, claim, strategy, bound, v, states.get(v))), (claim, strategy, v)
                verdicts[certified] += 1
        assert min(verdicts.values()) >= 500, verdicts

    def test_bad_node_refutes_before_any_cycle_analysis(self, monkeypatch):
        # a Player 0 sup claim over a Buchi objective: the play a b c
        # reaches c, ranked above the bound, which refutes the claim before
        # any loop family is analysed; the witness runs into c
        calls = []
        loop_comps = verify._loop_comps

        def counting(succ, region):
            calls.append(len(region))
            return loop_comps(succ, region)

        monkeypatch.setattr(verify, "_loop_comps", counting)
        arena = Arena({"a": 0, "b": 1, "c": 0},
                      [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "c")], "a")
        claim = RankedCondition(Buchi(frozenset({"a"})), {"a": 0, "b": 1, "c": 3}, "sup")
        strategy = positional_strategy(arena, 0, {"a": "b", "c": "c"})
        verdict = verify_strategy(arena, claim, strategy, bound=1)
        assert verdict.witness == Lasso(("a", "b", "c"), ("a", "b"))
        assert calls == []


class TestMaxResponseCost:
    def test_a2_optimal_strategy(self, a2_game):
        res = optimize(a2_game)
        assert max_response_cost(a2_game, res.strategy, cap_bound(a2_game)) == 3

    def test_unanswered_request_infinite(self):
        arena = Arena({"q": 0, "x": 0, "p": 0},
                      [("q", "x"), ("x", "x"), ("x", "p"), ("p", "q")], "q")
        from rankgames.objectives import CostRRSpec
        from rankgames.rrcost import CostRRGame

        spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {})
        game = CostRRGame(arena, spec)
        lazy = positional_strategy(arena, 0, {"q": "x", "x": "x", "p": "q"})
        assert max_response_cost(game, lazy, 5) is INF


class TestSimulateFaults:
    def test_budget_zero_matches_safety_verdict(self, fs):
        from rankgames.resilience import max_resilience

        strategy = max_resilience(fs, "sup").strategy
        sim = simulate_faults(fs, strategy, 0, 10)
        verdict = verify_strategy(fs.arena, Safety(fs.safe), strategy)
        assert sim.safe == verdict.certified

    def test_fs_single_fault_witness(self, fs):
        from rankgames.resilience import max_resilience

        strategy = max_resilience(fs, "sup").strategy
        crash = simulate_faults(fs, strategy, 1, 10)
        assert not crash.safe
        assert crash.witness[-1] == "u"

    def test_player1_moves_and_the_depth_bound(self):
        # no faults: Player 1 leaves the safe set on his own move, two moves
        # in, so a one-move search stays safe
        arena = Arena({"s": 0, "x": 1, "u": 1},
                      [("s", "x"), ("x", "s"), ("x", "u"), ("u", "u")], "s")
        from rankgames.resilience import FaultArena

        fa = FaultArena(arena, frozenset(), {"s", "x"})
        strategy = positional_strategy(arena, 0, {"s": "x"})
        assert simulate_faults(fa, strategy, 0, 5) == FaultSimVerdict(False, ("s", "x", "u"))
        assert simulate_faults(fa, strategy, 0, 1) == FaultSimVerdict(True)

    def test_fe_from_recovered_vertex_survives_one_fault(self, fe):
        from rankgames.resilience import FaultArena, max_resilience

        strategy = max_resilience(fe, "lim").strategy
        anchored = FaultArena(fe.arena.with_initial("s"), fe.faults, fe.safe)
        assert simulate_faults(anchored, strategy, 1, 12).safe
