import random

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import rr_reference
from oracles import enumerate_regions
from rankgames.arena import Arena, attractor
from rankgames.errors import CapacityError
from rankgames.gen import random_arena, random_subset
from rankgames.memory import trivial_memory
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi)
from rankgames.qualsolve import (rr_product, solve_buchi, solve_cobuchi,
                                 solve_objective, solve_request_response,
                                 solve_safety, solve_safety_cobuchi)
from rankgames.verify import verify_strategy

from conftest import restrict_objective, swap_owners
from theory import relabel, restrict


def certify_both(arena, objective, res, seeds=None):
    """Each player's strategy must be certified from every vertex of that
    player's region (with the right anchored memory state)."""
    for player, region, strat in ((0, res.region_0, res.strategy_0),
                                  (1, res.region_1, res.strategy_1)):
        for v in sorted(region):
            state = None
            if seeds is not None:
                state = (seeds[v], 0)
            verdict = verify_strategy(arena, objective, strat,
                                      start=v, start_state=state)
            assert verdict.certified, (player, v, verdict.witness)


class TestSolveSafety:
    def test_everything_safe(self, a1):
        assert solve_safety(a1, set(a1.vertices)).region_0 == frozenset(a1.vertices)

    def test_nothing_safe(self, a1):
        assert solve_safety(a1, set()).region_1 == frozenset(a1.vertices)

    def test_a1_forced_into_unsafe(self, a1):
        res = solve_safety(a1, {"a"})
        assert res.region_1 == frozenset({"a", "b"})

    def test_strategies_certified(self, a1):
        res = solve_safety(a1, {"a", "b"})
        certify_both(a1, Safety(frozenset({"a", "b"})), res)


class TestSolveBuchi:
    def test_accept_everything(self, a1):
        assert solve_buchi(a1, set(a1.vertices)).region_0 == frozenset(a1.vertices)

    def test_a1_revisits_b(self, a1):
        assert solve_buchi(a1, {"b"}).region_0 == frozenset({"a", "b"})

    def test_a1_player1_avoids_a(self, a1):
        assert solve_buchi(a1, {"a"}).region_1 == frozenset({"a", "b"})

    def test_strategies_certified(self, a1):
        for accept in ({"a"}, {"b"}, {"a", "b"}, set()):
            res = solve_buchi(a1, accept)
            certify_both(a1, Buchi(frozenset(accept)), res)


class TestSolveCoBuchi:
    def test_avoid_nothing(self, a1):
        assert solve_cobuchi(a1, set()).region_0 == frozenset(a1.vertices)

    def test_avoid_everything(self, a1):
        assert solve_cobuchi(a1, set(a1.vertices)).region_1 == frozenset(a1.vertices)

    def test_a1_b_unavoidable(self, a1):
        assert solve_cobuchi(a1, {"b"}).region_1 == frozenset({"a", "b"})

    def test_duality_with_buchi(self):
        rng = random.Random(2024)
        for _ in range(30):
            arena = random_arena(rng, rng.randint(2, 6))
            avoid = random_subset(rng, arena)
            left = solve_cobuchi(arena, avoid).region_0
            right = solve_buchi(swap_owners(arena), avoid).region_1
            assert left == right


class TestSolveRequestResponse:
    def test_no_requests_means_player0_wins(self, a1):
        res = solve_request_response(a1, [(frozenset(), frozenset())])
        assert res.region_0 == frozenset(a1.vertices)

    def test_a2_alternation_answers(self, a2):
        res = solve_request_response(a2, [(frozenset({"q"}), frozenset({"p"}))])
        assert res.region_0 == frozenset({"q", "p"})

    def test_memory_bound(self):
        rng = random.Random(11)
        for _ in range(15):
            d = rng.randint(1, 2)
            arena = random_arena(rng, rng.randint(2, 5))
            pairs = [(random_subset(rng, arena), random_subset(rng, arena))
                     for _ in range(d)]
            res = solve_request_response(arena, pairs)
            assert res.strategy_0.size() <= d * 2 ** d
            assert res.strategy_1.size() <= d * 2 ** d

    def test_strategies_certified_with_seeds(self, a2):
        pairs = ((frozenset({"q"}), frozenset({"p"})),)
        res = solve_request_response(a2, pairs)
        seeds = {v: rr_reference.rr_seed_state(pairs, v) for v in a2.vertices}
        certify_both(a2, RequestResponse(pairs), res, seeds=seeds)

    def test_memory_rows_are_exactly_the_product_edges(self):
        # the reference memory is tabulated only on (state, edge) pairs the
        # product reaches from the seeds, one row per product edge
        rng = random.Random(12)
        for _ in range(20):
            d = rng.randint(1, 3)
            arena = random_arena(rng, rng.randint(2, 6))
            pairs = tuple((random_subset(rng, arena), random_subset(rng, arena))
                          for _ in range(d))
            product = rr_product(arena, pairs)
            ref_mem = rr_reference.rr_memory(arena, pairs)[0]
            assert sum(map(len, product.out)) == len(ref_mem.update)
            assert _memory_rows(product) == ref_mem.update

    def test_many_pairs_on_a_cycle(self):
        # d * 2^d memory states for d = 14, of which only a handful can be
        # reached on this cycle
        arena = Arena({i: i % 2 for i in range(4)},
                      [(i, (i + 1) % 4) for i in range(4)], 0)
        pairs = tuple((frozenset({i % 4}), frozenset({(i + 1) % 4}))
                      for i in range(14))
        res = solve_request_response(arena, pairs)
        assert res.region_0 == frozenset(arena.vertices)
        seeds = {v: rr_reference.rr_seed_state(pairs, v) for v in arena.vertices}
        certify_both(arena, RequestResponse(pairs), res, seeds=seeds)
        _assert_matches_tuple_reference(arena, pairs, None)

    def test_interleaved_pairs_stay_answered(self):
        # pair 0 pending exactly at odd steps, pair 1 at even steps; every
        # request is answered one step later, so Player 0 wins everywhere
        arena = Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "a")], "a")
        pairs = ((frozenset({"a"}), frozenset({"b"})),
                 (frozenset({"b"}), frozenset({"a"})))
        res = solve_request_response(arena, pairs)
        assert res.region_0 == frozenset({"a", "b"})

    def test_interleaved_pairs_with_escape(self):
        # Player 1 may abandon the alternation, leaving his last request open
        arena = Arena({"a": 0, "b": 1, "z": 1},
                      [("a", "b"), ("b", "a"), ("b", "z"), ("z", "z")], "a")
        pairs = ((frozenset({"a"}), frozenset({"b"})),
                 (frozenset({"b"}), frozenset({"a"})))
        res = solve_request_response(arena, pairs)
        assert res.region_0 == frozenset({"z"})

    def test_unanswerable_request_loses(self):
        # Player 1 can trap the play away from the response set
        arena = Arena({"q": 0, "t": 1, "p": 0},
                      [("q", "t"), ("t", "t"), ("t", "p"), ("p", "q")], "q")
        res = solve_request_response(arena, [(frozenset({"q"}), frozenset({"p"}))])
        assert "q" in res.region_1


class TestSolveSafetyCoBuchi:
    def test_trivial_conjunction(self, a1):
        res = solve_safety_cobuchi(a1, set(a1.vertices), set())
        assert res.region_0 == frozenset(a1.vertices)

    def test_avoid_entire_safe_region(self, a1):
        res = solve_safety_cobuchi(a1, set(a1.vertices), set(a1.vertices))
        assert res.region_1 == frozenset(a1.vertices)

    def test_three_vertex_chain(self):
        # sink is unsafe; c must be left eventually; Player 0 can park at a
        arena = Arena({"a": 0, "c": 0, "z": 1},
                      [("a", "a"), ("a", "c"), ("c", "a"), ("c", "z"), ("z", "z")],
                      "a")
        res = solve_safety_cobuchi(arena, {"a", "c"}, {"c"})
        assert "a" in res.region_0
        assert "z" in res.region_1
        certify_both(arena, SafetyAndCoBuchi(frozenset({"a", "c"}), frozenset({"c"})),
                     res)


class TestDeterminacyAndOracle:
    def test_regions_partition(self):
        rng = random.Random(8)
        for _ in range(40):
            arena = random_arena(rng, rng.randint(1, 6))
            target = random_subset(rng, arena)
            for res in (solve_safety(arena, target), solve_buchi(arena, target),
                        solve_cobuchi(arena, target)):
                assert res.region_0 | res.region_1 == frozenset(arena.vertices)
                assert not (res.region_0 & res.region_1)

    def test_solvers_match_enumeration_on_smalls(self):
        rng = random.Random(15)
        for _ in range(12):
            arena = random_arena(rng, rng.randint(1, 4))
            target = random_subset(rng, arena)
            avoid = random_subset(rng, arena)
            template = trivial_memory(arena)
            for objective, res in (
                    (Safety(target), solve_safety(arena, target)),
                    (Buchi(target), solve_buchi(arena, target)),
                    (CoBuchi(target), solve_cobuchi(arena, target)),
                    (SafetyAndCoBuchi(target, avoid),
                     solve_safety_cobuchi(arena, target, avoid))):
                oracle = enumerate_regions(arena, objective, template)
                assert res.region_0 == oracle[0], (arena, objective)
                certify_both(arena, objective, res)


# arenas_with_traps draws each game from an opaque seed, which shrinking
# cannot simplify; the tests that share it skip the shrink phase, so a
# failing draw is reported as soon as it is found
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def arenas_with_traps(draw, max_vertices=7):
    """A random arena and a nonempty trap in it: the complement of an
    attractor, so every vertex of the trap keeps a successor inside it."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arena = random_arena(rng, draw(st.integers(2, max_vertices)))
    arena = arena.with_initial(draw(st.sampled_from(arena.vertices)))
    target = frozenset(draw(st.sets(st.sampled_from(arena.vertices), max_size=3)))
    region, _ = attractor(arena, draw(st.integers(0, 1)), target)
    keep = frozenset(arena.vertices) - region
    if not keep:
        keep = frozenset(arena.vertices)
    return rng, arena, keep


def _restricted(arena, keep):
    """The sub-arena induced by keep, anchored as ``within`` anchors it:
    at the initial vertex if kept, else at the least kept vertex."""
    initial = arena.initial if arena.initial in keep else min(keep)
    return restrict(arena.with_initial(initial), keep)


def _objectives(rng, arena):
    sets = [random_subset(rng, arena) for _ in range(4)]
    return (Safety(sets[0]), Buchi(sets[1]), CoBuchi(sets[2]),
            SafetyAndCoBuchi(sets[0], sets[3]),
            RequestResponse(((sets[1], sets[2]), (sets[3], sets[0]))))


def _inside(strategy, keep):
    """Moves and memory of a strategy on the vertices and edges of keep."""
    mem = strategy.memory
    update = {(s, e): t for (s, e), t in mem.update.items() if e[0] in keep and e[1] in keep}
    moves = {(v, s): w for (v, s), w in strategy.next_move.items() if v in keep}
    return mem.states, mem.initial, update, moves


class TestSolvingInsideAnAliveSet:
    """Solving inside ``within`` is solving the sub-arena it induces,
    anchored where ``within`` anchors it."""

    @given(arenas_with_traps(), st.integers(0, 1))
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_attractor_equals_attractor_on_the_restricted_arena(self, data, player):
        rng, arena, keep = data
        target = random_subset(rng, arena) & keep
        sub = _restricted(arena, keep)
        assert attractor(arena, player, target, keep) == attractor(sub, player, target)

    @given(arenas_with_traps())
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_every_objective_equals_its_solve_on_the_restricted_arena(self, data):
        rng, arena, keep = data
        sub = _restricted(arena, keep)
        for obj in _objectives(rng, arena):
            got = solve_objective(arena, obj, keep)
            want = solve_objective(sub, restrict_objective(obj, keep))
            assert (got.region_0, got.region_1) == (want.region_0, want.region_1), obj
            for player in (0, 1):
                assert _inside(got.build(player), keep) == _inside(want.build(player), keep)

    def test_every_objective_on_an_empty_alive_set_has_empty_regions(self, a1):
        a, b = frozenset({"a"}), frozenset({"b"})
        for obj in (Safety(a), Buchi(a), CoBuchi(b), SafetyAndCoBuchi(a, b),
                    RequestResponse(((a, b),))):
            res = solve_objective(a1, obj, within=set())
            assert res.region_0 == res.region_1 == frozenset(), obj
            assert res.strategy_0.next_move == res.strategy_1.next_move == {}, obj


def _rr_pairs(rng, arena, d):
    return tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                 for _ in range(d))


def _strategy_rows(strategy):
    mem = strategy.memory
    return strategy.owner, mem.states, mem.initial, mem.update, strategy.next_move


def _memory_rows(product):
    """A numbered product's edges read as open-request memory rows,
    ``{(state, edge): state}``, one per edge."""
    name = product.pairs
    return {(name[i][1], (name[i][0], name[k][0])): name[k][1]
            for i, out in enumerate(product.out) for k in out}


def _graph_fields(graph, labels, initial):
    """Initial vertex, owners, successor and predecessor rows, in the
    graph's id order, with every id read as its label in ``labels``."""
    def rows(table):
        return [(labels[i], [labels[k] for k in row]) for i, row in enumerate(table)]
    return (initial, [(labels[i], p) for i, p in enumerate(graph.owners)],
            rows(graph.out), rows(graph.pred))


def _assert_matches_tuple_reference(arena, pairs, within):
    """rr_product and solve_request_response on bitmasks equal the tuple
    reference: memory states, seeds, product up to its numbering (its
    edges are the reference memory's rows), regions and both
    strategies."""
    product = rr_product(arena, pairs, within)
    ref_mem, ref_seeds, ref_product = rr_reference.rr_memory(arena, pairs, within)
    assert (product.states, product.pairs[product.initial][1]) == (ref_mem.states,
                                                                   ref_mem.initial)
    assert _memory_rows(product) == ref_mem.update
    # one start per alive vertex, in vertex order, paired with its seed state
    assert [product.pairs[i] for i in product.starts] == list(ref_seeds.items())
    assert list(product.pairs) == list(ref_product.vertices)
    assert (_graph_fields(product, product.pairs, product.pairs[product.initial])
            == _graph_fields(ref_product, ref_product.vertices, ref_product.initial))
    got = solve_request_response(arena, pairs, within)
    want = rr_reference.solve_request_response(arena, pairs, within)
    assert (got.region_0, got.region_1) == (want.region_0, want.region_1)
    for player in (0, 1):
        assert _strategy_rows(got.build(player)) == _strategy_rows(want.build(player))


class TestBitmaskOpenSetsAgainstTheTupleReference:
    """The solver runs on bitmask open sets over a numbered product; the
    reference in ``rr_reference`` runs on sorted tuples over a labelled
    one.  Everything either returns must agree."""

    @given(arenas_with_traps(), st.integers(1, 6), st.booleans())
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_small_games_inside_and_outside_an_alive_set(self, data, d, inside):
        rng, arena, keep = data
        _assert_matches_tuple_reference(arena, _rr_pairs(rng, arena, d),
                                        keep if inside else None)

    def test_twenty_vertex_games_with_up_to_six_pairs(self):
        rng = random.Random(2024)
        for i in range(12):
            d = 1 + i % 6
            arena = random_arena(rng, 20, p0_max_outdeg=3)
            pairs = _rr_pairs(rng, arena, d)
            region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.1))
            keep = frozenset(arena.vertices) - region
            for within in (None, keep or None):
                _assert_matches_tuple_reference(arena, pairs, within)

    def test_small_arenas_with_seven_to_ten_pairs(self):
        rng = random.Random(77)
        for i in range(40):
            arena = random_arena(rng, rng.randint(2, 8))
            pairs = _rr_pairs(rng, arena, 7 + i % 4)
            region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.3))
            keep = frozenset(arena.vertices) - region
            for within in (None, keep or None):
                _assert_matches_tuple_reference(arena, pairs, within)


class TestIntegerWalkOnOtherLabels:
    """The walk numbers vertices by their position in the sorted vertex
    list, so it must not lean on the ``v0..vN`` strings ``random_arena``
    draws.  Relabelled to shuffled integers, and to tuples like the
    ``(vertex, counters)`` labels of cost-RR counter products, whose
    sorted order differs from the string labels' and from the order they
    were drawn in, every game still equals the tuple reference."""

    LABELS = (lambda k: k, lambda k: (k % 3, ("c", -k)))

    def test_integer_and_tuple_labels_inside_and_outside_an_alive_set(self):
        rng = random.Random(2121)
        for i in range(24):
            arena = random_arena(rng, rng.randint(2, 16), p0_max_outdeg=3)
            pairs = _rr_pairs(rng, arena, 1 + i % 6)
            region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.2))
            keep = frozenset(arena.vertices) - region
            shuffled = list(range(len(arena)))
            rng.shuffle(shuffled)
            for label in self.LABELS:
                name = {v: label(shuffled[int(v[1:])]) for v in arena.vertices}
                named = [(frozenset(map(name.get, q)), frozenset(map(name.get, p)))
                         for q, p in pairs]
                for within in (None, keep or None):
                    _assert_matches_tuple_reference(
                        relabel(arena, name.__getitem__), tuple(named),
                        within and frozenset(map(name.get, within)))


class TestRequestResponseAgainstEnumeration:
    """Regions equal the enumeration oracle's over the reference memory,
    and both strategies certify from their regions with seed states, on
    every draw the oracle enumerates within 10^4 candidates; hypothesis
    replaces the other draws."""

    @given(arenas_with_traps(5), st.integers(1, 3), st.booleans())
    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    def test_small_games_inside_and_outside_an_alive_set(self, data, d, inside):
        rng, arena, keep = data
        pairs = _rr_pairs(rng, arena, d)
        within = keep if inside else None
        res = solve_request_response(arena, pairs, within)
        # the oracle and the certificate read the sub-arena the alive set
        # induces, where the solver's strategies have all their moves
        sub = _restricted(arena, keep) if inside else arena
        objective = restrict_objective(RequestResponse(pairs), sub.vertices)
        mem, seeds, _product = rr_reference.rr_memory(sub, objective.pairs)
        try:
            oracle = enumerate_regions(sub, objective, mem, seeds=seeds.items(),
                                       guard=10 ** 4)
        except CapacityError:
            oracle = None
        # a draw past 10^4 candidates is drawn again, so that no draw
        # enumerates for seconds and every kept draw compares regions
        assume(oracle is not None)
        assert (res.region_0, res.region_1) == oracle
        certify_both(sub, objective, res, seeds=seeds)

