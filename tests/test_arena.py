import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankgames.arena import Arena, Lasso, attractor
from rankgames.errors import InputError
from rankgames.gen import random_arena
from rankgames.memory import explore, explore_product

from conftest import rotated, with_loop_repeated
from theory import restrict


@st.composite
def arenas(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = [f"v{i}" for i in range(n)]
    owner = {v: draw(st.integers(0, 1)) for v in names}
    edges = set()
    for v in names:
        succs = draw(st.sets(st.sampled_from(names), min_size=1, max_size=n))
        edges.update((v, w) for w in succs)
    return Arena(owner, edges, "v0")


@st.composite
def arena_and_target(draw):
    arena = draw(arenas())
    target = draw(st.sets(st.sampled_from(list(arena.vertices))))
    player = draw(st.integers(0, 1))
    return arena, frozenset(target), player


class TestArenaConstruction:
    def test_terminal_vertex_rejected(self):
        with pytest.raises(InputError, match="no outgoing edge"):
            Arena({"a": 0, "b": 1}, [("a", "b")], "a")

    def test_unknown_initial_rejected(self):
        with pytest.raises(InputError):
            Arena({"a": 0}, [("a", "a")], "z")

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(InputError):
            Arena({"a": 0}, [("a", "b")], "a")

    def test_vertices_sorted_deterministically(self):
        arena = Arena({"z": 0, "a": 1, "m": 0},
                      [("z", "a"), ("a", "m"), ("m", "z")], "z")
        assert arena.vertices == ("a", "m", "z")

    @staticmethod
    def _fields(arena):
        return (arena.vertices, list(arena.owner.items()), arena.edges,
                list(arena.succ.items()), list(arena.index.items()), arena.owners,
                arena.out, arena.pred)

    def _assert_rows_in_any_order_build_one_arena(self, rng, owner, rows, initial):
        # a list without repeats fills the successor lists in row order; a
        # list with a repeat and a frozenset take the unordered path
        shuffled = rng.sample(rows, len(rows))
        repeated = [*rows, rng.choice(rows)]
        expected = self._fields(Arena(owner, rows, initial))
        for edges in (rows, shuffled, repeated, frozenset(rows)):
            assert self._fields(Arena._checked(owner, edges, initial)) == expected
            assert self._fields(Arena(owner, edges, initial)) == expected

    def test_row_order_does_not_change_the_arena(self):
        for seed in range(20):
            rng = random.Random(f"arena-rows:{seed}")
            arena = random_arena(rng, rng.randint(1, 12))
            rows = sorted(arena.edges)  # file order
            self._assert_rows_in_any_order_build_one_arena(
                rng, dict(arena.owner), rows, arena.initial)

    def test_product_walk_rows_in_breadth_first_order(self):
        def step(s, e):
            return (s + len(e[1])) % 3

        for seed in range(20):
            rng = random.Random(f"arena-product-rows:{seed}")
            arena = random_arena(rng, rng.randint(1, 12))
            start = (arena.initial, 0)
            _reached, update = explore(arena, [start], step)
            rows = [((u, s), (w, t)) for (s, (u, w)), t in update.items()]  # walk order
            _memory, product = explore_product(arena, 0, step)
            assert self._fields(product) == self._fields(Arena(product.owner, rows, start))
            self._assert_rows_in_any_order_build_one_arena(
                rng, dict(product.owner), rows, start)


class TestAttractor:
    def test_empty_target(self, a1):
        assert attractor(a1, 0, frozenset())[0] == frozenset()

    def test_full_target(self, a1):
        assert attractor(a1, 1, set(a1.vertices))[0] == frozenset(a1.vertices)

    def test_a1_forced_vertex(self, a1):
        # a's only successor is b, so Player 1 attracts a into {b}
        region, strategy = attractor(a1, 1, {"b"})
        assert region == frozenset({"a", "b"})
        assert strategy == {}  # no Player 1 vertex outside the target

    def test_unknown_target_vertex(self, a1):
        with pytest.raises(InputError, match="unknown"):
            attractor(a1, 0, {"zzz"})

    @given(arena_and_target())
    @settings(max_examples=60, deadline=None)
    def test_contains_target_and_idempotent(self, data):
        arena, target, player = data
        region, _ = attractor(arena, player, target)
        assert target <= region
        again, _ = attractor(arena, player, region)
        assert again == region

    @given(arenas(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_target(self, arena, data):
        verts = list(arena.vertices)
        small = frozenset(data.draw(st.sets(st.sampled_from(verts))))
        extra = frozenset(data.draw(st.sets(st.sampled_from(verts))))
        player = data.draw(st.integers(0, 1))
        r_small, _ = attractor(arena, player, small)
        r_big, _ = attractor(arena, player, small | extra)
        assert r_small <= r_big

    @given(arena_and_target())
    @settings(max_examples=40, deadline=None)
    def test_strategy_reaches_target(self, data):
        # every play from the attractor that follows the returned strategy at
        # the player's vertices hits the target within |V| steps
        arena, target, player = data
        region, strategy = attractor(arena, player, target)
        n = len(arena)
        for start in sorted(region):
            plays = [[start]]
            for _ in range(n):
                nxt = []
                for play in plays:
                    v = play[-1]
                    if v in target:
                        continue
                    moves = ((strategy[v],) if arena.owner[v] == player
                             else arena.succ[v])
                    nxt.extend(play + [w] for w in moves)
                plays = nxt
            assert all(any(v in target for v in play) for play in plays)

    @given(arena_and_target())
    @settings(max_examples=60, deadline=None)
    def test_complement_is_valid_subarena(self, data):
        arena, target, player = data
        region, _ = attractor(arena, player, target)
        rest = frozenset(arena.vertices) - region
        if rest:
            restrict(arena.with_initial(min(rest)), rest)  # must not raise


class TestRestrict:
    def test_identity(self, a1):
        assert restrict(a1, set(a1.vertices)) == a1

    def test_initial_must_be_kept(self, a1):
        with pytest.raises(InputError, match="initial"):
            restrict(a1, {"b"})

    def test_single_vertex_self_loop(self, a1):
        sub = restrict(a1.with_initial("b"), {"b"})
        assert sub.vertices == ("b",)
        assert sub.edges == frozenset({("b", "b")})

    def test_terminal_result_rejected(self):
        arena = Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "a")], "a")
        with pytest.raises(InputError, match="sub-arena"):
            restrict(arena, {"a"})


class TestLasso:
    def test_needs_loop(self):
        with pytest.raises(InputError):
            Lasso(("a",), ())

    def test_check_in_catches_missing_edge(self, a1):
        with pytest.raises(InputError, match="missing edge"):
            Lasso((), ("a", "a")).check_in(a1)

    def test_check_in_anchoring(self, a1):
        with pytest.raises(InputError, match="initial"):
            Lasso((), ("b",)).check_in(a1)

    def test_rotation_and_unrolling_denote_same_play(self, a1):
        lasso = Lasso(("a",), ("b", "a", "b", "b")).check_in(a1)
        for other in (rotated(lasso, 3), with_loop_repeated(lasso, 2)):
            for i in range(20):
                assert other.vertex_at(i) == lasso.vertex_at(i)
