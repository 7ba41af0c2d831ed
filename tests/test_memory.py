import random
from collections import deque

import pytest

from rankgames.arena import Arena, Lasso
from rankgames.errors import InputError
from rankgames.gen import random_lasso
from rankgames.memory import MemoryStructure, _reach, positional_strategy, trivial_memory

from conftest import play_positions, project
from theory import compose_strategy, expand, extend_lasso, product_memory, update_plus


def toggle_memory(arena):
    return MemoryStructure((0, 1), 0, {(s, e): 1 - s for s in (0, 1)
                                       for e in arena.edges})


def _queue_walk(starts, graph):
    """Breadth-first visit order written out with a queue."""
    order, queue = [], deque(starts)
    while queue:
        node = queue.popleft()
        if node not in order:
            order.append(node)
            queue.extend(graph[node])
    return order


def test_reach_visits_breadth_first_once_per_node():
    graph = {0: [2, 1], 1: [3, 0], 2: [3, 4], 3: [3], 4: [1], 5: [0]}
    calls = []

    def successors(node):
        calls.append(node)
        return graph[node]
    # repeated starts are visited once, at their first place; 5 is never
    # reached
    assert _reach([2, 0, 2], successors) == [2, 0, 3, 4, 1]
    assert calls == [2, 0, 3, 4, 1]
    rng = random.Random("reach")
    for _ in range(200):
        n = rng.randint(1, 8)
        graph = {v: [rng.randrange(n) for _ in range(rng.randint(0, 3))] for v in range(n)}
        starts = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        calls = []
        # successors may return any iterable, as explore's generator does
        order = _reach(starts, lambda v: calls.append(v) or iter(graph[v]))
        assert order == calls == _queue_walk(starts, graph)


def random_prefix(rng, arena, length):
    walk = [arena.initial]
    for _ in range(length):
        walk.append(rng.choice(arena.succ[walk[-1]]))
    return walk


class TestUpdatePlus:
    def test_single_vertex_gives_initial(self, a1):
        mem = toggle_memory(a1)
        assert update_plus(mem, ["a"]) == 0

    def test_one_state_memory_is_constant(self, a1):
        mem = trivial_memory(a1)
        assert update_plus(mem, ["a", "b", "b", "a"]) == 0

    def test_toggle_parity(self, a1):
        mem = toggle_memory(a1)
        # two edges flip twice, back to the initial state
        assert update_plus(mem, ["a", "b", "a"]) == 0
        # three edges land in the non-initial state
        assert update_plus(mem, ["a", "b", "b", "a"]) == 1

    def test_empty_prefix_rejected(self, a1):
        with pytest.raises(InputError):
            update_plus(trivial_memory(a1), [])

    def test_non_edge_rejected(self, a1):
        with pytest.raises(InputError):
            update_plus(trivial_memory(a1), ["a", "a"])

    def test_homomorphism(self, a1):
        mem = toggle_memory(a1)
        rng = random.Random(7)
        for _ in range(25):
            prefix = random_prefix(rng, a1, rng.randint(1, 8))
            head, last = prefix[:-1], prefix[-1]
            assert update_plus(mem, prefix) == mem.step(
                update_plus(mem, head), (head[-1], last))


class TestExpand:
    def test_trivial_memory_isomorphic(self, a1):
        prod = expand(a1, trivial_memory(a1))
        assert sorted(prod.vertices) == [(v, 0) for v in a1.vertices]
        assert prod.initial == ("a", 0)
        assert {(u[0], w[0]) for u, w in prod.edges} == set(a1.edges)

    def test_size_bound(self, a1):
        prod = expand(a1, toggle_memory(a1))
        assert len(prod.vertices) <= len(a1) * 2

    def test_reachable_part_only(self):
        arena = Arena({"a": 0, "b": 0}, [("a", "a"), ("b", "a"), ("a", "b")], "a")
        mem = MemoryStructure((0, 1), 0,
                              {(s, e): (1 if e == ("a", "b") else s)
                               for s in (0, 1) for e in arena.edges})
        prod = expand(arena, mem)
        # b is only ever entered through the flipping edge, so (b, 0) is
        # unreachable and must not appear
        assert ("a", 1) in prod.vertices
        assert ("b", 1) in prod.vertices
        assert ("b", 0) not in prod.vertices

    def test_ownership_inherited(self, a1):
        prod = expand(a1, toggle_memory(a1))
        for (v, _s) in prod.vertices:
            assert prod.owner[(v, _s)] == a1.owner[v]


class TestExtendLasso:
    def test_one_state_memory(self, a1):
        lasso = Lasso(("a",), ("b", "a", "b", "b")).check_in(a1)
        ext = extend_lasso(trivial_memory(a1), lasso)
        assert project(ext, lambda pv: pv[0]) == lasso

    def test_toggle_odd_loop_doubles(self, a1):
        lasso = Lasso(("a",), ("b", "a", "b", "b", "b"))
        ext = extend_lasso(toggle_memory(a1), lasso)
        assert len(ext.loop) == 10

    def test_toggle_even_loop_keeps_length(self, a1):
        lasso = Lasso(("a",), ("b", "b"))
        ext = extend_lasso(toggle_memory(a1), lasso)
        assert len(ext.loop) == 2

    def test_projection_denotes_same_play(self, a1):
        rng = random.Random(13)
        mem = toggle_memory(a1)
        for _ in range(20):
            lasso = random_lasso(rng, a1)
            ext = extend_lasso(mem, lasso)
            proj = project(ext, lambda pv: pv[0])
            assert play_positions(proj, 30) == play_positions(lasso, 30)

    def test_loop_length_divides_product(self, a1):
        rng = random.Random(99)
        mem = toggle_memory(a1)
        for _ in range(20):
            lasso = random_lasso(rng, a1)
            ext = extend_lasso(mem, lasso)
            assert (len(lasso.loop) * len(mem)) % len(ext.loop) == 0


class TestProductMemory:
    def _m2_over(self, prod):
        # flips on edges whose source vertex component is 'b'
        return MemoryStructure(
            ("x", "y"), "x",
            {(s, e): ("y" if s == "x" else "x") if e[0][0] == "b" else s
             for s in ("x", "y") for e in prod.edges})

    def test_state_count_is_product(self, a1):
        m1 = toggle_memory(a1)
        m2 = self._m2_over(expand(a1, m1))
        assert len(product_memory(m1, m2, a1)) == len(m1) * len(m2)

    def test_trivial_second_factor(self, a1):
        m1 = toggle_memory(a1)
        m2 = trivial_memory(expand(a1, m1))
        prod = product_memory(m1, m2, a1)
        rng = random.Random(5)
        for _ in range(20):
            prefix = random_prefix(rng, a1, rng.randint(0, 6))
            assert update_plus(prod, prefix)[0] == update_plus(m1, prefix)

    def test_update_identity_on_random_prefixes(self, a1):
        # running both factors in sequence equals running the product
        m1 = toggle_memory(a1)
        expanded = expand(a1, m1)
        m2 = self._m2_over(expanded)
        prod = product_memory(m1, m2, a1)
        rng = random.Random(21)
        for _ in range(50):
            prefix = random_prefix(rng, a1, rng.randint(0, 10))
            s1 = update_plus(m1, prefix)
            # thread m2 over the extended prefix by hand
            s2 = m2.initial
            cur = m1.initial
            for i in range(len(prefix) - 1):
                nxt = m1.step(cur, (prefix[i], prefix[i + 1]))
                s2 = m2.step(s2, ((prefix[i], cur), (prefix[i + 1], nxt)))
                cur = nxt
            assert update_plus(prod, prefix) == (s1, s2)

    def test_rows_are_exactly_the_reachable_pairs(self, a1):
        # 'z' is never entered, so no row pairs it with anything; every
        # (state, edge) pair that plays from the initial vertex reach has one
        m1 = toggle_memory(a1)
        expanded = expand(a1, m1)
        m2 = MemoryStructure(("x", "y", "z"), "x",
                             {(s, e): "y" if e[0][0] == "b" else s
                              for s in ("x", "y", "z") for e in expanded.edges})
        prod = product_memory(m1, m2, a1)
        assert len(prod) == len(m1) * len(m2)
        rows = {}
        start = (a1.initial, prod.initial)
        seen, todo = {start}, [start]
        while todo:
            v, (s1, s2) = todo.pop()
            for w in a1.succ[v]:
                t1 = m1.step(s1, (v, w))
                nxt = (w, (t1, m2.step(s2, ((v, s1), (w, t1)))))
                rows[((s1, s2), (v, w))] = nxt[1]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        assert prod.update == rows

    def test_missing_second_row_rejected(self, a1):
        m1 = toggle_memory(a1)
        m2 = self._m2_over(expand(a1, m1))
        del m2.update[("x", (("a", 0), ("b", 1)))]
        with pytest.raises(InputError, match="undefined"):
            product_memory(m1, m2, a1)

    def test_alphabet_shape_checked(self, a1):
        m1 = toggle_memory(a1)
        with pytest.raises(InputError, match="expanded"):
            product_memory(m1, toggle_memory(a1), a1)


class TestComposeStrategy:
    def _product_strategy(self, a1, m1):
        prod = expand(a1, m1)
        moves = {}
        for pv in prod.vertices:
            if prod.owner[pv] == 0:
                moves[pv] = prod.succ[pv][0]
        return positional_strategy(prod, 0, moves), prod

    def test_size_is_memory_product(self, a1):
        m1 = toggle_memory(a1)
        strat, _ = self._product_strategy(a1, m1)
        composed = compose_strategy(m1, strat, a1)
        assert composed.size() == len(m1) * len(strat.memory)

    def test_trivial_first_factor_keeps_moves(self, a1):
        m1 = trivial_memory(a1)
        strat, _ = self._product_strategy(a1, m1)
        composed = compose_strategy(m1, strat, a1)
        for ((v, s1), s2), target in strat.next_move.items():
            assert composed.next_move[(v, (s1, s2))] == target[0]

    def test_consistent_plays_extend_consistently(self, a1):
        # plays following the composed strategy extend to plays following
        # the product strategy
        m1 = toggle_memory(a1)
        strat, _prod = self._product_strategy(a1, m1)
        composed = compose_strategy(m1, strat, a1)
        rng = random.Random(3)
        for _ in range(20):
            play = [a1.initial]
            state = composed.memory.initial
            for _ in range(12):
                v = play[-1]
                if a1.owner[v] == 0:
                    w = composed.move(v, state)
                else:
                    w = rng.choice(a1.succ[v])
                state = composed.memory.step(state, (v, w))
                play.append(w)
            # replay on the expanded arena and check the product strategy
            s1 = m1.initial
            s2 = strat.memory.initial
            for i in range(len(play) - 1):
                v, w = play[i], play[i + 1]
                t1 = m1.step(s1, (v, w))
                if a1.owner[v] == 0:
                    assert strat.next_move[((v, s1), s2)] == (w, t1)
                s2 = strat.memory.step(s2, ((v, s1), (w, t1)))
                s1 = t1
