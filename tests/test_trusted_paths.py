"""The trusted constructors build what the validating ones build.

The game-file parser, the strategy-file reader and the product walks
(``explore_product``, ``pull_back``, ``trivial_memory`` and
``solve_pruned``'s builder) check their rows themselves and build arenas
and memories through ``Arena._checked`` and ``MemoryStructure._checked``,
which check nothing again.  Each result here must equal, field by field and
in iteration order, what ``Arena(owner, edges, initial)`` and
``MemoryStructure(...)`` build from the same rows, and those must accept
the rows.  An arena's fields include the id rows the solvers read: the
index, the owner row and the successor and predecessor rows.
``rr_product`` builds no arena: the id rows of its numbered product must
equal those of the arena built from its rows.  Solving reads id rows
only, so no request builds the label-keyed successor map except through
the walks that step through labels.
"""

import json
import random

import rr_reference
from rankgames import fileformat
from rankgames.arena import Arena, attractor
from rankgames.fileformat import (game_to_doc, parse_game_doc, strategy_from_doc,
                                  strategy_to_doc)
from rankgames.gen import random_arena, random_subset
from rankgames.memory import MemoryStructure, explore_product, trivial_memory
from rankgames.objectives import RequestResponse
from rankgames.qualsolve import (rr_product, solve_objective, solve_request_response,
                                 solve_safety_cobuchi)
from rankgames.verify import verify_strategy

from test_cli_bytes import _games, _run, digests, reversed_rows


def arena_fields(arena):
    return (arena.vertices, list(arena.owner.items()), arena.edges, arena.initial,
            list(arena.index.items()), *graph_fields(arena))


def graph_fields(graph):
    """The id rows the solvers read of an arena or a numbered product, in id
    order: owners, successor ids and predecessor ids."""
    return (type(graph.owners), graph.owners, graph.out, graph.pred)


def memory_fields(mem):
    return type(mem.states), mem.states, mem.initial, list(mem.update.items())


def assert_arena_as_validated(arena, owner, edges, initial):
    assert arena_fields(arena) == arena_fields(Arena(owner, edges, initial))


def assert_memory_as_validated(mem):
    validated = MemoryStructure(mem.states, mem.initial, mem.update)
    assert memory_fields(mem) == memory_fields(validated)


def _arena_of_rows(doc):
    rows = doc["arena"]
    return ({r["id"]: r["owner"] for r in rows["vertices"]},
            [(r["from"], r["to"]) for r in rows["edges"]], rows["initial"])


def _memory_of_rows(doc):
    rows = doc["memory"]
    update = {(r["state"], (r["from"], r["to"])): r["next"] for r in rows["update"]}
    return MemoryStructure(tuple(rows["states"]), rows["initial"], update)


def test_parsed_games_of_every_kind_equal_the_validated_arena():
    kinds = set()
    for name, game in _games(1):
        kinds.add(game.kind)
        doc = game_to_doc(game)
        for rows in (doc, reversed_rows(doc)):
            arena = parse_game_doc(json.loads(json.dumps(rows))).arena
            assert_arena_as_validated(arena, *_arena_of_rows(rows))
            assert arena_fields(arena) == arena_fields(game.arena), name
    assert kinds == {"qualitative", "ranked", "costrr", "fault"}


def test_read_strategies_equal_the_validated_memory():
    for name, game in _games(2):
        if game.kind != "qualitative":
            continue
        res = solve_objective(game.arena, game.objective)
        for player in (0, 1):
            doc = strategy_to_doc(res.strategy_of(player))
            mem = strategy_from_doc(doc, game.arena).memory
            assert memory_fields(mem) == memory_fields(_memory_of_rows(doc)), name


def _trap(rng, arena):
    region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.3))
    return frozenset(arena.vertices) - region or None


def test_rr_memory_products_inside_and_outside_an_alive_set():
    for seed in range(40):
        rng = random.Random(f"trusted-rr:{seed}")
        arena = random_arena(rng, rng.randint(2, 9))
        pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                      for _ in range(rng.randint(1, 3)))
        for within in (None, _trap(rng, arena)):
            product = rr_product(arena, pairs, within)
            edges = [(i, k) for i, out in enumerate(product.out) for k in out]
            validated = Arena(dict(enumerate(product.owners)), edges, product.initial)
            assert graph_fields(product) == graph_fields(validated)
            assert validated.vertices == tuple(range(len(product.pairs)))
            assert product.states == rr_reference.rr_memory(arena, pairs, within)[0].states
            res = solve_request_response(arena, pairs, within)
            for player in (0, 1):  # pulled back through the numbered product
                assert_memory_as_validated(res.strategy_of(player).memory)


def test_explore_product_and_the_pruned_builder():
    for seed in range(40):
        rng = random.Random(f"trusted-product:{seed}")
        arena = random_arena(rng, rng.randint(2, 9))
        states = tuple(range(rng.randint(1, 3)))
        table = {(s, e): rng.choice(states) for s in states for e in sorted(arena.edges)}
        mem, product = explore_product(arena, states[0], lambda s, e: table[(s, e)])
        assert_memory_as_validated(mem)
        assert_arena_as_validated(product, product.owner, product.edges, product.initial)
        assert product.vertices == tuple(sorted(product.vertices))
        res = solve_safety_cobuchi(arena, random_subset(rng, arena, 0.8),
                                   random_subset(rng, arena, 0.3), _trap(rng, arena))
        for player in (0, 1):
            assert_memory_as_validated(res.strategy_of(player).memory)


def test_trivial_memory_rows_follow_the_sorted_edges():
    arena = random_arena(random.Random("trusted-trivial"), 12)
    mem = trivial_memory(arena)
    assert_memory_as_validated(mem)
    assert list(mem.update) == [(0, e) for e in sorted(arena.edges)]


def test_pred_is_built_on_first_read_and_verify_does_not_read_it():
    game = dict(_games(3))["qual-safety"]
    arena = parse_game_doc(game_to_doc(game)).arena
    strategy = solve_objective(game.arena, game.objective).strategy_0
    verify_strategy(arena, game.objective, strategy)
    assert "pred" not in vars(arena)
    attractor(arena, 0, [arena.initial])
    assert vars(arena)["pred"] == game.arena.pred


def test_requests_build_no_label_successor_map_outside_label_walks(monkeypatch, tmp_path):
    # every command on one seed's games, each parsed arena kept; only the
    # walks that step through labels (cost-RR products, a pruned
    # request-response strategy) read Arena.succ
    parsed = []
    parse = fileformat.parse_game

    def keeping(path):
        game = parse(path)
        parsed.append(game)
        return game
    monkeypatch.setattr(fileformat, "parse_game", keeping)
    digests(tmp_path, seeds=(1,), run=_run)
    by_ids = [game for game in parsed if game.kind != "costrr"
              and not (game.kind == "ranked" and isinstance(game.objective, RequestResponse))]
    assert len(by_ids) > 30 and {game.kind for game in by_ids} == {
        "qualitative", "ranked", "fault"}
    assert not [game for game in by_ids if "succ" in vars(game.arena)]
