"""The table-at-a-time game reader, held to the row-by-row reference in
``game_reader_reference``.

Seeded games of every kind (qualitative with each objective type,
request-response included; ranked sup and lim; cost-RR; fault) are
written with ``game_to_doc`` and mutated at random with the strategy
reader test's mutator (vertex names, objective types and modes, wrong
types in fields, copied and dropped rows, deleted fields), plus edits
that set a vertex owner or a rank to ``True`` or rank an unknown vertex.
Every mutant must give the reference's first error message or an equal
game: the same arena fields (owners and successors in order), objective,
ranks in dict order, costs and faults.
"""

import copy
import json
import random

import pytest

import game_reader_reference as ref
from rankgames.errors import InputError
from rankgames.fileformat import LoadedGame, game_to_doc, parse_game_doc
from rankgames.gen import (random_arena, random_costrr_game, random_fault_arena,
                           random_ranked_game, random_subset)
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi)
from test_strategy_reader import _mutate

KEYWORDS = ["zz", "sup", "lim", "safety", "buchi", "request_response"]


def _games(rng):
    """One game of each kind, drawn from ``rng``."""
    arena = random_arena(rng, rng.randint(2, 6))
    safe = random_subset(rng, arena, 0.7) | {arena.initial}
    pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.5))
                  for _ in range(rng.randint(1, 2)))
    for obj in (Safety(safe), Buchi(random_subset(rng, arena, 0.5)),
                CoBuchi(random_subset(rng, arena, 0.3)),
                SafetyAndCoBuchi(safe, random_subset(rng, arena, 0.3)),
                RequestResponse(pairs)):
        yield LoadedGame("qualitative", arena, obj)
    for mode in ("sup", "lim"):
        game = random_ranked_game(rng, rng.randint(2, 6), 5, mode)
        yield LoadedGame("ranked", game.arena, game.objective, ranked=game)
    game = random_costrr_game(rng, rng.randint(2, 5), 2, 3)
    yield LoadedGame("costrr", game.arena, game.spec.rr_objective(), costrr=game)
    fa = random_fault_arena(rng, rng.randint(2, 6), 4)
    yield LoadedGame("fault", fa.arena, Safety(fa.safe), fault=fa)


def _edit(rng, doc):
    """Set one vertex owner or one rank to ``True``, or give a rank to an
    unknown vertex: edits the mutator makes rarely or never."""
    values = doc.get("rank", {}).get("values")
    edit = rng.choice(("owner", "rank", "rank key") if values else ("owner",))
    if edit == "owner":
        rng.choice(doc["arena"]["vertices"])["owner"] = True
    elif edit == "rank":
        values[rng.choice(sorted(values))] = True
    else:
        values["zz"] = 0


def _outcome(parse, doc):
    try:
        game = parse(doc)
    except InputError as exc:
        return "error", str(exc)
    a = game.arena
    ranked = game.ranked and (list(game.ranked.rk.items()), game.ranked.mode)
    costs = game.costrr and list(game.costrr.spec.edge_costs.items())
    faults = game.fault and (game.fault.faults, game.fault.safe)
    return "game", (game.kind, a.vertices, list(a.owner.items()), a.edges,
                    list(a.succ.items()), a.out, a.pred, a.initial,
                    game.objective, ranked, costs, faults)


def test_table_reader_matches_row_reader():
    seen = {"error": 0, "game": 0}
    kinds = set()
    for seed in range(40):
        rng = random.Random(f"game-reader:{seed}")
        for game in _games(rng):
            written = game_to_doc(game)
            names = [*game.arena.vertices, *KEYWORDS]
            for _ in range(15):
                doc = json.loads(json.dumps(written))
                if rng.random() < 0.1:
                    _edit(rng, doc)
                for _ in range(rng.randint(0, 3)):
                    _mutate(rng, doc, names)
                expected = _outcome(ref.parse_game_doc, copy.deepcopy(doc))
                assert _outcome(parse_game_doc, doc) == expected, (seed, doc)
                seen[expected[0]] += 1
                if expected[0] == "game":
                    kinds.add(expected[1][0])
    assert min(seen.values()) >= 1000, seen
    assert kinds == {"qualitative", "ranked", "costrr", "fault"}


def test_fault_arena_error_no_row_explains_passes_through(monkeypatch):
    """The fault rows are walked only to word FaultArena's error; when every
    row is well formed, the constructor's own error is raised unchanged."""
    def refuse(fa):
        raise InputError("refused")

    fa = random_fault_arena(random.Random("game-reader:pass"), 4, 4)
    doc = game_to_doc(LoadedGame("fault", fa.arena, Safety(fa.safe), fault=fa))
    monkeypatch.setattr("rankgames.fileformat.FaultArena.__post_init__", refuse)
    with pytest.raises(InputError, match="^refused$"):
        parse_game_doc(doc)


def test_numbering_error_no_edge_row_explains_passes_through(monkeypatch):
    """The edge rows are walked only to word the numbering's error; when
    every row is well formed, that error is raised unchanged."""
    def refuse(cls, owner, edges, initial):
        raise KeyError("refused")

    fa = random_fault_arena(random.Random("game-reader:numbering"), 4, 4)
    doc = game_to_doc(LoadedGame("fault", fa.arena, Safety(fa.safe), fault=fa))
    monkeypatch.setattr("rankgames.fileformat.Arena._checked", classmethod(refuse))
    with pytest.raises(KeyError, match="refused"):
        parse_game_doc(doc)
