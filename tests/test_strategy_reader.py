"""The one-pass strategy reader, held to the reference in ``reader_reference``:
read the file, then check it against the game.

Solver-written strategy documents for both players of small random games
are mutated at random (vertex and state names, duplicated and deleted
rows, wrong types in fields, the owner and the initial state), and every
mutant must give the reference's first error message or an equal strategy.
"""

import copy
import json
import random

import reader_reference as ref
from rankgames.errors import InputError
from rankgames.fileformat import strategy_from_doc, strategy_to_doc
from rankgames.gen import random_arena, random_subset
from rankgames.objectives import Buchi, CoBuchi, RequestResponse, Safety
from rankgames.qualsolve import solve_objective

WRONG = [0, 2, -1, True, None, 1.5, "zz", ["m0"], {"id": "v0"}]
GAME_ERRORS = ("strategy memory reads", "strategy moves at", "strategy move (")


def _objective(rng, arena):
    kind = rng.choice((Safety, Buchi, CoBuchi, RequestResponse))
    if kind is RequestResponse:
        return RequestResponse(tuple((random_subset(rng, arena, 0.3),
                                      random_subset(rng, arena, 0.3))
                                     for _ in range(rng.randint(1, 2))))
    return kind(random_subset(rng, arena, 0.5))


def _containers(node):
    """Every object and list of a document, at any depth."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _mutate(rng, doc, names):
    """One random edit of ``doc``, in place."""
    containers = list(_containers(doc))
    lists = [c for c in containers if isinstance(c, list) and c]
    kind = rng.choice(("rename", "rename", "rename", "retype", "owner", "copy", "drop"))
    if kind == "owner":
        doc["owner"] = rng.choice((0, 1, 1, 2, True))
    elif kind in ("copy", "drop") and lists:
        rows = rng.choice(lists)
        if kind == "copy":
            rows.insert(rng.randint(0, len(rows)), copy.deepcopy(rng.choice(rows)))
        else:
            del rows[rng.randrange(len(rows))]
    else:
        node = rng.choice(containers)
        if isinstance(node, dict):
            key = rng.choice(sorted(node, key=str)) if node else "owner"
        elif node:
            key = rng.randrange(len(node))
        else:
            return
        if kind == "rename":
            node[key] = rng.choice(names)
        elif isinstance(node, dict) and rng.random() < 0.3:
            del node[key]
        else:
            node[key] = copy.deepcopy(rng.choice(WRONG))


def _outcome(read, doc, arena):
    try:
        strategy = read(doc, arena)
    except InputError as exc:
        return "error", str(exc)
    mem = strategy.memory
    return "strategy", (strategy.owner, mem.states, mem.initial, list(mem.update.items()),
                        list(strategy.next_move.items()))


def test_one_pass_reader_matches_read_then_check():
    seen = {"game error": 0, "format error": 0, "accepted": 0}
    for seed in range(40):
        rng = random.Random(f"strategy-reader:{seed}")
        arena = random_arena(rng, rng.randint(2, 6))
        res = solve_objective(arena, _objective(rng, arena))
        for player in (0, 1):
            written = strategy_to_doc(res.strategy_of(player))
            names = [*arena.vertices, *written["memory"]["states"], "zz"]
            for _ in range(20):
                doc = json.loads(json.dumps(written))
                for _ in range(rng.randint(0, 3)):
                    _mutate(rng, doc, names)
                expected = _outcome(ref.read_then_check, copy.deepcopy(doc), arena)
                assert _outcome(strategy_from_doc, doc, arena) == expected, (seed, player, doc)
                kind, detail = expected
                if kind == "strategy":
                    seen["accepted"] += 1
                elif detail.startswith(GAME_ERRORS):
                    seen["game error"] += 1
                else:
                    seen["format error"] += 1
    assert min(seen.values()) >= 80, seen
