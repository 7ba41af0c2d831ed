"""The game and strategy readers' answers pinned on seeded malformed files.

Seeded games of every kind and solver-written strategies are written to
documents and mutated with the random edits of ``tests/test_game_reader.py``
and ``tests/test_strategy_reader.py``.  One mutant in four also gets two
faults in one row: two fields of a vertex, edge, pair, cost, fault, update
or move row renamed, retyped or deleted.  A mutant's outcome is the
message of the reader's first error, or the accepted file written back
(``game_to_doc`` or ``strategy_to_doc``, as JSON with sorted keys).  The
SHA-256 of all outcomes, in order, and their count must equal ``DIGEST``
and ``CASES``; both were recorded before rank maps were checked for keys
that are not vertices, and are the same under any ``PYTHONHASHSEED``.
``DIGEST`` was recorded again when request-response strategies stopped
declaring memory states that none of their rows name: the mutants are
made from fewer states, while the readers are unchanged.  A
change to how the readers check a table, or in which order they check a
row's fields, must leave them alone.  Re-record only for a change that is
meant to alter what a file reads as:
``PYTHONPATH=src python tests/test_file_digest.py``.
"""

import copy
import hashlib
import json
import random

from rankgames.errors import InputError
from rankgames.fileformat import (game_to_doc, parse_game_doc, strategy_from_doc,
                                  strategy_to_doc)
from rankgames.gen import random_arena
from rankgames.qualsolve import solve_objective
from test_game_reader import KEYWORDS, _edit, _games
from test_strategy_reader import WRONG, _containers, _mutate, _objective

DIGEST = "b35dc7c30c12b6e407d01593d7022705d5d95e490df1f648622905b398a420f6"
CASES = 4800
ROUNDS = 40


def _two_faults(rng, doc, names):
    """Rename, retype or delete two fields of one row of ``doc``, in place."""
    rows = [row for node in _containers(doc) if isinstance(node, list)
            for row in node if isinstance(row, dict) and len(row) >= 2]
    if not rows:
        return
    row = rng.choice(rows)
    for key in rng.sample(sorted(row), 2):
        kind = rng.choice(("rename", "retype", "delete"))
        if kind == "rename":
            row[key] = rng.choice(names)
        elif kind == "retype":
            row[key] = copy.deepcopy(rng.choice(WRONG))
        else:
            del row[key]


def _mutants(rng, written, names, count, edit=None):
    """``count`` mutants of the document ``written``; ``edit``, if given,
    makes one more kind of edit, first, in one mutant in ten."""
    for _ in range(count):
        doc = json.loads(json.dumps(written))
        if edit is not None and rng.random() < 0.1:
            edit(rng, doc)
        if rng.random() < 0.25:
            _two_faults(rng, doc, names)
        for _ in range(rng.randint(0, 3)):
            _mutate(rng, doc, names)
        yield doc


def _read(read, write, doc, *args):
    try:
        return "accepted", json.dumps(write(read(doc, *args)), sort_keys=True)
    except InputError as exc:
        return "error", str(exc)


def _outcomes():
    """Every mutant's outcome, in order: game files, then strategy files."""
    for seed in range(ROUNDS):
        rng = random.Random(f"file-digest:games:{seed}")
        for game in _games(rng):
            written = game_to_doc(game)
            names = [*game.arena.vertices, *KEYWORDS]
            for doc in _mutants(rng, written, names, 10, _edit):
                yield _read(parse_game_doc, game_to_doc, doc)
    for seed in range(ROUNDS):
        rng = random.Random(f"file-digest:strategies:{seed}")
        arena = random_arena(rng, rng.randint(2, 6))
        res = solve_objective(arena, _objective(rng, arena))
        for player in (0, 1):
            written = strategy_to_doc(res.strategy_of(player))
            names = [*arena.vertices, *written["memory"]["states"], "zz"]
            for doc in _mutants(rng, written, names, 15):
                yield _read(strategy_from_doc, strategy_to_doc, doc, arena)


def digest():
    """(SHA-256 of the outcomes' reprs, number of mutants, outcome kinds)."""
    h, count, kinds = hashlib.sha256(), 0, {"error": 0, "accepted": 0}
    for outcome in _outcomes():
        h.update(repr(outcome).encode() + b"\n")
        count += 1
        kinds[outcome[0]] += 1
    return h.hexdigest(), count, kinds


def test_reader_answers_are_pinned():
    found, count, kinds = digest()
    assert (found, count) == (DIGEST, CASES)
    assert min(kinds.values()) >= 1000, kinds


if __name__ == "__main__":
    print(*digest())
