"""JSON game and strategy files.

One game format with optional quantitative sections (exactly one of
``rank``, ``costs``, ``faults``, or none), because the toolchain moves
between game kinds and shared tooling should read them all.  Strategy
files serialize finite-state strategies losslessly; in-memory states that
are not strings are renamed to stable generated identifiers on write.

The on-disk layout of a strategy file is part of the format: the text
``json.dump(strategy_to_doc(s), indent=2, sort_keys=True)`` writes, plus
a final newline.  ``write_strategy`` formats that layout directly from
the rows of a strategy whose vertex labels are strings, as every game
file's are, and a test holds its bytes to the ``json`` reference; a
strategy on other labels, which only library callers build, is written
as that reference text itself.  It rewrites an existing file in place and
cuts it to length.  A one-state strategy a solver built is written from
its rows on vertex ids, in file order as they are, without building its
label tables; every other strategy's label rows are sorted into file
order first.

Readers take the vertex, edge, update and move tables of a file, and the
objective's vertex lists, whole: one comprehension reads a table and one
check over the whole table accepts it, by its row count against the size
of the dict it built (duplicates), the types of its values and their
containment in the known vertices, edges and memory states.  The rank
values and fault rows are checked once, by ``RankedGame`` and
``FaultArena``, whose checks are such table checks too, and the edge
endpoints by the arena's numbering, which looks each up among the vertex
ids.  Only a table a check rejects is walked row by row, through the
field-by-field checks of ``_need``, which word its first error in file
order.  Cost tables, a few rows long, are only walked.  The strategy reader takes the game's arena
and checks the update and move tables against it.  The arenas and
memories the readers build go through the trusted constructors, which
check nothing again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .arena import Arena
from .errors import InputError
from .memory import FiniteStateStrategy, MemoryStructure
from .objectives import (Buchi, CoBuchi, CostRRSpec, Objective,
                         RequestResponse, Safety, SafetyAndCoBuchi)
from .ranked import RankedGame
from .resilience import FaultArena
from .rrcost import CostRRGame

_first, _second = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class LoadedGame:
    kind: str  # qualitative | ranked | costrr | fault
    arena: Arena
    objective: Objective
    ranked: Optional[RankedGame] = None
    costrr: Optional[CostRRGame] = None
    fault: Optional[FaultArena] = None


def _need(doc, key, where, kind):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    if key not in doc:
        raise InputError(f"{where}: missing required field '{key}'")
    value = doc[key]
    # JSON booleans load as Python bools, which are ints too
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _vertex_list(ids, known, where):
    try:
        out = frozenset(ids)
        if known.keys() >= out:
            return out
    except TypeError:
        pass
    # a list the check rejects has a row that fails here
    for i, v in enumerate(ids):
        if not isinstance(v, str) or v not in known:
            raise InputError(f"{where}[{i}]: unknown vertex id {v!r}")


def _parse_arena(doc) -> Arena:
    # Each table is read by one comprehension, which raises TypeError or
    # KeyError on a row that is not an object or lacks a field, and accepted
    # by one check; a table it rejects is walked with _need, which words the
    # first error.
    arena = _need(doc, "arena", "game", dict)
    vertices = _need(arena, "vertices", "arena", list)
    try:
        owner = {entry["id"]: entry["owner"] for entry in vertices}
        ok = (len(owner) == len(vertices) and {str} >= set(map(type, owner))
              and {int} >= set(map(type, owner.values())) and {0, 1}.issuperset(owner.values()))
    except (TypeError, KeyError):
        ok = False
    if not ok:
        owner = {}
        for i, entry in enumerate(vertices):
            where = f"arena.vertices[{i}]"
            vid = _need(entry, "id", where, str)
            if vid in owner:
                raise InputError(f"{where}: duplicate vertex id {vid!r}")
            pl = _need(entry, "owner", where, int)
            if pl not in (0, 1):
                raise InputError(f"{where}.owner: must be 0 or 1")
            owner[vid] = pl
    rows = _need(arena, "edges", "arena", list)
    try:
        # numbering the endpoints looks each up among the ids, which are
        # strings, so it checks the endpoints' type too; the initial
        # vertex is checked after the edges
        checked = Arena._checked(owner, [(entry["from"], entry["to"]) for entry in rows],
                                 arena.get("initial"))
    except (TypeError, KeyError):
        for i, entry in enumerate(rows):
            where = f"arena.edges[{i}]"
            for v in (_need(entry, "from", where, str), _need(entry, "to", where, str)):
                if v not in owner:
                    raise InputError(f"{where}: unknown vertex id {v!r}")
        raise  # no row the walk accepts fails the numbering
    initial = _need(arena, "initial", "arena", str)
    if initial not in owner:
        raise InputError(f"arena.initial: unknown vertex id {initial!r}")
    if not all(checked.out):
        v = checked.vertices[checked.out.index([])]
        raise InputError(f"arena: vertex {v!r} has no outgoing edge")
    return checked


# objective type names in files; the flat kinds' field names are their keys
_OBJECTIVE_TYPES = {"safety": Safety, "buchi": Buchi, "cobuchi": CoBuchi,
                    "safety_cobuchi": SafetyAndCoBuchi,
                    "request_response": RequestResponse}
_TYPE_NAMES = {cls: name for name, cls in _OBJECTIVE_TYPES.items()}


def _parse_objective(doc, arena: Arena) -> Objective:
    obj = _need(doc, "objective", "game", dict)
    kind = _need(obj, "type", "objective", str)
    cls = _OBJECTIVE_TYPES.get(kind)
    if cls is None:
        raise InputError(f"objective.type: unknown objective type {kind!r}")
    known = arena.owner
    if cls is not RequestResponse:
        return cls(*(_vertex_list(_need(obj, f.name, "objective", list), known,
                                  "objective." + f.name) for f in fields(cls)))
    pairs = []
    for i, entry in enumerate(_need(obj, "pairs", "objective", list)):
        where = f"objective.pairs[{i}]"
        pairs.append((
            _vertex_list(_need(entry, "request", where, list), known, where + ".request"),
            _vertex_list(_need(entry, "response", where, list), known, where + ".response")))
    return RequestResponse(tuple(pairs))


def parse_game_doc(doc) -> LoadedGame:
    if not isinstance(doc, dict):
        raise InputError("game file must hold a JSON object")
    arena = _parse_arena(doc)
    objective = _parse_objective(doc, arena)
    sections = [k for k in ("rank", "costs", "faults") if k in doc]
    if len(sections) > 1:
        raise InputError(f"game: sections {sections} are mutually exclusive")
    if not sections:
        return LoadedGame("qualitative", arena, objective)
    if sections[0] == "rank":
        rank = _need(doc, "rank", "game", dict)
        mode = _need(rank, "mode", "rank", str)
        values = _need(rank, "values", "rank", dict)
        rk = dict(values)
        for v in arena.vertices:
            rk.setdefault(v, 0)
        # RankedGame checks the ranks as it checks the objective's sets, a
        # rank of a non-vertex included; only when it refuses them are the
        # rows walked, to word the first error
        try:
            game = RankedGame(arena, objective, rk, mode)
        except InputError:
            for v, r in values.items():
                if v not in arena.owner:
                    raise InputError(f"rank.values: unknown vertex id {v!r}")
                if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                    raise InputError(f"rank.values.{v}: rank must be a natural number")
            raise
        return LoadedGame("ranked", arena, objective, ranked=game)
    if sections[0] == "costs":
        if not isinstance(objective, RequestResponse):
            raise InputError("costs: edge costs need a request_response objective")
        costs = {}
        for i, entry in enumerate(_need(doc, "costs", "game", list)):
            where = f"costs[{i}]"
            c = _need(entry, "pair", where, int)
            if not (0 <= c < len(objective.pairs)):
                raise InputError(f"{where}.pair: no pair with index {c}")
            u = _need(entry, "from", where, str)
            w = _need(entry, "to", where, str)
            if (u, w) not in arena.edges:
                raise InputError(f"{where}: ({u!r}, {w!r}) is not an edge")
            cost = _need(entry, "cost", where, int)
            if cost < 0:
                raise InputError(f"{where}.cost: must be a natural number")
            if (c, (u, w)) in costs:
                raise InputError(f"{where}: duplicate cost row")
            costs[(c, (u, w))] = cost
        spec = CostRRSpec(objective.pairs, costs)
        return LoadedGame("costrr", arena, objective, costrr=CostRRGame(arena, spec))
    if not isinstance(objective, Safety):
        raise InputError("faults: fault pairs need a safety objective")
    rows = _need(doc, "faults", "game", list)
    # FaultArena checks the pairs; the rows are walked only to word the
    # first error, and a row that is not an object or lacks a field (a
    # TypeError or KeyError here) always has one
    try:
        fa = FaultArena(arena, frozenset((entry["from"], entry["to"]) for entry in rows),
                        objective.safe)
    except (TypeError, KeyError, InputError):
        for i, entry in enumerate(rows):
            where = f"faults[{i}]"
            u = _need(entry, "from", where, str)
            w = _need(entry, "to", where, str)
            for v in (u, w):
                if v not in arena.owner:
                    raise InputError(f"{where}: unknown vertex id {v!r}")
            if arena.owner[u] != 0:
                raise InputError(f"{where}: fault source must be owned by Player 0")
        raise
    return LoadedGame("fault", arena, objective, fault=fa)


def _load_json(path: str):
    """The document in a JSON file; text that is not UTF-8, not JSON or
    nested too deeply to decode is an ``InputError`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def parse_game(path: str) -> LoadedGame:
    return parse_game_doc(_load_json(path))


def game_to_doc(game: LoadedGame) -> dict:
    arena = game.arena
    doc = {
        "arena": {
            "vertices": [{"id": v, "owner": arena.owner[v]} for v in arena.vertices],
            "edges": [{"from": u, "to": w} for (u, w) in sorted(arena.edges)],
            "initial": arena.initial,
        },
        "objective": _objective_to_doc(game.objective),
    }
    if game.kind == "ranked":
        doc["rank"] = {
            "mode": game.ranked.mode,
            "values": {v: game.ranked.rk[v] for v in arena.vertices},
        }
    elif game.kind == "costrr":
        spec = game.costrr.spec
        doc["costs"] = [
            {"pair": c, "from": e[0], "to": e[1], "cost": w}
            for (c, e), w in sorted(spec.edge_costs.items())
        ]
    elif game.kind == "fault":
        doc["faults"] = [{"from": u, "to": w} for (u, w) in sorted(game.fault.faults)]
    return doc


def _objective_to_doc(obj: Objective) -> dict:
    doc = {"type": _TYPE_NAMES[type(obj)]}
    if isinstance(obj, RequestResponse):
        doc["pairs"] = [{"request": sorted(q), "response": sorted(p)} for q, p in obj.pairs]
    else:
        doc.update((f.name, sorted(getattr(obj, f.name))) for f in fields(obj))
    return doc


def _strategy_rows(strategy: FiniteStateStrategy):
    """State names, initial state name, update rows (state, from, to, next)
    and move rows (vertex, state, target) of a strategy, rows in file order."""
    mem = strategy.memory
    if all(isinstance(s, str) for s in mem.states):
        name = {s: s for s in mem.states}
    else:
        name = {s: f"m{i}" for i, s in enumerate(mem.states)}
    # the first three fields of an update row and the first two of a move
    # row are a table key, so no sort ever compares the last field
    update = sorted((name[s], u, w, name[t]) for (s, (u, w)), t in mem.update.items())
    moves = sorted((v, name[s], w) for (v, s), w in strategy.next_move.items())
    return [name[s] for s in mem.states], name[mem.initial], update, moves


def strategy_to_doc(strategy: FiniteStateStrategy) -> dict:
    states, initial, update, moves = _strategy_rows(strategy)
    return {
        "owner": strategy.owner,
        "memory": {
            "states": states,
            "initial": initial,
            "update": [{"state": s, "from": u, "to": w, "next": t}
                       for s, u, w, t in update],
        },
        "moves": [{"vertex": v, "state": s, "target": w} for v, s, w in moves],
    }


def _fields(entry, names, where):
    """The named string fields of a row, or the first error ``_need`` finds."""
    return [_need(entry, key, where, str) for key in names]


def strategy_from_doc(doc, arena: Arena) -> FiniteStateStrategy:
    """The strategy a document holds, each row checked against ``arena``.
    Format errors come first, in file order, with the memory's state errors
    after its update rows; then the owner; then the first row that does not
    fit the game, update rows before moves."""
    # As in _parse_arena, a table that fails its check is walked row by row
    # with _need, which words the first error.
    if not isinstance(doc, dict):
        raise InputError("strategy file must hold a JSON object")
    owner = _need(doc, "owner", "strategy", int)
    memdoc = _need(doc, "memory", "strategy", dict)
    states = tuple(_need(memdoc, "states", "memory", list))
    if not all(isinstance(s, str) for s in states) or len(set(states)) != len(states):
        raise InputError("memory.states: state names must be distinct strings")
    initial = _need(memdoc, "initial", "memory", str)
    known, edges, vertex_owner = set(states), arena.edges, arena.owner
    rows = _need(memdoc, "update", "memory", list)
    unknown, game_error = False, None
    try:
        update = {(entry["state"], (entry["from"], entry["to"])): entry["next"]
                  for entry in rows}
        ok = (len(update) == len(rows) and known.issuperset(map(_first, update))
              and known.issuperset(update.values()) and edges.issuperset(map(_second, update)))
    except (TypeError, KeyError):
        ok = False
    if not ok:
        update = {}
        for i, entry in enumerate(rows):
            s, u, w, t = _fields(entry, ("state", "from", "to", "next"), f"memory.update[{i}]")
            unknown = unknown or s not in known or t not in known
            if game_error is None and (u, w) not in edges:
                game_error = f"strategy memory reads unknown edge {(u, w)!r}"
            key = (s, (u, w))
            if key in update:
                raise InputError(f"memory.update[{i}]: duplicate update row")
            update[key] = t
    # state errors come after every row error, the initial state's first
    if initial not in known:
        raise InputError(f"initial memory state {initial!r} is not a state")
    if unknown:
        raise InputError("memory update mentions an unknown state")
    mem = MemoryStructure._checked(states, initial, update)
    rows = _need(doc, "moves", "strategy", list)
    try:
        moves = {(entry["vertex"], entry["state"]): entry["target"] for entry in rows}
        ok = (len(moves) == len(rows) and known.issuperset(map(_second, moves))
              and edges.issuperset(zip(map(_first, moves), moves.values()))
              and {owner} >= set(map(vertex_owner.get, map(_first, moves))))
    except (TypeError, KeyError):
        ok = False
    if not ok:
        moves = {}
        for i, entry in enumerate(rows):
            v, s, w = _fields(entry, ("vertex", "state", "target"), f"moves[{i}]")
            if s not in known:
                raise InputError(f"moves[{i}]: unknown memory state {s!r}")
            if game_error is None:
                if v not in vertex_owner:
                    game_error = f"strategy moves at unknown vertex {v!r}"
                elif vertex_owner[v] != owner:
                    game_error = f"strategy moves at vertex {v!r} not owned by player {owner}"
                elif (v, w) not in edges:
                    game_error = f"strategy move ({v!r} -> {w!r}) is not an edge"
            if (v, s) in moves:
                raise InputError(f"moves[{i}]: duplicate move row")
            moves[(v, s)] = w
    strategy = FiniteStateStrategy(owner, mem, moves)
    if game_error is not None:
        raise InputError(game_error)
    return strategy


class _Encoded(dict):
    """JSON text of strings, memoized; the text of a string is the same at
    every indent.  Any other value raises ``TypeError``."""

    def __missing__(self, value):
        text = self[value] = encode_basestring_ascii(value)
        return text


def _json_list(items, pad: str) -> str:
    """A JSON list of already indented items whose key line is indented by pad."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + pad + "]"


def _strategy_text(strategy: FiniteStateStrategy) -> str:
    """The file text of a strategy whose vertex labels are strings, built
    from its rows; ``TypeError`` for a label that is not a string."""
    at = _Encoded()
    ids = getattr(strategy, "_ids", None)
    if ids is None:
        # one arena's labels sort together, and strings sort only with
        # strings: a first move at another label raises here, before the
        # rows are built that strategy_to_doc then builds
        if strategy.next_move:
            at[next(iter(strategy.next_move))[0]]
        states, initial, update, moves = _strategy_rows(strategy)
        vertex = at
    else:
        arena, table, rows = ids
        # each label's text by id; the one state, 0, named as
        # _strategy_rows names it
        vertex = list(map(encode_basestring_ascii, arena.vertices))
        states, initial = ["m0"], "m0"
        update = [("m0", i, k, "m0") for i, row in enumerate(rows) for k in row]
        moves = [(i, "m0", k) for i, k in table.items()]
    update_rows = [f'      {{\n        "from": {vertex[u]},\n        "next": {at[t]},\n'
                   f'        "state": {at[s]},\n        "to": {vertex[w]}\n      }}'
                   for s, u, w, t in update]
    move_rows = [f'    {{\n      "state": {at[s]},\n      "target": {vertex[w]},\n'
                 f'      "vertex": {vertex[v]}\n    }}'
                 for v, s, w in moves]
    return "".join((
        '{\n  "memory": {\n    "initial": ', at[initial],
        ',\n    "states": ', _json_list(["      " + at[s] for s in states], "    "),
        ',\n    "update": ', _json_list(update_rows, "    "),
        '\n  },\n  "moves": ', _json_list(move_rows, "  "),
        ',\n  "owner": ', json.dumps(strategy.owner), "\n}\n"))


def write_strategy(path: str, strategy: FiniteStateStrategy) -> None:
    """Write ``strategy_to_doc(strategy)`` in the layout of ``json.dump`` with
    ``indent=2, sort_keys=True`` and a final newline.

    A strategy whose vertex labels are strings, which every game file
    gives, is formatted directly from its rows: the two row shapes are
    fixed, so the pure-Python encoder's generality is not needed.  A
    strategy on vertex ids (:class:`rankgames.memory._OnIds`) gives its
    rows on ids, and its label tables are not built: ids follow the sorted
    labels and its rows are increasing, so they are in file order already,
    and each label is encoded once.  Every other strategy gives its label
    rows, named and sorted by :func:`_strategy_rows`.  A strategy with a
    vertex label that is not a string, which only library callers build,
    is written as the reference text itself, ``json.dumps`` of
    :func:`strategy_to_doc`: the string encoder's ``TypeError`` on such a
    label picks that path.  A strategy on label rows has the label of its
    first move encoded before its rows are built, so one whose labels are
    not strings has its rows built once, by :func:`strategy_to_doc`.

    An existing file is rewritten in place and then cut to the new length,
    not truncated to zero first: on ext4, truncating a file and writing it
    again costs the kernel several times the in-place write.  New files get
    the mode ``open(path, "w")`` gives them.  The cut is made only when the
    old file was longer than the text, which is ASCII, so a new or shorter
    file and a path that reports size 0 (a FIFO, ``/dev/null``) are not cut.
    The write is not atomic: a process killed between the write and the
    cut can leave the old tail after the new text."""
    try:
        text = _strategy_text(strategy)
    except TypeError:
        text = json.dumps(strategy_to_doc(strategy), indent=2, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        old = os.fstat(fd).st_size
        fh.write(text)
        if old > len(text):
            fh.truncate()


def read_strategy(path: str, arena: Arena) -> FiniteStateStrategy:
    return strategy_from_doc(_load_json(path), arena)
