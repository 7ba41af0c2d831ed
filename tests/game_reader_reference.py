"""Reference game reader: every row of every table checked as it is read.

These are ``parse_game_doc`` and its helpers as they were before the
package's reader took each table whole and walked its rows only to word
the first error: each row passes one inline check or goes through the
field-by-field checks at once.  The tests hold the package's reader to
them: the same first error message, or an equal game.
"""

from dataclasses import fields

from rankgames.arena import Arena
from rankgames.errors import InputError
from rankgames.fileformat import _OBJECTIVE_TYPES, LoadedGame, _need
from rankgames.objectives import CostRRSpec, Objective, RequestResponse, Safety
from rankgames.ranked import RankedGame
from rankgames.resilience import FaultArena
from rankgames.rrcost import CostRRGame


def _vertex_list(ids, known, where):
    out = []
    for i, v in enumerate(ids):
        if not isinstance(v, str) or v not in known:
            raise InputError(f"{where}[{i}]: unknown vertex id {v!r}")
        out.append(v)
    return frozenset(out)


def _parse_arena(doc) -> Arena:
    # Rows that are certainly valid pass one inline check; any other row
    # goes through the field-by-field checks, which word its error.
    arena = _need(doc, "arena", "game", dict)
    vertices = _need(arena, "vertices", "arena", list)
    owner = {}
    for i, entry in enumerate(vertices):
        if not (type(entry) is dict and type(vid := entry.get("id")) is str
                and vid not in owner and type(pl := entry.get("owner")) is int
                and pl in (0, 1)):
            where = f"arena.vertices[{i}]"
            vid = _need(entry, "id", where, str)
            if vid in owner:
                raise InputError(f"{where}: duplicate vertex id {vid!r}")
            pl = _need(entry, "owner", where, int)
            if pl not in (0, 1):
                raise InputError(f"{where}.owner: must be 0 or 1")
        owner[vid] = pl
    edges = []
    for i, entry in enumerate(_need(arena, "edges", "arena", list)):
        if not (type(entry) is dict and type(u := entry.get("from")) is str
                and type(w := entry.get("to")) is str and u in owner and w in owner):
            where = f"arena.edges[{i}]"
            u = _need(entry, "from", where, str)
            w = _need(entry, "to", where, str)
            for v in (u, w):
                if v not in owner:
                    raise InputError(f"{where}: unknown vertex id {v!r}")
        edges.append((u, w))
    initial = _need(arena, "initial", "arena", str)
    if initial not in owner:
        raise InputError(f"arena.initial: unknown vertex id {initial!r}")
    with_out = {u for u, _ in edges}
    if len(with_out) != len(owner):
        for v in sorted(owner):
            if v not in with_out:
                raise InputError(f"arena: vertex {v!r} has no outgoing edge")
    return Arena._checked(owner, edges, initial)


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
        rk = {}
        for v, r in values.items():
            if v not in arena.owner:
                raise InputError(f"rank.values: unknown vertex id {v!r}")
            if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                raise InputError(f"rank.values.{v}: rank must be a natural number")
            rk[v] = r
        for v in arena.vertices:
            rk.setdefault(v, 0)
        game = RankedGame(arena, objective, rk, mode)
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
    faults = set()
    for i, entry in enumerate(_need(doc, "faults", "game", list)):
        where = f"faults[{i}]"
        u = _need(entry, "from", where, str)
        w = _need(entry, "to", where, str)
        for v in (u, w):
            if v not in arena.owner:
                raise InputError(f"{where}: unknown vertex id {v!r}")
        if arena.owner[u] != 0:
            raise InputError(f"{where}: fault source must be owned by Player 0")
        faults.add((u, w))
    fa = FaultArena(arena, frozenset(faults), objective.safe)
    return LoadedGame("fault", arena, objective, fault=fa)
