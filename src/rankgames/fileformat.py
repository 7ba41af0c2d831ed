"""JSON game and strategy files.

One game format with optional quantitative sections (exactly one of
``rank``, ``costs``, ``faults``, or none), because the toolchain moves
between game kinds and shared tooling should read them all.  Strategy
files serialize finite-state strategies losslessly; in-memory states that
are not strings are renamed to stable generated identifiers on write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .arena import Arena
from .errors import InputError
from .memory import FiniteStateStrategy, MemoryStructure
from .objectives import (Buchi, CoBuchi, CostRRSpec, Objective,
                         RequestResponse, Safety, SafetyAndCoBuchi)
from .ranked import RankedGame
from .resilience import FaultArena
from .rrcost import CostRRGame


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
    out = []
    for i, v in enumerate(ids):
        if not isinstance(v, str) or v not in known:
            raise InputError(f"{where}[{i}]: unknown vertex id {v!r}")
        out.append(v)
    return frozenset(out)


def _parse_arena(doc) -> Arena:
    arena = _need(doc, "arena", "game", dict)
    vertices = _need(arena, "vertices", "arena", list)
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
    edges = []
    for i, entry in enumerate(_need(arena, "edges", "arena", list)):
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
    for v in sorted(owner):
        if v not in with_out:
            raise InputError(f"arena: vertex {v!r} has no outgoing edge")
    return Arena.of(owner, edges, initial)


def _parse_objective(doc, arena: Arena) -> Objective:
    obj = _need(doc, "objective", "game", dict)
    kind = _need(obj, "type", "objective", str)
    known = set(arena.vertices)
    if kind == "safety":
        return Safety(_vertex_list(_need(obj, "safe", "objective", list),
                                   known, "objective.safe"))
    if kind == "buchi":
        return Buchi(_vertex_list(_need(obj, "accept", "objective", list),
                                  known, "objective.accept"))
    if kind == "cobuchi":
        return CoBuchi(_vertex_list(_need(obj, "avoid", "objective", list),
                                    known, "objective.avoid"))
    if kind == "safety_cobuchi":
        return SafetyAndCoBuchi(
            _vertex_list(_need(obj, "safe", "objective", list), known, "objective.safe"),
            _vertex_list(_need(obj, "avoid", "objective", list), known, "objective.avoid"))
    if kind == "request_response":
        pairs = []
        for i, entry in enumerate(_need(obj, "pairs", "objective", list)):
            where = f"objective.pairs[{i}]"
            pairs.append((
                _vertex_list(_need(entry, "request", where, list), known, where + ".request"),
                _vertex_list(_need(entry, "response", where, list), known, where + ".response")))
        return RequestResponse(tuple(pairs))
    raise InputError(f"objective.type: unknown objective type {kind!r}")


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
    known = set(arena.vertices)
    if sections[0] == "rank":
        rank = _need(doc, "rank", "game", dict)
        mode = _need(rank, "mode", "rank", str)
        values = _need(rank, "values", "rank", dict)
        rk = {}
        for v, r in values.items():
            if v not in known:
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
            if v not in known:
                raise InputError(f"{where}: unknown vertex id {v!r}")
        if arena.owner[u] != 0:
            raise InputError(f"{where}: fault source must be owned by Player 0")
        faults.add((u, w))
    fa = FaultArena(arena, frozenset(faults), objective.safe)
    return LoadedGame("fault", arena, objective, fault=fa)


def parse_game(path: str) -> LoadedGame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse_game_doc(doc)


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
    if isinstance(obj, Safety):
        return {"type": "safety", "safe": sorted(obj.safe)}
    if isinstance(obj, Buchi):
        return {"type": "buchi", "accept": sorted(obj.accept)}
    if isinstance(obj, CoBuchi):
        return {"type": "cobuchi", "avoid": sorted(obj.avoid)}
    if isinstance(obj, SafetyAndCoBuchi):
        return {"type": "safety_cobuchi", "safe": sorted(obj.safe),
                "avoid": sorted(obj.avoid)}
    return {"type": "request_response",
            "pairs": [{"request": sorted(q), "response": sorted(p)}
                      for q, p in obj.pairs]}


def strategy_to_doc(strategy: FiniteStateStrategy) -> dict:
    mem = strategy.memory
    if all(isinstance(s, str) for s in mem.states):
        name = {s: s for s in mem.states}
    else:
        name = {s: f"m{i}" for i, s in enumerate(mem.states)}
    return {
        "owner": strategy.owner,
        "memory": {
            "states": [name[s] for s in mem.states],
            "initial": name[mem.initial],
            "update": [
                {"state": name[s], "from": e[0], "to": e[1], "next": name[t]}
                for (s, e), t in sorted(mem.update.items(),
                                        key=lambda kv: (name[kv[0][0]], kv[0][1]))
            ],
        },
        "moves": [
            {"vertex": v, "state": name[s], "target": w}
            for (v, s), w in sorted(strategy.next_move.items(),
                                    key=lambda kv: (kv[0][0], name[kv[0][1]]))
        ],
    }


def strategy_from_doc(doc) -> FiniteStateStrategy:
    if not isinstance(doc, dict):
        raise InputError("strategy file must hold a JSON object")
    owner = _need(doc, "owner", "strategy", int)
    memdoc = _need(doc, "memory", "strategy", dict)
    states = tuple(_need(memdoc, "states", "memory", list))
    if not all(isinstance(s, str) for s in states) or len(set(states)) != len(states):
        raise InputError("memory.states: state names must be distinct strings")
    initial = _need(memdoc, "initial", "memory", str)
    update = {}
    for i, entry in enumerate(_need(memdoc, "update", "memory", list)):
        where = f"memory.update[{i}]"
        s = _need(entry, "state", where, str)
        u = _need(entry, "from", where, str)
        w = _need(entry, "to", where, str)
        t = _need(entry, "next", where, str)
        key = (s, (u, w))
        if key in update:
            raise InputError(f"{where}: duplicate update row")
        update[key] = t
    mem = MemoryStructure(states, initial, update)
    moves = {}
    for i, entry in enumerate(_need(doc, "moves", "strategy", list)):
        where = f"moves[{i}]"
        v = _need(entry, "vertex", where, str)
        s = _need(entry, "state", where, str)
        w = _need(entry, "target", where, str)
        if (v, s) in moves:
            raise InputError(f"{where}: duplicate move row")
        moves[(v, s)] = w
    return FiniteStateStrategy(owner, mem, moves)


def write_strategy(path: str, strategy: FiniteStateStrategy) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy_to_doc(strategy), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_strategy(path: str) -> FiniteStateStrategy:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return strategy_from_doc(doc)


def check_strategy_against(strategy: FiniteStateStrategy, arena: Arena) -> None:
    """Alphabet compatibility of a (possibly loaded) strategy with a game."""
    for (_s, e) in strategy.memory.update:
        if e not in arena.edges:
            raise InputError(f"strategy memory reads unknown edge {e!r}")
    vertices = set(arena.vertices)
    for (v, _s), w in strategy.next_move.items():
        if v not in vertices:
            raise InputError(f"strategy moves at unknown vertex {v!r}")
        if arena.owner[v] != strategy.owner:
            raise InputError(f"strategy moves at vertex {v!r} not owned by player "
                             f"{strategy.owner}")
        if (v, w) not in arena.edges:
            raise InputError(f"strategy move ({v!r} -> {w!r}) is not an edge")
