import builtins
import gc
import io
import json
import os
import random
import subprocess
import sys

import pytest

import rankgames
from rankgames import cli, fileformat
from rankgames.cli import main
from rankgames.fileformat import (LoadedGame, game_to_doc, parse_game,
                                  parse_game_doc, read_strategy,
                                  strategy_from_doc, strategy_to_doc,
                                  write_strategy)
from rankgames.errors import InputError
from rankgames.gen import (random_arena, random_costrr_game, random_fault_arena,
                           random_ranked_game, random_subset)
from rankgames.arena import Arena
from rankgames.memory import FiniteStateStrategy, MemoryStructure
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi)
from rankgames.qualsolve import solve_request_response, solve_safety, solve_safety_cobuchi
from rankgames.ranked import RankedGame, optimize as optimize_ranked, solve_with_bound
from rankgames.resilience import max_resilience
from rankgames.rrcost import optimize as optimize_costrr
from test_id_strategies import _relabelled


A2_COSTS = {
    "arena": {
        "vertices": [{"id": "q", "owner": 0}, {"id": "p", "owner": 0}],
        "edges": [{"from": "q", "to": "p"}, {"from": "p", "to": "q"}],
        "initial": "q",
    },
    "objective": {"type": "request_response",
                  "pairs": [{"request": ["q"], "response": ["p"]}]},
    "costs": [{"pair": 0, "from": "q", "to": "p", "cost": 3}],
}

SAFETY_WIN = {
    "arena": {
        "vertices": [{"id": "a", "owner": 0}, {"id": "b", "owner": 1}],
        "edges": [{"from": "a", "to": "a"}, {"from": "a", "to": "b"},
                  {"from": "b", "to": "b"}],
        "initial": "a",
    },
    "objective": {"type": "safety", "safe": ["a"]},
}

FS_FAULTS = {
    "arena": {
        "vertices": [{"id": "s", "owner": 0}, {"id": "u", "owner": 0}],
        "edges": [{"from": "s", "to": "s"}, {"from": "u", "to": "u"}],
        "initial": "s",
    },
    "objective": {"type": "safety", "safe": ["s"]},
    "faults": [{"from": "s", "to": "u"}],
}

FE_FAULTS = {
    "arena": {
        "vertices": [{"id": "s", "owner": 0}, {"id": "u", "owner": 0},
                     {"id": "x", "owner": 1}],
        "edges": [{"from": "s", "to": "s"}, {"from": "u", "to": "s"},
                  {"from": "x", "to": "x"}],
        "initial": "u",
    },
    "objective": {"type": "safety", "safe": ["s", "u"]},
    "faults": [{"from": "s", "to": "u"}, {"from": "u", "to": "x"}],
}

RANKED_LIM_RR = {
    "arena": A2_COSTS["arena"],
    "objective": A2_COSTS["objective"],
    "rank": {"mode": "lim", "values": {"q": 0, "p": 1}},
}


RANKED_SUP = dict(SAFETY_WIN, rank={"mode": "sup", "values": {"a": 1}})


# a one-state Player 0 strategy for SAFETY_WIN
SAFETY_STRATEGY = {
    "owner": 0,
    "memory": {"states": ["m0"], "initial": "m0",
               "update": [{"state": "m0", "from": u, "to": w, "next": "m0"}
                          for u, w in (("a", "a"), ("a", "b"), ("b", "b"))]},
    "moves": [{"vertex": "a", "state": "m0", "target": "a"}],
}


def write_game(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _edit(doc, change):
    doc = json.loads(json.dumps(doc))
    change(doc)
    return doc


# (case, game document, strategy document or None, first error message)
FIRST_ERRORS = [
    ("duplicate vertex id",
     _edit(SAFETY_WIN, lambda d: d["arena"]["vertices"].append({"id": "a", "owner": 1})),
     None, "arena.vertices[2]: duplicate vertex id 'a'"),
    ("owner 2", _edit(SAFETY_WIN, lambda d: d["arena"]["vertices"][1].update(owner=2)),
     None, "arena.vertices[1].owner: must be 0 or 1"),
    ("owner true", _edit(SAFETY_WIN, lambda d: d["arena"]["vertices"][1].update(owner=True)),
     None, "arena.vertices[1].owner: expected int"),
    ("unknown edge endpoint",
     _edit(SAFETY_WIN, lambda d: d["arena"]["edges"].append({"from": "a", "to": "zz"})),
     None, "arena.edges[3]: unknown vertex id 'zz'"),
    ("unknown initial vertex", _edit(SAFETY_WIN, lambda d: d["arena"].update(initial="zz")),
     None, "arena.initial: unknown vertex id 'zz'"),
    # c comes first in the file, but the message names the smaller vertex
    ("two vertices without outgoing edges",
     {"arena": {"vertices": [{"id": v, "owner": 0} for v in "cba"],
                "edges": [{"from": "a", "to": "c"}], "initial": "a"},
      "objective": {"type": "safety", "safe": ["a"]}},
     None, "arena: vertex 'b' has no outgoing edge"),
    ("non-object edge row", _edit(SAFETY_WIN, lambda d: d["arena"]["edges"].__setitem__(1, "a")),
     None, "arena.edges[1]: expected an object"),
    ("duplicate update row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"].append(d["memory"]["update"][0])),
     "memory.update[3]: duplicate update row"),
    ("duplicate move row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"].append(d["moves"][0])),
     "moves[1]: duplicate move row"),
    ("non-string state in an update row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][1].update(state=0)),
     "memory.update[1].state: expected str"),
    ("non-string state in a move row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"][0].update(state=0)),
     "moves[0].state: expected str"),
    ("non-string memory state", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["states"].append(1)),
     "memory.states: state names must be distinct strings"),
    ("missing next", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][2].pop("next")),
     "memory.update[2]: missing required field 'next'"),
    ("unlisted initial memory state", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"].update(initial="x")),
     "initial memory state 'x' is not a state"),
    ("unlisted state in an update row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][1].update(next="x")),
     "memory update mentions an unknown state"),
    ("unlisted state in a later update row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][2].update(state="x")),
     "memory update mentions an unknown state"),
    ("costs on a safety game", dict(SAFETY_WIN, costs=[]), None,
     "costs: edge costs need a request_response objective"),
    ("cost row for an unknown pair", _edit(A2_COSTS, lambda d: d["costs"][0].update(pair=5)),
     None, "costs[0].pair: no pair with index 5"),
    ("cost row on a non-edge", _edit(A2_COSTS, lambda d: d["costs"][0].update(to="q")),
     None, "costs[0]: ('q', 'q') is not an edge"),
    ("negative cost", _edit(A2_COSTS, lambda d: d["costs"][0].update(cost=-1)),
     None, "costs[0].cost: must be a natural number"),
    ("faults on a Buchi game",
     dict(FS_FAULTS, objective={"type": "buchi", "accept": ["s"]}), None,
     "faults: fault pairs need a safety objective"),
    ("fault to an unknown vertex", _edit(FS_FAULTS, lambda d: d["faults"][0].update(to="zz")),
     None, "faults[0]: unknown vertex id 'zz'"),
    ("rank of an unknown vertex",
     dict(SAFETY_WIN, rank={"mode": "sup", "values": {"a": 1, "zz": 0}}), None,
     "rank.values: unknown vertex id 'zz'"),
    ("unknown rank mode", dict(SAFETY_WIN, rank={"mode": "max", "values": {}}), None,
     "mode must be one of ('sup', 'lim'), got 'max'"),
    ("game file holding a list", [SAFETY_WIN], None, "game file must hold a JSON object"),
    ("strategy file holding a list", SAFETY_WIN, [SAFETY_STRATEGY],
     "strategy file must hold a JSON object"),
    ("move at an unknown vertex", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"][0].update(vertex="zz")),
     "strategy moves at unknown vertex 'zz'"),
    ("move at an opponent vertex", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"][0].update(vertex="b", target="b")),
     "strategy moves at vertex 'b' not owned by player 0"),
    ("move along a non-edge", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"][0].update(target="zz")),
     "strategy move ('a' -> 'zz') is not an edge"),
    ("move at an unlisted memory state", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["moves"].append(
         {"vertex": "a", "state": "nosuch", "target": "a"})),
     "moves[1]: unknown memory state 'nosuch'"),
    ("memory reading a non-edge", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][2].update(to="a")),
     "strategy memory reads unknown edge ('b', 'a')"),
    # a file with both a format error and a game error reports the format
    # error; game errors come last, an update row's before a move's, and
    # all of them before verify's --bound checks
    ("non-edge update row, then a row without next", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d["memory"]["update"][0].update(to="zz"),
                                       d["memory"]["update"][2].pop("next"))),
     "memory.update[2]: missing required field 'next'"),
    ("non-edge update row and an unlisted initial state", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d["memory"]["update"][2].update(to="a"),
                                       d["memory"].update(initial="x"))),
     "initial memory state 'x' is not a state"),
    ("move at an unknown vertex, then its duplicate", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d["moves"][0].update(vertex="zz"),
                                       d["moves"].append(dict(d["moves"][0])))),
     "moves[1]: duplicate move row"),
    ("move along a non-edge and a non-edge update row", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d["moves"][0].update(target="zz"),
                                       d["memory"]["update"][2].update(to="a"))),
     "strategy memory reads unknown edge ('b', 'a')"),
    ("owner 2 and a move along a non-edge", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d.update(owner=2), d["moves"][0].update(target="zz"))),
     "strategy owner must be 0 or 1"),
    ("non-edge update row before the missing --bound", RANKED_SUP,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"][2].update(to="a")),
     "strategy memory reads unknown edge ('b', 'a')"),
    # two faults in one row: a row's fields are read before any is checked,
    # a repeated vertex id is found before its owner is read, a cost row's
    # pair is checked before its edge, and an update row's repeated key is
    # reported at once, while its unknown state and edge wait for later
    ("move with an unknown state and no target", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: (d["moves"][0].update(state="x"),
                                       d["moves"][0].pop("target"))),
     "moves[0]: missing required field 'target'"),
    ("repeated vertex id with a non-int owner",
     _edit(SAFETY_WIN, lambda d: d["arena"]["vertices"].append({"id": "a", "owner": "x"})),
     None, "arena.vertices[2]: duplicate vertex id 'a'"),
    ("edge from an unknown vertex with no to",
     _edit(SAFETY_WIN, lambda d: d["arena"]["edges"].append({"from": "zz"})),
     None, "arena.edges[3]: missing required field 'to'"),
    ("cost row for an unknown pair on a non-edge",
     _edit(A2_COSTS, lambda d: d["costs"][0].update(pair=5, to="q")),
     None, "costs[0].pair: no pair with index 5"),
    ("repeated update row with an unknown state on a non-edge", SAFETY_WIN,
     _edit(SAFETY_STRATEGY, lambda d: d["memory"]["update"].extend(
         [{"state": "x", "from": "b", "to": "a", "next": "m0"}] * 2)),
     "memory.update[4]: duplicate update row"),
]


def _objective(doc):
    return {"arena": SAFETY_WIN["arena"], "objective": doc}


# per objective type: a missing field, a field that is not a list, and an
# unknown vertex id, each in its first field; safety_cobuchi errors come
# from safe before avoid, request-response errors from request before
# response
OBJECTIVE_ERRORS = [
    ("safety without safe", {"type": "safety"}, "objective: missing required field 'safe'"),
    ("safety non-list safe", {"type": "safety", "safe": "a"}, "objective.safe: expected list"),
    ("safety unknown vertex", {"type": "safety", "safe": ["a", "zz"]},
     "objective.safe[1]: unknown vertex id 'zz'"),
    ("buchi without accept", {"type": "buchi", "safe": ["a"]},
     "objective: missing required field 'accept'"),
    ("buchi non-list accept", {"type": "buchi", "accept": {"a": 1}},
     "objective.accept: expected list"),
    ("buchi unknown vertex", {"type": "buchi", "accept": ["b", 1]},
     "objective.accept[1]: unknown vertex id 1"),
    ("cobuchi without avoid", {"type": "cobuchi"}, "objective: missing required field 'avoid'"),
    ("cobuchi non-list avoid", {"type": "cobuchi", "avoid": None},
     "objective.avoid: expected list"),
    ("cobuchi unknown vertex", {"type": "cobuchi", "avoid": ["zz"]},
     "objective.avoid[0]: unknown vertex id 'zz'"),
    ("safety_cobuchi without safe", {"type": "safety_cobuchi", "avoid": ["zz"]},
     "objective: missing required field 'safe'"),
    ("safety_cobuchi without avoid", {"type": "safety_cobuchi", "safe": ["a"]},
     "objective: missing required field 'avoid'"),
    ("safety_cobuchi non-list safe", {"type": "safety_cobuchi", "safe": "a", "avoid": "b"},
     "objective.safe: expected list"),
    ("safety_cobuchi non-list avoid", {"type": "safety_cobuchi", "safe": ["a"], "avoid": "b"},
     "objective.avoid: expected list"),
    ("safety_cobuchi unknown vertex",
     {"type": "safety_cobuchi", "safe": ["a", "y"], "avoid": ["x"]},
     "objective.safe[1]: unknown vertex id 'y'"),
    ("safety_cobuchi unknown avoid vertex",
     {"type": "safety_cobuchi", "safe": ["a"], "avoid": ["b", "x"]},
     "objective.avoid[1]: unknown vertex id 'x'"),
    ("request_response without pairs", {"type": "request_response"},
     "objective: missing required field 'pairs'"),
    ("request_response non-list pairs", {"type": "request_response", "pairs": {}},
     "objective.pairs: expected list"),
    ("request_response non-object pair", {"type": "request_response", "pairs": [["a"]]},
     "objective.pairs[0]: expected an object"),
    ("request_response without request",
     {"type": "request_response", "pairs": [{"response": ["zz"]}]},
     "objective.pairs[0]: missing required field 'request'"),
    ("request_response non-list response",
     {"type": "request_response", "pairs": [{"request": ["a"], "response": "b"}]},
     "objective.pairs[0].response: expected list"),
    ("request_response unknown vertex",
     {"type": "request_response",
      "pairs": [{"request": ["a"], "response": ["b"]},
                {"request": ["a", "zz"], "response": ["yy"]}]},
     "objective.pairs[1].request[1]: unknown vertex id 'zz'"),
    ("request_response no pairs", {"type": "request_response", "pairs": []},
     "request-response needs at least one pair"),
    ("unknown objective type", {"type": "parity", "safe": ["a"]},
     "objective.type: unknown objective type 'parity'"),
    ("missing objective type", {"safe": ["a"]}, "objective: missing required field 'type'"),
]
FIRST_ERRORS += [(case, _objective(doc), None, message)
                 for case, doc, message in OBJECTIVE_ERRORS]


class TestParsing:
    def test_minimal_game_parses(self, tmp_path):
        doc = {"arena": {"vertices": [{"id": "v", "owner": 0}],
                         "edges": [{"from": "v", "to": "v"}], "initial": "v"},
               "objective": {"type": "safety", "safe": ["v"]}}
        game = parse_game(write_game(tmp_path, doc))
        assert game.kind == "qualitative"

    def test_terminal_vertex_reported(self):
        doc = json.loads(json.dumps(SAFETY_WIN))
        doc["arena"]["edges"] = [{"from": "a", "to": "b"}]
        with pytest.raises(InputError, match="no outgoing edge"):
            parse_game_doc(doc)

    def test_unknown_vertex_reported_with_location(self):
        doc = json.loads(json.dumps(SAFETY_WIN))
        doc["arena"]["edges"].append({"from": "a", "to": "zz"})
        with pytest.raises(InputError, match=r"arena.edges\[3\]"):
            parse_game_doc(doc)

    def test_a2_costs_parse(self, tmp_path):
        game = parse_game(write_game(tmp_path, A2_COSTS))
        assert game.kind == "costrr"
        assert game.costrr.spec.max_cost == 3

    def test_exclusive_sections(self):
        doc = json.loads(json.dumps(A2_COSTS))
        doc["rank"] = {"mode": "sup", "values": {}}
        with pytest.raises(InputError, match="mutually exclusive"):
            parse_game_doc(doc)

    def test_fault_on_player1_vertex_rejected(self):
        doc = json.loads(json.dumps(FS_FAULTS))
        doc["arena"]["vertices"][0]["owner"] = 1
        with pytest.raises(InputError, match="owned by Player 0"):
            parse_game_doc(doc)

    def test_game_roundtrip_is_identity(self, tmp_path):
        for doc in (A2_COSTS, SAFETY_WIN, FS_FAULTS, RANKED_LIM_RR):
            if doc is RANKED_LIM_RR:
                continue  # rejected at parse; covered below
            game = parse_game(write_game(tmp_path, doc))
            doc2 = game_to_doc(game)
            game2 = parse_game_doc(doc2)
            assert game_to_doc(game2) == doc2
            assert game2.arena == game.arena
            assert game2.objective == game.objective

    @pytest.mark.parametrize("objective,text", [
        (Safety({"b", "a"}), '{"type": "safety", "safe": ["a", "b"]}'),
        (Buchi({"c", "a"}), '{"type": "buchi", "accept": ["a", "c"]}'),
        (CoBuchi({"b"}), '{"type": "cobuchi", "avoid": ["b"]}'),
        (SafetyAndCoBuchi({"c", "a"}, {"c"}),
         '{"type": "safety_cobuchi", "safe": ["a", "c"], "avoid": ["c"]}'),
        (RequestResponse(((frozenset({"c", "a"}), frozenset({"b"})),
                          (frozenset(), frozenset({"a"})))),
         '{"type": "request_response", "pairs": [{"request": ["a", "c"], '
         '"response": ["b"]}, {"request": [], "response": ["a"]}]}'),
    ], ids=["safety", "buchi", "cobuchi", "safety_cobuchi", "request_response"])
    def test_written_game_text(self, objective, text):
        # the key order of a written objective is part of every game file
        arena = Arena({"c": 1, "a": 0, "b": 0},
                      [("c", "a"), ("a", "c"), ("a", "b"), ("b", "b")], "a")
        doc = game_to_doc(LoadedGame("qualitative", arena, objective))
        assert json.dumps(doc) == (
            '{"arena": {"vertices": [{"id": "a", "owner": 0}, {"id": "b", "owner": 0}, '
            '{"id": "c", "owner": 1}], "edges": [{"from": "a", "to": "b"}, '
            '{"from": "a", "to": "c"}, {"from": "b", "to": "b"}, {"from": "c", "to": "a"}], '
            '"initial": "a"}, "objective": ' + text + '}')

    @pytest.mark.parametrize("field", ["owner", "rank", "pair", "cost"])
    def test_boolean_is_not_an_integer(self, field):
        if field == "owner":
            doc = json.loads(json.dumps(SAFETY_WIN))
            doc["arena"]["vertices"][1]["owner"] = True
        elif field == "rank":
            doc = {"arena": SAFETY_WIN["arena"], "objective": SAFETY_WIN["objective"],
                   "rank": {"mode": "sup", "values": {"a": 0, "b": True}}}
        else:
            doc = json.loads(json.dumps(A2_COSTS))
            doc["costs"][0][field] = False
        where = {"owner": r"arena\.vertices\[1\]\.owner", "rank": r"rank\.values\.b",
                 "pair": r"costs\[0\]\.pair", "cost": r"costs\[0\]\.cost"}[field]
        with pytest.raises(InputError, match=where):
            parse_game_doc(doc)

    def test_boolean_strategy_owner_rejected(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        out = str(tmp_path / "strat.json")
        assert main(["optimize", path, "--out", out]) == 0
        doc = json.loads((tmp_path / "strat.json").read_text())
        doc["owner"] = False
        with pytest.raises(InputError, match=r"strategy\.owner"):
            strategy_from_doc(doc, parse_game(path).arena)

    @pytest.mark.parametrize("entry", ["vertex", "update", "vertex id", "state"])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, entry):
        # exit 1 means Player 1 prevails; a malformed file is an input error
        game = json.loads(json.dumps(SAFETY_WIN))
        argv = ["solve", "game.json"]
        if entry == "vertex":
            game["arena"]["vertices"].append(5)
            where = "arena.vertices[2]"
        elif entry == "vertex id":
            game["objective"]["safe"] = [["a"]]
            where = "objective.safe[0]"
        else:
            out = str(tmp_path / "strat.json")
            assert main(["solve", write_game(tmp_path, game), "--out", out]) == 0
            doc = json.loads((tmp_path / "strat.json").read_text())
            if entry == "state":
                doc["memory"]["states"].append(["m1"])
                where = "memory.states"
            else:
                doc["memory"]["update"].append(7)
                where = f"memory.update[{len(doc['memory']['update']) - 1}]"
            (tmp_path / "strat.json").write_text(json.dumps(doc))
            argv = ["verify", "game.json", "--strategy", out]
        argv[1] = write_game(tmp_path, game)
        capsys.readouterr()
        assert main(argv) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("game,strategy,message",
                             [case[1:] for case in FIRST_ERRORS],
                             ids=[case[0] for case in FIRST_ERRORS])
    def test_first_error_message(self, tmp_path, capsys, game, strategy, message):
        argv = ["solve", write_game(tmp_path, game)]
        if strategy is not None:
            argv = ["verify", argv[1], "--strategy",
                    write_game(tmp_path, strategy, "strategy.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_json_names_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "a": }')
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:2:7: Expecting value\n"

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"owner": 0, "memory": "\xff"}')
        if command == "solve":
            argv = ["solve", str(bad)]
        else:
            argv = ["verify", write_game(tmp_path, SAFETY_WIN), "--strategy", str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "0xff" in err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_deeply_nested_file_exits_2(self, tmp_path, capsys, command):
        # deeper than the JSON decoder can recurse
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        if command == "solve":
            argv = ["solve", str(deep)]
        else:
            argv = ["verify", write_game(tmp_path, SAFETY_WIN), "--strategy", str(deep)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {deep}: ") and "recursion" in captured.err

    def test_strategy_roundtrip_is_identity(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        out = str(tmp_path / "strat.json")
        assert main(["optimize", path, "--out", out]) == 0
        arena = parse_game(path).arena
        loaded = read_strategy(out, arena)
        again = strategy_from_doc(strategy_to_doc(loaded), arena)
        assert again == loaded


class TestSolveCommand:
    def test_qualitative_win_exit_zero(self, tmp_path, capsys):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["solve", path]) == 0
        assert "Player 0 wins" in capsys.readouterr().out

    def test_bound_on_qualitative_rejected(self, tmp_path):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["solve", path, "--bound", "1"]) == 2

    def test_strategy_built_only_for_out(self, tmp_path, strategies_built):
        # who wins where is decided without building a strategy, on every
        # game kind; only a strategy file needs one
        for doc, bound in ((SAFETY_WIN, []), (RANKED_SUP, ["--bound", "1"])):
            path = write_game(tmp_path, doc)
            assert main(["solve", path, "--regions"] + bound) == 0
            assert strategies_built[0] == 0
        out = str(tmp_path / "strategy.json")
        assert main(["solve", path, "--out", out] + bound) == 0
        assert strategies_built[0] > 0
        path = write_game(tmp_path, A2_COSTS)
        for bound, winner in (("2", 1), ("3", 0)):
            strategies_built[0] = 0
            assert main(["solve", path, "--bound", bound]) == winner
            assert strategies_built[0] == 0
            assert main(["solve", path, "--bound", bound, "--out", out]) == winner
            assert strategies_built[0] > 0

    def test_costs_bounds(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["solve", path, "--bound", "2"]) == 1
        assert main(["solve", path, "--bound", "3"]) == 0

    def test_regions_on_costs_rejected(self, tmp_path, capsys):
        # cost-RR solving probes only the initial vertex, so it has no regions
        path = write_game(tmp_path, A2_COSTS)
        capsys.readouterr()
        assert main(["solve", path, "--bound", "3", "--regions"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: response-cost games take no --regions\n"

    def test_negative_bound_rejected(self, tmp_path):
        docs = [A2_COSTS] + [
            {"arena": SAFETY_WIN["arena"], "objective": SAFETY_WIN["objective"],
             "rank": {"mode": mode, "values": {"a": 0, "b": 1}}}
            for mode in ("sup", "lim")]
        for doc in docs:
            assert main(["solve", write_game(tmp_path, doc), "--bound", "-5"]) == 2

    def test_missing_bound_on_quantitative(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["solve", path]) == 2

    def test_missing_bound_on_ranked(self, tmp_path, capsys):
        path = write_game(tmp_path, RANKED_SUP)
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err == "error: quantitative games need --bound\n"

    def test_lim_request_response_capability_error(self, tmp_path):
        path = write_game(tmp_path, RANKED_LIM_RR)
        assert main(["solve", path, "--bound", "0"]) == 2

    def test_fault_game_redirected(self, tmp_path):
        path = write_game(tmp_path, FS_FAULTS)
        assert main(["solve", path]) == 2

    def test_regions_flag_deterministic(self, tmp_path, capsys):
        path = write_game(tmp_path, SAFETY_WIN)
        main(["solve", path, "--regions"])
        first = capsys.readouterr().out
        main(["solve", path, "--regions"])
        assert capsys.readouterr().out == first


class TestOptimizeCommand:
    def test_a2_prints_three(self, tmp_path, capsys):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["optimize", path]) == 0
        out = capsys.readouterr().out
        assert "minimal cost: 3" in out
        assert "certified cost: 3" in out

    def test_duplicate_cost_row_rejected(self, tmp_path, capsys):
        doc = _edit(A2_COSTS, lambda d: d["costs"].append(dict(d["costs"][0], cost=1)))
        path = write_game(tmp_path, doc)
        capsys.readouterr()
        assert main(["optimize", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: costs[1]: duplicate cost row\n"

    def test_qualitative_rejected(self, tmp_path):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["optimize", path]) == 2

    def test_unwinnable_prints_player1(self, tmp_path, capsys):
        doc = {
            "arena": {"vertices": [{"id": "q", "owner": 0}, {"id": "x", "owner": 0}],
                      "edges": [{"from": "q", "to": "x"}, {"from": "x", "to": "x"}],
                      "initial": "q"},
            "objective": {"type": "request_response",
                          "pairs": [{"request": ["q"], "response": []}]},
            "costs": [],
        }
        path = write_game(tmp_path, doc)
        assert main(["optimize", path]) == 1
        assert "Player 1 wins" in capsys.readouterr().out

    def test_ranked_zero_ranks(self, tmp_path, capsys):
        doc = {"arena": SAFETY_WIN["arena"],
               "objective": {"type": "safety", "safe": ["a"]},
               "rank": {"mode": "sup", "values": {"a": 0, "b": 0}}}
        path = write_game(tmp_path, doc)
        assert main(["optimize", path]) == 0
        assert "minimal cost: 0" in capsys.readouterr().out


class TestEvalCommand:
    def test_a2_loop_costs_three(self, tmp_path, capsys):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["eval", path, "--loop", "q,p"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_unsafe_play(self, tmp_path, capsys):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["eval", path, "--prefix", "a", "--loop", "b"]) == 0
        assert "Player 1 wins play" in capsys.readouterr().out

    def test_unanswered_is_inf(self, tmp_path, capsys):
        doc = json.loads(json.dumps(A2_COSTS))
        doc["arena"]["edges"].append({"from": "q", "to": "q"})
        path = write_game(tmp_path, doc)
        assert main(["eval", path, "--loop", "q"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_empty_loop_rejected(self, tmp_path, capsys):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["eval", path, "--loop", ""]) == 2
        assert capsys.readouterr().err == "error: --loop is required\n"

    def test_ranked_play_prints_its_cost(self, tmp_path, capsys):
        path = write_game(tmp_path, RANKED_SUP)
        assert main(["eval", path, "--loop", "a"]) == 0
        assert capsys.readouterr().out == "1\n"
        # a play that leaves the safe set misses the objective and costs inf
        assert main(["eval", path, "--prefix", "a", "--loop", "b"]) == 0
        assert capsys.readouterr().out == "inf\n"

    def test_invalid_lasso(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        assert main(["eval", path, "--loop", "q"]) == 2  # q->q is not an edge


class TestVerifyCommand:
    def test_certify_then_refute(self, tmp_path, capsys):
        path = write_game(tmp_path, A2_COSTS)
        out = str(tmp_path / "opt.json")
        main(["optimize", path, "--out", out])
        capsys.readouterr()
        assert main(["verify", path, "--strategy", out, "--bound", "3"]) == 0
        assert "certified" in capsys.readouterr().out
        assert main(["verify", path, "--strategy", out, "--bound", "2"]) == 1
        text = capsys.readouterr().out
        assert "witness loop:" in text

    def test_corrupted_strategy_file(self, tmp_path):
        path = write_game(tmp_path, A2_COSTS)
        bad = tmp_path / "bad.json"
        bad.write_text("{\"owner\": 0}")
        assert main(["verify", path, "--strategy", str(bad), "--bound", "3"]) == 2

    def test_alphabet_mismatch(self, tmp_path):
        a2 = write_game(tmp_path, A2_COSTS)
        other = write_game(tmp_path, SAFETY_WIN, "other.json")
        out = str(tmp_path / "safety-strat.json")
        main(["solve", other, "--out", out])
        assert main(["verify", a2, "--strategy", out, "--bound", "3"]) == 2


    @pytest.mark.parametrize("game,bound,message", [
        (RANKED_SUP, None, "rank-cost verification needs --bound"),
        (A2_COSTS, None, "response-cost verification needs --bound"),
        (SAFETY_WIN, "1", "qualitative verification takes no --bound"),
    ], ids=["ranked", "costrr", "qualitative"])
    def test_bound_required_exactly_on_quantitative_games(self, tmp_path, capsys, game,
                                                           bound, message):
        # the strategy's alphabet fits SAFETY_WIN, whose arena RANKED_SUP shares
        if game is A2_COSTS:
            strategy = str(tmp_path / "opt.json")
            assert main(["optimize", write_game(tmp_path, game), "--out", strategy]) == 0
        else:
            strategy = write_game(tmp_path, SAFETY_STRATEGY, "strategy.json")
        argv = ["verify", write_game(tmp_path, game), "--strategy", strategy]
        capsys.readouterr()
        assert main(argv + (["--bound", bound] if bound else [])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestResilienceCommand:
    def test_fs_report(self, tmp_path, capsys):
        path = write_game(tmp_path, FS_FAULTS)
        assert main(["resilience", path]) == 0
        out = capsys.readouterr().out
        assert "val s = 1" in out and "val u = 0" in out
        assert "resilience: 1" in out

    def test_fe_eventual(self, tmp_path, capsys):
        path = write_game(tmp_path, FE_FAULTS)
        assert main(["resilience", path]) == 0
        assert "resilience: 1" in capsys.readouterr().out
        assert main(["resilience", path, "--eventual"]) == 0
        assert "resilience: 2" in capsys.readouterr().out

    def test_non_fault_game_rejected(self, tmp_path):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["resilience", path]) == 2


class TestCollectorPause:
    """``main`` pauses the cyclic collector while the command runs and
    restores the caller's setting however the command ends."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        was = gc.isenabled()
        gc.enable()
        yield
        if not was:
            gc.disable()

    @pytest.fixture
    def solve_as(self, monkeypatch):
        """Replace ``cmd_solve`` with ``fn``; the parser is built afresh so
        that its ``solve`` subcommand calls the replacement."""
        def install(fn):
            monkeypatch.setattr(cli, "cmd_solve", fn)
            monkeypatch.setattr(cli, "_parser", None)
        return install

    def test_paused_while_the_command_runs(self, tmp_path, solve_as):
        seen = []
        real = cli.cmd_solve

        def spy(game, args, out):
            seen.append(gc.isenabled())
            return real(game, args, out)

        solve_as(spy)
        assert main(["solve", write_game(tmp_path, SAFETY_WIN)]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("doc, extra, code", [
        (SAFETY_WIN, [], 0),
        (A2_COSTS, ["--bound", "2"], 1),
        (SAFETY_WIN, ["--bound", "1"], 2),  # InputError
        (None, [], 2),  # OSError: no such file
    ], ids=["exit 0", "exit 1", "input error", "missing file"])
    def test_on_again_after_every_exit(self, tmp_path, capsys, doc, extra, code):
        path = write_game(tmp_path, doc) if doc else str(tmp_path / "missing.json")
        assert main(["solve", path, *extra]) == code
        assert gc.isenabled()
        if doc is None:
            assert capsys.readouterr().err.startswith("error: [Errno 2]")

    def test_on_again_after_an_exception_escapes(self, tmp_path, solve_as):
        def crash(game, args, out):
            raise RuntimeError("crash")

        solve_as(crash)
        with pytest.raises(RuntimeError, match="crash"):
            main(["solve", write_game(tmp_path, SAFETY_WIN)])
        assert gc.isenabled()

    def test_a_caller_that_paused_it_keeps_it_paused(self, tmp_path):
        gc.disable()
        assert main(["solve", write_game(tmp_path, SAFETY_WIN)]) == 0
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_usage_error_leaves_it_as_it_was(self, capsys, enabled):
        # argparse exits 2 before the command, and before the pause
        if not enabled:
            gc.disable()
        assert main(["solve"]) == 2
        assert gc.isenabled() is enabled
        assert "usage:" in capsys.readouterr().err


def _solver_strategies():
    rng = random.Random(11)
    for _ in range(3):
        arena = random_arena(rng, 8, p0_max_outdeg=3)
        pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.4))
                      for _ in range(3))
        res = solve_request_response(arena, pairs)
        yield res.strategy_0
        yield res.strategy_1
        for mode in ("sup", "lim"):
            game = random_ranked_game(rng, 8, 4, mode)
            yield optimize_ranked(game).strategy
            yield solve_with_bound(game, 0).strategy_1
        cost = optimize_costrr(random_costrr_game(rng, 5, 2, 3))
        yield cost.strategy
        fa = random_fault_arena(rng, 8, 3)
        for mode in ("sup", "lim"):
            yield max_resilience(fa, mode).strategy


def _hand_built_strategies():
    one = MemoryStructure(("s",), "s", {("s", ("a", "b")): "s"})
    yield FiniteStateStrategy(0, one, {})  # empty move table
    yield FiniteStateStrategy(1, one, {("a", "s"): "b"})  # one-state memory
    ids = ("ü", 'a"b', "x\ny", "\\")
    mem = MemoryStructure(ids, "\\", {(s, (u, w)): s for s in ids for u in ids for w in ids})
    yield FiniteStateStrategy(0, mem, {(v, s): v for v in ids for s in ids})
    # vertex ids from library callers need not be strings
    ints = MemoryStructure((0, 1), 0, {(0, (1, 2)): 1, (1, (2, 1)): 0})
    yield FiniteStateStrategy(0, ints, {(1, 0): 2, (1, 1): 2})
    pairs = MemoryStructure(("s",), "s", {("s", ((0, "x"), (1, "y"))): "s"})
    yield FiniteStateStrategy(1, pairs, {((0, "x"), "s"): (1, "y")})


def _strategy_text(strategy):
    return json.dumps(strategy_to_doc(strategy), indent=2, sort_keys=True) + "\n"


def test_strategy_bytes_equal_the_json_encoder(tmp_path):
    # the writer builds its text directly; json.dump is the reference
    path = tmp_path / "strategy.json"
    lifted = 0
    for strategy in (*_solver_strategies(), *_hand_built_strategies()):
        expected = _strategy_text(strategy)
        path.unlink(missing_ok=True)
        write_strategy(str(path), strategy)
        text = path.read_text(encoding="ascii")
        assert text == expected
        # and over a longer stale file, which the writer cuts to length
        path.write_text("x" * (2 * len(expected) + 1))
        write_strategy(str(path), strategy)
        assert path.read_text(encoding="ascii") == expected
        lifted += '"m1"' in text
    assert lifted  # generated state names occur


def test_only_labels_that_are_not_strings_reach_strategy_to_doc(tmp_path, monkeypatch):
    # a strategy on string labels is formatted from its rows; any other is
    # written as the json text of strategy_to_doc, which builds it once
    path = str(tmp_path / "strategy.json")
    calls = []

    def counted(strategy):
        calls.append(strategy)
        return strategy_to_doc(strategy)

    def calls_to_write(strategy):
        expected = _strategy_text(strategy)
        calls.clear()
        write_strategy(path, strategy)
        with open(path, encoding="ascii") as fh:
            assert fh.read() == expected
        return len(calls)

    monkeypatch.setattr(fileformat, "strategy_to_doc", counted)
    rng = random.Random(38)
    arena = random_arena(rng, 12, p0_max_outdeg=3)
    safe, avoid = random_subset(rng, arena, 0.8), random_subset(rng, arena, 0.3)
    positional = solve_safety(arena, safe).strategy_0
    pruned = solve_safety_cobuchi(arena, safe, avoid).strategy_1
    pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.4))
                  for _ in range(2))
    memoryful = solve_request_response(arena, pairs).strategy_0
    solver = [positional, pruned, memoryful, *_solver_strategies()]
    assert "_ids" in vars(positional) and "_ids" in vars(pruned) and memoryful.size() > 1
    assert all(calls_to_write(s) == 0 for s in solver)
    # read back from its file, a strategy on labels
    write_strategy(path, memoryful)
    assert calls_to_write(read_strategy(path, arena)) == 0
    # int and tuple labels, on label rows and on ids
    tuples = _relabelled(arena)
    others = [*list(_hand_built_strategies())[3:],
              solve_safety(tuples, {(v, 1) for v in safe}).strategy_0]
    assert "_ids" in vars(others[-1])
    assert [calls_to_write(s) for s in others] == [1, 1, 1]


def test_the_writer_builds_label_rows_once(tmp_path, monkeypatch):
    # a strategy on label rows has its rows built once, by the writer when
    # its labels are strings and by strategy_to_doc when they are not; a
    # strategy on ids over string labels is written from its id rows
    path = str(tmp_path / "strategy.json")
    calls = []
    rows = fileformat._strategy_rows

    def calls_to_write(strategy):
        expected = _strategy_text(strategy)
        calls.clear()
        write_strategy(path, strategy)
        with open(path, encoding="ascii") as fh:
            assert fh.read() == expected
        return len(calls)

    monkeypatch.setattr(fileformat, "_strategy_rows", lambda s: calls.append(s) or rows(s))
    rng = random.Random(39)
    arena = random_arena(rng, 12, p0_max_outdeg=3)
    safe = random_subset(rng, arena, 0.8)
    pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.4))
                  for _ in range(2))
    on_ids = solve_safety(arena, safe).strategy_0
    assert "_ids" in vars(on_ids)
    assert calls_to_write(on_ids) == 0
    tuples = _relabelled(arena)
    on_labels = [*_hand_built_strategies(),
                 solve_request_response(arena, pairs).strategy_0,
                 solve_safety(tuples, {(v, 1) for v in safe}).strategy_0,
                 solve_request_response(tuples, tuple(({(v, 1) for v in q}, {(v, 1) for v in p})
                                                      for q, p in pairs)).strategy_1]
    assert [calls_to_write(s) for s in on_labels] == [1] * len(on_labels)


class TestStrategyWriter:
    # write_strategy rewrites an existing file in place and then cuts it to
    # the written length; each test pins a behaviour of open(path, "w") that
    # this keeps.  small has one memory state, large four.
    small, large = list(_hand_built_strategies())[1:3]

    def test_a_longer_file_is_cut_and_a_shorter_one_grows(self, tmp_path):
        path = tmp_path / "strategy.json"
        short, long_ = _strategy_text(self.small), _strategy_text(self.large)
        assert len(short) < len(long_)
        write_strategy(str(path), self.large)
        write_strategy(str(path), self.small)
        assert path.read_text(encoding="ascii") == short
        write_strategy(str(path), self.large)
        assert path.read_text(encoding="ascii") == long_

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_a_new_file_gets_the_mode_open_w_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference.json", "w", encoding="utf-8"):
                pass
            write_strategy(str(tmp_path / "strategy.json"), self.small)
        finally:
            os.umask(old)
        expected = os.stat(tmp_path / "reference.json").st_mode
        assert os.stat(tmp_path / "strategy.json").st_mode == expected
        assert expected & 0o777 == 0o666 & ~umask

    def test_a_symlink_is_written_through_to_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("stale\n" * 1000)
        link.symlink_to(target)
        write_strategy(str(link), self.small)
        assert link.is_symlink()
        assert target.read_text(encoding="ascii") == _strategy_text(self.small)

    def test_out_dev_null_is_written_without_a_cut(self, tmp_path, capsys):
        path = write_game(tmp_path, SAFETY_WIN)
        assert main(["solve", path, "--out", os.devnull]) == 0
        assert capsys.readouterr() == (f"Player 0 wins\nstrategy written to {os.devnull}\n", "")

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_paths_report_what_open_w_reports(self, tmp_path, capsys, where):
        path = write_game(tmp_path, SAFETY_WIN)
        out = str(tmp_path if where == "directory" else tmp_path / "missing" / "s.json")
        with pytest.raises(OSError) as exc:
            open(out, "w", encoding="utf-8")
        assert main(["solve", path, "--out", out]) == 2
        assert capsys.readouterr() == ("Player 0 wins\n", f"error: {exc.value}\n")

    def test_the_path_is_never_opened_truncating(self, tmp_path, monkeypatch):
        # truncating an existing file to zero and writing it again costs
        # the kernel far more than rewriting it in place
        path = str(tmp_path / "strategy.json")
        write_strategy(path, self.large)
        opened = []
        real_os_open, real_open = os.open, open

        def spy_os_open(file, flags, *args, **kwargs):
            opened.append((file, "O_TRUNC" if flags & os.O_TRUNC else "in place"))
            return real_os_open(file, flags, *args, **kwargs)

        def spy_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                opened.append((file, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(io, "open", spy_open)
        write_strategy(path, self.small)
        monkeypatch.undo()
        assert opened == [(path, "in place")]
        assert (tmp_path / "strategy.json").read_text(encoding="ascii") == \
            _strategy_text(self.small)


def _reference_runs(tmp_path, sequences):
    src = os.path.dirname(os.path.dirname(rankgames.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return [[(proc.returncode, proc.stdout)
             for proc in (subprocess.run([sys.executable, "-m", "rankgames.cli", *argv],
                                         cwd=tmp_path, env=env, capture_output=True,
                                         text=True, timeout=60)
                          for argv in argvs)]
            for argvs in sequences]


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    write_game(tmp_path, SAFETY_WIN, "safety.json")
    write_game(tmp_path, A2_COSTS, "costs.json")
    write_game(tmp_path, FE_FAULTS, "faults.json")
    sequences = [
        [["solve", "safety.json", "--regions"], ["solve", "safety.json"]],
        [["eval", "costs.json"], ["eval", "costs.json", "--loop", "q,p"]],
        [["resilience", "faults.json", "--eventual"], ["resilience", "faults.json"]],
    ]
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        in_process = []
        for argvs in sequences:
            runs = []
            for argv in argvs:
                code = main(argv)
                runs.append((code, capsys.readouterr().out))
            in_process.append(runs)
    finally:
        os.chdir(cwd)
    assert in_process == _reference_runs(tmp_path, sequences)
    assert [runs[0][0] for runs in in_process] == [0, 2, 0]


def test_output_is_independent_of_the_hash_seed(tmp_path):
    # set iteration order varies with PYTHONHASHSEED; stdout and strategy
    # files must not
    rng = random.Random(5)
    arena = random_arena(rng, 8, p0_max_outdeg=3)
    pairs = tuple((random_subset(rng, arena, 0.3), random_subset(rng, arena, 0.3))
                  for _ in range(4))
    cost_game = random_costrr_game(rng, 4, 2, 2, p0_max_outdeg=2)
    # verify at one below the optimum prints a refutation witness
    verify_game = random_costrr_game(random.Random(1), 6, 2, 3, p0_max_outdeg=2)
    best = optimize_costrr(verify_game)
    assert best.cost == 7
    write_strategy(str(tmp_path / "optimal.json"), best.strategy)
    # ranked solves at bound 2 extend their strategies through the walk
    # over the pruned arena; here Player 0 wins both, the sup game with
    # open-request memory
    rng = random.Random(170)
    sup_arena = random_arena(rng, 8, p0_max_outdeg=3)
    sup_pairs = tuple((random_subset(rng, sup_arena, 0.3), random_subset(rng, sup_arena, 0.3))
                      for _ in range(2))
    sup_game = RankedGame(sup_arena, RequestResponse(sup_pairs),
                          {v: rng.randint(0, 4) for v in sup_arena.vertices}, "sup")
    lim_arena = random_arena(rng, 10, p0_max_outdeg=3)
    lim_game = RankedGame(lim_arena, Buchi(random_subset(rng, lim_arena, 0.4)),
                          {v: rng.randint(0, 4) for v in lim_arena.vertices}, "lim")
    games = {
        "solve": LoadedGame("qualitative", arena, RequestResponse(pairs)),
        "solve-sup": LoadedGame("ranked", sup_arena, sup_game.objective, ranked=sup_game),
        "solve-lim": LoadedGame("ranked", lim_arena, lim_game.objective, ranked=lim_game),
        "optimize": LoadedGame("costrr", cost_game.arena,
                               cost_game.spec.rr_objective(), costrr=cost_game),
        "verify": LoadedGame("costrr", verify_game.arena,
                             verify_game.spec.rr_objective(), costrr=verify_game),
    }
    for name, game in games.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(game_to_doc(game)))
    options = {"solve": ["--out", "strategy.json"],
               "solve-sup": ["--bound", "2", "--out", "strategy.json"],
               "solve-lim": ["--bound", "2", "--out", "strategy.json"],
               "optimize": ["--out", "strategy.json"],
               "verify": ["--strategy", "optimal.json", "--bound", "6"]}
    src = os.path.dirname(os.path.dirname(rankgames.__file__))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = {}
        for name in games:
            (tmp_path / "strategy.json").write_bytes(b"")
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from rankgames.cli import main; sys.exit(main())",
                 name.split("-")[0], f"{name}.json", *options[name]],
                cwd=tmp_path, env=env, capture_output=True, timeout=120)
            assert proc.returncode in (0, 1), proc.stderr
            run[name] = (proc.returncode, proc.stdout,
                         (tmp_path / "strategy.json").read_bytes())
        runs.append(run)
    assert runs[0]["verify"][1].startswith(b"refuted\nwitness prefix:")
    assert runs[0]["solve-sup"][0] == runs[0]["solve-lim"][0] == 0
    assert runs[0] == runs[1]


_REQUEST_RUNNER = """
import contextlib, io, json, sys
from rankgames.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs.append([code, buf.getvalue()])
print(json.dumps(runs))
"""


def test_six_pair_and_cost_rr_bytes_are_independent_of_the_hash_seed(tmp_path):
    # solve --out and verify on a six-pair request-response game and on a
    # cost-RR game at its optimum and one below, and requests that print
    # infinity: resilience on a fault arena whose val holds 0, 1 and inf,
    # optimize --out on a cost-RR game whose optimum is INF and eval of a
    # play there that costs inf; run in a fresh process per hash seed,
    # stdout and strategy files must agree byte for byte
    rng = random.Random(66)
    arena = random_arena(rng, 20, p0_max_outdeg=3)
    pairs = tuple((random_subset(rng, arena, 0.3),
                   random_subset(rng, arena, 0.3) or frozenset({arena.initial}))
                  for _ in range(6))
    cost_game = random_costrr_game(random.Random(1), 6, 2, 3, p0_max_outdeg=2)
    best = optimize_costrr(cost_game).cost
    write_game(tmp_path, game_to_doc(LoadedGame("qualitative", arena, RequestResponse(pairs))),
               "rr6.json")
    write_game(tmp_path, game_to_doc(LoadedGame("costrr", cost_game.arena,
                                                cost_game.spec.rr_objective(),
                                                costrr=cost_game)), "costrr.json")
    fa = random_fault_arena(random.Random(2), 8, 3)
    write_game(tmp_path, game_to_doc(LoadedGame("fault", fa.arena, Safety(fa.safe), fault=fa)),
               "fault.json")
    lost_game = random_costrr_game(random.Random(0), 6, 2, 3, p0_max_outdeg=2)
    write_game(tmp_path, game_to_doc(LoadedGame("costrr", lost_game.arena,
                                                lost_game.spec.rr_objective(),
                                                costrr=lost_game)), "lost.json")
    requests = [["solve", "rr6.json", "--regions", "--out", "rr6-s.json"],
                ["verify", "rr6.json", "--strategy", "rr6-s.json"]]
    for b in (best, best - 1):
        requests += [["solve", "costrr.json", "--bound", str(b), "--out", f"c{b}-s.json"],
                     ["verify", "costrr.json", "--strategy", f"c{b}-s.json", "--bound", str(b)]]
    requests += [["resilience", "fault.json"], ["resilience", "fault.json", "--eventual"],
                 ["optimize", "lost.json", "--out", "lost-s.json"],
                 ["eval", "lost.json", "--prefix", "v0,v3,v4,v0", "--loop", "v3,v1,v5,v0"]]
    src = os.path.dirname(os.path.dirname(rankgames.__file__))
    runs = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", _REQUEST_RUNNER, json.dumps(requests)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        files = {argv[-1]: (tmp_path / argv[-1]).read_bytes()
                 for argv in requests if "--out" in argv}
        runs.append((json.loads(proc.stdout), files))
    outputs = runs[0][0]
    # winners: the costrr optimum and one below split the players; every
    # verify certifies the strategy just written
    assert [code for code, _out in outputs[2:6:2]] == [0, 1]
    assert all(code == 0 for code, _out in outputs[1:6:2])
    assert len(runs[0][1]["rr6-s.json"]) > 1000
    # every infinity request still prints one
    for _code, out in outputs[6:8]:
        assert "val v0 = inf\n" in out and "= 0\n" in out and "= 1\n" in out
    assert outputs[8] == [1, "Player 1 wins\nstrategy written to lost-s.json\n"]
    assert outputs[9] == [0, "inf\n"]
    assert runs[0] == runs[1]
