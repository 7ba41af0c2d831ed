"""The guards that mark a broken invariant, and the CLI module run as a
script, reached in process so that ``tools/unreached.py`` traces them.

Each guard is reached by breaking the invariant it stands on from
outside: a certifier that refutes, a cap below a finite optimum, a
search for a target that cannot be reached.
"""

import json
import runpy
import sys

import pytest

from rankgames import cli, rrcost
from rankgames.errors import InputError
from rankgames.fileformat import parse_game_doc
from rankgames.verify import Verdict, _bfs_path

# one request at q, answered at p over an edge costing 3: optimum 3
REQUEST_ANSWERED_AT_COST_3 = {
    "arena": {
        "vertices": [{"id": "q", "owner": 0}, {"id": "p", "owner": 0}],
        "edges": [{"from": "q", "to": "p"}, {"from": "p", "to": "q"}],
        "initial": "q",
    },
    "objective": {"type": "request_response",
                  "pairs": [{"request": ["q"], "response": ["p"]}]},
    "costs": [{"pair": 0, "from": "q", "to": "p", "cost": 3}],
}


def test_optimize_refuses_a_strategy_that_fails_certification(tmp_path, capsys, monkeypatch):
    game, out = tmp_path / "game.json", tmp_path / "strategy.json"
    game.write_text(json.dumps(REQUEST_ANSWERED_AT_COST_3))
    monkeypatch.setattr(cli, "verify_strategy",
                        lambda *args, **kwargs: Verdict(False))
    assert cli.main(["optimize", str(game), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "minimal cost: 3\n", "error: internal error: optimal strategy failed certification\n")
    assert not out.exists()


def test_gallop_refuses_a_cap_below_a_finite_optimum(monkeypatch):
    game = parse_game_doc(REQUEST_ANSWERED_AT_COST_3).costrr
    assert rrcost.optimize(game).cost == 3
    monkeypatch.setattr(rrcost, "cap_bound", lambda game: 2)
    with pytest.raises(InputError, match="^internal error: request-response game won "
                                         "but not within the cap$"):
        rrcost.optimize(game)


def test_path_search_refuses_an_unreachable_target():
    succ = {"a": ("b",), "b": ("a",), "c": ("c",)}
    assert _bfs_path(succ, "a", {"b"}, {"a"}) == ["a", "b"]
    with pytest.raises(InputError, match="^internal error: failure detected but no "
                                         "witness found$"):
        _bfs_path(succ, "a", {"c"}, {"a", "b"})


def test_the_cli_module_runs_as_a_script(tmp_path, capsys, monkeypatch):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(REQUEST_ANSWERED_AT_COST_3))
    monkeypatch.setattr(sys, "argv", ["rankgames", "optimize", str(game)])
    # run_module warns when the module it runs is already imported
    monkeypatch.delitem(sys.modules, "rankgames.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("rankgames.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr() == ("minimal cost: 3\ncertified cost: 3\n", "")
