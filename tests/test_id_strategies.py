"""One-state strategies on vertex ids, held to the label-keyed builders in
``strategy_reference``, and strategy files written from their id rows.

On seeded ``random_arena`` games of 2 to 40 vertices, one with tuple labels
and one of 1000 vertices, every one-state builder runs for both players:
the positional safety, Buchi and coBuchi results, lim results, and the
pruned one-state results of ranked sup probes and of safety/coBuchi
solves, inside and outside an alive trap.  Each strategy's file bytes must
be the ``json`` text of ``strategy_to_doc``, which stays label-based; its
size must need no label table; the label tables it builds on first read
must equal the reference's (memory states, initial state, update rows in
order, and moves); and it must equal the reference strategy both ways.

The CLI's ``solve --bound --out`` on ranked sup and lim games and on a
safety/coBuchi game, and ``resilience --out``, must write their strategy
files without building a label table: with ``trivial_memory`` and
``MemoryStructure._checked`` made to raise, each gives the exit code,
stdout and file bytes it gives without them.
"""

import dataclasses
import json
import random

import strategy_reference as ref
from rankgames import memory
from rankgames.arena import Arena, attractor
from rankgames.cli import main
from rankgames.fileformat import (LoadedGame, game_to_doc, parse_game, read_strategy,
                                  strategy_to_doc, write_strategy)
from rankgames.gen import random_arena, random_subset
from rankgames.memory import MemoryStructure
from rankgames.objectives import Buchi, CoBuchi, Safety, SafetyAndCoBuchi
from rankgames.qualsolve import (solve_buchi, solve_cobuchi, solve_safety,
                                 solve_safety_cobuchi)
from rankgames.ranked import RankedGame, solve_lim_with_bound, solve_sup_with_bound
from rankgames.resilience import FaultArena


def _tables(strategy):
    mem = strategy.memory
    return (strategy.owner, mem.states, mem.initial, list(mem.update.items()),
            strategy.next_move, strategy.size())


def _check(monkeypatch, path, solve):
    """``solve()``'s strategies for both players against the reference's."""
    res = solve()
    with ref.patched(monkeypatch):
        want = solve()
    assert (res.region_0, res.region_1) == (want.region_0, want.region_1)
    for player in (0, 1):
        strategy, reference = res.build(player), want.build(player)
        assert strategy.size() == 1 and "memory" not in vars(strategy)
        write_strategy(path, strategy)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(strategy_to_doc(reference), indent=2, sort_keys=True) + "\n"
        assert _tables(strategy) == _tables(reference)
        # equal both ways to the label-keyed strategy, and a copy made from
        # the label tables keeps them
        copy = dataclasses.replace(strategy)
        assert strategy == reference == strategy and copy == reference
        assert _tables(copy) == _tables(reference)


def _trap(rng, arena):
    region, _ = attractor(arena, rng.randint(0, 1), random_subset(rng, arena, 0.3))
    return frozenset(arena.vertices) - region or None


def _relabelled(arena):
    """The arena with each vertex v renamed to the tuple (v, 1)."""
    return Arena({(v, 1): pl for v, pl in arena.owner.items()},
                 {((u, 1), (w, 1)) for u, w in arena.edges}, (arena.initial, 1))


def _arenas():
    """Arenas, each with the largest rank its ranked games take."""
    rng = random.Random(36)
    for _ in range(16):
        yield rng, random_arena(rng, rng.randint(2, 40)), 5
    yield rng, _relabelled(random_arena(rng, 12)), 5
    yield rng, random_arena(rng, 1000, max_outdeg=2, p0_max_outdeg=4), 1


def test_one_state_strategies_match_the_label_builders(monkeypatch, tmp_path):
    path = str(tmp_path / "strategy.json")
    for rng, arena, max_rank in _arenas():
        for within in (None, _trap(rng, arena)):
            safe, avoid = random_subset(rng, arena, 0.85), random_subset(rng, arena, 0.3)
            accept = random_subset(rng, arena, 0.4)
            _check(monkeypatch, path, lambda: solve_safety(arena, safe, within))
            _check(monkeypatch, path, lambda: solve_buchi(arena, accept, within))
            _check(monkeypatch, path, lambda: solve_cobuchi(arena, avoid, within))
            _check(monkeypatch, path, lambda: solve_safety_cobuchi(arena, safe, avoid, within))
        rk = {v: rng.randint(0, max_rank) for v in arena.vertices}
        for obj in (Safety(random_subset(rng, arena, 0.85)),
                    Buchi(random_subset(rng, arena, 0.4)),
                    CoBuchi(random_subset(rng, arena, 0.3)),
                    SafetyAndCoBuchi(random_subset(rng, arena, 0.85),
                                     random_subset(rng, arena, 0.3))):
            sup = RankedGame(arena, obj, rk, "sup")
            for bound in sup.rank_values():
                _check(monkeypatch, path, lambda: solve_sup_with_bound(sup, bound))
                if not isinstance(obj, SafetyAndCoBuchi):
                    lim = RankedGame(arena, obj, rk, "lim")
                    _check(monkeypatch, path, lambda: solve_lim_with_bound(lim, bound))


class _Labelled(Exception):
    """A label table was built."""


def _refuse(*_args, **_kwargs):
    raise _Labelled


def _games(tmp_path):
    """Game files and the requests that write strategies for them."""
    rng = random.Random(7)
    arena = random_arena(rng, 60, max_outdeg=2, p0_max_outdeg=4)
    rk = {v: rng.randint(0, 8) for v in arena.vertices}
    safe = random_subset(rng, arena, 0.9) | {arena.initial}
    games = [
        (LoadedGame("ranked", arena, obj, ranked=RankedGame(arena, obj, rk, mode)), bound)
        for obj, mode in ((Buchi(random_subset(rng, arena, 0.3)), "sup"),
                          (Safety(safe), "sup"), (Safety(safe), "lim"),
                          (CoBuchi(random_subset(rng, arena, 0.2)), "lim"))
        for bound in (2, 5, 8)]
    both = SafetyAndCoBuchi(safe, random_subset(rng, arena, 0.2))
    games.append((LoadedGame("qualitative", arena, both), None))
    faults = frozenset((rng.choice(arena.owned_by(0)), rng.choice(arena.vertices))
                       for _ in range(30))
    fa = FaultArena(arena, faults, safe)
    games.append((LoadedGame("fault", arena, Safety(safe), fault=fa), None))
    for i, (game, bound) in enumerate(games):
        path = str(tmp_path / f"g{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(game_to_doc(game), fh)
        if game.kind == "fault":
            yield path, ["resilience", path]
            yield path, ["resilience", path, "--eventual"]
        elif bound is None:
            yield path, ["solve", path]
        else:
            yield path, ["solve", path, "--bound", str(bound)]


def _run(argv, out, capsys):
    code = main(argv + ["--out", out])
    with open(out, "rb") as fh:
        return code, capsys.readouterr().out, fh.read()


def test_strategy_files_are_written_without_label_tables(monkeypatch, tmp_path, capsys):
    out = str(tmp_path / "strategy.json")
    codes = set()
    for path, argv in _games(tmp_path):
        want = _run(argv, out, capsys)
        with monkeypatch.context() as m:
            m.setattr(memory, "trivial_memory", _refuse)
            m.setattr(MemoryStructure, "_checked", classmethod(_refuse))
            assert _run(argv, out, capsys) == want, argv
        strategy = read_strategy(out, parse_game(path).arena)
        text = json.dumps(strategy_to_doc(strategy), indent=2, sort_keys=True)
        assert want[2] == (text + "\n").encode()
        codes.add(want[0])
    assert codes == {0, 1}
