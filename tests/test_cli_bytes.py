"""CLI output pinned byte for byte on seeded 60-vertex games of every kind.

Each request runs ``rankgames.cli.main`` in-process from a scratch
directory, so the strategy paths it prints are relative.  The SHA-256 of
stdout and of the written strategy file must equal the digests in
``cli_bytes.json``.  The ``solve``, ``optimize`` and ``resilience`` digests
were recorded before the solvers moved from per-round sub-arenas to
alive-vertex sets; the ``verify`` digests, refutation witnesses included,
before the objectives were restated as one conjunction of demands; the
six-pair request-response game's (``qual-rr6``), before the
request-response solver moved to bitmask open sets; the cost-RR strategy
files (``--out`` on ``costrr-*``), after lifted strategies stopped
declaring the memory state pairs that none of their rows name; the
request-response and ranked request-response strategy files (``--out`` on
``qual-rr*`` and ``ranked-rr-*``), after those strategies stopped
declaring the memory states that none of their rows name.
Re-record only for a change that is meant to alter output:
``PYTHONPATH=src python tests/test_cli_bytes.py``.

The same requests on game files with their vertex and edge rows reversed
and one edge row repeated must give the same bytes: the parser's arena
does not depend on the order of the rows.  So must one seed's requests
with a longer stale file left at the strategy path before each one: the
writer rewrites the file in place and must cut it to the new text.

``cli.main`` pauses the cyclic garbage collector while a command runs,
which wastes nothing only while no command leaves a reference cycle: every
request of the matrix, an input error and a missing file must leave no
garbage that only the collector would free.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from rankgames.cli import main
from rankgames.fileformat import LoadedGame, game_to_doc
from rankgames.gen import random_arena, random_costrr_game, random_subset
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi)
from rankgames.ranked import RankedGame
from rankgames.resilience import FaultArena

DIGESTS = Path(__file__).with_name("cli_bytes.json")
SEEDS = (1, 2, 3)
N = 60


def _pairs(rng, arena, d):
    return tuple((random_subset(rng, arena, 0.3),
                  random_subset(rng, arena, 0.3) or frozenset({arena.initial}))
                 for _ in range(d))


def _games(seed):
    """(name, loaded game) for one seed: qualitative, ranked, cost-RR, fault."""
    rng = random.Random(f"cli-bytes:{seed}")
    arena = random_arena(rng, N, max_outdeg=2, p0_max_outdeg=4)
    safe = random_subset(rng, arena, 0.95) | {arena.initial}
    objectives = {
        "safety": Safety(safe),
        "buchi": Buchi(random_subset(rng, arena, 0.4)),
        "cobuchi": CoBuchi(random_subset(rng, arena, 0.1)),
        "safety_cobuchi": SafetyAndCoBuchi(safe, random_subset(rng, arena, 0.1)),
        "rr": RequestResponse(_pairs(rng, arena, 3)),
        # six pairs, drawn apart so the games above keep their draws
        "rr6": RequestResponse(_pairs(random.Random(f"cli-bytes-rr6:{seed}"), arena, 6)),
    }
    for name, obj in objectives.items():
        yield f"qual-{name}", LoadedGame("qualitative", arena, obj)
    rk = {v: rng.randint(0, 12) for v in arena.vertices}
    for name in ("safety", "buchi", "cobuchi", "rr"):
        for mode in ("sup", "lim") if name != "rr" else ("sup",):
            obj = objectives[name]
            yield (f"ranked-{name}-{mode}",
                   LoadedGame("ranked", arena, obj, ranked=RankedGame(arena, obj, rk, mode)))
    for i, density in enumerate((0.3, 0.6)):
        game = random_costrr_game(rng, N, 2, 2, p0_max_outdeg=3, response_density=density)
        yield f"costrr-{i}", LoadedGame("costrr", game.arena, game.spec.rr_objective(),
                                        costrr=game)
    faults = frozenset((rng.choice(arena.owned_by(0)), rng.choice(arena.vertices))
                       for _ in range(N // 4))
    fa = FaultArena(arena, faults, safe)
    yield "fault", LoadedGame("fault", arena, Safety(safe), fault=fa)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _keep(path):
    """Keep the strategy file the last request wrote under another name."""
    os.replace("s.json", path)
    return path


def _requests(name, game, qualitative):
    """The argv lists run on one game; later ones may depend on earlier
    answers, so this yields and is sent ``(code, stdout)`` back.
    ``qualitative`` names the seed's qualitative games, which share one
    arena: each one's strategy is verified against its own game and all
    the others."""
    path = name + ".json"
    if game.kind == "qualitative":
        yield ("solve", path, "--regions", "--out", "s.json")
        strategy = _keep(f"s-{name}.json")
        for other in qualitative:
            yield ("verify", other + ".json", "--strategy", strategy)
    elif game.kind == "fault":
        yield ("resilience", path, "--out", "s.json")
        yield ("resilience", path, "--eventual", "--out", "s.json")
    else:
        code, out = yield ("optimize", path, "--out", "s.json")
        cost = int(out.split()[2]) if code == 0 else None
        if cost is not None:
            # Player 0's optimal strategy: certified at the optimum,
            # refuted below it
            strategy = _keep("s-optimal.json")
            for b in (cost, cost - 1) if cost else (cost,):
                yield ("verify", path, "--strategy", strategy, "--bound", str(b))
        if game.kind == "ranked":
            ranks = game.ranked.rank_values()
            below = [r for r in ranks if cost is None or r < cost]
            bounds = [below[-1]] if below else []
            bounds.append(ranks[len(ranks) // 2])
            regions = ("--regions",)
        else:
            # at and below the optimum: bounds whose answer is found by
            # a probe at the bound itself
            bounds = sorted({0, *([cost - 1, cost] if cost else [])})
            regions = ()
        for b in bounds:
            code, _out = yield ("solve", path, "--bound", str(b), *regions, "--out", "s.json")
            if code == 1:
                # Player 1's strategy: certified at its bound, refuted at
                # the optimum
                strategy = _keep(f"s-player1-{b}.json")
                for claim in (b, cost) if cost is not None else (b,):
                    yield ("verify", path, "--strategy", strategy, "--bound", str(claim))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reversed_rows(doc):
    """A game document with its vertex and edge rows reversed and its middle
    edge row repeated at the end."""
    doc = json.loads(json.dumps(doc))
    rows = doc["arena"]
    rows["vertices"].reverse()
    rows["edges"].reverse()
    rows["edges"].append(rows["edges"][len(rows["edges"]) // 2])
    return doc


def digests(workdir, rows=lambda doc: doc, seeds=SEEDS, stale=None, run=_run):
    """{request key: [exit code, stdout SHA-256, strategy file SHA-256]},
    with each game file's document passed through ``rows``.  With ``stale``
    bytes, each request finds them at the strategy path instead of no file;
    a request that leaves them as they are wrote no strategy.  ``run`` issues
    one request and returns its exit code and stdout."""
    out = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in seeds:
            games = list(_games(seed))
            for name, game in games:
                Path(name + ".json").write_text(json.dumps(rows(game_to_doc(game))))
            qualitative = [name for name, game in games if game.kind == "qualitative"]
            for name, game in games:
                gen = _requests(name, game, qualitative)
                argv = next(gen)
                while True:
                    if stale is not None:
                        Path("s.json").write_bytes(stale)
                    elif os.path.exists("s.json"):
                        os.remove("s.json")
                    code, text = run(argv)
                    written = Path("s.json").read_bytes() if os.path.exists("s.json") else b""
                    if written == stale:
                        written = b""
                    elif stale is not None:
                        assert len(written) < len(stale)
                    # the request's own game file is named after the @
                    rest = ' '.join(a for a in argv if a != name + ".json")
                    key = f"{seed}:{rest} @ {name}"
                    out[key] = [code, _sha(text.encode()), _sha(written)]
                    try:
                        argv = gen.send((code, text))
                    except StopIteration:
                        break
    finally:
        os.chdir(old)
    return out


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("cli-bytes"))


def test_every_kind_and_command_is_covered(measured):
    command = {key: key.split(":", 1)[1].split()[0] for key in measured}
    assert set(command.values()) == {"solve", "optimize", "resilience", "verify"}
    verify_codes = {measured[key][0] for key in measured if command[key] == "verify"}
    assert verify_codes == {0, 1}  # certified and refuted claims
    assert any("--eventual" in key for key in measured)
    kinds = {key.split(" @ ")[1].split("-")[0] for key in measured}
    assert kinds == {"qual", "ranked", "costrr", "fault"}


def test_stdout_and_strategy_files_match_recorded_digests(measured):
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(measured) == sorted(recorded)
    differ = [key for key in recorded if measured[key] != recorded[key]]
    assert differ == []


def test_reversed_rows_with_a_repeated_edge_give_the_same_bytes(measured, tmp_path):
    reordered = digests(tmp_path, reversed_rows)
    assert sorted(reordered) == sorted(measured)
    differ = [key for key in measured if reordered[key] != measured[key]]
    assert differ == []


def test_strategy_files_written_over_longer_stale_files_match(tmp_path):
    # every strategy path holds a longer file from before the request: the
    # writer must cut it to the new text, so the digests stay the recorded
    recorded = json.loads(DIGESTS.read_text())
    over_stale = digests(tmp_path, seeds=(1,), stale=b"stale\n" * (1 << 16))
    assert sorted(over_stale) == sorted(k for k in recorded if k.startswith("1:"))
    differ = [key for key in over_stale if over_stale[key] != recorded[key]]
    assert differ == []


def test_no_request_leaves_a_reference_cycle(tmp_path):
    # cli.main pauses the cyclic collector while a command runs; that is
    # safe only while reference counting frees all a command builds.  So,
    # with the collector off, a full collection after each request of the
    # matrix, and after an input error and a missing file, finds nothing.
    # The first call is a warm-up: building the argument parser leaves
    # argparse's formatter cycles once per process.
    cyclic = {}

    def run(argv):
        gc.collect()
        result = _run(argv)
        found = gc.collect()
        if found:
            cyclic[" ".join(argv)] = found
        return result

    bad = tmp_path / "bad.json"
    bad.write_text('{"arena": {}}')
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()  # full collections then scan only what the test allocates
    try:
        main(["solve", str(tmp_path / "missing.json")])
        digests(tmp_path, run=run)
        assert run(("solve", str(bad)))[0] == 2
        game = str(tmp_path / "qual-safety.json")
        assert run(("verify", game, "--strategy", str(bad)))[0] == 2
        assert run(("solve", str(tmp_path / "missing.json")))[0] == 2
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
    assert cyclic == {}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(tmp)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} requests to {DIGESTS}", file=sys.stderr)
