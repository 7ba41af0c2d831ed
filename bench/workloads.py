"""Workload families and the per-instance request plans.

An instance is one game file.  ``build`` generates every instance of a
workload from the seed and writes the game files; only those files reach
the program.  ``plan`` yields the CLI requests of one instance, each with
the exit codes it may return, and receives ``(code, stdout)`` back, so a
later request can depend on an earlier answer (the bound below the
optimum, for example).  A plan raises ``CheckFailed`` when an answer is
wrong; the worker then records the request as failed and drops the rest of
the instance.

Nothing here imports ``rankgames`` at module level: the worker times the
import as part of set-up and passes the freshly imported modules in.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from typing import List, Tuple

# ``instances`` are generated per run; a 25 s window on a 2-core x86
# container times 25-80% of each list.  ``batch`` is the group size for
# ``instances_per_s``.  ``passes`` is how often each request is timed:
# cost-RR requests take milliseconds, so five passes still leave about
# 250 instances.  The others take two: their instances differ more than
# the repeats of one instance do, once the host probe scales each timing.
# ``sized`` is how many instances the determinism replay runs and the
# strategy-size metrics cover; cost-RR sizes vary by orders of magnitude,
# so they need many instances.
FAMILIES = {
    "costrr-optimize": {
        "instances": 1000,
        "batch": 10,
        "passes": 5,
        "sized": 1000,
        "params": {"n": 4, "d": 2, "max_cost": 1, "p0_max_outdeg": 2,
                   "response_density": 0.9},
    },
    "rr-many-pairs": {
        "instances": 60,
        "batch": 3,
        "passes": 2,
        "sized": 6,
        "params": {"n": 20, "p0_max_outdeg": 3, "pairs": [6],
                   "request_p": 0.3, "response_p": 0.3},
    },
    "positional-large": {
        "instances": 70,
        "batch": 7,
        "passes": 2,
        "sized": 14,
        "params": {"n": 1000, "max_outdeg": 2, "p0_max_outdeg": 4, "max_rank": 30,
                   "buchi_p": 0.2, "cobuchi_p": 0.2, "safe_p": 0.95},
    },
}
WORKLOADS = tuple(FAMILIES)


class CheckFailed(Exception):
    """A CLI answer contradicts what the instance requires."""


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    codes: Tuple[int, ...]  # exit codes the answer may have


@dataclass
class Instance:
    kind: str  # costrr | rr | ranked | fault
    game: str
    out: str  # path prefix for strategy files
    ranks: Tuple[int, ...] = ()  # realized rank values (ranked games)
    cap: int = 0  # cost-RR bound past which a finite optimum cannot lie

    def to_json(self) -> dict:
        return {"kind": self.kind, "game": self.game, "out": self.out,
                "ranks": list(self.ranks), "cap": self.cap}

    @classmethod
    def from_json(cls, doc) -> "Instance":
        return cls(doc["kind"], doc["game"], doc["out"], tuple(doc["ranks"]), doc["cap"])


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _written(path: str) -> str:
    return f"strategy written to {path}\n"


def _certified(bound) -> str:
    return "certified\n" if bound is None else f"certified (cost <= {bound})\n"


_OPT = re.compile(r"minimal cost: (\d+)\ncertified cost: (\d+)\n")


def _plan_optimize(inst: Instance, lower_of, loser_bound, solve_at_zero=False):
    """optimize, then certify the optimum from both sides: Player 0's
    strategy at the optimum c, and Player 1's, written by ``solve`` at
    ``lower_of(c)``, at that bound.  Cost infinity is confirmed by
    certifying Player 1's strategy at ``loser_bound``.  With
    ``solve_at_zero``, an optimum of 0 gets one ``solve --bound 0`` that
    must agree, so every finite optimum is probed by ``solve`` once."""
    p0, p1 = inst.out + ".opt.json", inst.out + ".low.json"
    code, out = yield Request(("optimize", inst.game, "--out", p0), (0, 1))
    if code == 1:
        _expect(out == "Player 1 wins\n" + _written(p0), "optimize: bad Player 1 report")
        code, out = yield Request(("verify", inst.game, "--strategy", p0,
                                   "--bound", str(loser_bound)), (0,))
        _expect(out == _certified(loser_bound), "verify: Player 1 strategy refuted")
        return
    m = _OPT.match(out)
    _expect(m is not None and m.group(1) == m.group(2)
            and out == m.group(0) + _written(p0), "optimize: bad report")
    c = int(m.group(1))
    code, out = yield Request(("verify", inst.game, "--strategy", p0, "--bound", str(c)), (0,))
    _expect(out == _certified(c), "verify: optimal strategy refuted")
    low = lower_of(c)
    if low is None:
        if solve_at_zero and c == 0:
            code, out = yield Request(("solve", inst.game, "--bound", "0", "--out", p1), (0,))
            _expect(out == "Player 0 wins\n" + _written(p1), "solve: Player 1 wins at the optimum")
        return
    code, out = yield Request(("solve", inst.game, "--bound", str(low), "--out", p1), (1,))
    _expect(out == "Player 1 wins\n" + _written(p1), "solve: Player 0 wins below the optimum")
    code, out = yield Request(("verify", inst.game, "--strategy", p1, "--bound", str(low)), (0,))
    # verify prints "cost <= b" for Player 1 too; recorded as the CLI prints it.
    _expect(out == _certified(low), "verify: Player 1 strategy refuted below the optimum")


def _plan_costrr(inst: Instance):
    # Most optima of this family are 0; probing them keeps solve_s sampled.
    return _plan_optimize(inst, lambda c: c - 1 if c >= 1 else None, inst.cap,
                          solve_at_zero=True)


def _plan_ranked(inst: Instance):
    def lower_of(c):
        below = [r for r in inst.ranks if r < c]
        return below[-1] if below else None
    return _plan_optimize(inst, lower_of, inst.ranks[-1])


def _plan_rr(inst: Instance):
    path = inst.out + ".win.json"
    code, out = yield Request(("solve", inst.game, "--out", path), (0, 1))
    _expect(out == f"Player {code} wins\n" + _written(path), "solve: bad report")
    code, out = yield Request(("verify", inst.game, "--strategy", path), (0,))
    _expect(out == _certified(None), "verify: winning strategy refuted")


def _plan_fault(inst: Instance):
    for flags in ((), ("--eventual",)):
        path = inst.out + (".eventual" if flags else ".sup") + ".json"
        code, out = yield Request(("resilience", inst.game, *flags, "--out", path), (0, 1))
        tail = ("Player 1 wins the safety game\nresilience: 0\n" if code == 1
                else "resilience: ")
        _expect(tail in out and out.endswith(_written(path)), "resilience: bad report")
        code, out = yield Request(("verify", inst.game, "--strategy", path), (0,))
        _expect(out == _certified(None), "verify: resilience strategy refuted")


PLANS = {"costrr": _plan_costrr, "rr": _plan_rr, "ranked": _plan_ranked,
         "fault": _plan_fault}


def plan(inst: Instance):
    return PLANS[inst.kind](inst)


# ---------------------------------------------------------------------------
# instance generation


def _write(ff, loaded, path: str) -> None:
    # json.dumps encodes in C; json.dump to a file runs the pure-Python
    # encoder, which made set-up about twice as long.  The text is the same.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ff.game_to_doc(loaded)))


def _build_costrr(rk, rng, n_inst, p, work) -> List[Instance]:
    gen, ff = rk.gen, rk.fileformat
    out = []
    for i in range(n_inst):
        game = gen.random_costrr_game(rng, p["n"], p["d"], p["max_cost"],
                                      p0_max_outdeg=p["p0_max_outdeg"],
                                      response_density=p["response_density"])
        path = os.path.join(work, f"c{i:04d}.json")
        _write(ff, ff.LoadedGame("costrr", game.arena, game.spec.rr_objective(),
                                 costrr=game), path)
        out.append(Instance("costrr", path, os.path.join(work, f"c{i:04d}"),
                            cap=rk.rrcost.cap_bound(game)))
    return out


def _build_rr(rk, rng, n_inst, p, work) -> List[Instance]:
    gen, ff = rk.gen, rk.fileformat
    out = []
    for i in range(n_inst):
        arena = gen.random_arena(rng, p["n"], p0_max_outdeg=p["p0_max_outdeg"])
        d = p["pairs"][i % len(p["pairs"])]
        pairs = []
        for _ in range(d):
            q = gen.random_subset(rng, arena, p["request_p"])
            r = gen.random_subset(rng, arena, p["response_p"])
            pairs.append((q, r or frozenset({rng.choice(arena.vertices)})))
        obj = rk.objectives.RequestResponse(tuple(pairs))
        path = os.path.join(work, f"r{i:03d}.json")
        _write(ff, ff.LoadedGame("qualitative", arena, obj), path)
        out.append(Instance("rr", path, os.path.join(work, f"r{i:03d}")))
    return out


def _build_positional(rk, rng, n_inst, p, work) -> List[Instance]:
    gen, ff, ob = rk.gen, rk.fileformat, rk.objectives
    out = []
    per_arena = 7
    for a in range((n_inst + per_arena - 1) // per_arena):
        arena = gen.random_arena(rng, p["n"], max_outdeg=p["max_outdeg"],
                                 p0_max_outdeg=p["p0_max_outdeg"])
        ranks = {v: rng.randint(0, p["max_rank"]) for v in arena.vertices}
        safe = gen.random_subset(rng, arena, p["safe_p"]) | {arena.initial}
        objectives = (("buchi", ob.Buchi(gen.random_subset(rng, arena, p["buchi_p"]))),
                      ("cobuchi", ob.CoBuchi(gen.random_subset(rng, arena, p["cobuchi_p"]))),
                      ("safety", ob.Safety(safe)))
        realized = tuple(sorted(set(ranks.values())))
        for name, obj in objectives:
            for mode in ("sup", "lim"):
                stem = os.path.join(work, f"a{a:02d}-{name}-{mode}")
                game = rk.ranked.RankedGame(arena, obj, ranks, mode)
                _write(ff, ff.LoadedGame("ranked", arena, obj, ranked=game), stem + ".json")
                out.append(Instance("ranked", stem + ".json", stem, ranks=realized))
        p0_vertices = arena.owned_by(0)
        faults = frozenset((rng.choice(p0_vertices), rng.choice(arena.vertices))
                           for _ in range(p["n"] // 2))
        fa = rk.resilience.FaultArena(arena, faults, safe)
        stem = os.path.join(work, f"a{a:02d}-fault")
        _write(ff, ff.LoadedGame("fault", arena, ob.Safety(safe), fault=fa), stem + ".json")
        out.append(Instance("fault", stem + ".json", stem))
    return out[:n_inst]


BUILDERS = {"costrr-optimize": _build_costrr, "rr-many-pairs": _build_rr,
            "positional-large": _build_positional}


def build(workload: str, rk, seed: int, work: str) -> List[Instance]:
    """Generate and write every instance of ``workload`` for ``seed``.

    ``rk`` is a namespace holding the imported ``rankgames`` modules.
    Paths are relative to the checkout root, so CLI output that names
    them is the same in every checkout.
    """
    fam = FAMILIES[workload]
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(work, exist_ok=True)
    return BUILDERS[workload](rk, rng, fam["instances"], fam["params"], work)
