"""``verify_strategy``'s verdicts and witnesses pinned on seeded claims.

Each seeded arena carries claims of every kind: the five qualitative
objectives, rank-cost claims in sup and lim mode at several bounds, and
response-cost claims.  Each claim is checked for random positional
strategies of both players and for the solvers' own strategies, from
every vertex of the arena.  A check's outcome is its verdict and its
witness, ``(certified, prefix, loop)``, or the message of the
``InputError`` raised where a strategy has no move or memory row: a
response-cost solver strategy decides the initial vertex only, and from
other starts 387 checks reach such a node.  The SHA-256 of all outcomes,
in order, and their count must equal ``DIGEST`` and ``CASES``; both were
recorded before ``verify`` found its components in one pass.  A change to how ``verify`` searches its product graph,
the order it visits nodes or finds components in, must leave them alone.
Re-record only for a change that is meant to alter verdicts or witnesses:
``PYTHONPATH=src python tests/test_verify_digest.py``.
"""

import hashlib
import random

import rr_reference
from rankgames import verify
from rankgames.errors import InputError
from rankgames.gen import random_arena, random_costrr_game, random_subset
from rankgames.memory import positional_strategy
from rankgames.objectives import (Buchi, CoBuchi, RequestResponse, Safety,
                                  SafetyAndCoBuchi)
from rankgames.qualsolve import solve_objective
from rankgames.ranked import (RankedCondition, RankedGame, solve_lim_with_bound,
                              solve_sup_with_bound)
from rankgames.rrcost import solve_with_bound
from rankgames.verify import verify_strategy

DIGEST = "ff2c4d244a6af17712f2406048b8e6b22706c1b35469d7d4b6ed2433afd83736"
CASES = 22124
ROUNDS = 40


def _positional(rng, arena, owner):
    return positional_strategy(arena, owner, {v: rng.choice(arena.succ[v])
                                              for v in arena.owned_by(owner)})


def _both(res):
    return res.strategy_0, res.strategy_1


def _claims(rng):
    """(arena, claim, bound, strategies, start states) per seeded claim;
    a request-response solver strategy starts each vertex in the state of
    its memory that pairs the vertex's seed state with the first pointer,
    every other strategy in its memory's initial state."""
    for _ in range(ROUNDS):
        arena = random_arena(rng, rng.randint(2, 7))
        randoms = tuple(_positional(rng, arena, owner) for owner in (0, 1))
        pairs = tuple((random_subset(rng, arena, 0.4), random_subset(rng, arena, 0.5))
                      for _ in range(rng.randint(1, 2)))
        qualitative = (Safety(random_subset(rng, arena, 0.75)),
                       Buchi(random_subset(rng, arena, 0.45)),
                       CoBuchi(random_subset(rng, arena, 0.35)),
                       SafetyAndCoBuchi(random_subset(rng, arena, 0.75),
                                        random_subset(rng, arena, 0.35)),
                       RequestResponse(pairs))
        seeds = {v: (rr_reference.rr_seed_state(pairs, v), 0) for v in arena.vertices}
        for claim in qualitative:
            solved = _both(solve_objective(arena, claim))
            states = seeds if isinstance(claim, RequestResponse) else {}
            yield arena, claim, None, randoms, {}
            yield arena, claim, None, solved, states
        rk = {v: rng.randint(0, 3) for v in arena.vertices}
        for mode, solve in (("sup", solve_sup_with_bound), ("lim", solve_lim_with_bound)):
            for claim in qualitative[:3] if mode == "lim" else qualitative:
                game = RankedGame(arena, claim, rk, mode)
                for bound in (0, 1, 2):
                    condition = RankedCondition(claim, rk, mode)
                    yield arena, condition, bound, randoms, {}
                    yield arena, condition, bound, _both(solve(game, bound)), {}
        game = random_costrr_game(rng, rng.randint(2, 4), rng.randint(1, 2), 2)
        randoms = tuple(_positional(rng, game.arena, owner) for owner in (0, 1))
        for bound in (0, 2, 4):
            yield game.arena, game.spec, bound, randoms, {}
            yield game.arena, game.spec, bound, _both(solve_with_bound(game, bound)), {}


def _outcomes():
    """Every check's outcome, in order."""
    rng = random.Random("verify-digest")
    for arena, claim, bound, strategies, states in _claims(rng):
        for strategy in strategies:
            for v in arena.vertices:
                try:
                    verdict = verify_strategy(arena, claim, strategy, bound=bound,
                                              start=v, start_state=states.get(v))
                except InputError as err:
                    yield str(err)
                    continue
                w = verdict.witness
                yield (True, None) if w is None else (False, w.prefix, w.loop)


def digest():
    """(SHA-256 of the outcomes' reprs, number of checks, number certified)."""
    h, count, certified = hashlib.sha256(), 0, 0
    for outcome in _outcomes():
        h.update(repr(outcome).encode() + b"\n")
        count += 1
        certified += outcome[0] is True
    return h.hexdigest(), count, certified


def test_verdicts_and_witnesses_are_pinned(monkeypatch):
    # count which kind of witness each refutation took, so the digest is
    # known to cover certified claims and both kinds of refutation
    kinds = {"reach": 0, "loop": 0}

    def counted(kind, witness):
        def wrapper(*args):
            kinds[kind] += 1
            return witness(*args)
        return wrapper

    monkeypatch.setattr(verify, "_reach_witness", counted("reach", verify._reach_witness))
    monkeypatch.setattr(verify, "_loop_witness", counted("loop", verify._loop_witness))
    found, count, certified = digest()
    assert (found, count) == (DIGEST, CASES)
    assert min(kinds.values()) >= 1000 and certified >= 1000, (kinds, certified)


if __name__ == "__main__":
    print(*digest()[:2])
