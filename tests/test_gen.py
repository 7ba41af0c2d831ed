"""``random_lasso`` walks the id rows ``out`` and draws the lassos the
label walk over ``Arena.succ`` drew.

``rng.choice`` draws an index below the length of the row it is given,
and each vertex's ``out`` row lists its successors' ids in the order of
its ``succ`` row, so the same seed must give the same lasso.  The label
walk is kept here as the reference, and both run on seeded string- and
tuple-labelled arenas.
"""

import random

from rankgames.arena import Lasso
from rankgames.gen import random_arena, random_lasso
from test_id_strategies import _relabelled


def _label_lasso(rng, arena, wander=6):
    """``random_lasso`` as it walked ``Arena.succ``."""
    walk = [arena.initial]
    for _ in range(rng.randint(0, wander)):
        walk.append(rng.choice(arena.succ[walk[-1]]))
    seen = {walk[-1]: len(walk) - 1}
    while True:
        nxt = rng.choice(arena.succ[walk[-1]])
        if nxt in seen:
            i = seen[nxt]
            return Lasso(tuple(walk[:i]), tuple(walk[i:]))
        seen[nxt] = len(walk)
        walk.append(nxt)


def test_random_lasso_draws_the_label_walks_lassos():
    rng = random.Random(3803)
    for k in range(60):
        arena = random_arena(rng, rng.randint(1, 30), max_outdeg=rng.randint(1, 4))
        if k % 2:
            arena = _relabelled(arena)
        wander = rng.randint(0, 8)
        for seed in range(5 * k, 5 * k + 5):
            assert (random_lasso(random.Random(seed), arena, wander)
                    == _label_lasso(random.Random(seed), arena, wander))
