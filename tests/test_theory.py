"""First errors of the reduction-calculus helpers in ``tests/theory.py``.

These checks guard the test helpers, not the package: each call below is
rejected with its first error.  The package's own library checks are
pinned in ``tests/test_library_errors.py``."""

import pytest

from rankgames.arena import Arena
from rankgames.errors import InputError
from rankgames.extnat import INF
from rankgames.memory import trivial_memory
from rankgames.objectives import Safety
from rankgames.quantred import Cap, QuantReduction
from rankgames.ranked import RankedGame
from theory import (compose, map_sets, relabel, relabel_game, restrict, trivial_reduction,
                    validate_expansion)

# a: Player 0, moves to b only; b: Player 1, moves to a or stays
A = Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "a"), ("b", "b")], "a")
SUP = RankedGame(A, Safety(frozenset({"a"})), {"a": 0, "b": 1}, "sup")


def _same_arena_target():
    # a trivial reduction whose target keeps the source arena, unexpanded
    return QuantReduction(trivial_memory(A), Cap(INF), INF, SUP, SUP)


def _compose_onto_plain_target():
    r1 = trivial_reduction(SUP, lambda product, mem: relabel_game(SUP, lambda v: (v, 0)))
    r2 = QuantReduction(trivial_memory(r1.target.arena), Cap(INF), INF,
                        r1.target, "no relabeling")
    return compose(r1, r2)


# (case, call, error type, first error message)
THEORY_ERRORS = [
    ("restrict to an unknown vertex", lambda: restrict(A, {"a", "b", "z"}),
     InputError, "keep contains unknown vertices: ['z']"),
    ("relabel not injective", lambda: relabel(A, lambda v: 0),
     InputError, "relabeling is not injective"),
    ("map_sets of an unknown objective", lambda: map_sets("parity", frozenset),
     InputError, "unknown objective 'parity'"),
    ("target that is not the expansion",
     lambda: validate_expansion(_same_arena_target()),
     InputError, "target arena is not the memory expansion of the source"),
    ("compose onto a target that is not a game", _compose_onto_plain_target,
     InputError, "target game does not support vertex relabeling"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in THEORY_ERRORS],
                         ids=[case[0] for case in THEORY_ERRORS])
def test_theory_first_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
