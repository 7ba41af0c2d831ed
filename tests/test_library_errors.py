"""The library's own input checks: each call below is rejected with its
first error, whatever the game kind.  The CLI's first errors are pinned in
``tests/test_cli.py::FIRST_ERRORS``; these are the checks behind the
library calls that the CLI never makes."""

import pytest

from oracles import (FaultSimVerdict, budget_oracle, enumerate_regions,
                     simulate_faults)
from rankgames.arena import Arena, Lasso, attractor
from rankgames.errors import CapabilityError, InputError
from rankgames.memory import (FiniteStateStrategy, MemoryStructure, positional_strategy,
                              trivial_memory)
from rankgames.objectives import (CostRRSpec, Safety, conjuncts, validate_objective,
                                  validate_rank)
from rankgames.qualsolve import (SolveResult, rr_product, solve_buchi, solve_objective,
                                 solve_pruned, solve_safety)
from rankgames.ranked import (RankedCondition, RankedGame, solve_lim_with_bound,
                              solve_sup_with_bound)
from rankgames.resilience import FaultArena
from rankgames.rrcost import CostRRGame, build_reduction, solve_with_bound
from rankgames.verify import verify_strategy

# a: Player 0, moves to b only; b: Player 1, moves to a or stays
A = Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "a"), ("b", "b")], "a")
SAFE_A = Safety(frozenset({"a"}))
PAIRS = ((frozenset({"a"}), frozenset({"b"})),)
SPEC = CostRRSpec(PAIRS, {(0, ("a", "b")): 1})
RANKS = {"a": 0, "b": 1}
SUP = RankedGame(A, SAFE_A, RANKS, "sup")
LIM = RankedGame(A, SAFE_A, RANKS, "lim")
TO_B = positional_strategy(A, 0, {"a": "b"})
FAULTS = FaultArena(A, {("a", "b")}, {"a", "b"})
# B: A with a Player 0 vertex c that a may move to and that moves back to a
B = Arena({"a": 0, "b": 1, "c": 0},
          [("a", "b"), ("b", "a"), ("b", "b"), ("a", "c"), ("c", "a")], "a")


# (case, call, error type, first error message)
LIBRARY_ERRORS = [
    # arena
    ("arena with no vertex", lambda: Arena({}, frozenset(), "a"),
     InputError, "an arena needs at least one vertex"),
    ("arena owner 2", lambda: Arena({"a": 2}, [("a", "a")], "a"),
     InputError, "owner of 'a' must be 0 or 1, got 2"),
    ("attractor with an unknown alive vertex",
     lambda: attractor(A, 0, ["a"], within=["zzz"]),
     InputError, "alive set contains unknown vertices: ['zzz']"),
    ("attractor with unknown alive vertices of two types",
     lambda: attractor(A, 0, ["a"], within=["zzz", 3]),
     InputError, "alive set contains unknown vertices: [3, 'zzz']"),
    ("attractor on an alive set with a dead end",
     lambda: attractor(A, 0, ["a"], within=["a"]),
     InputError, "vertex 'a' has no successor inside the alive set"),
    ("attractor to a target outside the alive set",
     lambda: attractor(B, 0, ["c"], within=["a", "b"]),
     InputError, "target contains vertices outside the alive set: ['c']"),
    ("lasso with an unknown vertex", lambda: Lasso(("a",), ("z",)).check_in(A),
     InputError, "lasso mentions unknown vertices: ['z']"),
    ("lasso with unknown vertices of two types",
     lambda: Lasso(("a",), ("z", 3)).check_in(A),
     InputError, "lasso mentions unknown vertices: [3, 'z']"),
    # memory
    ("memory with an unknown initial state", lambda: MemoryStructure((0,), 1, {}),
     InputError, "initial memory state 1 is not a state"),
    ("memory row to an unknown state",
     lambda: MemoryStructure((0,), 0, {(0, ("a", "b")): 1}),
     InputError, "memory update mentions an unknown state"),
    ("strategy with no move in a row",
     lambda: FiniteStateStrategy(0, trivial_memory(A), {}).move("a", 0),
     InputError, "strategy has no move at vertex 'a' in state 0"),
    ("positional move at the opponent's vertex",
     lambda: positional_strategy(A, 0, {"b": "a"}),
     InputError, "move given for vertex 'b' not owned by player 0"),
    ("positional move along a non-edge", lambda: positional_strategy(A, 0, {"a": "a"}),
     InputError, "move ('a' -> 'a') is not an edge"),
    # objectives
    ("conjuncts of an unknown objective", lambda: conjuncts("parity"),
     InputError, "unknown objective 'parity'"),
    ("objective naming an unknown vertex",
     lambda: validate_objective(Safety(frozenset({"z"})), A),
     InputError, "safe set mentions unknown vertices: ['z']"),
    ("objective naming unknown vertices of two types",
     lambda: validate_objective(Safety(frozenset({1, "zz"})), A),
     InputError, "safe set mentions unknown vertices: [1, 'zz']"),
    ("objective naming unknown tuples that do not compare",
     lambda: validate_objective(Safety(frozenset({("z", 1), (1, "z")})), A),
     InputError, "safe set mentions unknown vertices: [('z', 1), (1, 'z')]"),
    ("negative rank", lambda: validate_rank({"a": 0, "b": -1}, A),
     InputError, "rank of 'b' must be a non-negative integer, got -1"),
    ("cost spec with no pair", lambda: CostRRSpec((), {}),
     InputError, "cost spec needs at least one request-response pair"),
    ("cost for an unknown pair", lambda: CostRRSpec(PAIRS, {(1, ("a", "b")): 1}),
     InputError, "cost entry for unknown pair index 1"),
    ("negative edge cost", lambda: CostRRSpec(PAIRS, {(0, ("a", "b")): -1}),
     InputError, "edge cost must be a natural number, got -1"),
    # qualsolve
    ("overlapping regions",
     lambda: SolveResult(frozenset({"a"}), frozenset({"a", "b"}), lambda player: None),
     InputError, "winning regions overlap"),
    ("request-response memory with no pair", lambda: rr_product(A, ()),
     InputError, "request-response needs at least one pair"),
    ("solve an unknown objective", lambda: solve_objective(A, "parity"),
     InputError, "no solver for objective 'parity'"),
    ("pruned solve of an unknown objective", lambda: solve_pruned(A, {"b"}, "parity"),
     InputError, "no solver for objective 'parity'"),
    ("pruned solve with an unknown bad vertex", lambda: solve_pruned(A, {"z"}, SAFE_A),
     InputError, "target contains unknown vertices: ['z']"),
    ("pruned solve with an unknown alive vertex",
     lambda: solve_pruned(A, {"b"}, SAFE_A, within=["zzz"]),
     InputError, "alive set contains unknown vertices: ['zzz']"),
    ("safety solve with an unknown alive vertex",
     lambda: solve_safety(A, {"a"}, within=["zzz"]),
     InputError, "alive set contains unknown vertices: ['zzz']"),
    ("request-response memory with an unknown alive vertex",
     lambda: rr_product(A, PAIRS, within=["zzz"]),
     InputError, "alive set contains unknown vertices: ['zzz']"),
    ("Buchi solve on an alive set with a dead end",
     lambda: solve_buchi(B, {"a"}, within=["a"]),
     InputError, "vertex 'a' has no successor inside the alive set"),
    ("pruned solve on an alive set with a dead end",
     lambda: solve_pruned(B, {"a"}, SAFE_A, within=["a"]),
     InputError, "vertex 'a' has no successor inside the alive set"),
    ("pruned solve with a bad vertex outside the alive set",
     lambda: solve_pruned(B, {"c"}, Safety(frozenset({"a", "b", "c"})), within=["a", "b"]),
     InputError, "target contains vertices outside the alive set: ['c']"),
    ("request-response memory on an alive set with a dead end",
     lambda: rr_product(B, PAIRS, within=["a"]),
     InputError, "vertex 'a' has no successor inside the alive set"),
    # ranked
    ("ranked game ranking an unknown vertex",
     lambda: RankedGame(A, SAFE_A, {"a": 0, "b": 1, "zz": 5}, "sup"),
     InputError, "rank map mentions unknown vertices: ['zz']"),
    ("ranked game ranking unknown vertices of two types",
     lambda: RankedGame(A, SAFE_A, {"a": 1, "b": 2, "zz": 5, 3: 1}, "sup"),
     InputError, "rank map mentions unknown vertices: [3, 'zz']"),
    ("sup solve of a lim game", lambda: solve_sup_with_bound(LIM, 0),
     InputError, "solve_sup_with_bound needs a sup-mode game"),
    ("lim solve of a sup game", lambda: solve_lim_with_bound(SUP, 0),
     InputError, "solve_lim_with_bound needs a lim-mode game"),
    ("sup solve at a float bound", lambda: solve_sup_with_bound(SUP, 1.5),
     InputError, "bound must be an integer, got 1.5"),
    ("sup solve at a bool bound", lambda: solve_sup_with_bound(SUP, True),
     InputError, "bound must be an integer, got True"),
    ("lim solve at a float bound", lambda: solve_lim_with_bound(LIM, 1.5),
     InputError, "bound must be an integer, got 1.5"),
    ("lim solve at a bool bound", lambda: solve_lim_with_bound(LIM, True),
     InputError, "bound must be an integer, got True"),
    # resilience
    ("fault arena with an unknown safe vertex",
     lambda: FaultArena(A, {("a", "b")}, {"a", "z"}),
     InputError, "safe set mentions unknown vertices"),
    ("fault to an unknown vertex", lambda: FaultArena(A, {("a", "z")}, {"a"}),
     InputError, "fault ('a', 'z') mentions an unknown vertex"),
    ("budget oracle at an unknown vertex", lambda: budget_oracle(FAULTS, "z", 1),
     InputError, "unknown vertex 'z'"),
    # rrcost
    ("cost on a non-edge",
     lambda: CostRRGame(A, CostRRSpec(PAIRS, {(0, ("a", "a")): 1})),
     InputError, "cost assigned to missing edge ('a', 'a')"),
    ("reduction at a negative bound", lambda: build_reduction(CostRRGame(A, SPEC), -1),
     InputError, "reduction bound must be non-negative"),
    ("reduction at a float bound", lambda: build_reduction(CostRRGame(A, SPEC), 2.0),
     InputError, "reduction bound must be an integer, got 2.0"),
    ("reduction at a bool bound", lambda: build_reduction(CostRRGame(A, SPEC), False),
     InputError, "reduction bound must be an integer, got False"),
    ("cost solve at a float bound", lambda: solve_with_bound(CostRRGame(A, SPEC), 1.5),
     InputError, "bound must be an integer, got 1.5"),
    ("cost solve at a bool bound", lambda: solve_with_bound(CostRRGame(A, SPEC), True),
     InputError, "bound must be an integer, got True"),
    # verify
    ("qualitative claim with a bound", lambda: verify_strategy(A, SAFE_A, TO_B, bound=1),
     InputError, "qualitative objectives take no bound"),
    ("rank-cost claim without a bound",
     lambda: verify_strategy(A, RankedCondition(SAFE_A, RANKS, "sup"), TO_B),
     InputError, "rank-cost claims need a non-negative integer bound"),
    ("response-cost claim at a negative bound",
     lambda: verify_strategy(A, SPEC, TO_B, bound=-1),
     InputError, "response-cost claims need a non-negative integer bound"),
    ("claim of an unknown kind", lambda: verify_strategy(A, "parity", TO_B),
     InputError, "cannot verify condition 'parity'"),
    ("claim naming an unknown vertex",
     lambda: verify_strategy(A, Safety(frozenset({"zzz"})), TO_B),
     InputError, "safe set mentions unknown vertices: ['zzz']"),
    ("rank-cost claim in an unknown mode",
     lambda: verify_strategy(A, RankedCondition(SAFE_A, RANKS, "max"), TO_B, bound=1),
     InputError, "mode must be one of ('sup', 'lim'), got 'max'"),
    ("rank-cost claim missing a rank",
     lambda: verify_strategy(A, RankedCondition(SAFE_A, {"a": 0}, "sup"), TO_B, bound=1),
     InputError, "rank of 'b' must be a non-negative integer, got None"),
    ("response-cost claim naming an unknown vertex",
     lambda: verify_strategy(A, CostRRSpec(((frozenset({"zzz"}), frozenset({"b"})),), {}),
                             TO_B, bound=1),
     InputError, "request set 0 mentions unknown vertices: ['zzz']"),
    ("response-cost claim with a cost on a missing edge",
     lambda: verify_strategy(A, CostRRSpec(PAIRS, {(0, ("a", "zz")): 1}), TO_B, bound=1),
     InputError, "cost assigned to missing edge ('a', 'zz')"),
    ("verify from an unknown start", lambda: verify_strategy(A, SAFE_A, TO_B, start="z"),
     InputError, "unknown start vertex 'z'"),
    ("enumeration seeds missing",
     lambda: enumerate_regions(A, SAFE_A, trivial_memory(A), seeds={"a": 0}),
     InputError, "seed states missing for vertices ['b']"),
    ("enumeration of a response-cost claim",
     lambda: enumerate_regions(A, SPEC, trivial_memory(A), bound=1),
     CapabilityError, "response-cost values have a dedicated oracle"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in LIBRARY_ERRORS],
                         ids=[case[0] for case in LIBRARY_ERRORS])
def test_library_first_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_fault_simulation_from_an_unsafe_initial_vertex():
    # the initial vertex itself is the breach, before any move
    fa = FaultArena(A, {("a", "b")}, {"b"})
    assert simulate_faults(fa, TO_B, 1, 5) == FaultSimVerdict(False, ("a",))
