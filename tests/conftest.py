import pytest

from rankgames.arena import Arena, Lasso
from rankgames.memory import FiniteStateStrategy
from rankgames.objectives import CostRRSpec
from rankgames.resilience import FaultArena
from rankgames.rrcost import CostRRGame
from theory import map_sets


@pytest.fixture
def a1():
    # two vertices, Player 0 forced through b, b may loop
    return Arena({"a": 0, "b": 1}, [("a", "b"), ("b", "a"), ("b", "b")], "a")


@pytest.fixture
def a2():
    return Arena({"q": 0, "p": 0}, [("q", "p"), ("p", "q")], "q")


@pytest.fixture
def a2_game(a2):
    spec = CostRRSpec(((frozenset({"q"}), frozenset({"p"})),), {(0, ("q", "p")): 3})
    return CostRRGame(a2, spec)


@pytest.fixture
def a3_game():
    arena = Arena({"q": 0, "s": 1, "p": 0, "r": 0},
                  [("q", "s"), ("s", "p"), ("s", "r"), ("p", "q"), ("r", "q")], "q")
    spec = CostRRSpec(((frozenset({"q"}), frozenset({"p", "r"})),),
                      {(0, ("q", "s")): 1, (0, ("s", "p")): 4, (0, ("s", "r")): 2})
    return CostRRGame(arena, spec)


@pytest.fixture
def fs():
    arena = Arena({"s": 0, "u": 0}, [("s", "s"), ("u", "u")], "s")
    return FaultArena(arena, {("s", "u")}, {"s"})


@pytest.fixture
def fe():
    arena = Arena({"s": 0, "u": 0, "x": 1}, [("s", "s"), ("u", "s"), ("x", "x")], "u")
    return FaultArena(arena, {("s", "u"), ("u", "x")}, {"s", "u"})


@pytest.fixture
def strategies_built(monkeypatch):
    """One-element list counting the FiniteStateStrategy objects created."""
    count = [0]
    init = FiniteStateStrategy.__post_init__

    def counting(self):
        count[0] += 1
        init(self)

    monkeypatch.setattr(FiniteStateStrategy, "__post_init__", counting)
    return count


def all_plays(arena, start, depth):
    """Every play prefix of the given length, all moves free."""
    plays = [[start]]
    for _ in range(depth):
        plays = [p + [w] for p in plays for w in arena.succ[p[-1]]]
    return plays


def strategy_plays(arena, strategy, start, depth, start_state=None):
    """Every play prefix of the given length consistent with the strategy."""
    state = strategy.memory.initial if start_state is None else start_state
    runs = [([start], state)]
    for _ in range(depth):
        nxt = []
        for play, s in runs:
            v = play[-1]
            moves = ((strategy.move(v, s),) if arena.owner[v] == strategy.owner
                     else arena.succ[v])
            for w in moves:
                nxt.append((play + [w], strategy.memory.step(s, (v, w))))
        runs = nxt
    return [p for p, _ in runs]


def play_positions(lasso: Lasso, n: int):
    return [lasso.vertex_at(i) for i in range(n)]


def with_loop_repeated(lasso: Lasso, k: int) -> Lasso:
    """The same play, its loop written out ``k`` >= 1 times."""
    return Lasso(lasso.prefix, lasso.loop * k)


def rotated(lasso: Lasso, k: int) -> Lasso:
    """The same play, with ``k`` >= 0 loop steps moved into the prefix."""
    n = len(lasso.loop)
    shift = k % n
    extra = tuple(lasso.loop[i % n] for i in range(k))
    return Lasso(lasso.prefix + extra, lasso.loop[shift:] + lasso.loop[:shift])


def project(lasso: Lasso, fn) -> Lasso:
    """The play with ``fn`` applied to every position."""
    return Lasso(tuple(map(fn, lasso.prefix)), tuple(map(fn, lasso.loop)))


def swap_owners(arena: Arena) -> Arena:
    """The same graph with the two players' vertices exchanged."""
    return Arena({v: 1 - p for v, p in arena.owner.items()}, arena.edges, arena.initial)


def restrict_objective(obj, keep):
    """The same condition over a sub-arena's vertex set."""
    return map_sets(obj, frozenset(keep).intersection)
