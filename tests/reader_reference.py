"""Reference strategy reader: read the file, then check it against the game.

These are the two steps that read a strategy document before one pass
checked its rows against the game's arena as it read them.
``strategy_from_doc`` checks the rows' format and memory states alone;
``check_strategy_against`` then walks every update and move row again
against the arena.  The tests hold the package's one-pass reader to them:
the same first error message, or an equal strategy.
"""

from rankgames.errors import InputError
from rankgames.fileformat import _fields, _need
from rankgames.memory import FiniteStateStrategy, MemoryStructure


def strategy_from_doc(doc) -> FiniteStateStrategy:
    if not isinstance(doc, dict):
        raise InputError("strategy file must hold a JSON object")
    owner = _need(doc, "owner", "strategy", int)
    memdoc = _need(doc, "memory", "strategy", dict)
    states = tuple(_need(memdoc, "states", "memory", list))
    if not all(isinstance(s, str) for s in states) or len(set(states)) != len(states):
        raise InputError("memory.states: state names must be distinct strings")
    initial = _need(memdoc, "initial", "memory", str)
    known = set(states)
    update, unknown = {}, False
    for i, entry in enumerate(_need(memdoc, "update", "memory", list)):
        if not (type(entry) is dict and type(s := entry.get("state")) is str
                and type(u := entry.get("from")) is str and type(w := entry.get("to")) is str
                and type(t := entry.get("next")) is str and s in known and t in known):
            s, u, w, t = _fields(entry, ("state", "from", "to", "next"), f"memory.update[{i}]")
            unknown = unknown or s not in known or t not in known
        key = (s, (u, w))
        if key in update:
            raise InputError(f"memory.update[{i}]: duplicate update row")
        update[key] = t
    # state errors come after every row error, the initial state's first
    if initial not in known:
        raise InputError(f"initial memory state {initial!r} is not a state")
    if unknown:
        raise InputError("memory update mentions an unknown state")
    mem = MemoryStructure._checked(states, initial, update)
    moves = {}
    for i, entry in enumerate(_need(doc, "moves", "strategy", list)):
        if not (type(entry) is dict and type(v := entry.get("vertex")) is str
                and type(s := entry.get("state")) is str and s in known
                and type(w := entry.get("target")) is str):
            v, s, w = _fields(entry, ("vertex", "state", "target"), f"moves[{i}]")
            if s not in known:
                raise InputError(f"moves[{i}]: unknown memory state {s!r}")
        if (v, s) in moves:
            raise InputError(f"moves[{i}]: duplicate move row")
        moves[(v, s)] = w
    return FiniteStateStrategy(owner, mem, moves)


def check_strategy_against(strategy: FiniteStateStrategy, arena) -> None:
    """Alphabet compatibility of a (possibly loaded) strategy with a game."""
    for (_s, e) in strategy.memory.update:
        if e not in arena.edges:
            raise InputError(f"strategy memory reads unknown edge {e!r}")
    vertices = set(arena.vertices)
    for (v, _s), w in strategy.next_move.items():
        if v not in vertices:
            raise InputError(f"strategy moves at unknown vertex {v!r}")
        if arena.owner[v] != strategy.owner:
            raise InputError(f"strategy moves at vertex {v!r} not owned by player "
                             f"{strategy.owner}")
        if (v, w) not in arena.edges:
            raise InputError(f"strategy move ({v!r} -> {w!r}) is not an edge")


def read_then_check(doc, arena) -> FiniteStateStrategy:
    """The strategy read from ``doc``, checked against ``arena`` after."""
    strategy = strategy_from_doc(doc)
    check_strategy_against(strategy, arena)
    return strategy
