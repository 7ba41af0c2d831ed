"""Correction functions, quantitative reductions, and strategy lifting.

A reduction ties a quantitative game to a quantitative game over its
memory expansion: below the reduction parameter, play costs correspond
exactly through a correction function; at or above it, they stay above
the function's value there.  Reductions compose, and strategies on the
target fold back to the source through the memory product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InputError
from .extnat import INF, ExtNat, check_extnat, is_finite
from .memory import (FiniteStateStrategy, MemoryStructure, expand, extend_lasso,
                     product_memory, pull_back, trivial_memory)

IDENTITY_TAIL = "identity"
CONSTANT_TAIL = "constant"
PROBE_MAX = 64  # tables are checked as corrections on 0..PROBE_MAX plus infinity


@dataclass(frozen=True)
class Cap:
    """The clamping function min(bound, x), with infinity fixed."""

    bound: ExtNat

    def __post_init__(self):
        object.__setattr__(self, "bound", check_extnat(self.bound, "cap bound"))

    def apply(self, x: ExtNat) -> ExtNat:
        x = check_extnat(x)
        if not is_finite(x):
            return INF
        return x if x <= self.bound else self.bound


@dataclass(frozen=True)
class Table:
    """Finite value table on 0..N with a tail rule beyond N.

    The identity tail continues with f(x) = x; the constant tail repeats
    the last tabulated value (needed to close compositions involving
    caps).  The value at infinity is explicit.
    """

    values: tuple
    at_inf: ExtNat = INF
    tail: str = IDENTITY_TAIL

    def __post_init__(self):
        vals = tuple(check_extnat(v, "table value") for v in self.values)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "at_inf", check_extnat(self.at_inf, "value at infinity"))
        if self.tail not in (IDENTITY_TAIL, CONSTANT_TAIL):
            raise InputError(f"unknown tail rule {self.tail!r}")
        if self.tail == CONSTANT_TAIL and not vals:
            raise InputError("a constant tail needs at least one tabulated value")

    def apply(self, x: ExtNat) -> ExtNat:
        x = check_extnat(x)
        if not is_finite(x):
            return self.at_inf
        if x < len(self.values):
            return self.values[x]
        if self.tail == IDENTITY_TAIL:
            return x
        return self.values[-1]


CorrectionFunction = Union[Cap, Table]


def identity_table() -> Table:
    return Table(())


def is_correction(f: CorrectionFunction, b: ExtNat) -> bool:
    """Check the three correction-function requirements for parameter b.

    Strictly increasing below b, strictly below the value at b, and never
    below it from b on.  Caps are decided analytically (a cap is a valid
    correction exactly up to its own bound); tables are probed on
    0..PROBE_MAX plus infinity.
    """
    b = check_extnat(b, "correction parameter")
    if isinstance(f, Cap):
        return b <= f.bound
    domain = list(range(PROBE_MAX + 1)) + [INF]
    below = [x for x in domain if x < b]
    for x, y in zip(below, below[1:]):
        if not f.apply(x) < f.apply(y):
            return False
    fb = f.apply(b)
    for x in below:
        if not f.apply(x) < fb:
            return False
    for x in domain:
        if x >= b and not f.apply(x) >= fb:
            return False
    return True


def compose_functions(f1: CorrectionFunction, f2: CorrectionFunction,
                      table_span: int = 0) -> CorrectionFunction:
    """Pointwise composition f2 after f1, in closed form.

    Two caps clamp at the smaller bound.  Any other combination is
    tabulated out to where both factors have settled into their tails.
    """
    if isinstance(f1, Cap) and isinstance(f2, Cap):
        return Cap(min(f1.bound, f2.bound))
    spans = [table_span]
    for g in (f1, f2):
        if isinstance(g, Table):
            spans.append(len(g.values))
        elif is_finite(g.bound):
            spans.append(g.bound + 1)
    span = max(spans)
    values = tuple(f2.apply(f1.apply(x)) for x in range(span + 1))
    constant = (isinstance(f1, Cap) and is_finite(f1.bound)) \
        or (isinstance(f1, Table) and f1.tail == CONSTANT_TAIL) \
        or (isinstance(f2, Cap) and is_finite(f2.bound)) \
        or (isinstance(f2, Table) and f2.tail == CONSTANT_TAIL)
    tail = CONSTANT_TAIL if constant else IDENTITY_TAIL
    return Table(values, at_inf=f2.apply(f1.apply(INF)), tail=tail)


@dataclass(frozen=True)
class QuantReduction:
    """A memory structure, correction function, and parameter relating a
    source quantitative game to one over the memory expansion.

    Games are any objects exposing ``arena`` and ``lasso_cost(lasso)``.
    The semantic conditions (exact correspondence below the parameter,
    domination at or above it) are checked play by play, not assumed; see
    :func:`check_reduction_on_lasso`.
    """

    memory: MemoryStructure
    f: CorrectionFunction
    b: ExtNat
    source: object
    target: object

    def __post_init__(self):
        object.__setattr__(self, "b", check_extnat(self.b, "reduction parameter"))
        if not is_correction(self.f, self.b):
            raise InputError(
                f"function {self.f!r} is not a valid correction for parameter {self.b}")

    def validate_expansion(self) -> None:
        """Structural check that the target arena is the source's expansion."""
        built = expand(self.source.arena, self.memory)
        tgt = self.target.arena
        if (built.vertices != tgt.vertices or built.owner != tgt.owner
                or built.edges != tgt.edges or built.initial != tgt.initial):
            raise InputError("target arena is not the memory expansion of the source")


def trivial_reduction(game, target_builder) -> QuantReduction:
    """Reduction of a game to itself over the one-state memory.

    ``target_builder(product_arena, memory)`` must produce the game with
    the same cost structure over the expanded arena.
    """
    mem = trivial_memory(game.arena)
    product = expand(game.arena, mem)
    return QuantReduction(mem, identity_table(), INF, game,
                          target_builder(product, mem))


@dataclass(frozen=True)
class ReductionCheck:
    consistent: bool
    source_cost: ExtNat
    target_cost: ExtNat
    detail: str = ""


def check_reduction_on_lasso(r: QuantReduction, lasso) -> ReductionCheck:
    """Evaluate one play in both games and test the reduction conditions."""
    src = r.source.lasso_cost(lasso)
    ext = extend_lasso(r.memory, lasso)
    tgt = r.target.lasso_cost(ext)
    if src < r.b:
        want = r.f.apply(src)
        if tgt != want:
            return ReductionCheck(
                False, src, tgt,
                f"cost {src} below parameter {r.b} must map to "
                f"{want}, target play costs {tgt}")
    else:
        floor = r.f.apply(r.b)
        if not tgt >= floor:
            return ReductionCheck(
                False, src, tgt,
                f"cost {src} at or above parameter {r.b} needs target "
                f"cost >= {floor}, got {tgt}")
    return ReductionCheck(True, src, tgt)


def compose(r1: QuantReduction, r2: QuantReduction) -> QuantReduction:
    """Chain two reductions.

    The combined memory is the memory product, the function the pointwise
    composition, and the parameter is b1 when the second reduction's
    parameter covers f1(b1), else the largest value f1 keeps within it.
    The chained target lives over doubly-expanded vertices ((v, m1), m2);
    they are re-associated to (v, (m1, m2)) to match the product memory.
    """
    if r2.source is not r1.target and r2.source != r1.target:
        raise InputError("reductions do not chain: second source differs from first target")
    mem = product_memory(r1.memory, r2.memory, r1.source.arena)
    f = compose_functions(r1.f, r2.f,
                          table_span=(r1.b + 2 if is_finite(r1.b) else 0))
    if r2.b >= r1.f.apply(r1.b):
        b = r1.b
    else:
        b = _max_preimage(r1.f, r1.b, r2.b)

    def reassociate(pv):
        (v, s1), s2 = pv
        return (v, (s1, s2))

    if not hasattr(r2.target, "relabeled"):
        raise InputError("target game does not support vertex relabeling")
    return QuantReduction(mem, f, b, r1.source, r2.target.relabeled(reassociate))


def _max_preimage(f: CorrectionFunction, b1: ExtNat, limit: ExtNat) -> ExtNat:
    """max of the b' in {0..b1} with f(b') <= limit.  :func:`compose`
    calls it only when limit < f(b1), and a correction for b1 has f(b1) <=
    f(infinity), so infinity never qualifies."""
    best = None
    x = 0
    while x <= b1:
        v = f.apply(x)
        if v <= limit:
            best = x
        elif x > limit:
            # strictly increasing below b1 keeps f(x) >= x up there; stop.
            break
        x += 1
    if best is None:
        raise InputError("composition parameter is empty: no value maps below the limit")
    return best


def lift_strategy(r: QuantReduction, strat: FiniteStateStrategy) -> FiniteStateStrategy:
    """Fold a strategy on the target game back to the source game.

    The strategy is read back through ``r.target.arena``, the expansion
    it was solved on, by one walk of it (:func:`rankgames.memory.pull_back`):
    the reduction memory is not stepped again and no second expansion is
    built.  The lifted
    strategy runs the reduction memory alongside the target strategy's and
    therefore has exactly the product size; its update and move rows cover
    only what plays from the source's initial vertex that are consistent
    with it can reach.  Its cost contract (target cost f(b') below the
    parameter gives source cost b') is certified by the verify module, not
    assumed here.
    """
    return FiniteStateStrategy(strat.owner, *pull_back(r.memory, r.target.arena, strat.memory,
                                                       strat.owner, strat.move))
