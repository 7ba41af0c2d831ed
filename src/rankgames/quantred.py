"""Correction functions, quantitative reductions, and strategy lifting.

A reduction ties a quantitative game to a quantitative game over its
memory expansion: below the reduction parameter, play costs correspond
exactly through a correction function; at or above it, they stay above
the function's value there.  Every correction function is a cap
min(bound, x), and ``Cap(INF)`` is the identity.  Reductions compose, and
strategies on the target fold back to the source through the memory
product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .extnat import INF, ExtNat, check_extnat, is_finite
from .memory import (FiniteStateStrategy, MemoryStructure, expand, extend_lasso,
                     product_memory, pull_back, trivial_memory)


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


def is_correction(f: Cap, b: ExtNat) -> bool:
    """Check the three correction-function requirements for parameter b.

    Strictly increasing below b, strictly below the value at b, and never
    below it from b on.  A cap meets them exactly up to its own bound.
    """
    return check_extnat(b, "correction parameter") <= f.bound


def compose_functions(f1: Cap, f2: Cap) -> Cap:
    """Pointwise composition f2 after f1: two caps clamp at the smaller bound."""
    return Cap(min(f1.bound, f2.bound))


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
    f: Cap
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
    return QuantReduction(mem, Cap(INF), INF, game,
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
    composition, and the parameter min(b1, b2): a valid cap keeps b1 fixed,
    so f1(b1) = b1 and the second reduction covers it exactly when b2 >= b1.
    The chained target lives over doubly-expanded vertices ((v, m1), m2);
    they are re-associated to (v, (m1, m2)) to match the product memory.
    """
    if r2.source is not r1.target and r2.source != r1.target:
        raise InputError("reductions do not chain: second source differs from first target")
    mem = product_memory(r1.memory, r2.memory, r1.source.arena)
    f = compose_functions(r1.f, r2.f)
    b = min(r1.b, r2.b)

    def reassociate(pv):
        (v, s1), s2 = pv
        return (v, (s1, s2))

    if not hasattr(r2.target, "relabeled"):
        raise InputError("target game does not support vertex relabeling")
    return QuantReduction(mem, f, b, r1.source, r2.target.relabeled(reassociate))


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
