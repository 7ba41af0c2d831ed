"""Correction functions, quantitative reductions, and strategy lifting.

A reduction ties a quantitative game to a quantitative game over its
memory expansion: below the reduction parameter, play costs correspond
exactly through a correction function; at or above it, they stay above
the function's value there.  Every correction function is a cap
min(bound, x), and ``Cap(INF)`` is the identity.  Strategies on the
target fold back to the source through the memory product.  The paper's
claims about reductions (exact costs below the parameter, composition,
lifted strategy size) are checked against the reductions built here by
``tests/theory.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .extnat import INF, ExtNat, check_extnat, is_finite
from .memory import FiniteStateStrategy, MemoryStructure, pull_back


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
class QuantReduction:
    """A memory structure, correction function, and parameter relating a
    source quantitative game to one over the memory expansion.

    Games are any objects exposing ``arena`` and ``lasso_cost(lasso)``.
    The semantic conditions (exact correspondence below the parameter,
    domination at or above it) are not assumed here: ``tests/theory.py``
    checks them play by play, and ``verify`` certifies each lifted
    strategy's cost.  The parameter must not exceed the cap's bound.
    """

    memory: MemoryStructure
    f: Cap
    b: ExtNat
    source: object
    target: object

    def __post_init__(self):
        object.__setattr__(self, "b", check_extnat(self.b, "reduction parameter"))
        if self.b > self.f.bound:
            raise InputError(
                f"function {self.f!r} is not a valid correction for parameter {self.b}")


def lift_strategy(r: QuantReduction, strat: FiniteStateStrategy) -> FiniteStateStrategy:
    """Fold a strategy on the target game back to the source game.

    The strategy is read back through ``r.target.arena``, the expansion
    it was solved on, by one walk of it (:func:`rankgames.memory.pull_back`):
    the reduction memory is not stepped again and no second expansion is
    built.  The lifted
    strategy runs the reduction memory alongside the target strategy's, at
    most the product size: it declares the state pairs its rows name, which
    cover only what plays from the source's initial vertex that are
    consistent with it can reach.  Its cost contract (target cost f(b')
    below the parameter gives source cost b') is certified by the verify
    module, not assumed here.
    """
    return FiniteStateStrategy(strat.owner, *pull_back(r.memory, r.target.arena, strat.memory,
                                                       strat.owner, strat.move))
