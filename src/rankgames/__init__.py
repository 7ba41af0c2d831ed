"""Two-player infinite games on finite graphs: solvers, quantitative
reductions, and strategy certification."""

from .arena import Arena, Lasso, attractor
from .errors import CapabilityError, CapacityError, InputError
from .extnat import INF, ExtNat
from .memory import FiniteStateStrategy, MemoryStructure, trivial_memory
from .objectives import (Buchi, CoBuchi, CostRRSpec, Objective, RankFunction,
                         RequestResponse, Safety, SafetyAndCoBuchi,
                         cost_of_response, cost_rr_lasso, eval_qualitative,
                         rank_cost_lasso)
from .qualsolve import (SolveResult, solve_buchi, solve_cobuchi,
                        solve_objective, solve_request_response, solve_safety,
                        solve_safety_cobuchi)
from .quantred import Cap, QuantReduction, lift_strategy
from .ranked import (OptimizeResult, RankedCondition, RankedGame,
                     solve_lim_with_bound, solve_sup_with_bound)
from .ranked import optimize as optimize_ranked
from .resilience import FaultArena, compute_val, max_resilience, resilience_rank
from .rrcost import CostRRGame, build_reduction, cap_bound, solve_with_bound
from .rrcost import optimize as optimize_cost_rr
from .verify import Verdict, verify_strategy

__all__ = [name for name in dir() if not name.startswith("_")]
