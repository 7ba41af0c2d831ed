import rankgames

# Every name ``import rankgames`` exposes.  However the package comes to
# load its modules (eagerly or on first use), ``__all__`` keeps exactly these.
PUBLIC_NAMES = [
    "Arena", "Buchi", "Cap", "CapabilityError", "CapacityError", "CoBuchi",
    "CostRRGame", "CostRRSpec", "ExtNat", "FaultArena",
    "FiniteStateStrategy", "INF", "InputError", "Lasso", "MemoryStructure",
    "Objective", "OptimizeResult", "QuantReduction", "RankFunction",
    "RankedCondition", "RankedGame", "RequestResponse", "Safety",
    "SafetyAndCoBuchi", "SolveResult", "Verdict", "arena", "attractor",
    "build_reduction", "cap_bound", "compute_val", "cost_of_response",
    "cost_rr_lasso", "errors", "eval_qualitative", "extnat",
    "lift_strategy", "max_resilience",
    "memory", "objectives", "optimize_cost_rr", "optimize_ranked",
    "qualsolve", "quantred", "rank_cost_lasso", "ranked",
    "resilience", "resilience_rank", "rrcost",
    "solve_buchi", "solve_cobuchi", "solve_lim_with_bound", "solve_objective",
    "solve_request_response", "solve_safety", "solve_safety_cobuchi",
    "solve_sup_with_bound", "solve_with_bound", "trivial_memory",
    "verify", "verify_strategy",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(rankgames.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(rankgames, name) is not None, name
