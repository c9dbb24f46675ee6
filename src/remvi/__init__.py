"""Randomized extrapolated block/finite-sum methods for monotone variational
inequalities, classical full-vector baselines, four concrete problem families
with exact gap evaluators, and a deterministic benchmark harness."""

__version__ = "0.1.0"

from .geometry import Block, GeometryBundle, euclidean_block, simplex_block
from .operators import (CallableComponent, Component, ComponentTable,
                        FiniteSumOperator, LipschitzProfile,
                        empirical_full_lipschitz, load_matrix_market,
                        lpq_bound, lpq_empirical)
from .sampling import AliasTable, RngStream, SamplingPlan, build_plan, problem_plan
from .problems import (ProblemInstance, generate_instance, load_instance,
                       make_box_simplex, make_custom, make_lad,
                       make_matrix_game, make_policy_eval, save_instance,
                       solve_policy_eval_direct, stationary_distribution)
from .metrics import EvalRecord, dist_sq, evaluate_point, gap_fixed
from .solver import (DivergenceError, SolverConfig, Trace, extrapolate,
                     next_step_size, run, run_dense, run_lazy,
                     step_condition_violations, step_schedule)
from .baselines import BaselineConfig, run_baseline

__all__ = [
    "AliasTable", "BaselineConfig", "Block", "CallableComponent", "Component",
    "ComponentTable", "DivergenceError", "EvalRecord", "FiniteSumOperator",
    "GeometryBundle", "LipschitzProfile", "ProblemInstance", "RngStream",
    "SamplingPlan", "SolverConfig", "Trace", "build_plan", "dist_sq",
    "empirical_full_lipschitz", "euclidean_block", "evaluate_point",
    "extrapolate", "gap_fixed", "generate_instance", "load_instance",
    "load_matrix_market", "lpq_bound", "lpq_empirical", "make_box_simplex",
    "make_custom", "make_lad", "make_matrix_game", "make_policy_eval",
    "next_step_size", "problem_plan", "run", "run_baseline", "run_dense",
    "run_lazy", "save_instance", "simplex_block",
    "solve_policy_eval_direct", "stationary_distribution",
    "step_condition_violations", "step_schedule",
]
