"""Solving a simplex-simplex matrix game with the randomized extrapolated
method, and checking the dense mode against the lazy one.  Both modes
compute every prox from the same dual state, so the two trajectories are
equal and the last line prints a difference of 0.

The game min_z max_y <Az, y> is solved over entropy geometry; progress is
measured by the exact duality gap max_i (Az)_i - min_j (A'y)_j of the
averaged iterate, which a Nash equilibrium drives to zero.
"""

import numpy as np

from remvi import (SolverConfig, generate_instance, problem_plan, run_dense,
                   run_lazy)

inst = generate_instance("matrix-game", 20, 20, exponent=1.5, seed=3)
plan = problem_plan(inst)
print(f"20x20 game, two-sided decomposition: m = {inst.m} components")
print(f"sampling exponent 2/3 over row/column maxima; step constant "
      f"L_pq = {plan.lpq:.2f}\n")

cfg = SolverConfig(iterations=20000, seed=0, mode="dense",
                   averaging="weighted-full", eval_point="average",
                   eval_stride=2000)
trace = run_dense(inst, plan, cfg)
print("dense run, duality gap of the averaged iterate:")
for rec in trace.records:
    print(f"  k = {rec.iteration:6d}   sup-gap = {rec.sup_gap:.5f}")

print(f"\noracle calls: {trace.oracle_calls} "
      f"(= m + 2K = {inst.m} + 2*{cfg.iterations})")

lazy = run_lazy(inst, plan, SolverConfig(iterations=20000, seed=0, mode="lazy",
                                         eval_stride=2000))
dense = run_dense(inst, plan, SolverConfig(iterations=20000, seed=0,
                                           mode="dense", eval_stride=2000))
worst = max(abs(a.sup_gap - b.sup_gap) for a, b in
            zip(dense.records, lazy.records))
print(f"lazy vs dense trajectory (same seed): worst metric difference "
      f"{worst:.2e}")
