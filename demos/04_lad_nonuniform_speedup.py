"""Least absolute deviation with a highly nonuniform coefficient profile:
the regime where randomized sparse updates beat full-vector methods.

One component per nonzero of A, each touching two coordinates, so a lazy
iteration costs O(1) while mirror-prox pays 2m component calls per iteration.
With |A_ij| following a rank^-3 profile, importance sampling concentrates on
the heavy entries and reaches the target primal gap with far fewer
component-oracle calls.
"""

import numpy as np

from remvi import (BaselineConfig, SolverConfig, generate_instance,
                   problem_plan, run_baseline, run_lazy)

inst = generate_instance("lad", 16, 64, exponent=3.0, seed=21, density=1.0,
                         z_scale=0.3)
plan = problem_plan(inst)
lam = inst.profile
print(f"LAD with m = nnz(A) = {inst.m} components; "
      f"|lam|_inf = {lam.norm_inf:.3f}, (sum sqrt)^2 = {lam.norm_half:.3f}")
print(f"nonuniformity (sum sqrt)^2 / |lam|_inf = "
      f"{lam.norm_half / lam.norm_inf:.1f} (near-constant in m)\n")

target = 1e-2
mp = run_baseline(inst, BaselineConfig(method="mirror-prox", iterations=3000,
                                       seed=0, eval_stride=10))
mp_calls = next(r.oracle_calls for r in mp.records
                if r.sup_gap is not None and r.sup_gap <= target)
print(f"mirror-prox reaches primal gap {target:g} after {mp_calls} "
      f"component calls")

K = 1000
while True:
    cfg = SolverConfig(iterations=K, seed=0, mode="lazy",
                       averaging="sampled-index-set",
                       avg_samples=max(200, 8 * K // inst.m),
                       eval_stride=K, eval_metrics=())
    trace = run_lazy(inst, plan, cfg)
    gap = inst.sup_gap(trace.x_bar)
    print(f"  randomized, K = {K:6d} ({inst.m + 2 * K:7d} calls): "
          f"gap = {gap:.4f}")
    if gap <= target:
        rem_calls = inst.m + 2 * K
        break
    K = int(K * 1.5)

print(f"\ncomponent-call advantage: {mp_calls / rem_calls:.1f}x "
      f"({rem_calls} vs {mp_calls})")
