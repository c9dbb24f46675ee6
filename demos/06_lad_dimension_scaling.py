"""An iteration costs what the sampled components touch, not the dimension.

LAD with n = 1000 rows and about 100 nonzeros per row, at d = 10^3, 10^4 and
10^5 primal coordinates.  Each component touches two coordinates (z_j and
y_i), so a lazy iteration catches up and re-proxes those two alone, while a
dense iteration updates all d + n coordinates.  Lazy time per iteration
should stay flat in d while dense time grows with it.

Every generated column needs an entry, so at d = 10^5 the empty columns are
filled and m grows past 100 per row; the lazy iteration does not depend on m.
Per-iteration times come from the elapsed stamps of the first and the last
record (one record at the end, no metrics), so they leave out the table
build.  The script runs in under a minute.
"""

import time

import numpy as np

from remvi import (SolverConfig, generate_instance, problem_plan, run_dense,
                   run_lazy)

N = 1000
PER_ROW = 100
K = 20_000

print(f"LAD, n = {N}, density = {PER_ROW}/d, K = {K} iterations, seed 0\n")
print(f"{'d':>7} {'m':>7} {'build s':>8} {'lazy us/iter':>13} "
      f"{'dense us/iter':>14} {'max |x_lazy - x_dense|':>23}")
for d in (10 ** 3, 10 ** 4, 10 ** 5):
    t0 = time.perf_counter()
    inst = generate_instance("lad", N, d, 1.0, seed=0, density=PER_ROW / d)
    build = time.perf_counter() - t0
    plan = problem_plan(inst)
    us, final = {}, {}
    for mode, run in (("lazy", run_lazy), ("dense", run_dense)):
        cfg = SolverConfig(iterations=K, seed=0, mode=mode, eval_stride=K,
                           eval_metrics=())
        trace = run(inst, plan, cfg)
        first, last = trace.records[0], trace.records[-1]
        us[mode] = (last.elapsed_ns - first.elapsed_ns) / K / 1e3
        final[mode] = trace.final_x
    drift = float(np.max(np.abs(final["lazy"] - final["dense"])))
    print(f"{d:>7} {inst.m:>7} {build:>8.2f} {us['lazy']:>13.1f} "
          f"{us['dense']:>14.1f} {drift:>23.1e}")
