"""Full-vector-update baselines: mirror-prox (extragradient) and the
past-gradient (Popov / optimistic) method, run over the same geometry, trace,
and metric machinery as the randomized solver so comparisons are in
component-oracle-call units.

Default step sizes use an empirical full-operator Lipschitz estimate: the
classical guarantees fix only the constant's order, and the sampled estimate
keeps both baselines honestly tuned on every instance.  The estimate runs on
the operator's linear part, one matvec per sampled pair; a custom operator
without one falls back to two full evaluations per pair.  On a CSR linear
part and a geometry without simplex blocks (LAD), the pairs after numpy's
draws run in the compiled library, to the same estimate (see
``operators.empirical_full_lipschitz``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import empirical_full_lipschitz
from .solver import Trace, _check_finite, _Recorder, check_run_fields

# Sampled pairs in the empirical Lipschitz estimate behind the default eta.
LIPSCHITZ_TRIALS = 200


@dataclass
class BaselineConfig:
    method: str
    iterations: int
    eta: float | None = None
    seed: int = 0
    eval_stride: int | None = None
    eval_metrics: tuple | None = None
    eval_point: str = "average"
    comparator: np.ndarray | None = None
    divergence_bound: float = 1e9

    def __post_init__(self):
        if self.method not in ("mirror-prox", "popov"):
            raise ValueError("method must be 'mirror-prox' or 'popov'")
        check_run_fields(self.iterations, self.eval_point, self.eval_stride,
                         self.divergence_bound, eta=self.eta)


def _prox(geom, u, eta, anchor, k, bound):
    """``prox_full`` of u at ``anchor``; a prox input or iterate that is not
    finite raises DivergenceError with iteration k."""
    _check_finite(u, k, bound, "prox input")
    x = geom.prox_full(u, eta, anchor=anchor, check=False)
    _check_finite(x, k, bound, "iterate")
    return x


def run_baseline(problem, config):
    """Mirror-prox or Popov's method, by ``config.method``.

    Mirror-prox (extragradient): a half-step prox with F at the iterate, a
    full step with F at the half point; the output averages the half points.
    Two full operator evaluations (2m component calls) per iteration.

    Popov (past gradient): one new operator evaluation per iteration, with
    the previous one as extrapolant (2 F(x_k) - F(x_{k-1})); the output
    averages the iterates.  m component calls per iteration.
    """
    geom, op = problem.geometry, problem.operator
    mirror = config.method == "mirror-prox"
    bound = config.divergence_bound
    eta = config.eta
    if eta is None:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 77)))
        L = empirical_full_lipschitz(op, geom, LIPSCHITZ_TRIALS, rng)
        eta = 1.0 / L if mirror else 1.0 / (2.0 * L)
    rec = _Recorder(problem, config)
    stride = rec.stride
    K = config.iterations
    x = geom.x0.copy()
    xsum = np.zeros(op.d)
    v_prev = None
    calls = 0
    trace = Trace(solver=config.method, seed=config.seed, m=op.m, iterations=K,
                  records=rec.records, info={"eta": eta, "stride": stride})
    rec.add(0, calls, x)
    for k in range(1, K + 1):
        v = op.evaluate_full(x)
        calls += op.m
        if mirror:
            w = _prox(geom, eta * v, eta, x, k, bound)
            u = op.evaluate_full(w)
            calls += op.m
        else:
            u = v if v_prev is None else 2.0 * v - v_prev
            v_prev = v
        x = _prox(geom, eta * u, eta, x, k, bound)
        xsum += w if mirror else x
        if k % stride == 0 or k == K:
            rec.add(k, calls, x, xsum, k)
    trace.final_x = x
    trace.x_bar = xsum / K if K else None
    trace.oracle_calls = calls
    return trace
