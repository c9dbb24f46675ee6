"""Full-vector-update baselines: mirror-prox (extragradient) and the
past-gradient (Popov / optimistic) method, run over the same geometry, trace,
and metric machinery as the randomized solver so comparisons are in
component-oracle-call units.

Default step sizes use an empirical full-operator Lipschitz estimate: the
classical guarantees fix only the constant's order, and the sampled estimate
keeps both baselines honestly tuned on every instance.  The estimate runs on
the operator's linear part, one matvec per sampled pair; a custom operator
without one falls back to two full evaluations per pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .metrics import default_metrics
from .operators import empirical_full_lipschitz
from .solver import Trace, _check_divergence, _check_finite, _record

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
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.eta is not None and not self.eta > 0.0:
            raise ValueError("step size eta must be positive")
        if not self.divergence_bound > 0.0:
            raise ValueError("divergence_bound must be positive")
        if self.eval_point not in ("iterate", "average"):
            raise ValueError("eval_point must be 'iterate' or 'average'")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError("eval_stride must be >= 1")


def _setup(problem, config):
    stride = config.eval_stride if config.eval_stride is not None else max(1, problem.m)
    metrics = config.eval_metrics
    if metrics is None:
        metrics = default_metrics(problem)
    eta = config.eta
    if eta is None:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 77)))
        L = empirical_full_lipschitz(problem.operator, problem.geometry,
                                     LIPSCHITZ_TRIALS, rng)
        eta = 1.0 / L if config.method == "mirror-prox" else 1.0 / (2.0 * L)
    return stride, tuple(metrics), eta


def _prox(geom, u, eta, anchor, k, bound):
    """``prox_full`` of u at ``anchor``; a prox input or iterate that is not
    finite raises DivergenceError with iteration k."""
    _check_finite(u, k, bound, "prox input")
    x = geom.prox_full(u, eta, anchor=anchor, check=False)
    _check_finite(x, k, bound, "iterate")
    return x


def mirror_prox_run(problem, config):
    """Extragradient iterations: a half-step prox with F at the iterate, a
    full step with F at the half point; output averages the half points.
    Two full operator evaluations (2m component calls) per iteration."""
    if config.method != "mirror-prox":
        raise ValueError("config.method must be 'mirror-prox'")
    stride, metrics, eta = _setup(problem, config)
    geom, op = problem.geometry, problem.operator
    K = config.iterations
    x = geom.x0.copy()
    wsum = np.zeros(op.d)
    calls = 0
    t0 = time.perf_counter_ns()
    trace = Trace(solver="mirror-prox", seed=config.seed, m=op.m, iterations=K,
                  info={"eta": eta, "stride": stride})
    _record(problem, x, metrics, config.comparator, 0, calls, t0, trace.records)
    for k in range(1, K + 1):
        v = op.evaluate_full(x)
        calls += op.m
        w = _prox(geom, eta * v, eta, x, k, config.divergence_bound)
        v_half = op.evaluate_full(w)
        calls += op.m
        x = _prox(geom, eta * v_half, eta, x, k, config.divergence_bound)
        wsum += w
        if k % stride == 0 or k == K:
            _check_divergence(x, k, config.divergence_bound)
            x_eval = wsum / k if config.eval_point == "average" else x
            _record(problem, x_eval, metrics, config.comparator, k, calls,
                    t0, trace.records)
    trace.final_x = x
    trace.x_bar = wsum / K if K else None
    trace.oracle_calls = calls
    return trace


def popov_run(problem, config):
    """Past-gradient method: one new operator evaluation per iteration, with
    the previous evaluation as extrapolant (2 F(x_k) - F(x_{k-1})); output
    averages the iterates.  m component calls per iteration."""
    if config.method != "popov":
        raise ValueError("config.method must be 'popov'")
    stride, metrics, eta = _setup(problem, config)
    geom, op = problem.geometry, problem.operator
    K = config.iterations
    x = geom.x0.copy()
    xsum = np.zeros(op.d)
    v_prev = None
    calls = 0
    t0 = time.perf_counter_ns()
    trace = Trace(solver="popov", seed=config.seed, m=op.m, iterations=K,
                  info={"eta": eta, "stride": stride})
    _record(problem, x, metrics, config.comparator, 0, calls, t0, trace.records)
    for k in range(1, K + 1):
        v = op.evaluate_full(x)
        calls += op.m
        u = v if v_prev is None else 2.0 * v - v_prev
        x = _prox(geom, eta * u, eta, x, k, config.divergence_bound)
        v_prev = v
        xsum += x
        if k % stride == 0 or k == K:
            _check_divergence(x, k, config.divergence_bound)
            x_eval = xsum / k if config.eval_point == "average" else x
            _record(problem, x_eval, metrics, config.comparator, k, calls,
                    t0, trace.records)
    trace.final_x = x
    trace.x_bar = xsum / K if K else None
    trace.oracle_calls = calls
    return trace


def run_baseline(problem, config):
    return mirror_prox_run(problem, config) if config.method == "mirror-prox" \
        else popov_run(problem, config)
