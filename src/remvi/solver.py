"""Randomized extrapolated method for generalized Minty variational
inequalities: one iteration loop over a dense or a lazy dual state.

Each iteration draws two independent component indices: j1 (from p) picks the
single component whose fresh evaluation corrects the table aggregate into the
extrapolated operator estimate, and j2 (from q) picks the table slot to
refresh.  The iterate is the dual-averaging prox of the accumulated dual
vector z.  ``run`` is the one loop; the dual state it drives decides how much
of z and x an iteration touches.  The dense state updates all of them.  The
lazy state defers dual accumulation on Euclidean coordinates: a coordinate's
aggregate entry changes only when a table refresh writes it, so its dual
value at step-size sum A is base + A * aggregate_entry, and a refresh shifts
the base instead.  Per iteration only the Euclidean coordinates the two
sampled components read are proxed, and only those they write are updated.
Entropy (simplex) coordinates are not deferred: a simplex prox renormalises
its whole block, so the lazy state steps them every iteration exactly as the
dense state does.  Both consume the same draw stream (j1 first, then j2) and
produce trajectories that agree to floating-point accumulation order; on an
all-entropy geometry (matrix games) nothing is deferred and they are equal
bit for bit.

Step sizes follow the schedule that certifies the convergence guarantee:
constant sqrt(2/3)/(10 L) without strong convexity, and the capped geometric
growth min(sqrt(1 + q*/5) a, (A gamma + 1)/(10 L)) with it, seeded from the
same constant first step.  The schedule does not depend on the draws, so it
is computed once before the loop and its three certificate inequalities are
checked once, over the whole schedule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import EvalRecord, default_metrics, evaluate_point
from .operators import ComponentTable
from .sampling import RngStream

SQRT_2_3 = math.sqrt(2.0 / 3.0)


class DivergenceError(RuntimeError):
    """The iterate's norm exceeded the configured bound, or the dual vector
    overflowed (mis-specified constants)."""

    def __init__(self, iteration, norm, bound, what="iterate"):
        super().__init__(
            f"{what} inf-norm {norm:.3e} exceeded bound {bound:.3e} "
            f"at iteration {iteration}")
        self.iteration = iteration
        self.norm = norm
        self.bound = bound


@dataclass
class SolverConfig:
    """REM run parameters.

    ``gamma`` and ``lpq`` default to the problem's regularizer strong
    convexity and the plan's constant.  ``eval_stride`` defaults to m so
    metric evaluation never dominates.  ``averaging`` is "weighted-full"
    (dense mode only: the a-weighted iterate average) or "sampled-index-set"
    (a pre-drawn uniform multiset of ceil(K/m) iteration indices, valid for
    gamma = 0 where step sizes are equal).
    """

    iterations: int
    seed: int = 0
    mode: str = "dense"
    gamma: float | None = None
    lpq: float | None = None
    eval_stride: int | None = None
    averaging: str = "sampled-index-set"
    avg_samples: int | None = None
    eval_metrics: tuple | None = None
    eval_point: str = "iterate"
    comparator: np.ndarray | None = None
    divergence_bound: float = 1e9

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.mode not in ("dense", "lazy"):
            raise ValueError("mode must be 'dense' or 'lazy'")
        if self.averaging not in ("weighted-full", "sampled-index-set"):
            raise ValueError("unknown averaging mode")
        if self.eval_point not in ("iterate", "average"):
            raise ValueError("eval_point must be 'iterate' or 'average'")
        if self.gamma is not None and self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.mode == "lazy" and self.averaging == "weighted-full":
            raise ValueError("weighted-full averaging needs dense iterates; "
                             "use sampled-index-set in lazy mode")
        if self.eval_point == "average" and self.averaging != "weighted-full":
            raise ValueError("averaged-point evaluation needs weighted-full "
                             "averaging")


@dataclass
class Trace:
    """Run log: metric records, averaged output, and solver bookkeeping."""

    solver: str
    seed: int
    m: int
    iterations: int
    records: list = field(default_factory=list)
    final_x: np.ndarray | None = None
    x_bar: np.ndarray | None = None
    oracle_calls: int = 0
    a_seq: np.ndarray | None = None
    A_final: float = 0.0
    cert_violations: int = 0
    # A divergence raises DivergenceError, so a returned trace never has it;
    # kept for callers that check it.
    diverged: bool = False
    info: dict = field(default_factory=dict)


def next_step_size(a_prev, A_prev, k, gamma, lpq, q_star):
    """Step size for iteration k given the previous step and step-size sum.

    gamma = 0: the constant sqrt(2/3)/(10 lpq).  gamma > 0: the first step is
    the same constant (growing from a_0 = 0 would pin every step at zero);
    afterwards min of the geometric branch sqrt(1 + q*/5) a_prev and the cap
    (A_prev gamma + 1)/(10 lpq).
    """
    if lpq <= 0.0 or not np.isfinite(lpq):
        raise ValueError("lpq must be positive and finite")
    base = SQRT_2_3 / (10.0 * lpq)
    if gamma == 0.0 or k <= 1:
        return base
    return min(math.sqrt(1.0 + q_star / 5.0) * a_prev,
               (A_prev * gamma + 1.0) / (10.0 * lpq))


def step_schedule(K, gamma, lpq, q_star):
    """The step sizes a_1..a_K and their running sums A_0..A_K (A_0 = 0),
    added in iteration order.  They depend on the constants only, not on
    the draws."""
    a_seq = np.empty(K)
    A_seq = np.zeros(K + 1)
    a = A = 0.0
    for i in range(K):
        a = next_step_size(a, A, i + 1, gamma, lpq, q_star)
        A = A + a
        a_seq[i] = a
        A_seq[i + 1] = A
    return a_seq, A_seq


def step_condition_violations(a_seq, gamma, lpq, q_star, rel=1e-12):
    """Count violations of the three step-size certificate inequalities,
    checked at every iteration k (the last two from k = 2 on)."""
    a = np.asarray(a_seq, dtype=float)
    A = np.concatenate([[0.0], np.cumsum(a)])
    tol = 1.0 + rel
    bad = 0
    if gamma == 0.0:
        bad += np.count_nonzero(75.0 * lpq * lpq * a * a / 2.0 > 0.25 * tol)
    a_k, a_km1 = a[1:], a[:-1]
    lhs = a_k * a_k / (A[2:] * gamma + 1.0)
    rhs = (1.0 + q_star / 5.0) * a_km1 * a_km1 / (A[1:-1] * gamma + 1.0)
    bad += np.count_nonzero(lhs > rhs * tol)
    lhs2 = 25.0 * lpq * lpq * a_km1 * a_km1 / (A[1:-1] * gamma + 1.0)
    bad += np.count_nonzero(lhs2 > (A[:-2] * gamma + 1.0) / 4.0 * tol)
    return int(bad)


def extrapolate(table, j, comp_at_prev, a_prev, a, p_j, k):
    """Extrapolated operator estimate: the table aggregate plus the
    probability-rescaled single-component correction.

    The subtracted term is the component's stored value as of two iterations
    ago, resolved through the table's shadow rule.  At the first iteration
    (a_prev = 0) the correction vanishes and the estimate is the aggregate.
    """
    fhat = table.aggregate.copy()
    if a_prev != 0.0:
        out = table.op.components[j].out_idx
        fhat[out] += (a_prev / (a * p_j)) * (comp_at_prev - table.resolve_prev(j, k))
    return fhat


class _Averager:
    """Output-averaging bookkeeping shared by both run modes."""

    def __init__(self, config, gamma, m, d, index_rng):
        K = config.iterations
        self.mode = config.averaging
        self.wsum = None
        self.counts = None
        self.denom = 0
        self.acc = None
        if self.mode == "weighted-full":
            self.wsum = np.zeros(d)
        elif gamma == 0.0 and K >= 1:
            size = config.avg_samples
            if size is None:
                size = max(1, math.ceil(K / m))
            if size >= K:
                counts = np.ones(K + 1, dtype=np.int64)
                counts[0] = 0
                self.denom = K
            else:
                counts = np.zeros(K + 1, dtype=np.int64)
                for _ in range(size):
                    counts[int(index_rng.uniform() * K) + 1] += 1
                self.denom = size
            self.counts = counts
            self.acc = np.zeros(d)

    def wants(self, k):
        """Whether the iterate of iteration k enters the average."""
        return self.wsum is not None or (self.counts is not None
                                         and self.counts[k] > 0)

    def add(self, k, a, x):
        if self.wsum is not None:
            self.wsum += a * x
        else:
            self.acc += self.counts[k] * x

    def result(self, A_final):
        if self.wsum is not None and A_final > 0.0:
            return self.wsum / A_final
        if self.acc is not None and self.denom > 0:
            return self.acc / self.denom
        return None


def _resolve(problem, plan, config):
    gamma = problem.gamma if config.gamma is None else config.gamma
    lpq = plan.lpq if config.lpq is None else config.lpq
    stride = config.eval_stride if config.eval_stride is not None else max(1, problem.m)
    metrics = config.eval_metrics
    if metrics is None:
        metrics = default_metrics(problem)
    return gamma, lpq, stride, tuple(metrics)


def _record(problem, x, metrics, comparator, k, calls, t0, records):
    vals = evaluate_point(problem, x, metrics, comparator=comparator)
    records.append(EvalRecord(iteration=k, oracle_calls=calls,
                              elapsed_ns=time.perf_counter_ns() - t0, **vals))


def _check_divergence(x, k, bound):
    norm = float(np.max(np.abs(x))) if x.size else 0.0
    if not norm < bound:
        raise DivergenceError(k, norm, bound)


def _check_finite(v, k, bound, what="dual vector z"):
    if not np.isfinite(v).all():
        raise DivergenceError(k, float(np.max(np.abs(v))), bound, what=what)


class _DenseDual:
    """The dual vector z and iterate x of a dense run: every step adds a_k
    times the whole aggregate S to z and re-proxes all of x.  A z that is
    not finite raises DivergenceError with its iteration."""

    def __init__(self, geom, op, S, bound):
        self.geom = geom
        self.comps = op.components
        self.S = S
        self.bound = bound
        self.z = np.zeros(op.d)
        self.x = geom.x0.copy()

    def read(self, j, A, k):
        """Nothing to catch up: x is current after every step."""

    def step(self, j, corr, a, A, k):
        self.z += a * self.S
        if corr is not None:
            self.z[self.comps[j].out_idx] += corr
        # z.z is finite only when z is, and is the cheapest full reduction
        if not math.isfinite(self.z.dot(self.z)):
            _check_finite(self.z, k, self.bound)
        self.x = self.geom.prox_full(self.z, A, check=False)

    def refresh(self, table, j, v, k, A):
        table.refresh(j, v, k)

    def at(self, A, k):
        return self.x


class _LazyDual:
    """The dual vector z and iterate x of a lazy run: Euclidean coordinates
    are proxed on demand, entropy coordinates are stepped every iteration.

    On a Euclidean coordinate the aggregate S changes only when a table
    refresh writes it, so between refreshes the true dual vector at
    step-size sum A is ``z + A*S``: z holds that base, and a refresh that
    moves S[i] at sum A shifts z[i] by -A times the change, which leaves
    the true value where it was.  A step then only adds the correction to
    z, and reading a coordinate is one prox of ``z + A*S`` there, a
    component's read and write sets being the Euclidean parts of its
    ``in_idx`` and ``out_idx``.  A simplex prox renormalises its whole
    block, so deferring one saves nothing: on entropy coordinates z is the
    true dual vector, which takes the same step, correction and segmented
    prox as in ``_DenseDual``.  A prox input that is not finite raises
    DivergenceError with its iteration.
    """

    def __init__(self, geom, op, S, bound):
        self.geom = geom
        self.comps = op.components
        self.S = S
        self.bound = bound
        self.z = np.zeros(op.d)     # the base on Euclidean coordinates
        self.x = geom.x0.copy()
        self.ent = geom._ent_idx
        self.reads = [c.in_idx for c in self.comps]
        self.writes = [c.out_idx for c in self.comps]
        if self.ent.size:
            on_eu = np.ones(op.d, dtype=bool)
            on_eu[self.ent] = False
            self.reads = [s[on_eu[s]] for s in self.reads]
            self.writes = [s[on_eu[s]] for s in self.writes]

    def read(self, j, A, k):
        """Prox what component j reads at step-size sum A."""
        idx = self.reads[j]
        if A == 0.0 or not idx.size:
            return      # at A = 0 nothing has accumulated: x is still x0
        self.x[idx] = self._prox(idx, A, k)

    def step(self, j, corr, a, A, k):
        """Step the entropy coordinates as the dense state does, then add
        the correction: to the true z on entropy coordinates, to the base
        on Euclidean ones (their a*S is implied by the new A)."""
        ent = self.ent
        if ent.size:
            self.z[ent] += a * self.S[ent]
        if corr is not None:
            self.z[self.comps[j].out_idx] += corr
        if ent.size:
            self.x[ent] = self.geom.prox_entropy(self.z[ent])

    def refresh(self, table, j, v, k, A):
        """Refresh slot j at step-size sum A, shifting the base on j's
        Euclidean write set so that z + A*S stays where it was.  Every
        RESUM_PERIOD refreshes the table re-sums S everywhere, which moves
        z + A*S on the other coordinates by A times the rounding drift the
        re-sum corrects."""
        w = self.writes[j]
        if not w.size:
            table.refresh(j, v, k)
            return
        old = self.S[w]
        table.refresh(j, v, k)
        self.z[w] -= A * (self.S[w] - old)

    def _prox(self, idx, A, k):
        z = self.z[idx] + A * self.S[idx]
        _check_finite(z, k, self.bound)
        return self.geom.prox_coords(idx, z, A, check=False)

    def at(self, A, k):
        """The iterate at A on every coordinate, leaving z as it is."""
        snap = self.x.copy()
        eu = self.geom._eu_idx
        if A != 0.0 and eu.size:
            snap[eu] = self._prox(eu, A, k)
        return snap


def run(problem, plan, config):
    """The randomized extrapolated method in ``config.mode``: one loop over
    a dense (``_DenseDual``) or lazy (``_LazyDual``) dual state.  With the
    same seed both modes draw the same components and agree to
    floating-point accumulation order."""
    gamma, lpq, stride, metrics = _resolve(problem, plan, config)
    geom, op = problem.geometry, problem.operator
    K = config.iterations
    q_star = plan.q_min
    a_seq, A_seq = step_schedule(K, gamma, lpq, q_star)
    draw = RngStream(config.seed, stream=0)
    index_rng = RngStream(config.seed, stream=1)
    avg = _Averager(config, gamma, op.m, op.d, index_rng)
    t0 = time.perf_counter_ns()
    table = ComponentTable(op, geom.x0)
    calls = op.m
    # S: the table updates its aggregate in place
    state = _DenseDual if config.mode == "dense" else _LazyDual
    dual = state(geom, op, table.aggregate, config.divergence_bound)
    trace = Trace(solver=f"rem-{config.mode}", seed=config.seed, m=op.m,
                  iterations=K, a_seq=a_seq,
                  cert_violations=step_condition_violations(a_seq, gamma, lpq,
                                                            q_star),
                  info={"gamma": gamma, "lpq": lpq, "q_star": q_star,
                        "stride": stride, "averaging": config.averaging})
    _record(problem, dual.x, metrics, config.comparator, 0, calls, t0,
            trace.records)
    a_list = [0.0] + a_seq.tolist()
    A_list = A_seq.tolist()
    p = plan.p
    comps = op.components
    fhat_last = None
    for k in range(1, K + 1):
        a_prev, a, A = a_list[k - 1], a_list[k], A_list[k]
        j1 = plan.sample_p(draw)
        dual.read(j1, A_list[k - 1], k)
        v1 = comps[j1].evaluate(dual.x)
        calls += 1
        # the step adds a_k * F_hat to z: a_k * aggregate plus this correction
        corr = None
        if a_prev != 0.0:
            corr = (a_prev / p[j1]) * (v1 - table.resolve_prev(j1, k))
        if k == K:
            fhat_last = extrapolate(table, j1, v1, a_prev, a, p[j1], k)
        dual.step(j1, corr, a, A, k)
        j2 = plan.sample_q(draw)
        dual.read(j2, A, k)
        v2 = comps[j2].evaluate(dual.x)
        calls += 1
        dual.refresh(table, j2, v2, k, A)
        if avg.wants(k):
            avg.add(k, a, dual.at(A, k))
        if k % stride == 0 or k == K:
            x = dual.at(A, k)
            _check_divergence(x, k, config.divergence_bound)
            x_eval = avg.wsum / A if config.eval_point == "average" else x
            _record(problem, x_eval, metrics, config.comparator, k, calls,
                    t0, trace.records)
    trace.A_final = A_list[-1]
    trace.final_x = dual.at(trace.A_final, K)
    trace.x_bar = avg.result(trace.A_final)
    trace.oracle_calls = calls
    if fhat_last is not None:
        trace.info["fhat_last"] = fhat_last
        # refresh replaces slots and never writes into one, so the slots
        # themselves are the final table
        trace.info["table_values"] = list(table.values)
        trace.info["table_eval_iter"] = table.eval_iter.copy()
    return trace


def run_dense(problem, plan, config):
    """Reference full-vector implementation of the randomized extrapolated
    method; every iteration updates the whole dual vector and iterate."""
    if config.mode != "dense":
        raise ValueError("config.mode must be 'dense'")
    return run(problem, plan, config)


def run_lazy(problem, plan, config):
    """Lazy implementation: each Euclidean coordinate keeps its dual value
    as base + A * aggregate, so per iteration only the Euclidean coordinates
    the two sampled components read are proxed and only those they write
    are updated; entropy (simplex) coordinates are stepped every iteration
    as in run_dense (see ``_LazyDual``).  With the same seed the metric
    trace matches run_dense, bit for bit when every block is a simplex.
    """
    if config.mode != "lazy":
        raise ValueError("config.mode must be 'lazy'")
    return run(problem, plan, config)


def average_output(trace, config):
    """Final averaged output of a run.

    weighted-full: the a-weighted iterate average (dense runs only).
    sampled-index-set: the uniform average over the pre-drawn index multiset
    (gamma = 0 runs; with requested size >= K the multiset is the exhaustive
    index range, so the result is the plain iterate mean).
    """
    if trace.iterations < 1:
        raise ValueError("averaging needs at least one iteration")
    if config.averaging == "weighted-full" and trace.solver == "rem-lazy":
        raise ValueError("weighted-full average unavailable: lazy runs do not "
                         "materialize dense iterates")
    if trace.x_bar is None:
        raise ValueError("no averaged output on this trace (gamma > 0 runs "
                         "return the final iterate)")
    return trace.x_bar
