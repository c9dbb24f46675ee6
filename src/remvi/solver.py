"""Randomized extrapolated method for generalized Minty variational
inequalities: one iteration loop over one dual state, dense or lazy.

Each iteration draws two independent component indices: j1 (from p) picks the
single component whose fresh evaluation corrects the table aggregate into the
extrapolated operator estimate, and j2 (from q) picks the table slot to
refresh.  The iterate is the dual-averaging prox of the accumulated dual
vector z, which ``_Dual`` keeps: lazy mode proxes only the Euclidean
coordinates the two sampled components read, dense mode all of them after
every step.  Both consume the same draw stream (j1 first, then j2) and
compute each prox from the same state, so their runs are equal bit for bit.

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
        if self.gamma is not None and not self.gamma >= 0.0:
            raise ValueError("gamma must be >= 0")
        if not self.divergence_bound > 0.0:
            raise ValueError("divergence_bound must be positive")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError("eval_stride must be >= 1")
        if self.avg_samples is not None and self.avg_samples < 1:
            raise ValueError("avg_samples must be >= 1")
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
    if lpq <= 0.0 or not math.isfinite(lpq):
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
    """Count violations (a NaN comparison is one) of the three step-size
    certificate inequalities, at every k (the last two from k = 2 on)."""
    a = np.asarray(a_seq, dtype=float)
    A = np.concatenate([[0.0], np.cumsum(a)])
    tol = 1.0 + rel
    bad = 0
    if gamma == 0.0:
        bad += np.count_nonzero(~(75.0 * lpq * lpq * a * a / 2.0 <= 0.25 * tol))
    a_k, a_km1 = a[1:], a[:-1]
    lhs = a_k * a_k / (A[2:] * gamma + 1.0)
    rhs = (1.0 + q_star / 5.0) * a_km1 * a_km1 / (A[1:-1] * gamma + 1.0)
    bad += np.count_nonzero(~(lhs <= rhs * tol))
    lhs2 = 25.0 * lpq * lpq * a_km1 * a_km1 / (A[1:-1] * gamma + 1.0)
    bad += np.count_nonzero(~(lhs2 <= (A[:-2] * gamma + 1.0) / 4.0 * tol))
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


# Sets of up to this many Euclidean coordinates are handled in Python floats:
# the same IEEE operations as numpy's, without its per-call cost.
SCALAR_WRITES = 16


def _listed(sets, j):
    """sets[j], made a list on first use if it has <= SCALAR_WRITES entries."""
    idx = sets[j]
    if type(idx) is np.ndarray and idx.size <= SCALAR_WRITES:
        idx = sets[j] = idx.tolist()
    return idx


class _Dual:
    """The dual vector z and iterate x of a run, in either mode.

    On a Euclidean coordinate the aggregate S changes only when a table
    refresh writes it, so between refreshes the dual value at step-size sum
    A is ``z + A*S``: z holds that base, a step adds only the correction to
    it, and a refresh that moves S[i] at sum A shifts z[i] by -A times the
    change (the just-in-time update of sparse SAGA).  ``_settle`` writes
    the iterate there, the prox of ``z + A*S``, into x.  A simplex prox
    renormalises its whole block, so deferring one saves nothing: entropy
    coordinates keep the true dual vector in z, stepped every iteration.

    Lazy mode settles the Euclidean part of a component's ``in_idx`` when it
    is read; dense mode settles every Euclidean coordinate after a step and
    a refresh's write set after it.  Both settle from the same z, S and A,
    so their runs are equal bit for bit.  A non-finite base or prox input
    raises DivergenceError.
    """

    def __init__(self, geom, op, S, bound, dense):
        self.geom = geom
        self.comps = op.components
        self.S = S
        self.bound = bound
        self.dense = dense
        self.z = np.zeros(op.d)     # the base on Euclidean coordinates
        self.x = geom.x0.copy()
        # the coordinates of each kind (every Euclidean one as one set, a
        # list or _eu_sel), None when there are none
        self.ent = geom._ent_sel if geom._ent_idx.size else None
        every = _listed([geom._eu_idx], 0) if geom._eu_idx.size else None
        self.every = geom._eu_sel if type(every) is np.ndarray else every
        self.reads = [c.in_idx for c in self.comps]
        self.writes = [c.out_idx for c in self.comps]
        if self.ent is not None:
            on_eu = np.ones(op.d, dtype=bool)
            on_eu[self.ent] = False
            self.reads = [s[on_eu[s]] for s in self.reads]
            self.writes = [s[on_eu[s]] for s in self.writes]

    def read(self, j, A, k):
        """Settle what component j reads at sum A (dense mode: nothing)."""
        if A != 0.0 and not self.dense:     # at A = 0 x is still x0
            self._settle(_listed(self.reads, j), A, k)

    def step(self, j, corr, a, A, k):
        """Step the entropy coordinates and add the correction: to the true
        z on entropy coordinates, to the base on Euclidean ones (their a*S
        is implied by the new A)."""
        ent = self.ent
        if ent is not None:
            self.z[ent] += a * self.S[ent]
        if corr is not None:
            self.z[self.comps[j].out_idx] += corr
        if ent is not None:
            z_ent = self.z[ent]
            if not math.isfinite(z_ent.dot(z_ent)):
                _check_finite(z_ent, k, self.bound)
            self.x[ent] = self.geom.prox_entropy(z_ent)
        if self.dense and self.every is not None:
            self._settle(self.every, A, k)

    def refresh(self, table, j, v, k, A):
        """Refresh slot j at step-size sum A, shifting the base on j's
        Euclidean write set so that z + A*S stays where it was; dense mode
        then settles the set."""
        w, S, z = _listed(self.writes, j), self.S, self.z
        if type(w) is not list:
            old = S[w]
            table.refresh(j, v, k)
            z[w] = base = z[w] - A * (S[w] - old)
            _check_finite(base, k, self.bound)
        elif w:
            old = list(map(S.item, w))
            table.refresh(j, v, k)
            for i, o, s in zip(w, old, map(S.item, w)):
                z[i] = b = z.item(i) - A * (s - o)
                if not math.isfinite(b):
                    raise DivergenceError(k, abs(b), self.bound,
                                          what="dual vector z")
        else:   # nothing Euclidean to shift or settle
            table.refresh(j, v, k)
            return
        if self.dense:
            self._settle(w, A, k)

    def _settle(self, idx, A, k):
        """Prox the Euclidean coordinates idx from z + A*S into x: in Python
        floats for a list (see ``_listed``), in numpy otherwise."""
        S, z, x = self.S, self.z, self.x
        if type(idx) is list:
            prox_one = self.geom.prox_one
            for i in idx:
                u = z.item(i) + A * S.item(i)
                if not math.isfinite(u):
                    raise DivergenceError(k, abs(u), self.bound,
                                          what="dual vector z")
                x[i] = prox_one(i, u, A)
            return
        u = A * S[idx]
        u += z[idx]
        # u.u is finite only when u is, and is the cheapest full reduction;
        # it also overflows on a large finite u, so the exact check decides
        if not math.isfinite(u.dot(u)):
            _check_finite(u, k, self.bound)
        x[idx] = self.geom.prox_coords(idx, u, A, check=False)

    def at(self, A, k):
        """The iterate at A on every coordinate."""
        if not self.dense and A != 0.0 and self.every is not None:
            self._settle(self.every, A, k)
        return self.x


def run(problem, plan, config):
    """The randomized extrapolated method in ``config.mode``: one loop over
    the dual state ``_Dual``, which proxes every Euclidean coordinate in
    dense mode and only those the sampled components read in lazy mode.
    With the same seed both modes draw the same components and their runs
    are equal bit for bit."""
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
    dual = _Dual(geom, op, table.aggregate, config.divergence_bound,
                 dense=config.mode == "dense")
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
            corr = (a_prev / p.item(j1)) * (v1 - table.resolve_prev(j1, k))
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
    """Dense mode: the whole iterate is current after every iteration, which
    weighted-full averaging needs."""
    if config.mode != "dense":
        raise ValueError("config.mode must be 'dense'")
    return run(problem, plan, config)


def run_lazy(problem, plan, config):
    """Lazy mode: per iteration only the Euclidean coordinates the two
    sampled components read are proxed (see ``_Dual``).  With the same seed
    the run equals run_dense bit for bit."""
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
