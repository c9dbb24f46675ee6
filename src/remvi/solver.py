"""Randomized extrapolated method for generalized Minty variational
inequalities: one iteration loop over one dual state, dense or lazy.

Each iteration draws two independent component indices: j1 (from p) picks the
single component whose fresh evaluation corrects the table aggregate into the
extrapolated operator estimate, and j2 (from q) picks the table slot to
refresh.  The iterate is the dual-averaging prox of the accumulated dual
vector z: lazy mode proxes only the Euclidean coordinates the two sampled
components read, dense mode also all of them at the end of each iteration.
Both consume the same draw stream (j1 first, then j2) and compute each prox
from the same state, so their runs are equal bit for bit.

``run`` hands every iteration to a compiled kernel (``_window.c``, built
and loaded by ``_kernel``), one call per window that ends at a metric
record or an averaging pick.  The draws, the component evaluations and
the entropy prox (numpy's ``exp`` and ``log``) stay Python calls made
from the kernel; the Euclidean proxes, the correction, the refresh's
bookkeeping and base shift, the whole-iterate settle, the weighted-full
sum and, at iteration K, ``fhat_last`` run in C with the same IEEE
operations as the numpy loop, so both give the same bits, errors
included.  Without a compiler, or when the build fails, the numpy loop
runs the same windows; ``Trace.info["kernel"]`` says which ran ("c" or
"python").

A component's sets are slices of the operator's support layout, cut per
draw; with entropy coordinates the reads and writes that are settled come
from their Euclidean part, filtered once per run.  Every prox of a
coordinate set is one ``GeometryBundle.prox_into`` call.  The two
component calls hand a type that declares ``scalar_io`` memoryviews of
the iterate, the scratch buffer and the table's values, in the kernel and
in the Python loop alike, so it works in Python floats.

Step sizes follow the schedule that certifies the convergence guarantee:
constant sqrt(2/3)/(10 L) without strong convexity, and the capped geometric
growth min(sqrt(1 + q*/5) a, (A gamma + 1)/(10 L)) with it, seeded from the
same constant first step.  The schedule does not depend on the draws, so it
is computed once before the loop and its three certificate inequalities are
checked once, over the whole schedule.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .metrics import EvalRecord, default_metrics, evaluate_point
from .operators import ComponentTable
from .sampling import RngStream

SQRT_2_3 = math.sqrt(2.0 / 3.0)


class DivergenceError(RuntimeError):
    """The iterate's norm exceeded the configured bound, or the dual vector
    overflowed (mis-specified constants).  ``norm`` is the largest
    magnitude over the set checked (the iterate, or the coordinates of z
    the step was settling or shifting), NaN if any value there is NaN."""

    def __init__(self, iteration, norm, bound, what="iterate"):
        super().__init__(
            f"{what} inf-norm {norm:.3e} exceeded bound {bound:.3e} "
            f"at iteration {iteration}")
        self.iteration = iteration
        self.norm = norm
        self.bound = bound


def check_run_fields(iterations, eval_point, eval_stride, divergence_bound,
                     gamma=None, eta=None, lpq=None, averaging=None):
    """The field checks every run config makes (REM's, the baselines' and
    the bench's): a ValueError names the first bad field.  ``gamma``,
    ``eta``, ``lpq`` and REM's ``averaging`` are checked when given;
    ``gamma`` and ``eta`` must be finite, and ``lpq`` must also give a
    positive, finite first step."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if eval_point not in ("iterate", "average"):
        raise ValueError("eval_point must be 'iterate' or 'average'")
    if averaging is not None:
        if averaging not in ("weighted-full", "sampled-index-set"):
            raise ValueError(f"unknown averaging mode {averaging!r}")
        if eval_point == "average" and averaging != "weighted-full":
            raise ValueError("averaged-point evaluation needs weighted-full "
                             "averaging")
    if gamma is not None and not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be >= 0 and finite")
    if eta is not None and not 0.0 < eta < math.inf:
        raise ValueError("step size eta must be positive and finite")
    if lpq is not None:
        next_step_size(0.0, 0.0, 1, 0.0, lpq, 0.0)    # checks lpq and its step
    if not divergence_bound > 0.0:
        raise ValueError("divergence_bound must be positive")
    if eval_stride is not None and eval_stride < 1:
        raise ValueError("eval_stride must be >= 1")


@dataclass
class SolverConfig:
    """REM run parameters.

    ``gamma`` and ``lpq`` default to the problem's regularizer strong
    convexity and the plan's constant.  ``eval_stride`` defaults to m so
    metric evaluation never dominates.  ``averaging`` is "weighted-full"
    (the a-weighted iterate average) or "sampled-index-set" (a pre-drawn
    uniform multiset of ceil(K/m) iteration indices, valid for gamma = 0
    where step sizes are equal).
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
        check_run_fields(self.iterations, self.eval_point, self.eval_stride,
                         self.divergence_bound, gamma=self.gamma,
                         lpq=self.lpq, averaging=self.averaging)
        if self.mode not in ("dense", "lazy"):
            raise ValueError("mode must be 'dense' or 'lazy'")
        if self.avg_samples is not None and self.avg_samples < 1:
            raise ValueError("avg_samples must be >= 1")


@dataclass
class Trace:
    """Run log: metric records, averaged output, and solver bookkeeping.
    ``info["table_values"]`` is a copy of a REM run's final flat table (slot
    j at ``operator.offsets[j]:offsets[j + 1]``)."""

    solver: str
    seed: int
    m: int
    iterations: int
    records: list = field(default_factory=list)
    final_x: np.ndarray | None = None
    x_bar: np.ndarray | None = None
    oracle_calls: int = 0
    a_seq: np.ndarray | None = None
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
    if not 0.0 < lpq < math.inf:
        raise ValueError("lpq must be positive and finite")
    base = SQRT_2_3 / (10.0 * lpq)
    if not 0.0 < base < math.inf:
        # from lpq of about 1.8e307 on 10 lpq overflows, and every step
        # would be 0.0 (the run would return x0); below about 1e-309 the
        # step overflows
        raise ValueError("lpq must be positive and finite, and so must the "
                         f"first step size it gives: {lpq!r} gives {base!r}")
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
    if gamma == 0.0 and K:
        # every step is the first: np.cumsum adds the same steps in the
        # same order as the loop
        a_seq[:] = next_step_size(0.0, 0.0, 1, gamma, lpq, q_star)
        np.cumsum(a_seq, out=A_seq[1:])
        return a_seq, A_seq
    a = A = 0.0
    for i in range(K):
        a = next_step_size(a, A, i + 1, gamma, lpq, q_star)
        A = A + a
        a_seq[i] = a
        A_seq[i + 1] = A
    return a_seq, A_seq


def step_condition_violations(a_seq, gamma, lpq, q_star, rel=1e-12):
    """Count violations (a NaN comparison is one) of the three step-size
    certificate inequalities, at every k (the last two from k = 2 on).
    No step or lpq is squared alone: ``lpq * a`` is formed before it is
    squared (lpq squared overflows from about 1.3e154 on, where lpq * a is
    still of order 0.1), and the growth condition compares the ratio
    a_k / a_{k-1} (a step squared overflows for lpq below about 1e-154)."""
    a = np.asarray(a_seq, dtype=float)
    A = np.concatenate([[0.0], np.cumsum(a)])
    la = lpq * a
    tol = 1.0 + rel
    bad = 0
    if gamma == 0.0:
        bad += np.count_nonzero(~(75.0 * la * la / 2.0 <= 0.25 * tol))
    with np.errstate(divide="ignore"):
        # a zero step after a zero step meets the condition, after a
        # positive one the ratio is inf and does not
        ratio = a[1:] / np.where(a[1:] == 0.0, 1.0, a[:-1])
    lhs = ratio * ratio * (A[1:-1] * gamma + 1.0) / (A[2:] * gamma + 1.0)
    bad += np.count_nonzero(~(lhs <= (1.0 + q_star / 5.0) * tol))
    lhs2 = 25.0 * la[:-1] * la[:-1] / (A[1:-1] * gamma + 1.0)
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
        ends = table.op.offsets
        out = table.op.out_all[ends.item(j):ends.item(j + 1)]
        fhat[out] += (a_prev / (a * p_j)) * (comp_at_prev - table.resolve_prev(j, k))
    return fhat


class _Averager:
    """Output-averaging bookkeeping shared by both run modes: the a-weighted
    sum ``wsum``, which the loop adds to, or ``picks``, the iterations whose
    iterate ``add`` enters into the average."""

    def __init__(self, config, gamma, m, d, index_rng):
        K = config.iterations
        self.wsum = None
        self.counts = None
        self.denom = 0
        self.acc = None
        self.picks = ()
        if config.averaging == "weighted-full":
            self.wsum = np.zeros(d)
        elif gamma == 0.0 and K >= 1:
            size = config.avg_samples
            if size is None:
                size = max(1, math.ceil(K / m))
            if size >= K:
                counts = np.ones(K + 1, dtype=np.int64)
                counts[0] = 0
                self.denom = K
                self.picks = range(1, K + 1)
            else:
                counts = np.zeros(K + 1, dtype=np.int64)
                for _ in range(size):
                    counts[int(index_rng.uniform() * K) + 1] += 1
                self.denom = size
                self.picks = set(np.flatnonzero(counts).tolist())
            self.counts = counts
            self.acc = np.zeros(d)

    def add(self, k, x):
        self.acc += self.counts[k] * x

    def result(self, A_final):
        if self.wsum is not None and A_final > 0.0:
            return self.wsum / A_final
        if self.acc is not None and self.denom > 0:
            return self.acc / self.denom
        return None


class _Recorder:
    """The record rules every solver shares: by default a record every m
    iterations (and at K) of the metrics the problem family supports."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.stride = config.eval_stride if config.eval_stride is not None \
            else max(1, problem.m)
        metrics = config.eval_metrics
        self.metrics = tuple(default_metrics(problem) if metrics is None
                             else metrics)
        self.records = []
        self.t0 = time.perf_counter_ns()

    def add(self, k, calls, x, total=None, weight=None):
        """Record iteration k.  From k = 1 on the iterate x is checked
        against the divergence bound, and with eval_point "average" the
        metrics are taken at the average total / weight instead of x."""
        config = self.config
        if k:
            norm = float(np.max(np.abs(x))) if x.size else 0.0
            if not norm < config.divergence_bound:
                raise DivergenceError(k, norm, config.divergence_bound)
            if config.eval_point == "average":
                x = total / weight
        vals = evaluate_point(self.problem, x, self.metrics,
                              comparator=config.comparator)
        self.records.append(EvalRecord(
            iteration=k, oracle_calls=calls,
            elapsed_ns=time.perf_counter_ns() - self.t0, **vals))


def _restrict(flat, ends, keep):
    """The support layout ``(flat, ends)`` with only the coordinates where
    the boolean array ``keep`` is true, in the same order."""
    kept = keep[flat]
    counts = np.zeros(flat.size + 1, dtype=np.intp)
    np.cumsum(kept, out=counts[1:])
    return flat[kept], counts[ends]


def _check_finite(v, k, bound, what="dual vector z"):
    # v.v is finite only when v is (see GeometryBundle.prox_into)
    if not math.isfinite(v.dot(v)) and not np.isfinite(v).all():
        raise DivergenceError(k, float(np.max(np.abs(v))), bound, what=what)


def run(problem, plan, config):
    """The randomized extrapolated method in ``config.mode``.

    On a Euclidean coordinate the aggregate S changes only when a table
    refresh writes it, so between refreshes the dual value at step-size sum
    A is ``z + A*S``: z holds that base, a step adds only the correction to
    it, and a refresh that moves S[i] at sum A shifts z[i] by -A times the
    change (the just-in-time update of sparse SAGA).  The iterate there is
    the prox of ``z + A*S``, which ``GeometryBundle.prox_into`` writes into
    x on a set of coordinates: lazy mode settles only those the sampled
    components read, and every Euclidean coordinate for a pick or a record;
    dense mode every one at the end of each iteration, so j1 needs no catch-up.
    A simplex prox renormalises its whole block, so deferring one saves
    nothing: entropy coordinates keep the true dual vector in z, stepped
    every iteration.  With the same seed both modes draw the same
    components and their runs are equal bit for bit."""
    gamma = problem.gamma if config.gamma is None else config.gamma
    lpq = plan.lpq if config.lpq is None else config.lpq
    geom, op = problem.geometry, problem.operator
    K, m = config.iterations, op.m
    q_star = plan.q_min
    a_seq, A_seq = step_schedule(K, gamma, lpq, q_star)
    draw = RngStream(config.seed, stream=0)
    index_rng = RngStream(config.seed, stream=1)
    avg = _Averager(config, gamma, m, op.d, index_rng)
    # loaded (and on first use built) before the records' clock starts
    kernel = _kernel.load() if K else None
    rec = _Recorder(problem, config)
    stride = rec.stride
    table = ComponentTable(op, geom.x0)
    lazy = config.mode == "lazy"
    trace = Trace(solver=f"rem-{config.mode}", seed=config.seed, m=op.m,
                  iterations=K, records=rec.records, a_seq=a_seq,
                  cert_violations=step_condition_violations(a_seq, gamma, lpq,
                                                            q_star),
                  info={"gamma": gamma, "lpq": lpq, "q_star": q_star,
                        "stride": stride, "averaging": config.averaging,
                        "kernel": "c" if kernel is not None else "python"})
    x = geom.x0.copy()
    rec.add(0, op.m, x)
    z = np.zeros(op.d)      # the base on Euclidean coordinates
    S = table.aggregate     # the table updates it in place
    every, bound, picks = geom._eu_sel, config.divergence_bound, avg.picks
    # a_0..a_K (a_0 = 0), read as floats with .item: no per-iteration list
    a_all = np.concatenate(([0.0], a_seq))
    # A component's outputs are its slice of the operator's write layout;
    # what it reads and the Euclidean part of what it writes are its slices
    # of two more layouts, which keep only the Euclidean coordinates (an
    # entropy coordinate is never settled)
    out_all, offsets = op.out_all, op.offsets
    r_all, r_ends, w_all, w_ends = op.in_all, op.in_offsets, out_all, offsets
    ent = prox_ent = None
    if geom._ent_idx.size:
        ent = geom._ent_sel
        prox_ent = geom.entropy_step(x, z)
        on_eu = np.ones(op.d, dtype=bool)
        on_eu[ent] = False
        w_all, w_ends = _restrict(out_all, offsets, on_eu)
        r_all, r_ends = ((w_all, w_ends) if op.reads_are_writes
                         else _restrict(r_all, r_ends, on_eu))

    def settle(idx, A, k):
        bad = geom.prox_into(x, idx, z, S, A)
        if bad is not None:
            raise DivergenceError(k, bad, bound, what="dual vector z")

    # j1's value, in the first entries of one buffer for the whole run
    scratch = np.empty(op.max_support)
    x_io, scratch_io = op.io_view(x), op.io_view(scratch)
    fhat_last = np.empty(op.d)
    j2 = -1

    def numpy_window(k0, k1):
        """Iterations k0..k1 in numpy, with the kernel's contract: the same
        operations in the same order, the whole iterate settled at k1."""
        nonlocal j2
        for k in range(k0, k1 + 1):
            a_prev, A_prev, j2_prev = a_all.item(k - 1), A_seq.item(k - 1), j2
            a, A = a_all.item(k), A_seq.item(k)
            # the draws depend on nothing the iteration changes: j1, then j2
            j1 = plan.sample_p(draw)
            j2 = plan.sample_q(draw)
            if not (0 <= j1 < m and 0 <= j2 < m):
                bad = j1 if not 0 <= j1 < m else j2
                raise IndexError(
                    f"drawn component index {bad} outside [0, {m})")
            if lazy and A_prev != 0.0:  # dense x is current; at A = 0, x0
                settle(r_all[r_ends.item(j1):r_ends.item(j1 + 1)], A_prev, k)
            op.components[j1].evaluate(x_io, scratch_io, 0)
            at, end = offsets.item(j1), offsets.item(j1 + 1)
            value = scratch[:end - at]
            if k == K:
                fhat_last[:] = extrapolate(table, j1, value, a_prev, a,
                                           plan.p[j1], k)
            # the step adds a_k * F_hat to z: a_k * S, stepped on the
            # entropy coordinates and implied by the new A on Euclidean
            # ones, plus j1's correction (a_prev/p_j1) * (F_j1(x) - its
            # value two iterations back, which is the shadow if the last
            # refresh was j1's)
            if ent is not None:
                z[ent] += a * S[ent]
            if a_prev != 0.0:
                prev = table.shadow if j1 == j2_prev else table.values[at:end]
                z[out_all[at:end]] += (a_prev / plan.p.item(j1)) * (
                    value - prev)
            if ent is not None:
                _check_finite(z[ent], k, bound)
                prox_ent()
            # both modes settle what j2 reads, then refresh slot j2 at x,
            # shifting the base on its Euclidean writes so that z + A*S
            # stays where it was
            settle(r_all[r_ends.item(j2):r_ends.item(j2 + 1)], A, k)
            writes = w_all[w_ends.item(j2):w_ends.item(j2 + 1)]
            old = S[writes]
            table.refresh(j2, x_io, k)
            if writes.size:     # else j2 writes only entropy coordinates
                z[writes] = b = z[writes] - A * (S[writes] - old)
                _check_finite(b, k, bound)
            # the whole iterate at A: every iteration in dense mode and with
            # weighted-full averaging, else at the window's end
            if not lazy or avg.wsum is not None or k == k1:
                settle(every, A, k)
            if avg.wsum is not None:
                avg.wsum += a * x

    if kernel is not None:
        st = _kernel.window_state(
            plan=plan, draw=draw, op=op, geom=geom, table=table, x=x, z=z,
            a_steps=a_all, A_sums=A_seq, scratch=scratch, wsum=avg.wsum,
            fhat=fhat_last, lazy=lazy, reads=(r_all, r_ends),
            writes=(w_all, w_ends), prox_ent=prox_ent)

        def advance(k0, k1):
            if kernel(st, k0, k1):
                raise DivergenceError(st.bad_k, st.bad_norm, bound,
                                      what="dual vector z")
    else:
        advance = numpy_window
    # one window per stop, a record (every stride iterations and at K) or
    # a pick, the stops made in order as they are needed: a stop that is
    # both comes twice, and its second copy is skipped
    stops = heapq.merge(range(stride, K, stride),
                        picks if type(picks) is range else sorted(picks),
                        (K,))
    k = 1
    for stop in stops:
        if stop < k:
            continue
        advance(k, stop)
        k = stop + 1
        if stop in picks:
            avg.add(stop, x)
        if stop % stride == 0 or stop == K:
            rec.add(stop, op.m + 2 * stop, x, avg.wsum, A_seq.item(stop))
    trace.final_x = x
    trace.x_bar = avg.result(A_seq.item(K))
    trace.oracle_calls = op.m + 2 * K
    if K:
        trace.info["fhat_last"] = fhat_last
        trace.info["table_values"] = table.values.copy()
        trace.info["table_eval_iter"] = table.eval_iter.copy()
    return trace


def run_dense(problem, plan, config):
    """Dense mode: lazy mode that also settles the whole iterate at the end
    of every iteration (see ``run``)."""
    if config.mode != "dense":
        raise ValueError("config.mode must be 'dense'")
    return run(problem, plan, config)


def run_lazy(problem, plan, config):
    """Lazy mode: per iteration only the Euclidean coordinates the two
    sampled components read are proxed, the whole iterate only for a pick
    or a record (see ``run``).  The run equals run_dense bit for bit."""
    if config.mode != "lazy":
        raise ValueError("config.mode must be 'lazy'")
    return run(problem, plan, config)

