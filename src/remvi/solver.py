"""Randomized extrapolated method for generalized Minty variational
inequalities: dense reference implementation and lazy sparse-update variant.

Each iteration draws two independent component indices: j1 (from p) picks the
single component whose fresh evaluation corrects the table aggregate into the
extrapolated operator estimate, and j2 (from q) picks the table slot to
refresh.  The iterate is the dual-averaging prox of the accumulated dual
vector z.  The lazy variant defers dual accumulation on untouched
coordinates: while a coordinate's aggregate entry is constant, its pending
increments sum to (A_now - A_last) * aggregate_entry, so only the Euclidean
coordinates and entropy blocks read or written by the two sampled components
are materialized per iteration.  Both variants consume the same draw stream
(j1 first, then j2) and produce trajectories that agree to floating-point
accumulation order.

Step sizes follow the schedule that certifies the convergence guarantee:
constant sqrt(2/3)/(10 L) without strong convexity, and the capped geometric
growth min(sqrt(1 + q*/5) a, (A gamma + 1)/(10 L)) with it, seeded from the
same constant first step.  The three certificate inequalities are re-checked
at every iteration.
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
CERT_REL = 1.0 + 1e-12


class DivergenceError(RuntimeError):
    """Iterate norm exceeded the configured bound (mis-specified constants)."""

    def __init__(self, iteration, norm, bound):
        super().__init__(
            f"iterate inf-norm {norm:.3e} exceeded bound {bound:.3e} "
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
    check_steps: bool = True

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
    diverged: bool = False
    diverged_at: int | None = None
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


def step_condition_violations(a_seq, gamma, lpq, q_star, rel=1e-12):
    """Count violations of the three step-size certificate inequalities."""
    a_seq = np.asarray(a_seq, dtype=float)
    A = np.concatenate([[0.0], np.cumsum(a_seq)])
    bad = 0
    tol = 1.0 + rel
    for k in range(1, a_seq.size + 1):
        a_k = a_seq[k - 1]
        if gamma == 0.0 and 75.0 * lpq * lpq * a_k * a_k / 2.0 > 0.25 * tol:
            bad += 1
        if k >= 2:
            a_km1 = a_seq[k - 2]
            lhs = a_k * a_k / (A[k] * gamma + 1.0)
            rhs = (1.0 + q_star / 5.0) * a_km1 * a_km1 / (A[k - 1] * gamma + 1.0)
            if lhs > rhs * tol:
                bad += 1
            lhs2 = 25.0 * lpq * lpq * a_km1 * a_km1 / (A[k - 1] * gamma + 1.0)
            if lhs2 > (A[k - 2] * gamma + 1.0) / 4.0 * tol:
                bad += 1
    return bad


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

    def needs_iterate(self, k):
        return self.counts is not None and self.counts[k] > 0

    def add_sampled(self, k, x):
        self.acc += self.counts[k] * x

    def add_weighted(self, a, x):
        if self.wsum is not None:
            self.wsum += a * x

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


def run_dense(problem, plan, config):
    """Reference full-vector implementation of the randomized extrapolated
    method; every iteration updates the whole dual vector and iterate."""
    if config.mode != "dense":
        raise ValueError("config.mode must be 'dense'")
    gamma, lpq, stride, metrics = _resolve(problem, plan, config)
    if config.eval_point == "average" and config.averaging != "weighted-full":
        raise ValueError("averaged-point evaluation needs weighted-full averaging")
    geom, op = problem.geometry, problem.operator
    K = config.iterations
    draw = RngStream(config.seed, stream=0)
    index_rng = RngStream(config.seed, stream=1)
    avg = _Averager(config, gamma, op.m, op.d, index_rng)
    t0 = time.perf_counter_ns()
    table = ComponentTable(op, geom.x0)
    calls = op.m
    z = np.zeros(op.d)
    x = geom.x0.copy()
    trace = Trace(solver="rem-dense", seed=config.seed, m=op.m, iterations=K,
                  info={"gamma": gamma, "lpq": lpq, "q_star": plan.q_min,
                        "stride": stride, "averaging": config.averaging})
    _record(problem, x, metrics, config.comparator, 0, calls, t0, trace.records)
    a_seq = np.empty(K)
    a = 0.0
    A = 0.0
    A_km1 = 0.0
    A_km2 = 0.0
    fhat_last = None
    p = plan.p
    q_star = plan.q_min
    comps = op.components
    S = table.aggregate  # updated in place by refresh/resum
    prox_full = geom.prox_full
    try:
        for k in range(1, K + 1):
            a_prev = a
            a = next_step_size(a_prev, A, k, gamma, lpq, q_star)
            A_km2 = A_km1
            A_km1 = A
            A = A + a
            a_seq[k - 1] = a
            if config.check_steps:
                trace.cert_violations += _cert_bad(k, a, A, a_prev, A_km1, A_km2,
                                                   gamma, lpq, q_star)
            j1 = plan.sample_p(draw)
            comp1 = comps[j1]
            v1 = comp1.evaluate(x)
            calls += 1
            # z += a_k * F_hat with F_hat = aggregate + rescaled correction
            z += a * S
            if a_prev != 0.0:
                z[comp1.out_idx] += (a_prev / p[j1]) * (v1 - table.resolve_prev(j1, k))
            if k == K:
                fhat_last = extrapolate(table, j1, v1, a_prev, a, p[j1], k)
            x = prox_full(z, A, check=False)
            j2 = plan.sample_q(draw)
            v2 = comps[j2].evaluate(x)
            calls += 1
            table.refresh(j2, v2, k)
            avg.add_weighted(a, x)
            if avg.needs_iterate(k):
                avg.add_sampled(k, x)
            if k % stride == 0 or k == K:
                _check_divergence(x, k, config.divergence_bound)
                x_eval = avg.wsum / A if config.eval_point == "average" else x
                _record(problem, x_eval, metrics, config.comparator, k, calls,
                        t0, trace.records)
    except DivergenceError as exc:
        trace.diverged = True
        trace.diverged_at = exc.iteration
        raise
    finally:
        trace.final_x = x
        trace.x_bar = avg.result(A)
        trace.oracle_calls = calls
        trace.a_seq = a_seq
        trace.A_final = A
        if fhat_last is not None and not trace.diverged:
            trace.info["fhat_last"] = fhat_last
            trace.info["table_values"] = [v.copy() for v in table.values]
            trace.info["table_eval_iter"] = table.eval_iter.copy()
    return trace


def _cert_bad(k, a, A, a_prev, A_km1, A_km2, gamma, lpq, q_star):
    bad = 0
    if gamma == 0.0 and 75.0 * lpq * lpq * a * a / 2.0 > 0.25 * CERT_REL:
        bad += 1
    if k >= 2:
        lhs = a * a / (A * gamma + 1.0)
        rhs = (1.0 + q_star / 5.0) * a_prev * a_prev / (A_km1 * gamma + 1.0)
        if lhs > rhs * CERT_REL:
            bad += 1
        if (25.0 * lpq * lpq * a_prev * a_prev / (A_km1 * gamma + 1.0)
                > (A_km2 * gamma + 1.0) / 4.0 * CERT_REL):
            bad += 1
    return bad


# A lazy catch-up target may sit this far below a coordinate's last settled
# step-size sum (rounding); anything lower means a read without catch-up.
SETTLE_TOL = 1e-15


class _LazyDual:
    """The dual vector z and iterate x of a lazy run, caught up on demand.

    Between touches the pending dual increments of coordinate i sum to
    (A_now - A_last[i]) * S[i], because the aggregate S only changes where a
    table refresh writes, and those coordinates are settled first.  Euclidean
    coordinates are separable, so they are settled and re-proxed one
    coordinate at a time, a component's read and write sets being its
    ``in_idx`` and ``out_idx``.  Each entropy block (one normalisation per
    simplex) is settled and re-proxed as a whole.  The invariant is
    x[i] = prox(z[i], A_last[i]) on every coordinate.
    """

    def __init__(self, geom, op, S):
        self.geom = geom
        self.S = S
        self.z = np.zeros(op.d)
        self.x = geom.x0.copy()
        self.A_last = np.zeros(op.d)            # per Euclidean coordinate
        self.A_block = np.zeros(len(geom.blocks))   # per entropy block
        self.entropy = [(bi, b.idx) for bi, b in enumerate(geom.blocks)
                        if b.kind == "entropy"]
        comps = op.components
        if self.entropy:
            self.read_coords, self.read_blocks = _split_supports(
                geom, [c.in_idx for c in comps])
            self.write_coords, self.write_blocks = _split_supports(
                geom, [c.out_idx for c in comps])
        else:
            self.read_coords = [c.in_idx for c in comps]
            self.write_coords = [c.out_idx for c in comps]
            self.read_blocks = self.write_blocks = [()] * op.m

    def settle(self, idx, blocks, A_target, k):
        """Bring z up to A_target on the coordinates ``idx`` and the entropy
        blocks ``blocks``; returns the ones that were behind."""
        A_prev = self.A_last[idx]
        dA = A_target - A_prev
        if (dA < -SETTLE_TOL).any():
            i = int(np.argmin(dA))
            raise RuntimeError(
                f"lazy catch-up at iteration {k}: coordinate {int(idx[i])} has "
                f"A_last={float(A_prev[i])!r} above the target "
                f"{float(A_target)!r}")
        behind = dA != 0.0
        idx = idx[behind]
        self.z[idx] += dA[behind] * self.S[idx]
        self.A_last[idx] = A_target
        stale = []
        for b in blocks:
            dA = A_target - self.A_block[b]
            if dA < -SETTLE_TOL:
                raise RuntimeError(
                    f"lazy catch-up at iteration {k}: block {int(b)} has "
                    f"A_last={float(self.A_block[b])!r} above the target "
                    f"{float(A_target)!r}")
            if dA != 0.0:
                bidx = self.geom.blocks[b].idx
                self.z[bidx] += dA * self.S[bidx]
                self.A_block[b] = A_target
                stale.append(b)
        return idx, stale

    def prox(self, idx, blocks, A):
        """Re-solve x = prox(z, A) on the coordinates and entropy blocks."""
        if idx.size:
            self.x[idx] = self.geom.prox_coords(idx, self.z[idx], A)
        for b in blocks:
            bidx = self.geom.blocks[b].idx
            self.x[bidx] = self.geom.prox_block(b, self.z[bidx], A)

    def catch_up(self, idx, blocks, A_target, k):
        self.prox(*self.settle(idx, blocks, A_target, k), A_target)

    def flush(self, A_now):
        """The iterate at A_now on every coordinate, leaving z as it is."""
        snap = self.x.copy()
        eu = self.geom._eu_idx
        A_prev = self.A_last[eu]
        behind = A_prev != A_now
        idx = eu[behind]
        if idx.size:
            snap[idx] = self.geom.prox_coords(
                idx, self.z[idx] + (A_now - A_prev[behind]) * self.S[idx], A_now)
        for b, bidx in self.entropy:
            dA = A_now - self.A_block[b]
            if dA != 0.0:
                snap[bidx] = self.geom.prox_block(
                    b, self.z[bidx] + dA * self.S[bidx], A_now)
        return snap


def _split_supports(geom, supports):
    """Split each coordinate array into its Euclidean coordinates and the
    sorted ids of the entropy blocks it touches, in one vectorized pass."""
    m = len(supports)
    flat = np.concatenate(supports)
    owner = np.repeat(np.arange(m), [s.size for s in supports])
    is_ent = np.zeros(geom.d, dtype=bool)
    is_ent[geom._ent_idx] = True
    on_ent = is_ent[flat]
    eu = ~on_ent
    coords = np.split(flat[eu],
                      np.cumsum(np.bincount(owner[eu], minlength=m))[:-1])
    nb = len(geom.blocks)
    pairs = np.unique(owner[on_ent] * nb + geom._coord_block[flat[on_ent]])
    blocks = np.split(pairs % nb, np.searchsorted(pairs // nb, np.arange(1, m)))
    return coords, blocks


def run_lazy(problem, plan, config):
    """Lazy implementation: per iteration only the coordinates (Euclidean)
    and blocks (entropy) read or written by the two sampled components are
    caught up and re-proxed (see ``_LazyDual``).  With the same seed the
    metric trace matches run_dense.
    """
    if config.mode != "lazy":
        raise ValueError("config.mode must be 'lazy'")
    if config.averaging == "weighted-full":
        raise ValueError("weighted-full averaging needs dense iterates; "
                         "use sampled-index-set in lazy mode")
    if config.eval_point == "average":
        raise ValueError("averaged-point evaluation is dense-only")
    gamma, lpq, stride, metrics = _resolve(problem, plan, config)
    geom, op = problem.geometry, problem.operator
    K = config.iterations
    draw = RngStream(config.seed, stream=0)
    index_rng = RngStream(config.seed, stream=1)
    avg = _Averager(config, gamma, op.m, op.d, index_rng)
    t0 = time.perf_counter_ns()
    table = ComponentTable(op, geom.x0)
    calls = op.m
    lazy = _LazyDual(geom, op, table.aggregate)
    z, x = lazy.z, lazy.x
    reads, read_blocks = lazy.read_coords, lazy.read_blocks
    writes, write_blocks = lazy.write_coords, lazy.write_blocks

    trace = Trace(solver="rem-lazy", seed=config.seed, m=op.m, iterations=K,
                  info={"gamma": gamma, "lpq": lpq, "q_star": plan.q_min,
                        "stride": stride, "averaging": config.averaging})
    _record(problem, x, metrics, config.comparator, 0, calls, t0, trace.records)

    a_seq = np.empty(K)
    a = 0.0
    A = 0.0
    A_km1 = 0.0
    A_km2 = 0.0
    fhat_last = None
    p = plan.p
    q_star = plan.q_min
    try:
        for k in range(1, K + 1):
            a_prev = a
            a = next_step_size(a_prev, A, k, gamma, lpq, q_star)
            A_km2 = A_km1
            A_km1 = A
            A = A + a
            a_seq[k - 1] = a
            if config.check_steps:
                trace.cert_violations += _cert_bad(k, a, A, a_prev, A_km1, A_km2,
                                                   gamma, lpq, q_star)
            j1 = plan.sample_p(draw)
            lazy.catch_up(reads[j1], read_blocks[j1], A_km1, k)
            comp1 = op.components[j1]
            v1 = comp1.evaluate(x)
            calls += 1
            old = table.resolve_prev(j1, k)
            lazy.settle(writes[j1], write_blocks[j1], A, k)
            if a_prev != 0.0:
                z[comp1.out_idx] += (a_prev / p[j1]) * (v1 - old)
            if k == K:
                fhat_last = table.aggregate.copy()
                if a_prev != 0.0:
                    fhat_last[comp1.out_idx] += (a_prev / (a * p[j1])) * (v1 - old)
            lazy.prox(writes[j1], write_blocks[j1], A)
            j2 = plan.sample_q(draw)
            # The coordinates j2 reads and the ones its refresh will change
            # in S, caught up together (duplicates are harmless).
            lazy.catch_up(np.concatenate((reads[j2], writes[j2])),
                          (*read_blocks[j2], *write_blocks[j2]), A, k)
            v2 = op.components[j2].evaluate(x)
            calls += 1
            table.refresh(j2, v2, k)
            if avg.needs_iterate(k):
                avg.add_sampled(k, lazy.flush(A))
            if k % stride == 0 or k == K:
                snap = lazy.flush(A)
                _check_divergence(snap, k, config.divergence_bound)
                _record(problem, snap, metrics, config.comparator, k, calls,
                        t0, trace.records)
    except DivergenceError as exc:
        trace.diverged = True
        trace.diverged_at = exc.iteration
        raise
    finally:
        trace.final_x = lazy.flush(A)
        trace.x_bar = avg.result(A)
        trace.oracle_calls = calls
        trace.a_seq = a_seq
        trace.A_final = A
        if fhat_last is not None and not trace.diverged:
            trace.info["fhat_last"] = fhat_last
            trace.info["table_values"] = [v.copy() for v in table.values]
            trace.info["table_eval_iter"] = table.eval_iter.copy()
    return trace


def run(problem, plan, config):
    return run_dense(problem, plan, config) if config.mode == "dense" \
        else run_lazy(problem, plan, config)


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
