"""The four shipped problem families, each packaged as a ProblemInstance:
operator decomposition, geometry, Lipschitz profile, sampling weights with the
family's step-size constant, gap evaluators, and reference solutions where a
direct solve exists.

Families
--------
* matrix games min_{z in simplex} max_{y in simplex} <Az, y>, entropy geometry
  on both simplexes, decomposed two-sided into n row + d column components or
  row-sided into n components;
* box-simplex regression min_{z in [-1,1]^d} max_{y in simplex} <Az - b, y>,
  weighted-Euclidean primal geometry (weights = the sampling probabilities),
  one component per column;
* least absolute deviation min_z ||Az - b||_1 in saddle form over
  y in [-1,1]^n, Euclidean geometry, one component per nonzero of A;
* policy evaluation with linear value approximation, Euclidean geometry with a
  quadratic regularizer carrying the strong monotonicity, one component per
  nonzero transition pair.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, identity

from . import _kernel
from .geometry import GeometryBundle, euclidean_block, simplex_block
from .operators import (Component, FiniteSumOperator, LipschitzProfile,
                        load_matrix_market)


class ProblemInstance:
    """A GMVI instance: operator + geometry + profile + family metadata."""

    def __init__(self, family, geometry, operator, profile, plan_weights,
                 plan_lpq, data=None, reference=None, ref_optimum=None):
        self.family = family
        self.geometry = geometry
        self.operator = operator
        self.profile = profile
        self.plan_weights = plan_weights
        self.plan_lpq = plan_lpq
        self.data = dict(data or {})
        self.reference = reference
        self.ref_optimum = ref_optimum

    @property
    def d(self):
        return self.operator.d

    @property
    def m(self):
        return self.operator.m

    @property
    def gamma(self):
        return self.geometry.gamma

    @property
    def x0(self):
        return self.geometry.x0

    def sample_feasible(self, rng):
        return self.geometry.sample_domain(rng)

    def sup_gap(self, x):
        """Closed-form supremum of the gap function over the domain."""
        x = np.asarray(x, dtype=float)
        self.geometry.validate_domain(x, tol=1e-7)
        if self.family == "matrix-game":
            A = self.data["A"]
            n, d = A.shape
            z, y = x[:d], x[d:]
            return float(np.max(A @ z) - np.min(A.T @ y))
        if self.family == "box-simplex":
            A, b = self.data["A"], self.data["b"]
            n, d = A.shape
            z, y = x[:d], x[d:]
            return float(np.max(A @ z - b) + np.sum(np.abs(A.T @ y)) + b @ y)
        if self.family == "lad":
            if self.ref_optimum is None:
                raise ValueError("LAD sup-gap needs a reference optimum")
            A, b = self.data["A"], self.data["b"]
            z = x[:A.shape[1]]
            return float(np.sum(np.abs(A @ z - b)) - self.ref_optimum)
        raise ValueError(f"sup_gap not available for family {self.family!r}")


def make_custom(components, geometry, lam, family="custom", plan_weights=None,
                plan_lpq=None, data=None, reference=None):
    """Assemble an instance from raw parts (tests and ad-hoc operators)."""
    op = FiniteSumOperator(components, geometry.d)
    return ProblemInstance(family, geometry, op, LipschitzProfile(lam),
                           plan_weights, plan_lpq, data=data, reference=reference)


def _bilinear_part(A):
    """M = [[0, A^T], [-A, 0]] as CSR: the linear part of the bilinear
    families' operators F(z, y) = (A^T y, -Az) + constant.  Its arrays are
    those of A^T's CSR (columns shifted by d) and then of -A's, end to end:
    the arrays ``bmat`` makes, without its COO round trip."""
    A = csr_matrix(A, dtype=float)
    T = A.T.tocsr()
    n, d = A.shape
    return csr_matrix((np.concatenate([T.data, -A.data]),
                       np.concatenate([T.indices + d, A.indices]),
                       np.concatenate([T.indptr, T.nnz + A.indptr[1:]])),
                      shape=(d + n, d + n))


# ---------------------------------------------------------------------------
# matrix games
# ---------------------------------------------------------------------------

class _GameRowComponent(Component):
    """F_j = (A_row * y_j, 0): reads y_j, writes the row's support in z-space."""

    __slots__ = ("out_idx", "in_idx", "vals", "ypos")

    def __init__(self, cols, vals, ypos):
        super().__init__(out_idx=cols, in_idx=np.array([ypos]))
        self.vals = vals
        self.ypos = ypos

    def evaluate(self, x, out, at):
        np.multiply(self.vals, x[self.ypos], out=out[at:at + self.vals.size])
        return out


class _GameColComponent(Component):
    """F_{n+j} = (0, -A_col * z_j): reads z_j, writes the column's support."""

    __slots__ = ("out_idx", "in_idx", "vals", "zpos")

    def __init__(self, rows_shifted, vals, zpos):
        super().__init__(out_idx=rows_shifted, in_idx=np.array([zpos]))
        self.vals = vals
        self.zpos = zpos

    def evaluate(self, x, out, at):
        seg = np.negative(self.vals, out=out[at:at + self.vals.size])
        seg *= x[self.zpos]
        return out


class _GameRowSidedComponent(Component):
    """F_j = (A_row * y_j, -(A_row . z) e_j): the single-sided decomposition."""

    __slots__ = ("out_idx", "in_idx", "cols", "vals")

    def __init__(self, cols, vals, ypos):
        super().__init__(out_idx=np.concatenate([cols, [ypos]]),
                         in_idx=np.concatenate([cols, [ypos]]))
        self.cols = cols
        self.vals = vals

    def evaluate(self, x, out, at):
        n = self.cols.size
        np.multiply(self.vals, x[self.in_idx[-1]], out=out[at:at + n])
        out[at + n] = -(self.vals @ x[self.cols])
        return out


def make_matrix_game(A, mode="two-sided"):
    """Simplex-simplex matrix game instance.

    Two-sided mode uses n + d components (rows then columns) with sampling
    weights rho^(2/3), sigma^(2/3); row-sided mode uses n components with
    weights rho^(1/2), where rho/sigma are the row/column max-magnitudes.
    """
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    rho = np.max(np.abs(A), axis=1)
    sigma = np.max(np.abs(A), axis=0)
    if np.any(rho == 0.0):
        raise ValueError(f"all-zero row {int(np.argmin(rho))} in payoff matrix")
    geometry = GeometryBundle([
        simplex_block(np.arange(d)),
        simplex_block(np.arange(d, d + n)),
    ])
    row_support = [np.flatnonzero(A[i]) for i in range(n)]
    if mode == "two-sided":
        if np.any(sigma == 0.0):
            raise ValueError(f"all-zero column {int(np.argmin(sigma))} in payoff matrix")
        comps = [
            _GameRowComponent(row_support[i], A[i, row_support[i]], d + i)
            for i in range(n)
        ]
        for j in range(d):
            rows = np.flatnonzero(A[:, j])
            comps.append(_GameColComponent(rows + d, A[rows, j], j))
        lam = np.concatenate([rho, sigma])
        weights = lam ** (2.0 / 3.0)
        lpq = float(np.sum(lam ** (2.0 / 3.0)) ** 1.5)
    elif mode == "row-sided":
        comps = [
            _GameRowSidedComponent(row_support[i], A[i, row_support[i]], d + i)
            for i in range(n)
        ]
        lam = rho.copy()
        weights = np.sqrt(rho)
        lpq = float(np.sum(np.sqrt(rho)) ** 2)
    else:
        raise ValueError(f"unknown matrix-game mode {mode!r}")
    op = FiniteSumOperator(comps, d + n, linear=_bilinear_part(A))
    return ProblemInstance("matrix-game", geometry, op, LipschitzProfile(lam),
                           weights, lpq, data={"A": A, "mode": mode})


# ---------------------------------------------------------------------------
# box-simplex regression
# ---------------------------------------------------------------------------

class _BoxSimplexComponent(Component):
    """F_j = ((A_col . y) e_j, -A_col z_j + b/d on the dual side).

    The constant b is split evenly over the d components so the sum telescopes
    to -(Az - b) exactly; constants do not enter the Lipschitz modulus.
    """

    __slots__ = ("out_idx", "in_idx", "col_vals", "col_pos", "base")

    def __init__(self, j, col_rows, col_vals, base_idx, base_vals, col_pos, d):
        out_idx = np.concatenate([[j], d + base_idx])
        in_idx = np.concatenate([[j], d + col_rows])
        super().__init__(out_idx=out_idx, in_idx=in_idx)
        self.col_vals = col_vals
        self.col_pos = col_pos
        self.base = np.concatenate([[0.0], base_vals])

    def evaluate(self, x, out, at):
        seg = out[at:at + self.base.size]
        seg[:] = self.base
        seg[0] = self.col_vals @ x[self.in_idx[1:]]
        seg[self.col_pos] -= self.col_vals * x[self.in_idx[0]]
        return out


def make_box_simplex(A, b):
    """Box-constrained l-inf regression as a box-simplex saddle instance.

    One component per column; sampling weights sigma_j^(2/5); primal geometry
    weighted-Euclidean with the plan probabilities as coordinate weights.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    if b.shape != (n,):
        raise ValueError("b must have one entry per row of A")
    sigma = np.max(np.abs(A), axis=0)
    if np.any(sigma == 0.0):
        raise ValueError(f"all-zero column {int(np.argmin(sigma))}")
    weights = sigma ** 0.4
    p = weights / weights.sum()
    lpq = float(np.sum(sigma ** 0.4) ** 2.5)
    z_blocks = [
        euclidean_block(np.array([j]), weights=np.array([p[j]]), lo=-1.0, hi=1.0)
        for j in range(d)
    ]
    geometry = GeometryBundle(z_blocks + [simplex_block(np.arange(d, d + n))])
    b_rows = np.flatnonzero(b)
    comps = []
    for j in range(d):
        col_rows = np.flatnonzero(A[:, j])
        base_idx = np.union1d(col_rows, b_rows)
        base_vals = np.zeros(base_idx.size)
        base_vals[np.searchsorted(base_idx, b_rows)] = b[b_rows] / d
        col_pos = np.searchsorted(base_idx, col_rows) + 1
        comps.append(_BoxSimplexComponent(j, col_rows, A[col_rows, j],
                                          base_idx, base_vals, col_pos, d))
    op = FiniteSumOperator(comps, d + n, linear=_bilinear_part(A))
    lam = sigma / np.sqrt(p)
    return ProblemInstance("box-simplex", geometry, op, LipschitzProfile(lam),
                           weights, lpq, data={"A": A, "b": b})


# ---------------------------------------------------------------------------
# least absolute deviation
# ---------------------------------------------------------------------------

class _LadComponent(Component):
    """F_ij = (A_ij y_i e_j, -(A_ij z_j - b_i/c_i) e_i), c_i = row nonzero count.

    b_i is split across row i's components so that the sum telescopes to
    -(Az - b) exactly.  The read and write set is the pair (zpos, ypos) =
    (j, d + i), distinct, so Component's repeat check is skipped.  The
    operator's layout holds it; ``out_idx``/``in_idx`` build it when read.
    """

    __slots__ = ("zpos", "ypos", "a", "bshare")
    scalar_io = True

    def __init__(self, zpos, ypos, a, bshare):
        self.zpos = zpos
        self.ypos = ypos
        self.a = a
        self.bshare = bshare

    @property
    def out_idx(self):
        return np.array([self.zpos, self.ypos], dtype=np.intp)

    in_idx = out_idx

    def evaluate(self, x, out, at):
        # Python-float arithmetic: the same IEEE products as numpy scalars,
        # without their per-operation overhead.  The library's callers hand
        # a list or memoryview of x and a memoryview of out, so x[i] reads a
        # float and out[at] = v stores one.
        a = self.a
        out[at] = a * x[self.ypos]
        out[at + 1] = self.bshare - a * x[self.zpos]
        return out


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector disabled, and leave
    it as it was found, also when the block raises.  Building one object
    per nonzero otherwise sets off a collection every 700 of them, and the
    older generations' collections rescan all built so far.  A LAD
    component holds no reference cycle, so the pause leaves no garbage.
    The compiled build (``_kernel.lad_builder``) also leaves its components
    untracked: their slots hold only the shared ints and floats, so they
    can be in no cycle, and no later collection scans them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def make_lad(A, b, quad=0.0, ref_optimum=None, solve_reference=False):
    """Least absolute deviation saddle instance with nnz(A) components.

    ``A`` is a dense array or any ``scipy.sparse`` matrix; the instance keeps
    it as a canonical CSR (sorted column indices, duplicates summed, no stored
    zeros) in ``data["A"]``, whose entries are those ``np.nonzero`` finds in
    the dense matrix.  ``quad`` > 0 adds a quadratic regularizer of that
    strength to both sides (the strongly monotone variant);
    ``solve_reference`` then computes the unique saddle point with an
    independent box-constrained dual solve.
    """
    A = csr_matrix(A, dtype=float, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    if b.shape != (n,):
        raise ValueError("b must have one entry per row of A")
    if A.nnz == 0:
        raise ValueError("A has no nonzero entries")
    counts = np.diff(A.indptr)
    if np.any(counts == 0):
        raise ValueError(f"empty row {int(np.argmin(counts))}: b entry unreachable")
    # CSR order is row-major: the order of np.nonzero on the dense matrix
    rows = np.repeat(np.arange(n), counts)
    cols, vals = A.indices, A.data
    # The layout: component k reads and writes (cols[k], d + rows[k]), row
    # k of this array, so out_all is the array raveled (no copy).
    idx = np.stack([cols, d + rows], axis=1)
    flat, offsets = idx.ravel(), 2 * np.arange(A.nnz + 1)
    # Components share one int object per coordinate and one b_i/c_i float
    # per row (the same divisions as per entry), so a component owns only
    # itself and its A entry.  The compiled library builds them where it
    # can be built (``_kernel.lad_builder``), with the same slot values.
    coord = list(range(d + n))
    share = (b / counts).tolist()
    build = _kernel.lad_builder()
    with _collector_paused():
        if build is not None:
            comps = [None] * A.nnz
            build(_LadComponent, comps, coord, share,
                  _kernel._pointer(flat, np.dtype(np.intp)),
                  _kernel._pointer(vals, np.dtype(np.float64)), d)
        else:
            row_list = rows.tolist()
            comps = list(map(_LadComponent,
                             map(coord.__getitem__, cols.tolist()),
                             map(coord[d:].__getitem__, row_list),
                             vals.tolist(), map(share.__getitem__, row_list)))
    # Coordinates are separable: one block for z, one for the boxed y.
    geometry = GeometryBundle([euclidean_block(np.arange(d), mu=quad),
                               euclidean_block(np.arange(d, d + n), mu=quad,
                                               lo=-1.0, hi=1.0)])
    lam = np.abs(vals)
    weights = np.sqrt(lam)
    lpq = float(np.sum(np.sqrt(lam)) ** 2)
    reference = None
    if solve_reference:
        if quad <= 0.0:
            raise ValueError("reference solve needs a strongly monotone instance")
        reference = _solve_lad_reference(A, b, quad)
    op = FiniteSumOperator(comps, d + n, linear=_bilinear_part(A),
                           layout=(flat, offsets))
    return ProblemInstance("lad", geometry, op, LipschitzProfile(lam), weights,
                           lpq, data={"A": A, "b": b, "quad": quad},
                           reference=reference, ref_optimum=ref_optimum)


def _polish_lad_dual(A, b, quad, y, steps=10):
    """Active-set Newton steps on the dual optimality condition
    y = clip(t, -1, 1), t = -(A A^T y + quad b)/quad^2 (the KKT condition
    y = clip((Az - b)/quad, -1, 1) at z = -A^T y / quad): y is fixed at the
    bound where |t| >= 1 and solved exactly on the free rest F from
    (quad^2 I + A_F A_F^T) y_F = -A_F A_B^T y_B - quad b_F, a sparse system.
    A step is kept only while it lowers the KKT residual."""
    # scipy.io, scipy.optimize and scipy.sparse.linalg are imported on first
    # use: import remvi does not load them (about 28 MB of RSS)
    from scipy.sparse.linalg import spsolve
    q2 = quad * quad

    def kkt(y):
        t = -(A @ (A.T @ y) + quad * b) / q2
        return t, np.max(np.abs(y - np.clip(t, -1.0, 1.0)))

    t, res = kkt(y)
    for _ in range(steps):
        free = np.abs(t) < 1.0
        y_new = np.clip(t, -1.0, 1.0)
        if free.any():
            A_F = A[free]
            rhs = -(A_F @ (A[~free].T @ y_new[~free])) - quad * b[free]
            M = A_F @ A_F.T + q2 * identity(A_F.shape[0], format="csr")
            y_new[free] = spsolve(M.tocsc(), rhs)
        t_new, res_new = kkt(y_new)
        if not res_new < res:
            break
        y, t, res = y_new, t_new, res_new
    return y


def _solve_lad_reference(A, b, quad):
    """Saddle point of <Az-b, y> + quad/2 ||z||^2 - quad/2 ||y||^2 over
    y in [-1,1]^n: maximize the (strongly concave) dual with L-BFGS-B,
    polish it with active-set Newton steps, then recover z from first-order
    optimality."""
    from scipy.optimize import minimize     # imported on first use, as spsolve
    n = A.shape[0]

    def negdual(y):
        Aty = A.T @ y
        val = (Aty @ Aty) / (2.0 * quad) + b @ y + 0.5 * quad * (y @ y)
        grad = A @ Aty / quad + b + quad * y
        return val, grad

    res = minimize(negdual, np.zeros(n), jac=True, method="L-BFGS-B",
                   bounds=[(-1.0, 1.0)] * n,
                   options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-14})
    y = _polish_lad_dual(A, b, quad, res.x)
    z = -(A.T @ y) / quad
    return np.concatenate([z, y])


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

class _PolicyEvalComponent(Component):
    """One transition pair (s, s+): weight * ((<phi_s - beta phi_s+, x> - r) phi_s - mu x)."""

    __slots__ = ("out_idx", "in_idx", "weight", "phi_s", "w", "r", "mu")

    def __init__(self, weight, phi_s, w, r, mu, dim):
        idx = np.arange(dim)
        super().__init__(out_idx=idx, in_idx=idx)
        self.weight = float(weight)
        self.phi_s = phi_s
        self.w = w
        self.r = float(r)
        self.mu = mu

    def evaluate(self, x, out, at):
        # in place: the same IEEE operations with two temporaries fewer
        n = self.phi_s.size
        u = np.multiply(self.w.dot(x) - self.r, self.phi_s, out=out[at:at + n])
        u -= self.mu * x
        u *= self.weight
        return out


def stationary_distribution(P, max_iter=100000, tol=1e-12):
    """Stationary distribution of a row-stochastic chain by power iteration.

    Iterates the half-lazy kernel (I + P)/2, which has the same stationary
    distributions but is aperiodic, so periodic irreducible chains (e.g.
    cyclic permutations) still converge.  Uniqueness is checked by running
    from two different starting vectors and requiring agreement.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n) or np.any(P < 0.0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("P must be row-stochastic")
    starts = [np.full(n, 1.0 / n)]
    second = np.full(n, 0.5 / n)
    second[0] += 0.5
    starts.append(second)
    results = []
    for v in starts:
        v = v.copy()
        for _ in range(max_iter):
            nxt = 0.5 * (v + v @ P)
            if np.sum(np.abs(nxt - v)) <= tol:
                v = nxt
                break
            v = nxt
        else:
            raise ValueError("power iteration did not converge (reducible or degenerate chain)")
        results.append(v / v.sum())
    if np.sum(np.abs(results[0] - results[1])) > 1e-8:
        raise ValueError("stationary distribution is not unique (reducible chain)")
    pi = results[0]
    if np.sum(np.abs(pi @ P - pi)) > 1e-10:
        raise ValueError("power iteration result fails the fixed-point check")
    return pi


def make_policy_eval(P, Phi, R, beta, mu):
    """Policy-evaluation GMVI with the strong monotonicity shifted into the
    regularizer: F(x) = Phi' M (Phi x - R - beta P Phi x) - mu x with
    g = mu/2 ||x||^2, decomposed over nonzero transition pairs with weights
    pi(s) P(s, s+).

    Per-component Lipschitz constants are the exact spectral norms of the
    component linear parts (rank-one plus scaled identity); the closed-form
    expression weight*(||phi_s|| ||phi_s - beta phi_s+|| - mu) is recorded
    alongside as ``lambda_printed``.
    """
    return _make_policy_eval(P, Phi, R, beta, mu)


def _make_policy_eval(P, Phi, R, beta, mu, pi=None):
    """``make_policy_eval``, given the chain's stationary distribution pi
    when the caller has it already."""
    P = np.asarray(P, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    R = np.asarray(R, dtype=float)
    n = P.shape[0]
    dim = Phi.shape[1]
    if Phi.shape[0] != n or R.shape != (n,):
        raise ValueError("Phi must be n x dim and R length n")
    if not 0.0 < beta < 1.0:
        raise ValueError("discount beta must lie in (0, 1)")
    if mu <= 0.0:
        raise ValueError("shift mu must be positive")
    if pi is None:
        pi = stationary_distribution(P)
    M = np.diag(pi)
    B = Phi.T @ M @ (Phi - beta * P @ Phi)
    sym_min = float(np.min(np.linalg.eigvalsh(0.5 * (B + B.T))))
    comps = []
    lam = []
    lam_printed = []
    linear = np.zeros((dim, dim))
    for s in range(n):
        for sp in np.flatnonzero(P[s]):
            weight = pi[s] * P[s, sp]
            if weight == 0.0:
                continue
            w = Phi[s] - beta * Phi[sp]
            mat = np.outer(Phi[s], w) - mu * np.eye(dim)
            linear += weight * mat
            lam.append(weight * float(np.linalg.norm(mat, 2)))
            lam_printed.append(weight * (np.linalg.norm(Phi[s]) * np.linalg.norm(w) - mu))
            comps.append(_PolicyEvalComponent(weight, Phi[s].copy(), w, R[s], mu, dim))
    geometry = GeometryBundle([euclidean_block(np.arange(dim), mu=mu)])
    op = FiniteSumOperator(comps, dim, linear=linear)
    reference = None
    try:
        reference = _solve_policy_eval(B, Phi.T @ M @ R)
    except ValueError:
        pass
    return ProblemInstance(
        "policy-eval", geometry, op, LipschitzProfile(lam), None, None,
        data={"P": P, "Phi": Phi, "R": R, "beta": beta, "mu": mu, "pi": pi,
              "lambda_printed": np.asarray(lam_printed),
              "sym_min": sym_min, "operator_monotone": sym_min >= mu - 1e-12},
        reference=reference)


def solve_policy_eval_direct(P, Phi, R, beta):
    """Direct solve of Phi' M (Phi - beta P Phi) x = Phi' M R; the oracle for
    distance metrics."""
    P = np.asarray(P, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    R = np.asarray(R, dtype=float)
    M = np.diag(stationary_distribution(P))
    return _solve_policy_eval(Phi.T @ M @ (Phi - beta * P @ Phi),
                              Phi.T @ M @ R)


def _solve_policy_eval(B, rhs):
    """Solve B x = rhs, checking the residual."""
    try:
        x = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular policy-evaluation system: {exc}") from exc
    resid = np.max(np.abs(B @ x - rhs))
    scale = max(1.0, np.max(np.abs(rhs)))
    if resid > 1e-8 * scale:
        raise ValueError("policy-evaluation system is numerically singular")
    return x


# ---------------------------------------------------------------------------
# random instance generators
# ---------------------------------------------------------------------------

def check_instance_fields(exponent=None, density=None, quad=None):
    """The generator fields ``remvi-bench run`` checks before it builds
    anything: each is checked when given, and a ValueError names the first
    bad one."""
    if exponent is not None and not 0.0 <= exponent < np.inf:
        raise ValueError("nonuniformity exponent must be >= 0 and finite")
    if density is not None and not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    if quad is not None and not 0.0 <= quad < np.inf:
        raise ValueError("quad must be >= 0 and finite")


def lipschitz_shape(m, exponent):
    """Component-Lipschitz profile L_j ~ (j/m)^(-exponent), normalized to
    max 1; exponent 0 is the uniform profile."""
    check_instance_fields(exponent=exponent)
    ranks = np.arange(1, m + 1, dtype=float)
    prof = (ranks / m) ** (-float(exponent))
    return prof / prof.max()


def generate_matrix_game(n, d, exponent, seed, mode="two-sided"):
    """Random game whose row/column max-magnitude profile follows the shape."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    base = rng.uniform(0.25, 1.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    row_scale = rng.permutation(lipschitz_shape(n, exponent))
    col_scale = rng.permutation(lipschitz_shape(d, exponent))
    A = base * np.sqrt(np.outer(row_scale, col_scale))
    return make_matrix_game(A, mode=mode)


def generate_box_simplex(n, d, exponent, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    base = rng.uniform(0.25, 1.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    col_scale = rng.permutation(lipschitz_shape(d, exponent))
    A = base * col_scale
    z_star = rng.uniform(-0.5, 0.5, size=d)
    b = A @ z_star
    return make_box_simplex(A, b)


def _lines_nonzero(A):
    """Whether every row and every column of the CSR ``A`` holds an entry
    with |a| > 0 and no entry is NaN: the decision of
    ``np.abs(dense).max(axis).min() > 0`` on both axes, read off the stored
    values alone."""
    vals = A.data
    if np.isnan(vals).any():
        return False
    live = vals != 0.0
    n, d = A.shape
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    return bool(np.bincount(rows[live], minlength=n).all()
                and np.bincount(A.indices[live], minlength=d).all())


# Elements of an n x d array held at once: generate_lad draws its mask in
# blocks of max(1, _CHUNK_ELEMENTS // d) rows (the draws of one n x d call,
# in order) and computes b = A z* on dense blocks of about as many rows, so
# no n x d array exists.
_CHUNK_ELEMENTS = 2 ** 20
# OpenBLAS's gemv sums the rows left over from its kernel's row group (4 on
# x86-64) in another order than the rest, so b's blocks hold a multiple of
# 16 rows: every row keeps its place in a group and b is bitwise what one
# n x d gemv gives.
_GEMV_ROWS = 16


def _draw_mask(rng, n, d, density, step):
    """Row and column indices, in row-major order, of the cells of an n x d
    mask whose uniform draw falls below ``density``: the draws of one
    ``rng.random((n, d))`` call, taken ``step`` rows at a time.  On numpy's
    PCG64 the compiled library draws each block from the generator's state
    (``_kernel.mask_drawer``) and the generator is advanced past it; else
    numpy draws it into one reused block.  Both leave the generator where
    ``rng.random((n, d))`` would."""
    bits = rng.bit_generator
    draw = _kernel.mask_drawer()
    # advance() drops a buffered 32-bit half, which random() would keep
    if (draw is None or type(bits) is not np.random.PCG64
            or bits.state["has_uint32"]):
        return _draw_mask_numpy(rng, n, d, density, step)
    hits = np.empty(min(step, n) * d, dtype=np.int64)
    at = _kernel._pointer(hits, hits.dtype)
    word = (1 << 64) - 1
    rows, cols = [], []
    for r0 in range(0, n, step):
        h = min(step, n - r0)
        pcg = bits.state["state"]
        s, inc = pcg["state"], pcg["inc"]
        k = draw(s >> 64, s & word, inc >> 64, inc & word, h * d,
                 float(density), at)
        bits.advance(h * d)
        r, c = np.divmod(hits[:k], d)
        rows.append(r + r0)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def _draw_mask_numpy(rng, n, d, density, step):
    """``_draw_mask`` through ``Generator.random``, ``step`` rows at a time
    into one reused block."""
    draws = np.empty((min(step, n), d))
    mask = np.empty(draws.shape, dtype=bool)
    rows, cols = [], []
    for r0 in range(0, n, step):
        h = min(step, n - r0)
        np.less(rng.random(out=draws[:h]), density, out=mask[:h])
        r, c = np.divmod(np.flatnonzero(mask[:h]), d)
        rows.append(r + r0)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def generate_lad(n, d, exponent, seed, density=1.0, quad=0.0, z_scale=1.0,
                 solve_reference=False, max_retries=32):
    """Random LAD instance whose |A_ij| profile over the nonzeros follows the
    shape; b is consistent (b = A z*, planted at ``z_scale``), so the primal
    optimum is 0.  A is built as a CSR matrix straight from the draws."""
    check_instance_fields(exponent, density, quad)
    step = max(1, _CHUNK_ELEMENTS // d)
    b_step = max(_GEMV_ROWS, step - step % _GEMV_ROWS)
    for attempt in range(max_retries):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 303, attempt)))
        rows, cols = _draw_mask(rng, n, d, density, step)
        # the draws fill empty rows first, then the columns still empty
        fill_rows = np.flatnonzero(np.bincount(rows, minlength=n) == 0)
        fill_cols = np.array([rng.integers(d) for _ in fill_rows], dtype=np.intp)
        col_counts = (np.bincount(cols, minlength=d)
                      + np.bincount(fill_cols, minlength=d))
        empty_cols = np.flatnonzero(col_counts == 0)
        rows = np.concatenate([rows, fill_rows, np.array(
            [rng.integers(n) for _ in empty_cols], dtype=np.intp)])
        cols = np.concatenate([cols, fill_cols, empty_cols])
        # every fill lands on a cell that was empty, so there are no
        # duplicates; building the CSR from (row, col) pairs sorts them into
        # row-major order, the order the values are drawn in
        m = rows.size
        A = csr_matrix((np.ones(m), (rows, cols)), shape=(n, d))
        magnitudes = rng.permutation(lipschitz_shape(m, exponent))
        signs = rng.choice([-1.0, 1.0], size=m)
        A.data[:] = magnitudes * signs
        if _lines_nonzero(A):
            z_star = z_scale * rng.uniform(-1.0, 1.0, size=d)
            b = np.concatenate([A[r0:r0 + b_step].toarray() @ z_star
                                for r0 in range(0, n, b_step)])
            return make_lad(A, b, quad=quad, ref_optimum=0.0,
                            solve_reference=solve_reference)
    raise ValueError(f"failed to generate a valid LAD instance in {max_retries} tries")


def generate_policy_eval(n, dim, seed, beta=0.5, mu=0.1, out_degree=2,
                         reward_scale=0.3, feature_scale=None,
                         sym_margin=2.0):
    """Random ergodic chain with sparse transitions: every state keeps a cycle
    edge s -> s+1 (irreducibility) and state 0 a self-loop (aperiodicity), so
    the support stays at about ``out_degree`` nonzeros per row.  Features are
    scaled so the operator part is mu-strongly monotone with margin
    ``sym_margin``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 404)))
    P = np.zeros((n, n))
    for s in range(n):
        targets = {(s + 1) % n}
        if s == 0:
            targets.add(0)
        while len(targets) < min(out_degree, n):
            targets.add(int(rng.integers(n)))
        targets = np.array(sorted(targets))
        P[s, targets] = rng.dirichlet(np.ones(targets.size)) * 0.5
        P[s, (s + 1) % n] += 0.5
    # orthonormal feature columns keep the system well conditioned, so the
    # scale needed for the mu-monotonicity margin stays small
    Phi, _ = np.linalg.qr(rng.standard_normal((n, dim)))
    pi = stationary_distribution(P)
    B = Phi.T @ np.diag(pi) @ (Phi - beta * P @ Phi)
    sym_min = float(np.min(np.linalg.eigvalsh(0.5 * (B + B.T))))
    if sym_min <= 0.0:
        raise ValueError("generated chain lost monotonicity; change the seed")
    if feature_scale is None:
        # land sym_min(B) at sym_margin * mu
        feature_scale = float(np.sqrt(sym_margin * mu / sym_min))
    Phi = Phi * feature_scale
    R = rng.uniform(0.0, reward_scale, size=n)
    return _make_policy_eval(P, Phi, R, beta, mu, pi)


def problem_instances_for_tests():
    """One small instance per family (shared across the test suite)."""
    return [
        generate_matrix_game(4, 5, 1.0, seed=1),
        generate_box_simplex(4, 6, 1.0, seed=2),
        generate_lad(6, 5, 1.5, seed=3, density=0.6),
        generate_policy_eval(6, 3, seed=4),
    ]


def generate_instance(family, n, d, exponent, seed, **kwargs):
    if family == "matrix-game":
        return generate_matrix_game(n, d, exponent, seed, **kwargs)
    if family == "box-simplex":
        return generate_box_simplex(n, d, exponent, seed)
    if family == "lad":
        return generate_lad(n, d, exponent, seed, **kwargs)
    if family == "policy-eval":
        return generate_policy_eval(n, d, seed, **kwargs)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# instance files: Matrix Market matrices plus a key=value sidecar
# ---------------------------------------------------------------------------

def save_instance(instance, basename):
    """Write <basename>.mtx (A, or P for policy evaluation), a .meta sidecar,
    and <basename>.phi.mtx for policy-evaluation features."""
    from scipy.io import mmwrite    # imported on first use, as spsolve
    data = instance.data
    meta = {"family": instance.family}
    if instance.family == "policy-eval":
        mmwrite(basename + ".mtx", coo_matrix(data["P"]))
        mmwrite(basename + ".phi.mtx", coo_matrix(data["Phi"]))
        meta["beta"] = repr(float(data["beta"]))
        meta["mu"] = repr(float(data["mu"]))
        meta["rewards"] = ",".join(repr(float(v)) for v in data["R"])
    else:
        mmwrite(basename + ".mtx", coo_matrix(data["A"]))
        if instance.family == "matrix-game":
            meta["mode"] = data["mode"]
        else:
            meta["b"] = ",".join(repr(float(v)) for v in data["b"])
        if instance.family == "lad":
            meta["quad"] = repr(float(data.get("quad", 0.0)))
            if instance.ref_optimum is not None:
                meta["ref_optimum"] = repr(float(instance.ref_optimum))
    with open(basename + ".meta", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key}={val}\n")


def load_instance(basename):
    from scipy.io import mmread     # imported on first use, as spsolve
    if basename.endswith(".meta"):
        basename = basename[:-5]
    meta = {}
    with open(basename + ".meta") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, val = line.partition("=")
                meta[key] = val
    family = meta["family"]
    if family == "policy-eval":
        P = load_matrix_market(basename + ".mtx")
        Phi = load_matrix_market(basename + ".phi.mtx")
        R = np.array([float(v) for v in meta["rewards"].split(",")])
        return make_policy_eval(P, Phi, R, float(meta["beta"]), float(meta["mu"]))
    if family == "matrix-game":
        return make_matrix_game(load_matrix_market(basename + ".mtx"),
                                mode=meta.get("mode", "two-sided"))
    b = np.array([float(v) for v in meta["b"].split(",")])
    if family == "box-simplex":
        return make_box_simplex(load_matrix_market(basename + ".mtx"), b)
    if family == "lad":
        # read as sparse: make_lad takes it without a dense n x d copy
        ref = meta.get("ref_optimum")
        return make_lad(mmread(basename + ".mtx"), b,
                        quad=float(meta.get("quad", "0.0")),
                        ref_optimum=None if ref is None else float(ref))
    raise ValueError(f"unknown family {family!r} in {basename}.meta")
