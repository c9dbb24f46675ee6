"""Block-separable geometries: norms, Bregman divergences, and prox solvers.

A geometry is a partition of the coordinates {0, ..., d-1} into blocks, each
carrying a norm, a simple regularizer, and an anchor point.  Two block kinds
cover every setup used by the solvers:

* ``euclidean``: (optionally weighted) squared-Euclidean divergence
  D(u, x0) = 1/2 sum_i w_i (u_i - x0_i)^2, regularizer mu/2 ||u||_2^2 plus an
  optional box indicator.  Primal norm sum w_i u_i^2, dual norm sum v_i^2/w_i.
* ``entropy``: KL divergence on the probability simplex with the simplex
  indicator as regularizer.  Primal norm ||u||_1, dual norm ||v||_inf.

The composite primal norm is ||x||^2 = sum_blocks ||x_block||^2_block, and the
divergence is 1-strongly convex with respect to it (exactly for Euclidean
blocks, by Pinsker's inequality for entropy blocks).

The central subproblem solved here is the dual-averaging prox

    argmin_u  <z, u> + A * g(u) + D(u, x0)

restricted to a block; every supported combination has a closed form.
"""

from __future__ import annotations

import functools
from math import isfinite

import numpy as np

# Tolerance for domain-membership validation: a prox output sits on its
# box or simplex only up to rounding, and long runs accumulate error of
# roughly this order in it.
DOMAIN_TOL = 1e-9


class Block:
    """One coordinate block of a geometry.

    Parameters
    ----------
    idx : array of coordinate indices owned by the block (disjoint across blocks)
    kind : "euclidean" or "entropy"
    anchor : block anchor x0 (interior of the simplex for entropy blocks)
    weights : positive per-coordinate weights, Euclidean blocks only
    mu : quadratic regularizer strength (gamma contribution), Euclidean only
    lo, hi : optional box bounds, Euclidean only
    """

    __slots__ = ("idx", "kind", "anchor", "weights", "mu", "lo", "hi",
                 "log_anchor")

    def __init__(self, idx, kind, anchor, weights=None, mu=0.0, lo=None, hi=None):
        self.idx = np.asarray(idx, dtype=np.intp)
        if kind not in ("euclidean", "entropy"):
            raise ValueError(f"unknown block kind {kind!r}")
        self.kind = kind
        self.anchor = np.asarray(anchor, dtype=float)
        if self.anchor.shape != self.idx.shape:
            raise ValueError("anchor shape must match block size")
        if not np.isfinite(self.anchor).all():
            raise ValueError("anchor must be finite")
        if kind == "entropy":
            if weights is not None or mu != 0.0 or lo is not None or hi is not None:
                raise ValueError("entropy blocks take no weights, mu, or bounds")
            if np.any(self.anchor <= 0.0):
                raise ValueError("entropy anchor must be interior (all positive)")
            if abs(self.anchor.sum() - 1.0) > DOMAIN_TOL:
                raise ValueError("entropy anchor must lie on the simplex")
            self.weights = None
            self.mu = 0.0
            self.lo = None
            self.hi = None
            self.log_anchor = np.log(self.anchor)
        else:
            self.log_anchor = None
            if weights is not None:
                weights = np.asarray(weights, dtype=float)
                if weights.shape != self.idx.shape:
                    raise ValueError("weights shape must match block size")
                if not np.all((weights > 0.0) & (weights < np.inf)):
                    raise ValueError("weights must be strictly positive and "
                                     "finite")
            self.weights = weights
            if not 0.0 <= mu < np.inf:
                raise ValueError("quadratic strength mu must be >= 0 and "
                                 "finite")
            self.mu = float(mu)
            self.lo = None if lo is None else np.broadcast_to(
                np.asarray(lo, dtype=float), self.idx.shape).copy()
            self.hi = None if hi is None else np.broadcast_to(
                np.asarray(hi, dtype=float), self.idx.shape).copy()
            # a NaN bound compares false and so fails here too
            lo = -np.inf if lo is None else self.lo
            hi = np.inf if hi is None else self.hi
            if not np.all((lo <= hi) & (lo < np.inf) & (hi > -np.inf)):
                raise ValueError("box bounds must be lo <= hi, with a finite "
                                 "point between them")

    @property
    def size(self):
        return self.idx.size


def euclidean_block(idx, anchor=None, weights=None, mu=0.0, lo=None, hi=None):
    idx = np.asarray(idx, dtype=np.intp)
    if anchor is None:
        anchor = np.zeros(idx.size)
    return Block(idx, "euclidean", anchor, weights=weights, mu=mu, lo=lo, hi=hi)


def simplex_block(idx, anchor=None):
    """Entropy-geometry simplex block; the anchor defaults to the uniform vector."""
    idx = np.asarray(idx, dtype=np.intp)
    if anchor is None:
        anchor = np.full(idx.size, 1.0 / idx.size)
    return Block(idx, "entropy", anchor)


def _check_finite(v, what):
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")


def _check_prox_input(z, A):
    _check_finite(z, "prox input z")
    if A < 0.0:
        raise ValueError("step-size sum A must be >= 0")


def _entropy_prox_segments(log_anchor, z, starts, sizes, out=None):
    """The entropy prox on consecutive simplex segments (each needs its own
    normalization), in log-space with max-subtraction: z accumulates over
    many iterations and exp(-z) overflows otherwise.  It is computed in
    ``out`` (which may be z), a new array when not given."""
    logits = np.subtract(log_anchor, z, out=out)
    # the ndarray method, not np.repeat: the same values without numpy's
    # Python-level dispatch, which the solver pays every iteration (and
    # faster than ``take`` into a buffer made once)
    logits -= np.maximum.reduceat(logits, starts).repeat(sizes)
    u = np.exp(logits, out=logits)
    u /= np.add.reduceat(u, starts).repeat(sizes)
    return u


def _selector(idx):
    """``idx`` as a slice when it is a range in increasing order, else
    ``idx`` itself."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 \
            and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class GeometryBundle:
    """A full-space geometry assembled from disjoint blocks covering 0..d-1.

    The Euclidean parameters live in full-length per-coordinate arrays
    (``_w``, ``_mu``, ``_lo``, ``_hi``, ``_wx0``), read at ``_eu_idx``;
    entropy coordinates hold neutral values there and are never read.  The
    entropy blocks are the segments ``_ent_starts``/``_ent_sizes`` of
    ``_ent_idx``.
    """

    def __init__(self, blocks, d=None):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = list(blocks)
        all_idx = np.concatenate([b.idx for b in self.blocks])
        d_seen = all_idx.size
        if d is None:
            d = d_seen
        cover = np.zeros(d, dtype=bool)
        if np.any(all_idx < 0) or np.any(all_idx >= d):
            raise ValueError("block indices out of range")
        cover[all_idx] = True
        if d_seen != d or not cover.all():
            raise ValueError("blocks must disjointly cover all coordinates")
        self.d = d
        # gamma is the strong convexity the regularizer provides on the whole
        # space: the min over blocks (indicator-only blocks contribute 0).
        self.gamma = min(b.mu for b in self.blocks)

        self.x0 = np.zeros(d)
        self._w = np.ones(d)
        self._mu = np.zeros(d)
        self._lo = np.full(d, -np.inf)
        self._hi = np.full(d, np.inf)
        for b in self.blocks:
            self.x0[b.idx] = b.anchor
            if b.kind == "euclidean":
                if b.weights is not None:
                    self._w[b.idx] = b.weights
                self._mu[b.idx] = b.mu
                if b.lo is not None:
                    self._lo[b.idx] = b.lo
                if b.hi is not None:
                    self._hi[b.idx] = b.hi
        self._wx0 = self._w * self.x0
        self._eu_idx = np.concatenate(
            [b.idx for b in self.blocks if b.kind == "euclidean"]
            + [np.empty(0, dtype=np.intp)])
        # Full-space passes read the Euclidean coordinates through _eu_sel:
        # a slice (views, no gathers) when they are a range in order.
        self._eu_sel = _selector(self._eu_idx)
        # validate_domain compares only the coordinates with a finite bound
        # on some side (a finite x never violates -inf or +inf), against
        # their bounds gathered here once
        self._bounded_idx = bi = np.flatnonzero((self._lo > -np.inf)
                                                | (self._hi < np.inf))
        self._bounded_lo, self._bounded_hi = self._lo[bi], self._hi[bi]
        self._clamp = bool(self._bounded_idx.size)
        # sample_domain's per-call constants on the Euclidean coordinates:
        # lo, hi and x0 there, the mask of the boxed ones (None if there is
        # none), their lower bounds and spans (0 elsewhere), and the share
        # of coordinates a sharp draw moves; and the uniforms an interior
        # and a sharp draw take (n for the mask, 2n for a corner and its
        # pick, n for a place in a box)
        ei = self._eu_idx
        lo, hi = self._lo[ei], self._hi[ei]
        boxed = np.isfinite(lo) & np.isfinite(hi)
        n, box = ei.size, boxed.any()
        self._domain = (lo, hi, self.x0[ei], boxed if box else None,
                        np.where(boxed, lo, 0.0),
                        np.where(boxed, hi - lo, 0.0),
                        max(2.0 / n, 0.05) if n else 0.0)
        self._domain_uniforms = (n if box else 0, 3 * n if box else n)
        self._ent_blocks = [b for b in self.blocks if b.kind == "entropy"]
        ent = self._ent_blocks
        self._ent_idx = np.concatenate(
            [b.idx for b in ent] + [np.empty(0, dtype=np.intp)])
        self._ent_sel = _selector(self._ent_idx)     # as _eu_sel
        self._ent_log_anchor = np.concatenate([b.log_anchor for b in ent]
                                              + [np.empty(0)])
        self._ent_sizes = np.array([b.size for b in ent], dtype=np.intp)
        self._ent_starts = np.cumsum(self._ent_sizes) - self._ent_sizes

    def _prox_euclidean(self, idx, wx0, z, A):
        """The Euclidean prox on coordinates ``idx`` given w*x0 and z there."""
        u = (wx0 - z) / (self._w[idx] + A * self._mu[idx])
        if self._clamp:     # else every bound is infinite
            np.maximum(u, self._lo[idx], out=u)
            np.minimum(u, self._hi[idx], out=u)
        return u

    # -- block-level operations -------------------------------------------

    def prox_block(self, block, z_block, A):
        """argmin_u <z, u> + A g(u) + D(u, x0) over one block, in closed form;
        ``block`` is an index into ``blocks`` or one of them."""
        b = self.blocks[block] if isinstance(block, (int, np.integer)) else block
        z_block = np.asarray(z_block, dtype=float)
        _check_prox_input(z_block, A)
        if b.kind == "entropy":
            return _entropy_prox_segments(b.log_anchor, z_block, [0], [b.size])
        return self._prox_euclidean(b.idx, self._wx0[b.idx], z_block, A)

    def prox_into(self, x, idx, z, S, A):
        """Write the prox of the dual vector ``z + A*S`` on the Euclidean
        coordinates ``idx`` (an index array or slice) into x.  Returns None,
        or, with x left unwritten, the largest magnitude of the prox input
        when some of it is not finite (NaN if any of it is NaN)."""
        u = A * S[idx]
        if not u.size:
            return None
        u += z[idx]
        # u.u is finite only when u is, and is the cheapest full reduction;
        # it also overflows on a large finite u, so the exact check decides
        if not isfinite(u.dot(u)) and not np.isfinite(u).all():
            return float(np.max(np.abs(u)))
        x[idx] = self._prox_euclidean(idx, self._wx0[idx], u, A)
        return None

    # -- full-space operations --------------------------------------------

    def prox_entropy(self, z_ent, log_anchor=None):
        """The prox on all entropy coordinates, in ``_ent_idx`` order, given
        z on them: one segmented pass over the blocks.  ``log_anchor`` (same
        order) defaults to the blocks' own anchors."""
        la = self._ent_log_anchor if log_anchor is None else log_anchor
        return _entropy_prox_segments(la, z_ent, self._ent_starts,
                                      self._ent_sizes)

    def entropy_step(self, x, z):
        """A call with no arguments that writes ``prox_entropy(z[ent])``
        into ``x[ent]``, the same bits, with fewer arrays made per call:
        when the entropy coordinates are a range in order the prox is
        computed in that view of x, else in the gathered ``z[ent]``."""
        la, starts, sizes = (self._ent_log_anchor, self._ent_starts,
                             self._ent_sizes)
        sel = self._ent_sel
        if type(sel) is slice:
            return functools.partial(_entropy_prox_segments, la, z[sel],
                                     starts, sizes, x[sel])

        def step():
            u = z[sel]
            x[sel] = _entropy_prox_segments(la, u, starts, sizes, u)
        return step

    def prox_full(self, z, A, anchor=None, check=True):
        """Full-vector prox: one vectorized pass over all Euclidean
        coordinates and one segmented pass over the entropy blocks."""
        if check:
            _check_prox_input(z, A)
        out = np.empty(self.d)
        if self._eu_idx.size:
            ei = self._eu_sel
            wx0 = self._wx0[ei] if anchor is None else self._w[ei] * anchor[ei]
            out[ei] = self._prox_euclidean(ei, wx0, z[ei], A)
        if self._ent_idx.size:
            log_anchor = None
            if anchor is not None:
                a = anchor[self._ent_idx]
                if np.any(a <= 0.0):
                    raise ValueError("entropy prox anchor must be interior")
                log_anchor = np.log(a)
            out[self._ent_idx] = self.prox_entropy(z[self._ent_idx], log_anchor)
        return out

    def bregman(self, x, y):
        """Composite divergence D(x, y) = sum over blocks; >= 1/2 ||x-y||^2."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_finite(x, "bregman x")
        _check_finite(y, "bregman y")
        ei = self._eu_sel
        total = 0.5 * float(np.sum(self._w[ei] * np.square(x[ei] - y[ei])))
        for b in self._ent_blocks:
            xb, yb = x[b.idx], y[b.idx]
            if np.any(xb < -DOMAIN_TOL) or abs(xb.sum() - 1.0) > 1e-6:
                raise ValueError("first argument outside the simplex")
            if np.any(yb <= 0.0):
                raise ValueError("entropy divergence needs interior second argument")
            pos = xb > 0.0      # 0 log 0 = 0
            total += float(np.sum(xb[pos] * np.log(xb[pos] / yb[pos])))
        return total

    def norm_sq(self, x):
        ei = self._eu_sel
        total = float(np.sum(self._w[ei] * np.square(x[ei])))
        for b in self._ent_blocks:
            total += float(np.sum(np.abs(x[b.idx]))) ** 2
        return total

    def dual_norm_sq(self, v):
        _check_finite(v, "dual norm input")
        ei = self._eu_sel
        total = float(np.sum(np.square(v[ei]) / self._w[ei]))
        for b in self._ent_blocks:
            total += float(np.max(np.abs(v[b.idx]))) ** 2 if b.size else 0.0
        return total

    def g_value(self, x, check=True):
        """Regularizer value sum_b mu_b/2 ||x_b||_2^2; indicator parts are 0 on
        the domain.  Raises on domain violations when ``check`` is set."""
        if check:
            self.validate_domain(x)
        ei = self._eu_sel
        return 0.5 * float(np.sum(self._mu[ei] * np.square(x[ei])))

    def validate_domain(self, x, tol=DOMAIN_TOL):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        xb = x[self._bounded_idx]
        if (np.any(xb < self._bounded_lo - tol)
                or np.any(xb > self._bounded_hi + tol)):
            raise ValueError("point violates box bounds")
        for b in self._ent_blocks:
            xb = x[b.idx]
            if np.any(xb < -tol) or abs(xb.sum() - 1.0) > max(tol, 1e-8):
                raise ValueError("point outside the probability simplex")

    def _domain_draws(self, rng, sharp, noise, unif):
        """The Euclidean draws of one ``sample_domain`` point, into the
        rows given: n standard normals into ``noise``, then the uniforms
        into the head of ``unif`` (room for 3n), in one call: a sharp
        draw's move mask, then, with boxed coordinates, each one's corner
        and whether it takes it; an interior draw's place in the box.
        Three ``random(n)`` in a row are one ``random(3n)``.  Returns the
        uniforms drawn."""
        rng.standard_normal(out=noise)
        u = unif[:self._domain_uniforms[bool(sharp)]]
        if u.size:
            rng.random(out=u)
        return u

    def sample_domain(self, rng, sharp=False):
        """Random feasible point: Dirichlet on simplexes, uniform on boxes,
        standard normal on unconstrained coordinates (around the anchor).

        ``sharp`` biases draws toward extreme points (simplex vertices, box
        corners, sparse free directions); empirical Lipschitz estimation
        needs such pairs to approach the worst case.
        """
        x = np.empty(self.d)
        n = self._eu_idx.size
        if n:
            lo, hi, x0, boxed, lo_b, span, moved = self._domain
            noise = np.empty(n)
            u = self._domain_draws(rng, sharp, noise, np.empty(3 * n))
            if sharp:
                vals = np.where(u[:n] < moved, x0 + 3.0 * noise, x0)
            else:
                vals = x0 + noise
            if boxed is not None:
                if sharp:
                    corner = np.where(u[n:2 * n] < 0.5, lo, hi)
                    vals = np.where(boxed, np.where(
                        u[2 * n:] < 0.5, corner, vals), vals)
                else:
                    vals = np.where(boxed, lo_b + u * span, vals)
            x[self._eu_sel] = np.clip(vals, lo, hi)
        alpha = 0.07 if sharp else 1.0
        for b in self._ent_blocks:
            x[b.idx] = np.maximum(rng.dirichlet(np.full(b.size, alpha)), 1e-300)
        return x
