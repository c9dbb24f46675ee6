"""Finite-sum operator abstraction, component tables, and Lipschitz profiles.

An operator F is given as a sum of m components F_j, each with a declared
sparse output support (the coordinates it can write) and input support (the
coordinates of x it reads).  The operator holds every support in one layout:
``FiniteSumOperator.out_all`` is the output supports end to end, component
j's at ``offsets[j]:offsets[j+1]``, and ``in_all``/``in_offsets`` are the
input supports the same way (the same two arrays when every component reads
its own write set).  A family builder that already has the layout of its
supports, read and written alike, passes it; otherwise the operator
concatenates the components' ``out_idx`` once, and their ``in_idx`` only
where a component reads other coordinates than it writes.  The range check,
the table refresh, the extrapolation and the solver's per-draw coordinate
sets read supports from the layout alone, so a component need not store
them: a LAD component holds four Python numbers, and its ``out_idx`` is
built when read.

Component values live in a flat array aligned with ``out_all``.
``evaluate(x, out, at)`` writes a component's value into its stretch of such
a buffer, so per-call cost is proportional to the support size and no call
allocates its result.  The full evaluation, the solver's table and its
running sum all use this layout; a sum over it is one ``np.bincount`` over
``out_all``.

A component reads x and writes ``out`` as float ndarrays, unless its type
declares ``scalar_io``.  Such a type's ``evaluate`` reads x only as ``x[i]``
and writes ``out`` only as ``out[at + t] = v``, i and at + t ints, so it may
be handed any object indexable by int.  The library's callers then hand
it Python floats: a bulk evaluation (``evaluate_flat``) gives x as
``x.tolist()`` and ``out`` as a memoryview of the flat result, and the
solver, the compiled kernel and ``ComponentTable.refresh`` give memoryviews
of the iterate, the scratch buffer and the table's values
(``FiniteSumOperator.io_view``).  A memoryview reads and stores a Python
float without numpy's cost per scalar operation, and holds the same IEEE
double, so the values are the same bits.  The LAD components declare it;
the others, and any operator that mixes them in, get the ndarrays.
"""

from __future__ import annotations

from operator import is_

import numpy as np
from scipy.sparse import issparse

from . import _kernel


class Component:
    """Base class: a single summand F_j with fixed sparse supports
    ``out_idx`` and ``in_idx``.

    The base declares no slots, so that a component whose operator holds
    its supports need not store them.  A subclass that calls this
    constructor must therefore give the two a home: list ``out_idx`` and
    ``in_idx`` in its own ``__slots__`` (or declare none, and keep a
    ``__dict__``).  A subclass that derives them when read, as LAD's does,
    does not call it.  The base is not instantiated itself.
    """

    __slots__ = ()

    # True on a type whose evaluate reads x only as x[i] and writes out only
    # as out[at + t] = v, with int indices, so that a list or a memoryview
    # serves as well as the ndarray
    scalar_io = False

    def __init__(self, out_idx, in_idx):
        self.out_idx = np.asarray(out_idx, dtype=np.intp)
        self.in_idx = np.asarray(in_idx, dtype=np.intp)
        if np.unique(self.out_idx).size < self.out_idx.size:
            raise ValueError("component output support repeats a coordinate")

    def evaluate(self, x, out, at):
        """Write the component value at x, aligned with ``out_idx``, into
        ``out[at:at + len(out_idx)]`` and return ``out``; nothing else in
        ``out`` is touched.  x is a float ndarray of length d and ``out`` a
        float ndarray, or, where the type sets ``scalar_io``, any objects
        indexable by int that read and take floats: a list or memoryview
        of x, a memoryview of ``out``."""
        raise NotImplementedError


class CallableComponent(Component):
    """Component wrapping an arbitrary value function (tests, custom ops)."""

    __slots__ = ("out_idx", "in_idx", "fn")

    def __init__(self, out_idx, in_idx, fn):
        super().__init__(out_idx, in_idx)
        self.fn = fn

    def evaluate(self, x, out, at):
        val = np.asarray(self.fn(x), dtype=float)
        n = self.out_idx.size
        if val.shape != (n,):
            raise ValueError(f"component value has shape {val.shape}, "
                             f"expected ({n},): one entry per output "
                             "coordinate")
        out[at:at + n] = val
        return out


class FiniteSumOperator:
    """F(x) = sum_j F_j(x) over sparse-support components.

    ``linear`` is the d x d matrix M = sum_j M_j of an affine operator
    F(x) = Mx + c, as a ``scipy.sparse`` matrix or an ndarray, or None when
    F is not known to be affine.  It only serves estimates that need F's
    differences, F(x) - F(y) = M(x - y); every counted oracle call still
    goes through the components.

    ``layout`` is ``(out_all, offsets)`` from a builder that already has
    the support layout and whose components each read exactly their write
    set; it vouches that no output support repeats a coordinate.  By default
    the layout is concatenated from the components' ``out_idx``.
    ``reads_are_writes`` records whether every component reads its write
    set (the read layout is then the same two arrays), and ``max_support``
    the largest write support.  ``scalar_io`` holds when every component's
    type declares it; ``io_view`` then gives the memoryviews the library
    hands the components in place of x and of the buffer they write.
    """

    def __init__(self, components, d, linear=None, layout=None):
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
        # The support layout: every component's output coordinates in
        # component order, j's stretch at offsets[j]:offsets[j + 1].  One
        # scatter-add over out_all sums m component values in the same order
        # as m separate per-component adds would.  The input coordinates are
        # laid out the same way, in the same arrays when each component's
        # read support is its write support itself.
        if layout is None:
            supports = [c.out_idx for c in self.components]
            layout = _concatenate(supports)
            reads = [c.in_idx for c in self.components]
            self.reads_are_writes = all(map(is_, reads, supports))
        else:
            self.reads_are_writes = True
        out_all, offsets = (np.asarray(v, dtype=np.intp) for v in layout)
        sizes = np.diff(offsets)
        if (offsets.shape != (self.m + 1,) or offsets[0] != 0
                or offsets[-1] != out_all.size or np.any(sizes < 0)):
            raise ValueError("support layout does not match the "
                             f"{self.m} components")
        self.out_all, self.offsets = out_all, offsets
        self.in_all, self.in_offsets = (
            (out_all, offsets) if self.reads_are_writes
            else _concatenate(reads))
        for flat in ((out_all,) if self.reads_are_writes
                     else (out_all, self.in_all)):
            if flat.size and (flat.min() < 0 or flat.max() >= self.d):
                raise ValueError("component support out of range")
        # the largest write support: the size of a one-slot scratch buffer
        self.max_support = int(sizes.max())
        # where each component's values start in evaluate_flat's result: a
        # range, which holds no memory, when every support has one size
        # (LAD's pairs), else the offsets as a list of ints
        size = int(sizes[0])
        self._starts = (range(0, size * self.m, size)
                        if size and np.all(sizes == size)
                        else offsets[:-1].tolist())
        self.scalar_io = all(
            t.scalar_io for t in set(map(type, self.components)))

    def io_view(self, arr):
        """What the components are handed in place of the float array
        ``arr``: a memoryview of it, which reads and takes Python floats,
        when they declare ``scalar_io``, else ``arr`` itself."""
        return memoryview(arr) if self.scalar_io else arr

    def evaluate_flat(self, x):
        """All m component values at x in one array laid out like
        ``out_all`` (m component-oracle calls)."""
        flat = np.empty(self.out_all.size)
        out = self.io_view(flat)
        if self.scalar_io:
            # one conversion instead of a read per component: a list reads
            # faster than a memoryview
            x = x.tolist()
        for c, at in zip(self.components, self._starts):
            c.evaluate(x, out, at)
        return flat

    def evaluate_full(self, x):
        """Dense F(x) = sum of all components (m component-oracle calls)."""
        return np.bincount(self.out_all, weights=self.evaluate_flat(x),
                           minlength=self.d)


def _concatenate(supports):
    """One flat array of the supports end to end and the offsets of each."""
    offsets = np.zeros(len(supports) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, supports), np.intp, len(supports)),
              out=offsets[1:])
    return np.concatenate(supports), offsets


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
    if not np.isfinite(p).all():
        raise ValueError(f"{name} entries must be finite")
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
    ``trials`` random feasible pairs drawn from the geometry's domain.  A
    pair costs two ``evaluate_flat`` calls and a few passes over their
    difference: sums of diff^2 / w per component on Euclidean coordinates,
    squared max |diff| per (component, simplex block) on the rest.
    """
    p = _check_distribution(p, op.m, "p")
    q = _check_distribution(q, op.m, "q")
    weight = 1.0 / (p * q * q)
    comp = np.repeat(np.arange(op.m), np.diff(op.offsets))
    block = np.full(op.d, -1)       # simplex block number, -1 if Euclidean
    for b, blk in enumerate(geom._ent_blocks):
        block[blk.idx] = b
    block = block[op.out_all]
    eu = block < 0
    w = geom._w[op.out_all[eu]]
    cells, cell_of = np.unique(comp[~eu] * op.d + block[~eu],
                               return_inverse=True)
    owner = np.concatenate([comp[eu], cells // op.d])   # each term's component

    def numer(x, y):
        diff = op.evaluate_flat(x)
        diff -= op.evaluate_flat(y)
        if not np.isfinite(diff).all():
            raise ValueError("component value differences must be finite")
        top = np.zeros(cells.size)
        np.maximum.at(top, cell_of, np.abs(diff[~eu]))
        terms = np.concatenate([np.square(diff[eu]) / w, np.square(top)])
        return float(weight @ np.bincount(owner, weights=terms,
                                          minlength=op.m))

    return _max_pair_ratio(geom, trials, rng, numer)


# Pairs the compiled estimate draws per call, into buffers of 16n normals
# and 48n uniforms made once
_PAIRS = 8


def empirical_full_lipschitz(op, geom, trials, rng):
    """Empirical estimate of the full-operator Lipschitz constant.

    With the operator's linear part M set, each pair costs one matvec
    M(x - y); otherwise two ``evaluate_full`` calls (2m component calls).
    With M a float64 CSR matrix on a geometry without simplex blocks (every
    LAD instance), the pairs run in the compiled library where it can be
    built (``_kernel.pair_ratio``): numpy makes the same draws, and C the
    points, the norms and the matvec with numpy's and scipy's operations
    in their order, so the estimate is the same double.
    """
    M = op.linear
    if (issparse(M) and M.format == "csr" and M.dtype == np.float64
            and not geom._ent_idx.size and trials >= 1):
        pair_ratio = _kernel.pair_ratio()
        if pair_ratio is not None:
            return _compiled_pairs(pair_ratio, M, geom, trials, rng)

    def numer(x, y):
        if op.linear is not None:
            return geom.dual_norm_sq(op.linear @ (x - y))
        return geom.dual_norm_sq(op.evaluate_full(x) - op.evaluate_full(y))

    return _max_pair_ratio(geom, trials, rng, numer)


def _compiled_pairs(pair_ratio, M, geom, trials, rng):
    """``_max_pair_ratio`` with ``dual_norm_sq(M (x - y))`` as numerator,
    in C: the draws of ``_PAIRS`` pairs at a time, then one call."""
    n = geom.d
    st = _kernel.pair_state(geom, M)
    noise, unif = np.empty((_PAIRS, 2, n)), np.empty((_PAIRS, 2, 3 * n))
    rows = list(zip(noise.reshape(-1, n), unif.reshape(-1, 3 * n)))
    draw = geom._domain_draws
    for t0 in range(0, trials, _PAIRS):
        count = min(_PAIRS, trials - t0)
        # pair t's x and y, both sharp where t is odd
        for k, (g, u) in enumerate(rows[:2 * count]):
            draw(rng, (t0 + k // 2) % 2, g, u)
        if pair_ratio(st, noise.ctypes.data, unif.ctypes.data, t0,
                      count) >= 0:
            raise ValueError("dual norm input must be finite")
    if not np.isfinite(st.best):
        raise ValueError("all sampled pairs were degenerate (x == y)")
    return st.best


class ComponentTable:
    """SAGA-style table of stored component values plus their running sum.

    ``values`` is one flat array laid out like the operator's ``out_all``:
    slot j, ``values[offsets[j]:offsets[j + 1]]``, holds F_j evaluated at
    the iterate of iteration ``eval_iter[j]``.  ``resolve_prev`` implements
    the value a component held *two* iterations ago, which only differs from
    the current slot for the single component refreshed in the previous
    iteration; a one-level shadow of that slot suffices.  ``shadow`` holds
    the overwritten values of the last slot refreshed, in the first entries
    of one buffer for the whole run.  ``out`` is what a refresh evaluates
    into: ``values`` through the operator's ``io_view``.
    """

    def __init__(self, op, x0):
        self.op = op
        self.values = op.evaluate_flat(x0)
        self.out = op.io_view(self.values)
        self.eval_iter = np.zeros(op.m, dtype=np.int64)
        self.aggregate = self.explicit_sum()
        self._buffer = np.empty(op.max_support)
        self.shadow = self._buffer[:0]
        self._shadow_iter = self._shadow_j = -1

    def refresh(self, j, x, k):
        """Evaluate F_j at iteration k's iterate x into slot j (one
        component-oracle call).  x is the iterate, or a memoryview of it
        when the components declare ``scalar_io``."""
        op = self.op
        at, end = op.offsets.item(j), op.offsets.item(j + 1)
        slot = self.values[at:end]
        self._shadow_iter, self._shadow_j = k, j
        self.shadow = old = self._buffer[:end - at]
        old[:] = slot
        op.components[j].evaluate(x, self.out, at)
        self.eval_iter[j] = k
        # Component rejects repeated out_idx entries, so plain fancy
        # indexing (which would drop repeats) is a correct and much faster
        # scatter-add
        self.aggregate[op.out_all[at:end]] += slot - old

    def resolve_prev(self, j, k):
        """Stored value of component j as of the end of iteration k-2: the
        shadow or a view of slot j."""
        if self._shadow_j == j and self._shadow_iter == k - 1:
            return self.shadow
        ends = self.op.offsets
        return self.values[ends.item(j):ends.item(j + 1)]

    def resum(self):
        """Exact re-sum of the aggregate; runs need none (drift measured below
        1e-12 of the largest slot value over 1e7 refreshes on each family)."""
        self.aggregate[:] = self.explicit_sum()

    def explicit_sum(self):
        return np.bincount(self.op.out_all, weights=self.values,
                           minlength=self.op.d)


def load_matrix_market(path):
    """Read a Matrix Market file into a dense ndarray."""
    from scipy.io import mmread     # imported on first use, as in problems
    mat = mmread(path)
    if hasattr(mat, "toarray"):
        mat = mat.toarray()
    return np.asarray(mat, dtype=float)
