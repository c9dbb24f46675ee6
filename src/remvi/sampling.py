"""Component-sampling plans: alias tables, seeded streams, and the
uniform/importance distributions used by the randomized solver.

Two independent indices are drawn each iteration: the extrapolation index
from p and the table-refresh index from q.  The replay contract pinned here
(and relied on by the dense/lazy equivalence tests) is: one shared stream,
p-draw first, then q-draw, one uniform consumed per draw.
"""

from __future__ import annotations

import numpy as np

from . import _kernel
from .operators import LipschitzProfile, lpq_bound

# Probabilities below this are rejected rather than clamped: 1/p_j multiplies
# the extrapolation correction, so a denormal probability poisons the run.
MIN_PROB = 1e-15


class AliasTable:
    """Walker/Vose alias table; O(m) build, O(1) sampling from one uniform.

    The build loop runs in the compiled library (``_kernel.alias_builder``)
    when it can be built, else in Python; both make the same IEEE double
    operations in the same order, so the tables are equal bit for bit.
    """

    __slots__ = ("m", "prob", "alias", "_prob", "_alias")

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        m = p.size
        scaled = p * m / p.sum()
        small = np.flatnonzero(scaled < 1.0)
        large = np.flatnonzero(scaled >= 1.0)
        build = _kernel.alias_builder()
        if build is not None:
            # leftovers (a large that outlived every small among them) are
            # 1 up to rounding: they keep these defaults
            prob = np.ones(m)
            alias = np.arange(m, dtype=np.intp)
            f8, ip = np.dtype(np.float64), np.dtype(np.intp)
            at = _kernel._pointer
            build(at(scaled, f8), at(small, ip), small.size, at(large, ip),
                  large.size, at(prob, f8), at(alias, ip))
        else:
            prob, alias = _vose(scaled.tolist(), small.tolist(),
                                large.tolist())
        self.m = m
        self.prob = np.asarray(prob, dtype=float)
        self.alias = np.asarray(alias, dtype=np.intp)
        # ``sample`` reads single entries as Python numbers through these
        self._prob = memoryview(self.prob)
        self._alias = memoryview(self.alias)

    def sample(self, u):
        """Map one uniform in [0,1) to an index with the table's distribution."""
        scaled = u * self.m
        i = int(scaled)
        if scaled - i < self._prob[i]:
            return i
        return self._alias[i]

    def sample_many(self, u):
        """Vectorized ``sample`` over an array of uniforms (same mapping)."""
        scaled = np.asarray(u) * self.m
        i = scaled.astype(np.intp)
        return np.where(scaled - i < self.prob[i], i, self.alias[i])


def _vose(scaled, small, large):
    """AliasTable's build loop on Python lists, where the compiled one is
    not available: per-entry numpy indexing costs more than the arithmetic,
    which is the same IEEE double operations."""
    m = len(scaled)
    prob = [1.0] * m
    alias = list(range(m))
    while small and large:
        # the last large entry absorbs the last smalls until it falls
        # below 1 and is itself the next small
        g = large.pop()
        sg = scaled[g]
        while small:
            s = small.pop()
            ss = scaled[s]
            prob[s] = ss
            alias[s] = g
            sg -= 1.0 - ss
            if sg < 1.0:
                scaled[g] = sg
                small.append(g)
                break
    # leftovers are 1 up to rounding (a large that outlived every small
    # among them); prob/alias defaults already cover them
    return prob, alias


# Uniforms drawn at once by RngStream.  A scalar Generator.random() call costs
# about six times taking one double from a list, and a fixed block keeps the
# stream's memory O(1) in the run length.
BLOCK = 256


class RngStream:
    """Counted deterministic uniform stream.

    The generator is pinned to numpy's PCG64; ``Generator.random`` consumes
    exactly one 64-bit output per double, whether it is asked for one or n,
    so the draw at position c is a pure function of (seed, stream, c) and
    ``jump_to`` can replay from any counter.  ``uniform`` serves the draws
    from a block of ``BLOCK`` pre-drawn doubles, the same bits as that many
    scalar calls.  ``counter`` counts the draws consumed, not the ones the
    generator has produced: ``uniform_array`` takes what is left of the
    block first, and ``jump_to`` drops it.
    """

    __slots__ = ("seed", "stream", "counter", "_gen", "_block")

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.jump_to(0)

    def uniform(self):
        self.counter += 1
        block = self._block
        if not block:
            # reversed, so that pop() serves the draws in order
            block = self._block = self._gen.random(BLOCK).tolist()[::-1]
        return block.pop()

    def uniform_array(self, n):
        block = self._block
        take = max(0, min(n, len(block)))
        head = block[len(block) - take:][::-1]
        del block[len(block) - take:]
        rest = self._gen.random(n - take)
        self.counter += n
        return np.concatenate((head, rest)) if take else rest

    def jump_to(self, counter):
        bg = np.random.PCG64(np.random.SeedSequence((self.seed, self.stream)))
        if counter:
            bg.advance(counter)
        self._gen = np.random.Generator(bg)
        self._block = []
        self.counter = counter


class SamplingPlan:
    """Distributions p (extrapolation index) and q (refresh index), with O(1)
    alias sampling and the step-size constant they induce."""

    def __init__(self, p, q, lpq, mode="custom"):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != q.shape or p.ndim != 1:
            raise ValueError("p and q must be 1-d vectors of equal length")
        for name, v in (("p", p), ("q", q)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} has non-finite entries; rejected")
            if np.any(v < MIN_PROB):
                raise ValueError(f"{name} has entries below {MIN_PROB}; rejected")
            if abs(v.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1 within 1e-12")
        if not np.isfinite(lpq) or lpq <= 0.0:
            raise ValueError("lpq must be positive and finite")
        self.p = p
        self.q = q
        self.m = p.size
        self.lpq = float(lpq)
        self.j_star = int(np.argmin(q))
        self.q_min = float(q[self.j_star])
        self.mode = mode
        self._alias_p = AliasTable(p)
        # the build is deterministic, so equal distributions share a table
        self._alias_q = (self._alias_p if np.array_equal(p, q)
                         else AliasTable(q))
        if mode == "importance" and self.q_min < 1.0 / (2.0 * self.m) - 1e-12:
            raise ValueError("importance plan violated q_min >= 1/(2m)")

    def sample_p(self, rng):
        return self._alias_p.sample(rng.uniform())

    def sample_q(self, rng):
        return self._alias_q.sample(rng.uniform())


def build_plan(mode, profile=None, p=None, q=None, lpq=None):
    """Build a sampling plan.

    mode "uniform": p = q = 1/m.
    mode "importance": p_j proportional to sqrt(L_j) and q_j proportional to
    max(sqrt(L_j), mean of sqrt(L)), which guarantees min_j q_j >= 1/(2m).
    mode "custom": caller-supplied p and q (per-problem exponent plans).

    ``lpq`` defaults to the worst-case bound sqrt(sum L_j^2/(p_j q_j^2)).
    """
    if mode in ("uniform", "importance"):
        if profile is None:
            raise ValueError(f"{mode} plan needs a Lipschitz profile")
        if not isinstance(profile, LipschitzProfile):
            profile = LipschitzProfile(profile)
        m = profile.m
        if mode == "uniform":
            p = np.full(m, 1.0 / m)
            q = p.copy()
        else:
            root = np.sqrt(profile.lam)
            p = root / root.sum()
            clipped = np.maximum(root, root.mean())
            q = clipped / clipped.sum()
    elif mode == "custom":
        if p is None or q is None:
            raise ValueError("custom plan needs explicit p and q")
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
    else:
        raise ValueError(f"unknown plan mode {mode!r}")
    if lpq is None:
        if profile is None:
            raise ValueError("custom plan needs either lpq or a profile")
        lpq = lpq_bound(profile, p, q)
    return SamplingPlan(p, q, lpq, mode=mode)


def problem_plan(instance):
    """The per-family sampling plan: the instance's exponent weights with its
    refined step-size constant, or the generic importance plan when the family
    does not prescribe weights (policy evaluation)."""
    if instance.plan_weights is None:
        return build_plan("importance", profile=instance.profile)
    w = np.asarray(instance.plan_weights, dtype=float)
    if np.any(w <= 0.0):
        bad = int(np.argmin(w))
        raise ValueError(f"zero-weight component {bad} in {instance.family} plan")
    p = w / w.sum()
    return SamplingPlan(p, p.copy(), instance.plan_lpq, mode="problem")
