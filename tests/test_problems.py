import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import bmat, coo_matrix, csr_matrix

from helpers import (assert_runs_bitwise_equal, loop_paths, needs_compiler,
                     value)
from remvi import _kernel, problems
from remvi.baselines import BaselineConfig, run_baseline
from remvi.geometry import GeometryBundle, euclidean_block
from remvi.metrics import gap_fixed
from remvi.operators import (CallableComponent, Component, ComponentTable,
                             FiniteSumOperator, lpq_empirical)
from remvi.problems import (_lines_nonzero, generate_instance, generate_lad,
                            load_instance, make_box_simplex, make_lad,
                            make_matrix_game, make_policy_eval, lipschitz_shape,
                            problem_instances_for_tests, save_instance,
                            solve_policy_eval_direct, stationary_distribution)
from remvi.sampling import problem_plan
from remvi.solver import SolverConfig, run


def enumerate_sup_gap(problem, candidate):
    """Brute-force sup of the gap over extreme comparators (exact for
    bilinear instances: the gap is linear in the comparator blockwise)."""
    A = problem.data["A"]
    n, d = A.shape
    best = -np.inf
    if problem.family == "matrix-game":
        for j, i in itertools.product(range(d), range(n)):
            x = np.zeros(d + n)
            x[j] = 1.0
            x[d + i] = 1.0
            best = max(best, gap_fixed(problem, candidate, x))
    elif problem.family == "box-simplex":
        for corner in itertools.product((-1.0, 1.0), repeat=d):
            for i in range(n):
                x = np.zeros(d + n)
                x[:d] = corner
                x[d + i] = 1.0
                best = max(best, gap_fixed(problem, candidate, x))
    else:
        raise ValueError(problem.family)
    return best


class TestMatrixGame:
    def test_two_sided_component_sum(self):
        inst = make_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert inst.m == 4
        x = np.array([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(inst.operator.evaluate_full(x),
                                   [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_1x1_profiles(self):
        inst = make_matrix_game(np.array([[1.0]]))
        np.testing.assert_array_equal(inst.profile.lam, [1.0, 1.0])
        assert inst.m == 2

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            make_matrix_game(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="column 0"):
            make_matrix_game(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_row_sided_decomposition(self):
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        inst = make_matrix_game(A, mode="row-sided")
        assert inst.m == 2
        rng = np.random.default_rng(0)
        x = inst.sample_feasible(rng)
        np.testing.assert_allclose(
            inst.operator.evaluate_full(x),
            np.concatenate([A.T @ x[2:], -(A @ x[:2])]), atol=1e-14)

    def test_sup_gap_at_equilibrium_is_zero(self):
        inst = make_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert inst.sup_gap(np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_sup_gap_identity_example(self):
        inst = make_matrix_game(np.eye(2))
        x = np.array([1.0, 0.0, 0.5, 0.5])
        assert inst.sup_gap(x) == pytest.approx(0.5)

    def test_sup_gap_matches_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for shape in [(2, 2), (3, 2), (3, 3)]:
            A = rng.normal(size=shape)
            inst = make_matrix_game(A)
            for _ in range(5):
                cand = inst.sample_feasible(rng)
                assert inst.sup_gap(cand) == pytest.approx(
                    enumerate_sup_gap(inst, cand), abs=1e-10)

    def test_sup_gap_rejects_infeasible(self):
        inst = make_matrix_game(np.eye(2))
        with pytest.raises(ValueError):
            inst.sup_gap(np.array([2.0, -1.0, 0.5, 0.5]))


class TestBoxSimplex:
    def test_single_entry_component(self):
        inst = make_box_simplex(np.array([[1.0]]), np.array([0.0]))
        assert inst.m == 1
        x = np.array([0.7, 1.0])  # z = 0.7, y = 1
        c = inst.operator.components[0]
        idx, vals = c.out_idx, value(c, x)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(vals, [1.0, -0.7])

    def test_consistent_construction(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 4))
        z0 = rng.uniform(-1, 1, size=4)
        inst = make_box_simplex(A, A @ z0)
        assert np.max(np.abs(A @ z0 - inst.data["b"])) == 0.0
        y = np.full(3, 1.0 / 3.0)
        assert inst.sup_gap(np.concatenate([z0, y])) >= -1e-12

    def test_weighted_geometry_uses_plan(self):
        inst = make_box_simplex(np.array([[1.0, 32.0]]), np.array([0.0]))
        w = np.array([inst.geometry.blocks[0].weights[0],
                      inst.geometry.blocks[1].weights[0]])
        np.testing.assert_allclose(w, [0.2, 0.8], rtol=1e-14)

    def test_sup_gap_matches_corner_enumeration(self):
        rng = np.random.default_rng(6)
        for shape in [(2, 2), (2, 3), (3, 3)]:
            A = rng.normal(size=shape)
            inst = make_box_simplex(A, rng.normal(size=shape[0]))
            for _ in range(5):
                cand = inst.sample_feasible(rng)
                assert inst.sup_gap(cand) == pytest.approx(
                    enumerate_sup_gap(inst, cand), abs=1e-10)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="column 1"):
            make_box_simplex(np.array([[1.0, 0.0]]), np.array([0.0]))


class TestLad:
    def test_single_entry(self):
        inst = make_lad(np.array([[2.0]]), np.array([3.0]))
        assert inst.m == 1
        vals = value(inst.operator.components[0], np.array([1.0, 0.5]))
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_lambda_profile(self):
        inst = make_lad(np.array([[1.0, -4.0], [0.0, 9.0]]), np.zeros(2))
        np.testing.assert_array_equal(inst.profile.lam, [1.0, 4.0, 9.0])
        assert inst.profile.norm_half == 36.0

    def test_b_split_telescopes(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 4)) * (rng.random((3, 4)) < 0.7)
        A[np.all(A == 0, axis=1), 0] = 1.0
        b = rng.normal(size=3)
        inst = make_lad(A, b)
        x = np.concatenate([rng.normal(size=4), rng.uniform(-1, 1, 3)])
        np.testing.assert_allclose(
            inst.operator.evaluate_full(x),
            np.concatenate([A.T @ x[4:], -(A @ x[:4] - b)]), atol=1e-12)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_component_build_pauses_collector(self, enabled, monkeypatch):
        # the Python build: the components are built with the cyclic
        # collector off, and make_lad leaves it as it found it, also when
        # the build raises
        monkeypatch.setattr(_kernel, "lad_builder", lambda: None)
        seen = []

        class Probe(problems._LadComponent):
            __slots__ = ()

            def __init__(self, *args):
                seen.append(gc.isenabled())
                if fail and len(seen) == 3:
                    raise RuntimeError("build failed")
                super().__init__(*args)

        monkeypatch.setattr(problems, "_LadComponent", Probe)
        A = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            fail = False
            assert make_lad(A, np.ones(2)).m == 4
            assert seen == [False] * 4 and gc.isenabled() is enabled
            fail, seen[:] = True, []
            with pytest.raises(RuntimeError, match="build failed"):
                make_lad(A, np.ones(2))
            assert seen == [False] * 3 and gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @needs_compiler
    @pytest.mark.parametrize("enabled", [True, False])
    def test_compiled_build_pauses_collector(self, enabled, monkeypatch):
        # the compiled build: the builder is called with the collector off,
        # and make_lad leaves it as it found it, also when the builder raises
        build = _kernel.lad_builder()
        assert build is not None
        seen = []

        def probe(*args):
            seen.append(gc.isenabled())
            if fail:
                raise RuntimeError("build failed")
            return build(*args)

        monkeypatch.setattr(_kernel, "lad_builder", lambda: probe)
        A = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            fail = False
            assert make_lad(A, np.ones(2)).m == 4
            assert seen == [False] and gc.isenabled() is enabled
            fail, seen[:] = True, []
            with pytest.raises(RuntimeError, match="build failed"):
                make_lad(A, np.ones(2))
            assert seen == [False] and gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_consistent_sup_gap(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        z0 = rng.normal(size=3)
        inst = make_lad(A, A @ z0, ref_optimum=0.0)
        cand = np.concatenate([np.array([1.0, -1.0, 0.0]), np.zeros(3)])
        expect = np.sum(np.abs(A @ cand[:3] - A @ z0))
        assert inst.sup_gap(cand) == pytest.approx(expect, rel=1e-12)
        zero_gap = np.concatenate([z0, np.zeros(3)])
        assert inst.sup_gap(zero_gap) == pytest.approx(0.0, abs=1e-12)

    def test_identity_example(self):
        inst = make_lad(np.eye(2), np.zeros(2), ref_optimum=0.0)
        assert inst.sup_gap(np.array([1.0, -1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_sup_gap_requires_reference(self):
        inst = make_lad(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            inst.sup_gap(np.zeros(4))

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            make_lad(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))

    def test_strongly_monotone_reference_kkt(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 3)) * 0.5
        b = A @ rng.uniform(-0.5, 0.5, 3)
        quad = 1.5
        inst = make_lad(A, b, quad=quad, solve_reference=True)
        z, y = inst.reference[:3], inst.reference[3:]
        np.testing.assert_allclose(quad * z + A.T @ y, 0.0, atol=1e-9)
        np.testing.assert_allclose(y, np.clip((A @ z - b) / quad, -1, 1), atol=1e-8)
        assert inst.gamma == quad

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n, d, density, quad", [
        (20, 20, 0.3, 0.5), (50, 40, 0.1, 0.1), (8, 8, 0.5, 1.0)])
    def test_generated_reference_kkt_tight(self, n, d, density, quad, seed):
        # the saddle point the linear-rate checks measure against is exact
        # to rounding, not to the dual solver's stopping tolerance
        inst = generate_lad(n, d, 1.0, seed, density=density, quad=quad,
                            solve_reference=True)
        A, b = inst.data["A"], inst.data["b"]
        z, y = inst.reference[:d], inst.reference[d:]
        assert np.max(np.abs(y - np.clip((A @ z - b) / quad, -1, 1))) <= 1e-13

    @pytest.mark.parametrize("quad", [0.0, 0.3])
    def test_two_block_geometry_equals_singletons(self, quad):
        # z and the boxed y as two blocks act exactly like one block per
        # coordinate: every geometry operation agrees bit for bit
        inst = generate_lad(7, 5, 1.0, seed=9, density=0.5, quad=quad)
        n, d = inst.data["A"].shape
        geom = inst.geometry
        assert len(geom.blocks) == 2
        old = GeometryBundle(
            [euclidean_block(np.array([j]), mu=quad) for j in range(d)]
            + [euclidean_block(np.array([d + i]), mu=quad, lo=-1.0, hi=1.0)
               for i in range(n)])
        np.testing.assert_array_equal(geom.x0, old.x0)
        rng = np.random.default_rng(10)
        for A in (0.0, 0.7, 123.0):
            z = 3.0 * rng.standard_normal(d + n)
            np.testing.assert_array_equal(geom.prox_full(z, A),
                                          old.prox_full(z, A))
            idx = rng.choice(d + n, size=6, replace=False)
            for sel in (idx, idx.tolist()):
                x_new, x_old = geom.x0.copy(), old.x0.copy()
                geom.prox_into(x_new, sel, z, np.zeros(d + n), A)
                old.prox_into(x_old, sel, z, np.zeros(d + n), A)
                np.testing.assert_array_equal(x_new, x_old)
            assert geom.norm_sq(z) == old.norm_sq(z)
            assert geom.dual_norm_sq(z) == old.dual_norm_sq(z)
        for sharp in (False, True):
            np.testing.assert_array_equal(
                geom.sample_domain(np.random.default_rng(3), sharp=sharp),
                old.sample_domain(np.random.default_rng(3), sharp=sharp))


def dense_lad_gap(inst, x):
    """The LAD sup-gap computed on the dense A (the reference formula)."""
    A, b = inst.data["A"].toarray(), inst.data["b"]
    return float(np.sum(np.abs(A @ x[:A.shape[1]] - b)) - inst.ref_optimum)


class TestLadCsrMetric:
    """The LAD sup-gap runs on the CSR A; it must equal the dense formula up
    to summation order."""

    def check_points(self, inst, seed, count=20):
        rng = np.random.default_rng(seed)
        for sharp in (False, True):
            for _ in range(count):
                x = inst.geometry.sample_domain(rng, sharp=sharp)
                assert inst.sup_gap(x) == pytest.approx(dense_lad_gap(inst, x),
                                                        rel=1e-12)

    def check_csr(self, inst, A):
        """``inst.data["A"]`` is the canonical CSR of the dense ``A``."""
        A_csr = inst.data["A"]
        assert isinstance(A_csr, csr_matrix)
        assert A_csr.shape == A.shape
        assert A_csr.nnz == np.count_nonzero(A)
        assert A_csr.has_canonical_format
        dense = A_csr.toarray()
        assert dense.dtype == A.dtype
        np.testing.assert_array_equal(dense, A)
        assert np.array_equal(np.signbit(dense), np.signbit(A))

    @pytest.mark.parametrize("n,d,density,seed", [
        (30, 20, 0.2, 0), (12, 40, 0.1, 1), (50, 50, 1.0, 2)])
    def test_generated_matches_dense(self, n, d, density, seed):
        inst = generate_lad(n, d, 1.0, seed, density=density)
        A, _, _ = _reference_generate_lad_arrays(n, d, 1.0, seed, density)
        self.check_csr(inst, A)
        self.check_points(inst, seed)

    def test_handwritten_matches_dense(self):
        A = np.array([[1.5, 0.0, -2.0, 0.0],
                      [0.0, 0.0, 0.0, 3.25],
                      [-0.5, 7.0, 0.0, 1e-3]])
        b = np.array([0.3, -1.0, 2.0])
        inst = make_lad(A, b, ref_optimum=0.125)
        self.check_csr(inst, A)
        np.testing.assert_array_equal(inst.data["A"].indptr, [0, 2, 3, 6])
        np.testing.assert_array_equal(inst.data["A"].indices,
                                      [0, 2, 3, 0, 1, 3])
        self.check_points(inst, 11)
        x = np.array([1.0, -1.0, 0.5, 2.0, 0.0, 0.0, 0.0])
        # |1.5 - 1 - 0.3| + |6.5 + 1| + |-0.5 - 7 + 0.002 - 2| - 0.125
        assert inst.sup_gap(x) == pytest.approx(0.2 + 7.5 + 9.498 - 0.125,
                                                rel=1e-12)

    def test_roundtrip_matches_dense(self, tmp_path):
        inst = generate_lad(25, 15, 1.5, 4, density=0.3)
        base = str(tmp_path / "lad")
        save_instance(inst, base)
        loaded = load_instance(base)
        self.check_csr(loaded, inst.data["A"].toarray())
        np.testing.assert_array_equal(loaded.data["A"].toarray(),
                                      inst.data["A"].toarray())
        for key in ("indptr", "indices", "data"):
            assert (getattr(loaded.data["A"], key).tobytes()
                    == getattr(inst.data["A"], key).tobytes())
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = inst.sample_feasible(rng)
            assert loaded.sup_gap(x) == pytest.approx(dense_lad_gap(inst, x),
                                                      rel=1e-12)
            assert loaded.sup_gap(x) == inst.sup_gap(x)

    def test_infeasible_point_rejected(self):
        inst = generate_lad(6, 5, 1.0, 3, density=0.6)
        x = inst.x0.copy()
        x[5] = 1.5          # a y coordinate outside [-1, 1]
        with pytest.raises(ValueError, match="box bounds"):
            inst.sup_gap(x)
        with pytest.raises(ValueError, match="non-finite"):
            inst.sup_gap(np.full(inst.d, np.nan))


def _reference_generate_lad_arrays(n, d, exponent, seed, density, z_scale=1.0,
                                   max_retries=32):
    """``generate_lad`` as a dense generator (one n x d mask, a dense A, the
    validity check on an explicit |A| copy and one n x d gemv for b), the
    reference for the row-block CSR build.  Returns A, b and the accepted
    attempt with its numbers of row and column fills."""
    for attempt in range(max_retries):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 303, attempt)))
        mask = rng.random((n, d)) < density
        row_fills = np.flatnonzero(~mask.any(axis=1))
        for i in row_fills:
            mask[i, rng.integers(d)] = True
        col_fills = np.flatnonzero(~mask.any(axis=0))
        for j in col_fills:
            mask[rng.integers(n), j] = True
        m = int(mask.sum())
        magnitudes = rng.permutation(lipschitz_shape(m, exponent))
        signs = rng.choice([-1.0, 1.0], size=m)
        A = np.zeros((n, d))
        A[mask] = magnitudes * signs
        with np.errstate(invalid="ignore"):
            absA = np.abs(A)
        if absA.max(axis=1).min() > 0.0 and absA.max(axis=0).min() > 0.0:
            z_star = z_scale * rng.uniform(-1.0, 1.0, size=d)
            return A, A @ z_star, (attempt, row_fills.size, col_fills.size)
    raise ValueError("no valid instance")


def _validity_cases():
    """(name, matrix, whether generate_lad accepts it): every row and every
    column needs an entry with |a| > 0, and a NaN anywhere rejects."""
    base = np.array([[1.0, -2.0, 0.0],
                     [0.0, 3.0, -0.5],
                     [-4.0, 0.0, 0.25]])

    def edit(src, key, value):
        A = src.copy()
        A[key] = value
        return A

    zero_row = edit(base, (1, slice(None)), 0.0)
    return [
        ("plain", base, True),
        ("nan", edit(base, (1, 0), np.nan), False),
        ("signed-zero-row", edit(base, (2, slice(None)), [-0.0, 0.0, -0.0]), False),
        ("negzero-column", edit(base, (slice(None), 1), -0.0), False),
        ("minus-inf", edit(base, (0, 2), -np.inf), True),
        ("plus-inf", edit(base, (2, 1), np.inf), True),
        ("zero-row", zero_row, False),
        ("zero-column", edit(base, (slice(None), 2), 0.0), False),
        ("nan-in-zero-row", edit(zero_row, (1, 1), np.nan), False),
        ("all-zero", np.zeros((2, 2)), False),
        ("single-negzero", np.array([[-0.0]]), False),
    ]


class TestLadValidityCheck:
    @pytest.mark.parametrize("name,A,accepted", _validity_cases(),
                             ids=[c[0] for c in _validity_cases()])
    def test_max_abs_matches_abs_copy(self, name, A, accepted):
        # the check on CSR values takes the decision the row and column
        # maxima of |A| take on the dense matrix
        with np.errstate(invalid="ignore"):
            ref = [np.abs(A).max(axis=axis).min() > 0.0 for axis in (0, 1)]
        assert all(ref) == accepted
        n, d = A.shape
        rows, cols = np.nonzero(A)
        # only the np.nonzero entries stored, then every cell (zeros too)
        nonzero = csr_matrix((A[rows, cols], (rows, cols)), shape=A.shape)
        every = csr_matrix((A.ravel(), (np.repeat(np.arange(n), d),
                                        np.tile(np.arange(d), n))),
                           shape=A.shape)
        assert every.nnz == A.size
        assert _lines_nonzero(nonzero) == accepted
        assert _lines_nonzero(every) == accepted

    @pytest.mark.parametrize("n,d,density,seed", [
        (40, 30, 0.05, 0), (25, 60, 0.2, 7), (15, 15, 0.7, 123)])
    def test_generate_lad_unchanged(self, n, d, density, seed):
        inst = generate_lad(n, d, 1.0, seed, density=density)
        A, b, _ = _reference_generate_lad_arrays(n, d, 1.0, seed, density)
        np.testing.assert_array_equal(inst.data["A"].toarray(), A)
        np.testing.assert_array_equal(inst.data["b"], b)
        rows, cols = np.nonzero(A)
        supports = np.stack([cols, d + rows], axis=1)
        for j, comp in enumerate(inst.operator.components):
            np.testing.assert_array_equal(comp.out_idx, supports[j])
            np.testing.assert_array_equal(comp.in_idx, supports[j])


def _dense_lad_expectations(A):
    """Supports, lam, weights and lpq that make_lad derives from the
    np.nonzero entries of a dense A."""
    n, d = A.shape
    rows, cols = np.nonzero(A)
    lam = np.abs(A[rows, cols])
    return (np.stack([cols, d + rows], axis=1), lam, np.sqrt(lam),
            float(np.sum(np.sqrt(lam)) ** 2))


def _check_lad_matches_dense(inst, A):
    supports, lam, weights, lpq = _dense_lad_expectations(A)
    got = inst.data["A"]
    assert got.has_canonical_format
    dense = got.toarray()
    np.testing.assert_array_equal(dense, A)
    # a -0.0 of A is no entry, so it reads back as +0.0
    assert np.array_equal(np.signbit(dense), np.signbit(A) & (A != 0.0))
    assert inst.m == len(supports)
    for j, comp in enumerate(inst.operator.components):
        np.testing.assert_array_equal(comp.out_idx, supports[j])
        np.testing.assert_array_equal(comp.in_idx, supports[j])
    assert inst.profile.lam.tobytes() == lam.tobytes()
    assert inst.plan_weights.tobytes() == weights.tobytes()
    assert inst.plan_lpq == lpq


# (n, d, exponent, seed, density) and what each exercises in the generator
_CHUNK_CASES = {
    "row-and-column-fills": (40, 30, 1.0, 0, 0.05),
    "row-fills": (50, 3, 1.0, 2, 0.01),
    "column-fills": (3, 50, 1.0, 2, 0.01),
    "retry": (5, 4, 300.0, 18, 0.5),
    "b-in-32-row-blocks": (100, 30, 2.0, 1, 0.03),
}
# rows per mask block, as a function of n
_CHUNK_ROWS = {
    "1-row": lambda n: 1,
    "non-divisor": lambda n: n // 2 + 1,
    "n-rows": lambda n: n,
    "beyond-n": lambda n: 4 * n,
    "37-rows": lambda n: 37,
}


class TestLadRowBlockGenerator:
    """generate_lad draws its mask and computes b in row blocks and builds
    the CSR straight from them; the instance must be bitwise the dense
    generator's, whatever the block size."""

    @pytest.mark.parametrize("rows", list(_CHUNK_ROWS))
    @pytest.mark.parametrize("case", list(_CHUNK_CASES))
    def test_equals_dense_generator(self, case, rows, monkeypatch):
        n, d, exponent, seed, density = _CHUNK_CASES[case]
        monkeypatch.setattr(problems, "_CHUNK_ELEMENTS",
                            _CHUNK_ROWS[rows](n) * d)
        with np.errstate(over="ignore", invalid="ignore"):
            inst = generate_lad(n, d, exponent, seed, density=density)
            A, b, (attempt, row_fills, col_fills) = \
                _reference_generate_lad_arrays(n, d, exponent, seed, density)
        # each case reaches the path it is named after
        assert {"row-and-column-fills": row_fills and col_fills,
                "row-fills": row_fills, "column-fills": col_fills,
                "retry": attempt > 0, "b-in-32-row-blocks": n > 64}[case]
        _check_lad_matches_dense(inst, A)
        assert inst.data["b"].tobytes() == b.tobytes()

    def test_input_forms_give_one_instance(self):
        # dense, CSR with unsorted column indices, and COO in shuffled order
        # with explicit zeros (+0.0 and -0.0) and a duplicate pair
        A = np.array([[1.5, 0.0, -2.0, 0.0, 0.25],
                      [0.0, -0.0, 0.0, 3.25, 0.0],
                      [-0.5, 7.0, 0.0, 1e-3, 0.0],
                      [0.0, 0.0, 4.0, 0.0, -1.0]])
        b = np.array([0.3, -1.0, 2.0, 0.0])
        rows, cols = np.nonzero(A)
        counts = np.bincount(rows, minlength=4)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        perm = np.concatenate([np.arange(lo, hi)[::-1]
                               for lo, hi in zip(indptr[:-1], indptr[1:])])
        unsorted = csr_matrix((A[rows, cols][perm], cols[perm], indptr),
                              shape=A.shape)
        assert not unsorted.has_sorted_indices
        coo_r = np.concatenate([rows, [1, 3, 2, 0, 0]])
        coo_c = np.concatenate([cols, [1, 1, 4, 4, 4]])
        coo_v = np.concatenate([A[rows, cols], [-0.0, 0.0, 0.0, -1.0, 1.0]])
        order = np.random.default_rng(0).permutation(coo_v.size)
        coo = coo_matrix((coo_v[order], (coo_r[order], coo_c[order])),
                         shape=A.shape)
        A[0, 4] = 0.25 - 1.0 + 1.0      # the duplicate pair sums to 0.25
        x = np.random.default_rng(1).uniform(-1.0, 1.0, 9)
        ref = make_lad(A, b, quad=0.5, ref_optimum=0.1)
        _check_lad_matches_dense(ref, A)
        for form in (unsorted, coo):
            inst = make_lad(form, b, quad=0.5, ref_optimum=0.1)
            _check_lad_matches_dense(inst, A)
            for key in ("indptr", "indices", "data"):
                assert (getattr(inst.data["A"], key).tobytes()
                        == getattr(ref.data["A"], key).tobytes())
            assert (inst.operator.evaluate_full(x).tobytes()
                    == ref.operator.evaluate_full(x).tobytes())
            assert inst.sup_gap(x) == ref.sup_gap(x)
        # the caller's matrix is left as it was
        assert not unsorted.has_sorted_indices
        assert coo.nnz == coo_v.size

    def test_no_dense_n_by_d_allocation(self, tmp_path):
        # generate, save/load and the sup-gap at 2000 x 2000, density 0.005
        # (about 20k nonzeros): no step may hold half a dense float64 A
        n = d = 2000
        limit = n * d * 8 // 2
        base = str(tmp_path / "lad")
        tracemalloc.start()
        try:
            inst = generate_lad(n, d, 1.0, 0, density=0.005)
            peaks = {"generate_lad": tracemalloc.get_traced_memory()[1]}
            save_instance(inst, base)
            for name, call in (("load_instance", lambda: load_instance(base)),
                               ("sup_gap", lambda: inst.sup_gap(inst.x0))):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
                del out
        finally:
            tracemalloc.stop()
        assert inst.m == pytest.approx(n * d * 0.005, rel=0.05)
        assert max(peaks.values()) < limit, peaks


def _assert_same_lad(got, ref):
    """A, b, the components' slots (types, values and which objects are
    shared) and F at a point are equal bit for bit."""
    for key in ("indptr", "indices", "data"):
        a, r = getattr(got.data["A"], key), getattr(ref.data["A"], key)
        assert a.dtype == r.dtype and a.tobytes() == r.tobytes()
    assert got.data["b"].tobytes() == ref.data["b"].tobytes()
    slots = ("zpos", "ypos", "a", "bshare")

    def fields(inst):
        return [(type(c), *((type(getattr(c, f)), getattr(c, f).hex()
                             if f in ("a", "bshare") else getattr(c, f))
                            for f in slots))
                for c in inst.operator.components]

    assert fields(got) == fields(ref)
    # one int per coordinate and one float per row, shared
    n, d = got.data["A"].shape
    for inst in (got, ref):
        comps = inst.operator.components
        assert [len({id(getattr(c, f)) for c in comps})
                for f in ("zpos", "ypos", "bshare")] == [d, n, n]
    x = np.linspace(-1.0, 1.0, got.d)
    assert (got.operator.evaluate_full(x).tobytes()
            == ref.operator.evaluate_full(x).tobytes())



def test_b_equal_under_one_and_two_blas_threads():
    # the benchmark runs OpenBLAS on one thread and the suite on the
    # default count: at the benchmark's two LAD shapes b is the same bytes
    code = ("import hashlib; from remvi.problems import generate_lad; "
            "print([hashlib.sha256(generate_lad(n, n, 1.0, 0, density=p)"
            ".data['b'].tobytes()).hexdigest() "
            "for n, p in ((3000, 0.007), (300, 0.05))])")
    src = os.path.dirname(os.path.dirname(problems.__file__))
    out = [subprocess.run([sys.executable, "-c", code], check=True,
                          text=True, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src,
                               "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert out[0] == out[1] and out[0].count("'") == 4


@pytest.mark.parametrize("family", ["game-two-sided", "game-row-sided",
                                    "box-simplex", "lad"])
def test_bilinear_part_equals_bmat(family):
    # dense A holding zeros for the games and box-simplex, a sparse one for
    # LAD: M's arrays, their dtypes and the sorted flag are bmat's
    A = np.random.default_rng(11).normal(size=(7, 5))
    A[np.random.default_rng(12).random(A.shape) < 0.4] = 0.0
    A[:, 0] = A[0] = 1.0
    inst = {
        "game-two-sided": lambda: make_matrix_game(A),
        "game-row-sided": lambda: make_matrix_game(A, mode="row-sided"),
        "box-simplex": lambda: make_box_simplex(A, np.arange(7.0)),
        "lad": lambda: generate_lad(30, 20, 1.0, 5, density=0.1),
    }[family]()
    A = inst.data["A"]
    want = bmat([[None, A.T], [-A, None]], format="csr")
    got = inst.operator.linear
    for key in ("indptr", "indices", "data"):
        a, w = getattr(got, key), getattr(want, key)
        assert a.dtype == w.dtype and a.tobytes() == w.tobytes()
    assert got.shape == want.shape
    assert got.has_sorted_indices == want.has_sorted_indices


# (n, d, exponent, seed, density) beyond _CHUNK_CASES
_BUILD_CASES = {
    **_CHUNK_CASES,
    "nd-not-a-multiple-of-4": (7, 5, 1.0, 3, 0.3),
    "density-1": (5, 3, 1.0, 0, 1.0),
    "1x1": (1, 1, 1.0, 0, 1.0),
}


def _pcg64_holding_half_word():
    """A PCG64 generator holding the unused half of a 64-bit output, which
    ``advance`` would drop."""
    rng = np.random.default_rng(5)
    rng.integers(2, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    return rng


@needs_compiler
class TestLadCompiledBuild:
    """The compiled mask draw (a leapfrog PCG64) and component build give
    generate_lad's instance and generator state bit for bit."""

    @pytest.mark.parametrize("case", list(_BUILD_CASES))
    def test_equals_python_build(self, case, monkeypatch):
        n, d, exponent, seed, density = _BUILD_CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            got = generate_lad(n, d, exponent, seed, density=density)
            # the compiled mask draw and component build switched off
            monkeypatch.setattr(_kernel, "mask_drawer", lambda: None)
            monkeypatch.setattr(_kernel, "lad_builder", lambda: None)
            ref = generate_lad(n, d, exponent, seed, density=density)
        _assert_same_lad(got, ref)

    def test_components_untracked_by_collector(self, monkeypatch):
        # the compiled build's components hold only ints and floats and are
        # left to reference counting; the Python build's stay tracked
        got = generate_lad(30, 20, 1.0, 4, density=0.2)
        assert not any(map(gc.is_tracked, got.operator.components))
        monkeypatch.setattr(_kernel, "lad_builder", lambda: None)
        ref = generate_lad(30, 20, 1.0, 4, density=0.2)
        assert all(map(gc.is_tracked, ref.operator.components))
        _assert_same_lad(got, ref)

    @pytest.mark.parametrize("rows", [1, 3, 37, 10 ** 6])
    @pytest.mark.parametrize("n,d,density", [
        (40, 30, 0.05), (7, 5, 0.3), (5, 3, 1.0), (1, 1, 1.0),
        (9, 1, 0.5), (60, 50, 1e-3)])
    def test_mask_and_generator_state(self, n, d, density, rows):
        # the hits in row-major order in blocks of ``rows`` rows, and the
        # generator's next draws after them
        def draw(mask):
            rng = np.random.default_rng(np.random.SeedSequence((n, d, 303)))
            return (*mask(rng, n, d, density, rows), rng.random(3))

        got = draw(problems._draw_mask)
        ref = draw(problems._draw_mask_numpy)
        for a, r in zip(got, ref):
            assert a.dtype == r.dtype and a.tobytes() == r.tobytes()
        mask = np.random.default_rng(np.random.SeedSequence(
            (n, d, 303))).random((n, d)) < density
        np.testing.assert_array_equal(got[0] * d + got[1],
                                      np.flatnonzero(mask))

    @pytest.mark.parametrize("seed", range(4))
    def test_hit_decided_as_numpy_at_the_density(self, seed):
        # densities at the first uniform u and one ulp either side of it:
        # a draw equal to the density is no hit, one ulp below it is
        u = np.random.default_rng(seed).random()
        for density, hit in ((np.nextafter(u, 0.0), False), (u, False),
                             (np.nextafter(u, 1.0), True)):
            for mask in (problems._draw_mask, problems._draw_mask_numpy):
                rows, cols = mask(np.random.default_rng(seed), 1, 5,
                                  density, 1)
                assert (0 in cols) is hit

    @pytest.mark.parametrize("make", [
        lambda: np.random.Generator(np.random.MT19937(5)),
        lambda: np.random.Generator(np.random.PCG64DXSM(5)),
        _pcg64_holding_half_word], ids=["mt19937", "pcg64dxsm",
                                        "pcg64-half-word"])
    def test_other_generators_take_numpy(self, make, monkeypatch):
        def refuse(*args):
            raise AssertionError("compiled mask draw on another generator")

        monkeypatch.setattr(_kernel, "mask_drawer", lambda: refuse)
        got_rng, ref_rng = make(), make()
        got = problems._draw_mask(got_rng, 30, 20, 0.1, 7)
        ref = problems._draw_mask_numpy(ref_rng, 30, 20, 0.1, 7)
        for a, r in zip((*got, got_rng.random(3)), (*ref, ref_rng.random(3))):
            assert a.tobytes() == r.tobytes()

    def test_builder_rejects_bad_input(self):
        build = _kernel.lad_builder()
        flat = np.array([0, 2, 1, 3], dtype=np.intp)
        vals = np.array([1.5, -2.0])
        at = _kernel._pointer
        args = (at(flat, flat.dtype), at(vals, vals.dtype), 2)
        comps = [None, None]
        build(problems._LadComponent, comps, [0, 1, 2, 3], [0.5, 0.25],
              *args)
        assert [(c.zpos, c.ypos, c.a, c.bshare) for c in comps] == [
            (0, 2, 1.5, 0.5), (1, 3, -2.0, 0.25)]

        class Plain:
            zpos = ypos = a = bshare = None

        with pytest.raises(TypeError, match="zpos is not a slot"):
            build(Plain, [None] * 2, [0, 1, 2, 3], [0.5, 0.25], *args)
        with pytest.raises(ValueError, match="d entries more"):
            build(problems._LadComponent, [None] * 2, [0, 1, 2], [0.5, 0.25],
                  *args)
        flat[3] = 4
        comps = [None, None]
        with pytest.raises(IndexError, match="component 1"):
            build(problems._LadComponent, comps, [0, 1, 2, 3], [0.5, 0.25],
                  *args)
        # the places before the bad one are built, the rest keep None
        assert type(comps[0]) is problems._LadComponent and comps[1] is None


def _compiled_evaluate():
    """The compiled ``_LadComponent.evaluate`` that ``make_lad`` puts on
    the class."""
    make_lad(np.eye(2), np.ones(2))
    method = problems._LadComponent.__dict__["evaluate"]
    assert method is not problems._lad_evaluate
    return method


def _outcome(fn, comp, make, kwargs):
    """What ``fn(comp, *args, **kwargs)`` does on fresh arguments from
    ``make()``, which gives the arguments and the array behind ``out``:
    the result (whether it is ``out``) or the exception, the array's bytes
    afterwards, and the warnings raised."""
    args, buf = make()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = fn(comp, *args, **kwargs)
            done = ("returned", res is args[1])
        except Exception as exc:        # compared, not handled
            done = (type(exc), str(exc))
    return done, buf.tobytes(), [(w.category, str(w.message))
                                 for w in caught]


# One of each kind of double: signed zeros, subnormals, normals, values
# whose products overflow, infinities and NaN
_SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.5, 3.0e-160, 1e200,
            -1e200, math.inf, -math.inf, math.nan]


@needs_compiler
class TestLadCompiledEvaluate:
    """The compiled ``_LadComponent.evaluate`` writes the Python body's
    bits on the inputs it serves, and hands every other input to the body,
    with its result, exception, partial writes and warnings."""

    @staticmethod
    def same(comp, make, **kwargs):
        got = _outcome(_compiled_evaluate(), comp, make, kwargs)
        want = _outcome(problems._lad_evaluate, comp, make, kwargs)
        assert got == want
        return got

    @staticmethod
    def lists_and_views(values, n_out=4, at=1):
        """Makers of (x, out, at) with x the list and a memoryview of
        ``values`` and out a memoryview of a NaN array."""
        def make(view):
            buf = np.full(n_out, np.nan)
            x = (memoryview(np.array(values)) if view
                 else [float(v) for v in values])
            return (x, memoryview(buf), at), buf

        return [lambda: make(False), lambda: make(True)]

    def test_random_values(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(40).tolist()
        for t in range(200):
            zpos, ypos = rng.choice(40, 2, replace=False).tolist()
            comp = problems._LadComponent(zpos, ypos, rng.standard_normal(),
                                          rng.standard_normal())
            for make in self.lists_and_views(x, 6, t % 5):
                assert self.same(comp, make)[0] == ("returned", True)

    def test_special_values(self):
        # every pair of specials as (a, bshare), read at every pair of
        # distinct positions of x, into one buffer per method
        count = len(_SPECIAL)
        comps = [problems._LadComponent(zpos, ypos, a, b)
                 for a, b in itertools.product(_SPECIAL, repeat=2)
                 for zpos, ypos in itertools.permutations(range(count), 2)]
        compiled = _compiled_evaluate()
        for x in (list(_SPECIAL), memoryview(np.array(_SPECIAL))):
            got, want = np.full((2, 2 * len(comps)), np.nan)
            for fn, buf in ((compiled, got), (problems._lad_evaluate, want)):
                out = memoryview(buf)
                for k, comp in enumerate(comps):
                    assert fn(comp, x, out, 2 * k) is out
            assert got.tobytes() == want.tobytes()

    def test_x_aliasing_out(self):
        # x and out one buffer, through one memoryview or two: the body
        # reads x[ypos], stores out[at], reads x[zpos] (maybe that store)
        # and stores out[at + 1]
        rng = np.random.default_rng(1)
        values = rng.standard_normal(5)
        for one in (True, False):
            def make():
                buf = values.copy()
                out = memoryview(buf)
                return (out if one else memoryview(buf), out, at), buf

            for zpos, ypos, at in itertools.product(range(5), range(5),
                                                    range(4)):
                comp = problems._LadComponent(zpos, ypos, -1.25, 0.5)
                assert self.same(comp, make)[0] == ("returned", True)

    def test_slots_subclass(self):
        class Sub(problems._LadComponent):
            __slots__ = ()

        class Shadow(problems._LadComponent):
            # reads a from a property, not from the slot below it
            __slots__ = ()
            a = property(lambda self: 2.0)

        shadow = Shadow.__new__(Shadow)
        for name, v in zip(("zpos", "ypos", "a", "bshare"),
                           (3, 0, 2.5, -0.75)):
            getattr(problems._LadComponent, name).__set__(shadow, v)
        for comp in (Sub(3, 0, 2.5, -0.75), shadow):
            for make in self.lists_and_views([0.5, -1.0, 7.0, 1e200]):
                assert self.same(comp, make)[0] == ("returned", True)

    def test_ndarrays_delegated(self):
        # numpy scalar arithmetic: the body's overflow and invalid warnings
        for a, b in itertools.product([1e200, math.inf, 0.0, -1.5],
                                      [0.5, math.inf]):
            comp = problems._LadComponent(0, 1, a, b)

            def make():
                buf = np.full(4, np.nan)
                return (np.array([1e200, 0.0, 3.0]), buf, 1), buf

            self.same(comp, make)

    @pytest.mark.parametrize("case", [
        "at-1", "at-end", "at-past-end", "at-bool", "at-float",
        "read-only", "released-out", "released-x", "strided-out",
        "big-endian-out", "int-entry", "float64-entry", "short-x",
        "short-x-view", "negative-zpos", "numpy-zpos", "int-a"])
    def test_other_inputs_delegated(self, case):
        comp = problems._LadComponent(2, 0, 1e200, 0.25)
        at, n_out, entry = 1, 4, None
        if case == "at-1":
            at = -1
        elif case in ("at-end", "at-past-end"):
            at = n_out - 1 if case == "at-end" else n_out
        elif case in ("at-bool", "at-float"):
            at = True if case == "at-bool" else 1.0
        elif case in ("int-entry", "float64-entry"):
            entry = 3 if case == "int-entry" else np.float64(1e200)
        elif case in ("short-x", "short-x-view"):
            comp = problems._LadComponent(7, 0, 1.5, 0.25)
        elif case == "negative-zpos":
            comp = problems._LadComponent(-1, 0, 1.5, 0.25)
        elif case == "numpy-zpos":
            comp = problems._LadComponent(np.intp(2), 0, 1.5, 0.25)
        elif case == "int-a":
            comp = problems._LadComponent(2, 0, 3, 0.25)

        def make():
            # the arrays behind a released view stay alive, so that a view
            # served after its release would write or read them
            buf = np.full(2 * n_out if case == "strided-out" else n_out,
                          np.nan, dtype=">f8" if case == "big-endian-out"
                          else float)
            out = memoryview(buf[::2] if case == "strided-out" else buf)
            if case == "read-only":
                out = out.toreadonly()
            x = [0.5, -2.0, 1e200]
            if entry is not None:
                x[2] = entry
            if case in ("released-x", "short-x-view"):
                x = memoryview(kept.setdefault("x", np.array(x)))
            if case == "released-x":
                x.release()
            if case == "released-out":
                out.release()
            return (x, out, at), buf

        kept = {}
        self.same(comp, make)

    def test_keywords_and_argument_counts(self):
        comp = problems._LadComponent(2, 0, -1.5, 0.25)
        make = self.lists_and_views([0.5, -2.0, 3.0])[1]

        def shift(args):
            def made():
                (x, out, at), buf = make()
                return args(x, out, at), buf
            return made

        for args in (lambda x, out, at: (x, out),
                     lambda x, out, at: (x, out, at, None), lambda *a: ()):
            done = self.same(comp, shift(args))[0]
            assert done[0] is TypeError
        done = self.same(comp, make, bad=1)
        assert done[0][0] is TypeError
        done = self.same(comp, shift(lambda x, out, at: (x, out)), at=1)
        assert done[0] == ("returned", True)
        done = self.same(comp, shift(lambda x, out, at: (x, out)), bad=1)
        assert done[0][0] is TypeError

    def test_unset_slot_delegated(self):
        comp = problems._LadComponent.__new__(problems._LadComponent)
        make = self.lists_and_views([0.5, -2.0, 3.0])[0]
        assert self.same(comp, make)[0][0] is AttributeError

    def test_self_of_another_type_rejected(self):
        method = _compiled_evaluate()
        for other in (object(), 3, problems._GameRowComponent.__new__(
                problems._GameRowComponent)):
            with pytest.raises(TypeError, match="evaluate"):
                method(other, [0.0, 1.0], memoryview(np.zeros(2)), 0)

    def test_method_bound_to_its_class(self):
        make = _kernel.lad_evaluator()
        cls, body = problems._LadComponent, problems._lad_evaluate
        assert make(cls, body) is _compiled_evaluate()

        class Plain:
            zpos = ypos = a = bshare = None

        with pytest.raises(TypeError, match="zpos is not a slot"):
            make(Plain, body)
        with pytest.raises(TypeError, match="bound to"):
            make(cls, lambda *args: None)

        class Sub(cls):
            __slots__ = ()

        with pytest.raises(TypeError, match="bound to"):
            make(Sub, body)


def _flat_outcome(op, x):
    """What ``op.evaluate_flat(x)`` does: the bytes of its result or the
    exception, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            done = ("returned", op.evaluate_flat(x).tobytes())
        except Exception as exc:        # compared, not handled
            done = (type(exc), str(exc))
    return done, [(w.category, str(w.message)) for w in caught]


def _lad_operator(pairs, d, comps=None):
    """An operator on d coordinates whose component k reads and writes
    ``pairs[k]``, with the layout of ``make_lad``; its components are
    ``comps``, or LAD components with random a and bshare."""
    if comps is None:
        rng = np.random.default_rng(len(pairs))
        comps = [problems._LadComponent(z, y, *rng.standard_normal(2).tolist())
                 for z, y in pairs]
    flat = np.array(pairs, dtype=np.intp).ravel()
    return FiniteSumOperator(comps, d,
                             layout=(flat, 2 * np.arange(len(pairs) + 1)))


class _ScalarPair(Component):
    """A component of another type that declares ``scalar_io``: (x0, -x1)
    on coordinates 0 and 1."""

    __slots__ = ()
    __init__ = object.__init__
    scalar_io = True
    out_idx = in_idx = np.array([0, 1])

    def evaluate(self, x, out, at):
        out[at] = x[0]
        out[at + 1] = -x[1]
        return out


@needs_compiler
class TestLadBulkEvaluate:
    """``evaluate_flat``'s compiled loop (``_kernel.bulk_evaluator``) gives
    the per-component loop's bytes, exception or warnings, and hands the
    loop every component from the first it does not serve on."""

    @staticmethod
    def same(op, x, monkeypatch):
        """The outcome of ``evaluate_flat(x)``, checked equal with the
        class's evaluate wrapped, which forces the per-component loop, and
        the number of components the compiled loop served (None where
        it was not called)."""
        _compiled_evaluate()
        served = []
        real = _kernel.bulk_evaluator()

        def bulk(*args):
            served.append(real(*args))
            return served[-1]

        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "bulk_evaluator", lambda: bulk)
            got = _flat_outcome(op, x)
            inner = problems._LadComponent.__dict__["evaluate"]
            patch.setattr(problems._LadComponent, "evaluate",
                          lambda self, x, out, at: inner(self, x, out, at))
            want = _flat_outcome(op, x)
        assert got == want
        assert len(served) <= 2
        # the wrapped class: the loop takes every component
        assert served[1:] in ([], [0])
        return got, served[0] if served else None

    def test_random_instances(self, monkeypatch):
        for n, d, density, seed in ((7, 5, 1.0, 0), (40, 30, 0.2, 1),
                                    (120, 90, 0.05, 2)):
            inst = generate_lad(n, d, 1.0, seed, density=density)
            op = inst.operator
            x = np.random.default_rng(seed).standard_normal(op.d)
            (done, _), served = self.same(op, x, monkeypatch)
            assert done[0] == "returned" and served == op.m

    def test_special_values(self, monkeypatch):
        # every pair of specials as (a, bshare), read at every pair of
        # distinct positions of x, which holds the specials
        count = len(_SPECIAL)
        pairs = list(itertools.permutations(range(count), 2))
        comps = [problems._LadComponent(zpos, ypos, a, b)
                 for a, b in itertools.product(_SPECIAL, repeat=2)
                 for zpos, ypos in pairs]
        op = _lad_operator(pairs * count ** 2, count, comps)
        (done, caught), served = self.same(op, np.array(_SPECIAL),
                                           monkeypatch)
        assert done[0] == "returned" and served == op.m and not caught

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("case", [
        "int-a", "float64-bshare", "zpos-past-x", "negative-ypos", "unset",
        "subclass", "other-scalar-type"])
    def test_stops_at_what_it_does_not_serve(self, case, where,
                                             monkeypatch):
        d, m = 6, 9
        rng = np.random.default_rng(3)
        pairs = [tuple(rng.choice(d, 2, replace=False).tolist())
                 for _ in range(m)]
        op = _lad_operator(pairs, d)
        j = {"first": 0, "middle": m // 2, "last": m - 1}[where]
        z, y = pairs[j]

        class Sub(problems._LadComponent):
            __slots__ = ()

        op.components[j] = {
            "int-a": lambda: problems._LadComponent(z, y, 3, 0.5),
            "float64-bshare": lambda: problems._LadComponent(
                z, y, 1.5, np.float64(0.5)),
            "zpos-past-x": lambda: problems._LadComponent(d, y, 1.5, 0.5),
            "negative-ypos": lambda: problems._LadComponent(z, -1, 1.5, 0.5),
            "unset": lambda: problems._LadComponent.__new__(
                problems._LadComponent),
            "subclass": lambda: Sub(z, y, 1.5, 0.5),
            "other-scalar-type": _ScalarPair,
        }[case]()
        x = rng.standard_normal(d)
        (done, _), served = self.same(op, x, monkeypatch)
        assert served == j
        assert done[0] == {"zpos-past-x": IndexError,
                           "unset": AttributeError}.get(case, "returned")

    def test_mixed_operator_takes_the_loop(self, monkeypatch):
        # with a component that does not declare scalar_io, the LAD
        # components are handed ndarrays, on which they warn as numpy does
        comps = [problems._LadComponent(0, 1, 1e200, 0.5),
                 problems._LadComponent(1, 2, -1.5, 0.25),
                 CallableComponent([0, 2], [0, 2], lambda x: x[[0, 2]])]
        op = FiniteSumOperator(comps, 3)
        (done, caught), served = self.same(
            op, np.array([1e200, 2.0, -3.0]), monkeypatch)
        assert served is None and done[0] == "returned" and caught

    @pytest.mark.parametrize("form", [
        "float32", "int64", "big-endian", "strided", "2-d", "short"])
    def test_x_forms(self, form, monkeypatch):
        inst = generate_lad(20, 15, 1.0, 4, density=0.3)
        op = inst.operator
        x = np.random.default_rng(4).standard_normal(2 * op.d)
        x = {"float32": lambda: x[:op.d].astype(np.float32),
             "int64": lambda: (10 * x[:op.d]).astype(np.int64),
             "big-endian": lambda: x[:op.d].astype(">f8"),
             "strided": lambda: x[::2],
             "2-d": lambda: x[:op.d].reshape(1, -1),
             "short": lambda: x[:op.d - 1]}[form]()
        (done, _), served = self.same(op, x, monkeypatch)
        if form == "short":
            # the components up to the first that reads the last coordinate
            last = op.d - 1
            first = int(np.flatnonzero(
                (op.out_all.reshape(-1, 2) == last).any(axis=1))[0])
            assert served == first and done[0] is IndexError
        elif form == "2-d":
            assert served == 0 and done[0] != "returned"
        else:
            assert served == 0 and done[0] == "returned"

    def test_references_kept(self):
        # the loop takes no reference it does not give back
        # (positions past the small ints, whose counts others change)
        _compiled_evaluate()
        rng = np.random.default_rng(5)
        d = 400
        op = _lad_operator([tuple(rng.choice(np.arange(300, d), 2,
                                             replace=False).tolist())
                            for _ in range(20)], d)
        bulk = _kernel.bulk_evaluator()
        x, flat = np.linspace(-1.0, 1.0, d), np.empty(op.out_all.size)
        held = [x, flat, op.components, op.offsets,
                *(getattr(c, name) for c in op.components[:3]
                  for name in ("zpos", "ypos", "a", "bshare"))]
        before = [sys.getrefcount(obj) for obj in held]
        for _ in range(10 ** 4):
            assert bulk(op.components, x, flat, op.offsets) == op.m
        assert [sys.getrefcount(obj) for obj in held] == before


class TestLadEvaluateInstall:
    """``make_lad`` puts the compiled method on the class only in place of
    the Python body, and each oracle call stays one ``evaluate`` call."""

    def test_class_takes_what_the_library_gives(self):
        # with a compiler, the compiled method; under --no-compiler (no
        # library) the Python body stays
        make_lad(np.eye(2), np.ones(2))
        got = problems._LadComponent.__dict__["evaluate"]
        make = _kernel.lad_evaluator()
        if make is None:
            assert got is problems._lad_evaluate
        else:
            assert got is make(problems._LadComponent,
                               problems._lad_evaluate)

    def test_body_kept_without_library(self, monkeypatch):
        monkeypatch.setattr(problems._LadComponent, "evaluate",
                            problems._lad_evaluate)
        monkeypatch.setattr(_kernel, "lad_evaluator", lambda: None)
        make_lad(np.eye(2), np.ones(2))
        assert (problems._LadComponent.__dict__["evaluate"]
                is problems._lad_evaluate)

    @needs_compiler
    def test_patch_survives_make_lad(self, monkeypatch):
        compiled = _compiled_evaluate()

        def patched(self, x, out, at):
            return compiled(self, x, out, at)

        with monkeypatch.context() as patch:
            patch.setattr(problems._LadComponent, "evaluate", patched)
            make_lad(np.eye(2), np.ones(2))
            assert problems._LadComponent.__dict__["evaluate"] is patched
        # undone, the compiled method is back
        assert problems._LadComponent.__dict__["evaluate"] is compiled
        # a class back on the Python body gets it at the next make_lad
        monkeypatch.setattr(problems._LadComponent, "evaluate",
                            problems._lad_evaluate)
        make_lad(np.eye(2), np.ones(2))
        assert problems._LadComponent.__dict__["evaluate"] is compiled

    @pytest.mark.parametrize("mode", ["dense", "lazy"])
    def test_one_call_per_oracle_call(self, mode, monkeypatch):
        # a counting wrapper on the class, put there after or before the
        # instance is built, sees every oracle call as one evaluate call: m
        # for evaluate_flat, evaluate_full, gap_fixed and the table, 2m a
        # pair for lpq_empirical, m + 2 an iteration for REM on both loop
        # paths, 2m an iteration for mirror-prox and m for Popov; and the
        # wrapped calls give the unwrapped ones' bits
        K = 40
        cfg = SolverConfig(iterations=K, seed=0, mode=mode,
                           eval_metrics=())

        def outputs(inst):
            """(name, oracle calls, output) of each caller on inst."""
            op, geom, m = inst.operator, inst.geometry, inst.m
            plan = problem_plan(inst)
            x = np.random.default_rng(1).uniform(-1.0, 1.0, op.d)
            yield "evaluate_flat", m, op.evaluate_flat(x)
            yield "evaluate_full", m, op.evaluate_full(x)
            yield "table", m, ComponentTable(op, x).values
            yield "gap_fixed", m, gap_fixed(inst, x, geom.x0)
            flats = []
            op.evaluate_flat = lambda x: flats.append(x) or type(
                op).evaluate_flat(op, x)
            est = lpq_empirical(op, geom, plan.p, plan.q, 6,
                                np.random.default_rng(2))
            del op.evaluate_flat
            assert flats and len(flats) % 2 == 0
            yield "lpq_empirical", m * len(flats), est
            with monkeypatch.context() as patch:
                for path in loop_paths(patch):
                    yield path, m + 2 * K, run(inst, plan, cfg)
            for method, per in (("mirror-prox", 2), ("popov", 1)):
                trace = run_baseline(inst, BaselineConfig(
                    method, K, eval_metrics=()))
                assert trace.oracle_calls == per * m * K
                yield method, per * m * K, trace

        def same(a, b):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            elif isinstance(a, float):
                assert a == b
            elif "fhat_last" in a.info:
                assert_runs_bitwise_equal(a, b)
            else:
                assert ([vars(r) | {"elapsed_ns": 0} for r in a.records]
                        == [vars(r) | {"elapsed_ns": 0} for r in b.records])
                np.testing.assert_array_equal(a.final_x, b.final_x)
                np.testing.assert_array_equal(a.x_bar, b.x_bar)

        make = functools.partial(generate_lad, 30, 25, 1.0, 3, density=0.2)
        want = list(outputs(make()))
        inner = problems._LadComponent.__dict__["evaluate"]
        calls = []

        def counted(self, x, out, at):
            calls.append(at)
            return inner(self, x, out, at)

        for before in (False, True):
            with monkeypatch.context() as patch:
                if before:
                    patch.setattr(problems._LadComponent, "evaluate",
                                  counted)
                inst = make()
                patch.setattr(problems._LadComponent, "evaluate", counted)
                for (name, count, got), (_, _, ref) in zip(outputs(inst),
                                                           want):
                    assert len(calls) == count, (before, name)
                    same(got, ref)
                    calls.clear()
                assert problems._LadComponent.__dict__["evaluate"] is counted
            assert problems._LadComponent.__dict__["evaluate"] is inner


class TestPolicyEval:
    sym_P = np.array([[0.5, 0.5], [0.5, 0.5]])

    def test_two_state_closed_form(self):
        # (I - beta P) x = 1 with P 1 = 1 gives x = (2, 2)
        x = solve_policy_eval_direct(self.sym_P, np.eye(2), np.ones(2), 0.5)
        np.testing.assert_allclose(x, [2.0, 2.0], rtol=1e-12)

    def test_zero_rewards(self):
        x = solve_policy_eval_direct(self.sym_P, np.eye(2), np.zeros(2), 0.5)
        np.testing.assert_allclose(x, 0.0, atol=1e-14)

    def test_beta_zero_identity_features(self):
        R = np.array([0.3, -0.7])
        x = solve_policy_eval_direct(self.sym_P, np.eye(2), R, 0.0)
        np.testing.assert_allclose(x, R, rtol=1e-12)

    def test_singular_system_rejected(self):
        with pytest.raises(ValueError):
            solve_policy_eval_direct(self.sym_P, np.zeros((2, 2)), np.ones(2), 0.5)

    @pytest.mark.parametrize("n, dim, seed", [(6, 3, 4), (10, 5, 5),
                                              (40, 6, 1)])
    def test_system_built_once(self, n, dim, seed, monkeypatch):
        # generate_policy_eval and make_policy_eval each run one power
        # iteration, and solve with the B they build: the reference is the
        # direct solve's, bit for bit, and both build the same instance
        calls = []
        power = problems.stationary_distribution
        monkeypatch.setattr(problems, "stationary_distribution",
                            lambda P: calls.append(1) or power(P))
        inst = generate_instance("policy-eval", n, dim, 0.0, seed)
        assert len(calls) == 1
        data = inst.data
        again = make_policy_eval(data["P"], data["Phi"], data["R"],
                                 data["beta"], data["mu"])
        assert len(calls) == 2
        assert again.data["pi"].tobytes() == data["pi"].tobytes()
        x = np.linspace(-1.0, 1.0, dim)
        assert (again.operator.evaluate_flat(x).tobytes()
                == inst.operator.evaluate_flat(x).tobytes())
        assert again.profile.lam.tobytes() == inst.profile.lam.tobytes()
        direct = solve_policy_eval_direct(data["P"], data["Phi"], data["R"],
                                          data["beta"])
        assert inst.reference.tobytes() == direct.tobytes()
        assert again.reference.tobytes() == direct.tobytes()

    def test_zero_features_operator_is_negative_shift(self):
        mu = 0.4
        inst = make_policy_eval(self.sym_P, np.zeros((2, 2)), np.ones(2), 0.5, mu)
        rng = np.random.default_rng(0)
        x = rng.normal(size=2)
        np.testing.assert_allclose(inst.operator.evaluate_full(x), -mu * x,
                                   atol=1e-14)
        assert inst.reference is None  # singular system, no direct solve
        assert inst.gamma == mu

    def test_operator_matches_matrix_form(self):
        inst = generate_instance("policy-eval", 6, 3, 0.0, seed=8)
        P, Phi, R = inst.data["P"], inst.data["Phi"], inst.data["R"]
        beta, mu, pi = inst.data["beta"], inst.data["mu"], inst.data["pi"]
        M = np.diag(pi)
        rng = np.random.default_rng(1)
        x = rng.normal(size=inst.d)
        expect = Phi.T @ M @ (Phi @ x - R - beta * (P @ Phi) @ x) - mu * x
        np.testing.assert_allclose(inst.operator.evaluate_full(x), expect,
                                   atol=1e-12)

    def test_reference_solves_stationarity(self):
        inst = generate_instance("policy-eval", 6, 3, 0.0, seed=8)
        mu = inst.data["mu"]
        # F(x*) + grad g(x*) = 0
        resid = inst.operator.evaluate_full(inst.reference) + mu * inst.reference
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)

    def test_exact_lambda_vs_printed(self):
        inst = generate_instance("policy-eval", 6, 3, 0.0, seed=8)
        printed = inst.data["lambda_printed"]
        assert printed.shape == inst.profile.lam.shape
        # exact spectral norms never fall below the mu floor per component
        weights = np.array([c.weight for c in inst.operator.components])
        assert np.all(inst.profile.lam >= weights * inst.data["mu"] - 1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_policy_eval(np.array([[0.7, 0.2], [0.5, 0.5]]), np.eye(2),
                             np.ones(2), 0.5, 0.1)
        with pytest.raises(ValueError):
            make_policy_eval(self.sym_P, np.eye(2), np.ones(2), 1.5, 0.1)
        with pytest.raises(ValueError):
            make_policy_eval(self.sym_P, np.eye(2), np.ones(2), 0.5, 0.0)


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        np.testing.assert_allclose(stationary_distribution(self_P()), [0.5, 0.5])

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="not unique"):
            stationary_distribution(np.eye(2))

    def test_two_state_closed_form(self):
        P = np.array([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(stationary_distribution(P), [5 / 6, 1 / 6],
                                   rtol=1e-9)

    def test_cyclic_permutation_uniform(self):
        P = np.roll(np.eye(4), 1, axis=1)
        np.testing.assert_allclose(stationary_distribution(P), 0.25, rtol=1e-9)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(5), size=5)
        pi = stationary_distribution(P)
        assert np.sum(np.abs(pi @ P - pi)) <= 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def self_P():
    return np.array([[0.5, 0.5], [0.5, 0.5]])


class TestGapDominance:
    @pytest.mark.parametrize("inst", [i for i in problem_instances_for_tests()
                                      if i.family in ("matrix-game", "box-simplex")],
                             ids=lambda i: i.family)
    def test_sup_dominates_fixed(self, inst):
        rng = np.random.default_rng(17)
        for _ in range(1000 // 4):
            cand = inst.sample_feasible(rng)
            comp = inst.sample_feasible(rng)
            assert inst.sup_gap(cand) >= gap_fixed(inst, cand, comp) - 1e-10


class TestGenerators:
    def test_shape_uniform(self):
        lam = lipschitz_shape(10, 0.0)
        np.testing.assert_allclose(lam, 1.0)
        inst = generate_lad(10, 10, 0.0, seed=0)
        prof = inst.profile
        # uniform case of the norm identity: (sum sqrt(L))^2 = m^2 max(L)
        assert prof.norm_half / (inst.m ** 2 * prof.norm_inf) == pytest.approx(1.0)

    def test_shape_concentration(self):
        lam = lipschitz_shape(100, 3.0)
        prof_ratio = np.sum(np.sqrt(lam)) ** 2 / lam.max()
        assert prof_ratio <= 10.0

    def test_reproducible(self):
        a = generate_instance("lad", 8, 6, 2.0, seed=5, density=0.5)
        b = generate_instance("lad", 8, 6, 2.0, seed=5, density=0.5)
        np.testing.assert_array_equal(a.data["A"].toarray(),
                                      b.data["A"].toarray())
        np.testing.assert_array_equal(a.data["b"], b.data["b"])

    def test_lad_rows_covered(self):
        inst = generate_instance("lad", 12, 7, 1.0, seed=9, density=0.15)
        A = inst.data["A"]
        assert np.abs(A).max(axis=1).min() > 0.0
        assert np.abs(A).max(axis=0).min() > 0.0


@pytest.mark.parametrize("inst", problem_instances_for_tests(),
                         ids=lambda i: i.family)
def test_save_load_roundtrip(inst, tmp_path):
    base = str(tmp_path / "inst")
    save_instance(inst, base)
    loaded = load_instance(base)
    assert loaded.family == inst.family
    assert loaded.m == inst.m
    rng = np.random.default_rng(0)
    x = inst.sample_feasible(rng)
    np.testing.assert_allclose(loaded.operator.evaluate_full(x),
                               inst.operator.evaluate_full(x), atol=1e-12)
    np.testing.assert_allclose(loaded.profile.lam, inst.profile.lam, rtol=1e-12)
