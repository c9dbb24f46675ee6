import gc
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from helpers import loop_paths, needs_compiler, slot, value
from remvi import _kernel, operators
from remvi.geometry import GeometryBundle, euclidean_block
from remvi.operators import (CallableComponent, ComponentTable,
                             FiniteSumOperator, LipschitzProfile,
                             _max_pair_ratio, empirical_full_lipschitz,
                             load_matrix_market, lpq_bound, lpq_empirical)
from remvi.problems import (generate_box_simplex, generate_instance,
                            generate_lad, generate_matrix_game,
                            generate_policy_eval, load_instance, make_custom,
                            make_lad, make_matrix_game,
                            problem_instances_for_tests, save_instance)
from remvi.sampling import problem_plan
from remvi.solver import SolverConfig, run


class TestComponentEvaluation:
    def test_lad_single_entry(self):
        inst = make_lad(np.array([[2.0]]), np.array([3.0]))
        x = np.array([1.0, 0.5])  # z=1, y=0.5
        c = inst.operator.components[0]
        idx, vals = c.out_idx, value(c, x)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_single_component_equals_full(self):
        comp = CallableComponent(np.arange(3), np.arange(3), lambda x: 2.0 * x)
        op = FiniteSumOperator([comp], 3)
        x = np.array([1.0, -2.0, 0.5])
        idx, vals = comp.out_idx, value(op.components[0], x)
        full = op.evaluate_full(x)
        np.testing.assert_array_equal(full[idx], vals)

    def test_game_row_component_zero_dual(self):
        inst = make_matrix_game(np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = np.array([0.5, 0.5, 0.0, 1.0])  # y_0 = 0
        vals = value(inst.operator.components[0], x)
        np.testing.assert_array_equal(vals, np.zeros(2))

    def test_full_matrix_game(self):
        # F = (A'y, -Az) at z = y = (1/2, 1/2), hand matrix-vector products
        inst = make_matrix_game(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = np.array([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(inst.operator.evaluate_full(x),
                                   [0.5, 0.5, -0.5, -0.5], atol=1e-15)

    def test_purity(self):
        inst = generate_instance("matrix-game", 4, 5, 1.0, seed=0)
        x = inst.sample_feasible(np.random.default_rng(0))
        np.testing.assert_array_equal(inst.operator.evaluate_full(x),
                                      inst.operator.evaluate_full(x))

    @pytest.mark.parametrize("inst", problem_instances_for_tests(),
                             ids=lambda i: i.family)
    def test_components_sum_to_full(self, inst):
        rng = np.random.default_rng(11)
        op = inst.operator
        for _ in range(1000 // 4):
            x = inst.sample_feasible(rng)
            total = np.zeros(op.d)
            for c in op.components:
                np.add.at(total, c.out_idx, value(c, x))
            full = op.evaluate_full(x)
            scale = max(1.0, np.max(np.abs(full)))
            np.testing.assert_allclose(total, full, rtol=0, atol=1e-10 * scale)


def add_at_sum(op, x):
    """The full operator summed the way it was before the single scatter:
    one np.add.at per component, in component order."""
    out = np.zeros(op.d)
    for c in op.components:
        np.add.at(out, c.out_idx, value(c, x))
    return out


class TestEvaluateFull:
    @pytest.mark.parametrize("inst", problem_instances_for_tests(),
                             ids=lambda i: i.family)
    def test_equals_per_component_add_at(self, inst):
        rng = np.random.default_rng(12)
        for sharp in (False, True) * 5:
            x = inst.geometry.sample_domain(rng, sharp=sharp)
            np.testing.assert_array_equal(inst.operator.evaluate_full(x),
                                          add_at_sum(inst.operator, x))

    def test_callable_components_equal_add_at(self):
        # overlapping supports, an empty support and values over 16 orders
        # of magnitude
        rng = np.random.default_rng(13)
        comps = [CallableComponent([3, 1, 5], [0, 2],
                                   lambda x: np.array([x[0], -x[2], 1e8 * x[0]])),
                 CallableComponent([], [4], lambda x: np.empty(0))]
        for _ in range(30):
            out = rng.choice(6, size=int(rng.integers(1, 5)), replace=False)
            scale = rng.standard_normal(out.size) * 10.0 ** rng.integers(-8, 8)
            comps.append(CallableComponent(
                out, out, (lambda o, s: lambda x: s * x[o] + s)(out, scale)))
        op = FiniteSumOperator(comps, 6)
        for _ in range(20):
            x = rng.standard_normal(6)
            np.testing.assert_array_equal(op.evaluate_full(x), add_at_sum(op, x))

    def test_repeated_output_coordinate_rejected(self):
        # a table refresh adds through fancy indexing, which drops repeats,
        # while the explicit sum counts them: a support [0, 0] refreshed
        # from (1, 1) to (10, 20) would leave the aggregate at 21, not 30

        def fn(x):
            return np.array([1.0, 1.0]) + x[0] * np.array([9.0, 19.0])

        bad = CallableComponent.__new__(CallableComponent)  # skips the check
        bad.out_idx = bad.in_idx = np.array([0, 0])
        bad.fn = fn
        table = ComponentTable(FiniteSumOperator([bad], 1), np.zeros(1))
        table.refresh(0, np.ones(1), 1)     # fn returns (10, 20) there
        assert table.values.tolist() == [10.0, 20.0]
        assert table.aggregate[0] == 21.0
        assert table.explicit_sum()[0] == 30.0
        with pytest.raises(ValueError, match="repeats a coordinate"):
            CallableComponent([0, 0], [0], fn)
        CallableComponent([0, 1], [0, 0], fn)      # reads may repeat

    @pytest.mark.parametrize(
        "reads, bad", [(False, -1), (False, 3), (False, 7),
                       (True, -1), (True, 3), (True, 7)],
        ids=["-1", "3", "7", "reads--1", "reads-3", "reads-7"])
    def test_out_of_range_support_rejected(self, reads, bad):
        ok = CallableComponent([0, 2], [0], lambda x: np.zeros(2))
        if reads:
            wrong = CallableComponent([0, 1], [bad, 2], lambda x: np.zeros(2))
        else:
            wrong = CallableComponent([1, bad], [0], lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            FiniteSumOperator([ok, wrong], 3)
        FiniteSumOperator([ok], 3)


def linear_cases():
    """One instance per built-in constructor path, keyed by a test id."""
    rng = np.random.default_rng(30)
    A = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.6)
    A[np.arange(5), np.arange(5)] = 1.5
    A[5:, 0] = -0.5
    b = rng.normal(size=7)
    return {
        "game-two-sided": generate_matrix_game(6, 4, 1.0, seed=1),
        "game-row-sided": generate_matrix_game(6, 4, 1.0, seed=1,
                                               mode="row-sided"),
        "box-simplex": generate_box_simplex(5, 6, 1.0, seed=2),
        "lad-dense": make_lad(A, b),
        "lad-sparse": make_lad(csr_matrix(A), b),
        "lad-quad": generate_lad(8, 6, 1.0, seed=3, density=0.5, quad=0.3),
        "policy-eval": generate_policy_eval(6, 3, seed=4),
    }


LINEAR_CASES = linear_cases()


def assert_linear_exact(inst, seed):
    """M(x - y) equals F(x) - F(y) to 1e-12 of the values' magnitude at
    random feasible pairs, interior and sharp."""
    op, geom = inst.operator, inst.geometry
    rng = np.random.default_rng(seed)
    for sharp in (False, True) * 10:
        x = geom.sample_domain(rng, sharp=sharp)
        y = geom.sample_domain(rng, sharp=sharp)
        fx, fy = op.evaluate_full(x), op.evaluate_full(y)
        scale = max(np.max(np.abs(fx)), np.max(np.abs(fy)))
        np.testing.assert_allclose(op.linear @ (x - y), fx - fy,
                                   rtol=0, atol=1e-12 * scale)


class TestLinearPart:
    @pytest.mark.parametrize("name", sorted(LINEAR_CASES))
    def test_differences_are_matvecs(self, name):
        assert_linear_exact(LINEAR_CASES[name], 31)

    @pytest.mark.parametrize("name", sorted(LINEAR_CASES))
    def test_survives_save_and_load(self, name, tmp_path):
        inst = LINEAR_CASES[name]
        base = str(tmp_path / "inst")
        save_instance(inst, base)
        loaded = load_instance(base)
        assert loaded.operator.linear is not None
        assert_linear_exact(loaded, 32)

    @pytest.mark.parametrize("name", sorted(LINEAR_CASES))
    def test_estimate_equals_fallback(self, name):
        # the same instance without its linear part takes the evaluate_full
        # path, over the same pairs
        inst = LINEAR_CASES[name]
        op, geom = inst.operator, inst.geometry
        plain = FiniteSumOperator(op.components, op.d)
        assert plain.linear is None
        via_m = empirical_full_lipschitz(op, geom, 200,
                                         np.random.default_rng(33))
        fallback = empirical_full_lipschitz(plain, geom, 200,
                                            np.random.default_rng(33))
        assert via_m == pytest.approx(fallback, rel=1e-12, abs=0)

    def test_custom_operator_has_none(self):
        geom = GeometryBundle([euclidean_block(np.arange(2))])
        comp = CallableComponent([0, 1], [0, 1], lambda x: 2.0 * x)
        assert make_custom([comp], geom, [2.0]).operator.linear is None

    @pytest.mark.parametrize("linear", [np.zeros((3, 2)), np.zeros((2, 2)),
                                        np.zeros(3), csr_matrix((3, 4))],
                             ids=["3x2", "2x2", "vector", "sparse-3x4"])
    def test_wrong_shape_rejected(self, linear):
        comp = CallableComponent([0], [0], lambda x: x[:1])
        with pytest.raises(ValueError, match="shape"):
            FiniteSumOperator([comp], 3, linear=linear)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        comp = CallableComponent([0], [0], lambda x: x[:1])
        dense = np.eye(3)
        dense[1, 2] = bad
        for linear in (dense, csr_matrix(dense)):
            with pytest.raises(ValueError, match="non-finite"):
                FiniteSumOperator([comp], 3, linear=linear)
        FiniteSumOperator([comp], 3, linear=csr_matrix(np.eye(3)))


def custom_csr_case(wide=False):
    """A CSR linear part on a custom Euclidean geometry: weights, a box, a
    lower and an upper bound alone, non-zero anchors, blocks out of order
    (so ``_eu_sel`` is an index array), an empty row and, with ``wide``,
    int64 index arrays."""
    geom = GeometryBundle([
        euclidean_block(np.arange(4, 7), anchor=[0.3, -1.2, 2.0],
                        weights=[0.5, 2.0, 1.0], lo=[-1.0, -np.inf, 1.5]),
        euclidean_block(np.arange(4), anchor=[0.1, -0.2, 0.0, 0.4],
                        lo=-0.5, hi=[0.5, 0.25, 2.0, 1.0]),
        euclidean_block(np.arange(7, 9), anchor=[-0.3, 0.1],
                        weights=[3.0, 0.2], hi=0.2),
    ])
    assert not isinstance(geom._eu_sel, slice)
    dense = np.random.default_rng(48).normal(size=(9, 9))
    dense[np.random.default_rng(49).random((9, 9)) < 0.5] = 0.0
    dense[5] = 0.0
    M = csr_matrix(dense)
    if wide:
        M.indices, M.indptr = (M.indices.astype(np.int64),
                               M.indptr.astype(np.int64))
    comp = CallableComponent(np.arange(9), np.arange(9), lambda x: M @ x)
    op = FiniteSumOperator([comp], 9, linear=M)
    assert op.linear.indices.dtype == (np.int64 if wide else np.int32)
    return op, geom


def estimate_cases():
    """(operator, geometry) pairs whose estimate takes the compiled pairs:
    LAD at the lad-mirror-prox shape, at density 1, with a one-entry row and
    with quad > 0, and the custom CSR cases."""
    one_entry = np.random.default_rng(50).normal(size=(6, 5))
    one_entry[2] = 0.0
    one_entry[2, 3] = 1.25
    insts = {
        "lad-300x300": generate_lad(300, 300, 1.0, 21, density=0.05),
        "lad-density-1": generate_lad(7, 5, 1.0, 3, density=1.0),
        "lad-one-entry-row": make_lad(one_entry, np.arange(6.0)),
        "lad-quad": generate_lad(40, 30, 1.0, 4, density=0.2, quad=0.3),
    }
    cases = {k: (v.operator, v.geometry) for k, v in insts.items()}
    cases["custom"] = custom_csr_case()
    cases["custom-int64"] = custom_csr_case(wide=True)
    return cases


ESTIMATE_CASES = estimate_cases()


def loop_estimate(monkeypatch, op, geom, trials, rng):
    """``empirical_full_lipschitz`` with the compiled pairs switched off:
    the numpy loop."""
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "pair_ratio", lambda: None)
        return empirical_full_lipschitz(op, geom, trials, rng)


def underflow_case():
    """One coordinate whose weight is the least subnormal, so that the
    weighted norm of a difference below about 0.7 rounds to 0 while M d,
    read on an unweighted coordinate, does not: such a pair is skipped as
    degenerate.  M's entry keeps the other ratios finite."""
    geom = GeometryBundle([
        euclidean_block([0], weights=[5e-324]),
        euclidean_block([1], lo=0.0, hi=0.0),
    ])
    M = csr_matrix(np.array([[0.0, 0.0], [1e-8, 0.0]]))
    comp = CallableComponent([0, 1], [0, 1], lambda x: M @ x)
    return FiniteSumOperator([comp], 2, linear=M), geom


@needs_compiler
class TestCompiledEstimate:
    """The compiled pairs of empirical_full_lipschitz give the numpy loop's
    estimate as the same double and leave the generator where it does."""

    @pytest.mark.parametrize("trials", [1, 2, 57, 200])
    @pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
    def test_equals_loop(self, name, trials, monkeypatch):
        op, geom = ESTIMATE_CASES[name]
        calls = []
        pair_ratio = _kernel.pair_ratio()

        def counted(*args):
            calls.append(args[3:])
            return pair_ratio(*args)

        monkeypatch.setattr(_kernel, "pair_ratio", lambda: counted)
        for seed in (0, 1, 2):
            r_c = np.random.default_rng(seed)
            r_py = np.random.default_rng(seed)
            got = empirical_full_lipschitz(op, geom, trials, r_c)
            want = loop_estimate(monkeypatch, op, geom, trials, r_py)
            assert type(got) is float and got.hex() == want.hex()
            assert r_c.random(4).tobytes() == r_py.random(4).tobytes()
        # blocks of at most 8 pairs, in order, for each seed
        assert calls == 3 * [(t0, min(8, trials - t0))
                             for t0 in range(0, trials, 8)]

    def test_norm_underflowing_to_zero_is_skipped(self, monkeypatch):
        op, geom = underflow_case()
        got = empirical_full_lipschitz(op, geom, 200,
                                       np.random.default_rng(5))
        want = loop_estimate(monkeypatch, op, geom, 200,
                             np.random.default_rng(5))
        assert got.hex() == want.hex() and np.isfinite(got)

    def test_non_finite_matvec_rejected(self, monkeypatch):
        op, geom = custom_csr_case()
        op.linear = op.linear.sign() * 1e308
        for estimate in (empirical_full_lipschitz,
                         lambda *a: loop_estimate(monkeypatch, *a)):
            with pytest.raises(ValueError,
                               match="^dual norm input must be finite$"):
                estimate(op, geom, 200, np.random.default_rng(6))

    def test_all_pairs_degenerate_rejected(self, monkeypatch):
        geom = GeometryBundle([euclidean_block(np.arange(3), lo=0.5,
                                               hi=0.5)])
        M = csr_matrix(np.eye(3))
        op = FiniteSumOperator(
            [CallableComponent(np.arange(3), np.arange(3), lambda x: x)], 3,
            linear=M)
        for estimate in (empirical_full_lipschitz,
                         lambda *a: loop_estimate(monkeypatch, *a)):
            with pytest.raises(ValueError, match="degenerate"):
                estimate(op, geom, 57, np.random.default_rng(7))

    @pytest.mark.parametrize("edit", ["column-past-n", "negative-column",
                                      "rows-out-of-order"])
    def test_out_of_bounds_csr_rejected(self, edit):
        # the C reads M's arrays unchecked, so they are checked before
        op, geom = custom_csr_case()
        M = op.linear.copy()
        if edit == "rows-out-of-order":
            M.indptr[3], M.indptr[4] = M.indptr[4], M.indptr[3]
        else:
            M.indices[2] = 9 if edit == "column-past-n" else -1
        with pytest.raises(ValueError, match="out of bounds"):
            _kernel.pair_state(geom, M)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, trials):
        op, geom = ESTIMATE_CASES["lad-density-1"]
        with pytest.raises(ValueError, match="trials must be >= 1"):
            empirical_full_lipschitz(op, geom, trials,
                                     np.random.default_rng(0))

    def test_pairwise_sum_equals_numpy(self):
        total = _kernel._library().sum_pairwise
        rng = np.random.default_rng(8)
        for n in [*range(301), 4097, 8192, 10 ** 5]:
            # signs and magnitudes spread over 1e-40..1e40, so that any
            # other order of the additions rounds differently
            a = rng.standard_normal(n) * np.exp(rng.standard_normal(n) * 20)
            assert total(a.ctypes.data, n).hex() == float(np.sum(a)).hex()


def test_estimate_without_compiler_takes_loop(tmp_path, monkeypatch):
    op, geom = ESTIMATE_CASES["lad-quad"]
    want = empirical_full_lipschitz(op, geom, 57, np.random.default_rng(9))
    # a new process on a machine with no compiler and no cached build
    monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    loops = []

    def loop(*args):
        loops.append(args[1])
        return _max_pair_ratio(*args)

    monkeypatch.setattr(operators, "_max_pair_ratio", loop)
    _kernel._library.cache_clear()
    try:
        assert _kernel.pair_ratio() is None
        got = empirical_full_lipschitz(op, geom, 57,
                                       np.random.default_rng(9))
    finally:
        _kernel._library.cache_clear()
    assert loops == [57] and got.hex() == want.hex()


class TestSupportLayout:
    @pytest.mark.parametrize("name", sorted(LINEAR_CASES))
    def test_supports_are_layout_slices(self, name):
        op = LINEAR_CASES[name].operator
        sizes = []
        for j, c in enumerate(op.components):
            out = op.out_all[op.offsets[j]:op.offsets[j + 1]]
            reads = op.in_all[op.in_offsets[j]:op.in_offsets[j + 1]]
            np.testing.assert_array_equal(c.out_idx, out, strict=True)
            np.testing.assert_array_equal(c.in_idx, reads, strict=True)
            sizes.append(out.size)
        assert op.max_support == max(sizes)
        # LAD passes its layout; the other families' supports are the
        # components' own arrays, and reads are writes where they are one
        same = name.startswith("lad") or all(c.in_idx is c.out_idx
                                             for c in op.components)
        assert op.reads_are_writes == same
        assert (op.in_all is op.out_all) == same
        assert (op.in_offsets is op.offsets) == same

    def test_read_layout_only_where_reads_differ(self):
        # a component whose read support is its write support array adds no
        # read layout; equal values in a separate array, or other values, do
        f = lambda x: np.zeros(2)
        shared = FiniteSumOperator([CallableComponent(i, i, f) for i in (
            np.array([0, 1]), np.array([2, 1]))], 3)
        assert shared.reads_are_writes and shared.in_all is shared.out_all
        assert shared.in_offsets is shared.offsets
        copies = FiniteSumOperator([CallableComponent([0, 1], [0, 1], f),
                                    CallableComponent([2, 1], [2, 1], f)], 3)
        assert not copies.reads_are_writes
        np.testing.assert_array_equal(copies.in_all, copies.out_all)
        apart = FiniteSumOperator([CallableComponent([0, 1], [0, 1], f),
                                   CallableComponent([2, 1], [1, 2], f)], 3)
        assert not apart.reads_are_writes
        assert apart.in_all.tolist() == [0, 1, 1, 2]
        np.testing.assert_array_equal(apart.in_offsets, [0, 2, 4])
        with pytest.raises(ValueError, match="out of range"):
            FiniteSumOperator([CallableComponent([0, 1], [0, 3], f)], 3)

    def test_flat_starts_range_for_one_support_size(self):
        # evaluate_flat's starts: a range, which holds no memory, when
        # every support has one size, else the offsets as a list
        lad = LINEAR_CASES["lad-sparse"].operator
        assert type(lad._starts) is range
        assert list(lad._starts) == lad.offsets[:-1].tolist()
        for sizes, kind in (((3, 3), range), ((1, 3), list), ((0, 0), list)):
            comps = [CallableComponent(np.arange(s), np.arange(s), lambda x,
                                       s=s: np.arange(1.0, s + 1.0))
                     for s in sizes]
            op = FiniteSumOperator(comps, 3)
            assert type(op._starts) is kind
            assert list(op._starts) == op.offsets[:-1].tolist()
            assert (op.evaluate_flat(np.zeros(3)).tolist()
                    == [float(t) for s in sizes for t in range(1, s + 1)])

    @pytest.mark.parametrize("name", ["lad-dense", "lad-sparse", "lad-quad"])
    def test_lad_out_all_is_raveled_index_array(self, name):
        inst = LINEAR_CASES[name]
        op, A = inst.operator, inst.data["A"]
        n, d = A.shape
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        idx = np.stack([A.indices, d + rows], axis=1)
        # a view of the (m, 2) array, not a concatenation of m supports
        assert op.out_all.base is not None
        assert op.out_all.base.shape == (op.m, 2)
        np.testing.assert_array_equal(op.out_all.base, idx)
        np.testing.assert_array_equal(op.offsets, 2 * np.arange(op.m + 1))
        assert op.reads_are_writes
        assert op.in_all is op.out_all and op.in_offsets is op.offsets
        assert op.max_support == 2

    def test_lad_component_store_bytes(self):
        # what make_lad keeps per component beyond the arrays any LAD
        # representation holds (A, the linear part M, lam and the plan
        # weights): the component objects, their list and the layout.  At
        # most 160 B: a slotted object of four shared Python numbers (64 B
        # with its GC header), its A entry as a float (24 B), the list's
        # pointer (8 B), the raveled index pair (16 B) and the offset (8 B)
        source = generate_lad(1500, 1500, 1.0, 0, density=0.01)
        A, b = source.data["A"].copy(), source.data["b"].copy()
        del source
        gc.collect()
        tracemalloc.start()
        try:
            inst = make_lad(A, b)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        m = inst.m
        assert m >= 10_000
        matrices = sum(v.nbytes for mat in (inst.data["A"],
                                            inst.operator.linear)
                       for v in (mat.data, mat.indices, mat.indptr))
        vectors = inst.profile.lam.nbytes + inst.plan_weights.nbytes
        per_component = (kept - matrices - vectors) / m
        assert per_component <= 160, per_component

    @pytest.mark.parametrize("change, match", [
        (lambda o, e: (o, e[:-1]), "does not match"),
        (lambda o, e: (o, e + 1), "does not match"),
        (lambda o, e: (o[:-1], e), "does not match"),
        (lambda o, e: (o, np.array([0, 4, 2, 6])), "does not match"),
        (lambda o, e: (o + 1, e), "out of range"),
        (lambda o, e: (o - 1, e), "out of range")],
        ids=["short-offsets", "offsets-from-1", "short-flat", "decreasing",
             "above-d", "below-0"])
    def test_bad_layout_rejected(self, change, match):
        f = lambda x: np.zeros(2)
        comps = [CallableComponent([0, 1], [0, 1], f),
                 CallableComponent([1, 2], [1, 2], f),
                 CallableComponent([2, 0], [2, 0], f)]
        out, ends = np.array([0, 1, 1, 2, 2, 0]), np.array([0, 2, 4, 6])
        op = FiniteSumOperator(comps, 3, layout=(out, ends))
        assert op.reads_are_writes and op.in_all is op.out_all
        with pytest.raises(ValueError, match=match):
            FiniteSumOperator(comps, 3, layout=change(out, ends))


class TestLipschitzProfile:
    def test_norm_chain(self):
        prof = LipschitzProfile([1.0, 4.0, 0.25])
        assert prof.norm_inf <= prof.norm_2 <= prof.norm_1 <= prof.norm_half

    def test_norm_half_value(self):
        assert LipschitzProfile([1.0, 4.0, 9.0]).norm_half == 36.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LipschitzProfile([1.0, 0.0])


class TestLpqBound:
    def test_uniform_two(self):
        assert lpq_bound(LipschitzProfile([1.0, 1.0]),
                         [0.5, 0.5], [0.5, 0.5]) == pytest.approx(4.0)

    def test_single(self):
        assert lpq_bound([3.0], [1.0], [1.0]) == pytest.approx(3.0)

    def test_importance_example(self):
        # sqrt(27 + 54) = 9 = norm_half of (1, 4)
        val = lpq_bound([1.0, 4.0], [1 / 3, 2 / 3], [1 / 3, 2 / 3])
        assert val == pytest.approx(9.0, rel=1e-12)
        assert val == pytest.approx(LipschitzProfile([1.0, 4.0]).norm_half)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            lpq_bound([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            lpq_bound([1.0, 1.0], [0.7, 0.7], [0.5, 0.5])
        for p, q, name in (([np.nan, 0.5, 0.5], [1 / 3] * 3, "p"),
                           ([1 / 3] * 3, [np.nan, 0.5, 0.5], "q")):
            with pytest.raises(ValueError, match=f"{name} entries must be fin"):
                lpq_bound([1.0, 2.0, 3.0], p, q)


class TestLpqEmpirical:
    def test_linear_scalar_exact(self):
        L = 2.5
        comp = CallableComponent(np.array([0]), np.array([0]), lambda x: L * x[:1])
        op = FiniteSumOperator([comp], 1)
        geom = GeometryBundle([euclidean_block(np.array([0]))])
        val = lpq_empirical(op, geom, [1.0], [1.0], 5, np.random.default_rng(0))
        assert val == pytest.approx(L, rel=1e-12)

    def test_below_bound_and_band(self):
        rng0 = np.random.default_rng(0)
        A = rng0.normal(size=(3, 3))
        inst = make_lad(A, rng0.normal(size=3))
        plan = problem_plan(inst)
        bound = lpq_bound(inst.profile, plan.p, plan.q)
        emp = lpq_empirical(inst.operator, inst.geometry, plan.p, plan.q,
                            10000, np.random.default_rng(10))
        assert emp <= bound + 1e-9
        assert emp >= 0.5 * bound  # sanity band, not a theorem

    def test_rejects_zero_trials(self):
        inst = make_lad(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(ValueError):
            lpq_empirical(inst.operator, inst.geometry, [1.0], [1.0], 0,
                          np.random.default_rng(0))


@pytest.mark.parametrize("inst", problem_instances_for_tests(),
                         ids=lambda i: i.family)
def test_component_lipschitz_validity(inst):
    # per-component dual-norm increments stay within the declared constants
    rng = np.random.default_rng(21)
    op, geom, lam = inst.operator, inst.geometry, inst.profile.lam
    trials = 10000 // op.m
    for _ in range(max(trials, 100)):
        x = inst.sample_feasible(rng)
        y = inst.sample_feasible(rng)
        nrm = np.sqrt(geom.norm_sq(x - y))
        if nrm == 0.0:
            continue
        for j, c in enumerate(op.components):
            diff = np.zeros(op.d)
            diff[c.out_idx] = value(c, x) - value(c, y)
            lhs = np.sqrt(geom.dual_norm_sq(diff))
            assert lhs <= lam[j] * nrm * (1 + 1e-9)


@pytest.mark.parametrize("inst", problem_instances_for_tests(),
                         ids=lambda i: i.family)
def test_monotonicity(inst):
    rng = np.random.default_rng(22)
    op = inst.operator
    for _ in range(300):
        x = inst.sample_feasible(rng)
        y = inst.sample_feasible(rng)
        gap = (op.evaluate_full(x) - op.evaluate_full(y)) @ (x - y)
        assert gap >= -1e-9


@pytest.mark.parametrize("inst", problem_instances_for_tests(),
                         ids=lambda i: i.family)
def test_lambda_chain_vs_empirical_full(inst):
    L_emp = empirical_full_lipschitz(inst.operator, inst.geometry, 2000,
                                     np.random.default_rng(23))
    prof = inst.profile
    # Simplex domains only admit zero-sum difference directions, so the
    # declared per-row/column constants exceed the tight feasible-pair
    # constant by up to a factor 2 there; Euclidean/box families are tight
    # up to sampling slack.
    lo_factor = 0.5 if inst.family == "matrix-game" else 0.95
    assert L_emp >= prof.norm_inf * lo_factor
    assert L_emp <= prof.norm_1 * (1 + 1e-9)


class TestComponentTable:
    def make_table(self):
        inst = generate_instance("lad", 6, 5, 1.0, seed=3, density=0.6)
        return inst, ComponentTable(inst.operator, inst.x0)

    def test_initial_aggregate(self):
        inst, table = self.make_table()
        np.testing.assert_allclose(table.aggregate,
                                   inst.operator.evaluate_full(inst.x0),
                                   atol=1e-12)

    def test_sum_follows_component_order_bitwise(self):
        # overlapping supports: the single scatter-add must add in the same
        # order as one add per component, so the sums agree bit for bit
        rng = np.random.default_rng(8)
        comps = []
        for _ in range(40):
            out = rng.choice(7, size=int(rng.integers(1, 5)), replace=False)
            vals = rng.standard_normal(out.size) * 10.0 ** rng.integers(-8, 8)
            comps.append(CallableComponent(out, [], (lambda v: lambda x: v)(vals)))
        op = FiniteSumOperator(comps, 7)
        table = ComponentTable(op, np.zeros(7))
        expect = np.zeros(7)
        for c in comps:
            np.add.at(expect, c.out_idx, value(c, None))
        np.testing.assert_array_equal(table.aggregate, expect)
        table.resum()
        np.testing.assert_array_equal(table.aggregate, expect)

    @pytest.mark.parametrize("inst", problem_instances_for_tests(),
                             ids=lambda i: i.family)
    def test_aggregate_drift_bounded(self, inst):
        # 1e5 incremental refreshes at random feasible points, no re-sum in
        # between: the aggregate stays within rounding of the exact sum
        table = ComponentTable(inst.operator, inst.x0)
        rng = np.random.default_rng(5)
        op = inst.operator
        points = [inst.sample_feasible(rng) for _ in range(64)]
        comps = op.components
        for k, (j, t) in enumerate(zip(rng.integers(op.m, size=100_000),
                                       rng.integers(64, size=100_000)), 1):
            table.refresh(j, points[t], k)
        drift = np.max(np.abs(table.aggregate - table.explicit_sum()))
        scale = np.max(np.abs(table.values))
        assert drift <= 1e-8
        assert drift <= 1e-12 * scale

    def test_flat_layout_memory(self):
        # the values are one flat array; building the table allocates little
        # beyond its own arrays and the m offsets as Python ints (m slot
        # objects would add about 112 B each: 7x these arrays here)
        inst = generate_lad(300, 300, 1.0, 0, density=0.05)
        op = inst.operator
        tracemalloc.start()
        try:
            table = ComponentTable(op, inst.x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(table.values, np.ndarray)
        assert table.values.dtype == np.float64
        assert table.values.shape == op.out_all.shape
        own = (table.values.nbytes + table.aggregate.nbytes
               + table.eval_iter.nbytes)
        assert peak <= 3 * own, (peak, own)

    def test_values_track_refresh_iterate(self):
        inst, table = self.make_table()
        rng = np.random.default_rng(6)
        op = inst.operator
        history = {}
        for k in range(1, 50):
            j = int(rng.integers(op.m))
            x = inst.sample_feasible(rng)
            table.refresh(j, x, k)
            history[j] = x
        for j, x in history.items():
            np.testing.assert_array_equal(slot(table, j),
                                          value(op.components[j], x))

    def test_shadow_resolution_rule(self):
        inst, table = self.make_table()
        op = inst.operator
        rng = np.random.default_rng(7)
        x1 = inst.sample_feasible(rng)
        x2 = inst.sample_feasible(rng)
        before = slot(table, 2).copy()
        table.refresh(2, x1, 1)
        # component refreshed at k-1 = 1 resolves to the pre-overwrite value
        np.testing.assert_array_equal(table.resolve_prev(2, 2), before)
        # other components resolve to their current slots
        np.testing.assert_array_equal(table.resolve_prev(0, 2), slot(table, 0))
        table.refresh(0, x2, 2)
        # at k = 3 the shadow belongs to component 0; slot 2 is current again
        np.testing.assert_array_equal(table.resolve_prev(2, 3), slot(table, 2))


def callable_instance():
    """CallableComponents with overlapping supports, an empty support and a
    value the function builds in place of a fresh array."""
    geom = GeometryBundle([euclidean_block(np.arange(6), lo=-1.0, hi=1.0)])
    rng = np.random.default_rng(40)
    comps = [CallableComponent([3, 1, 5], [0, 2],
                               lambda x: [x[0], -x[2], 1e8 * x[0]]),
             CallableComponent([], [4], lambda x: np.empty(0))]
    for _ in range(12):
        out = rng.choice(6, size=int(rng.integers(1, 5)), replace=False)
        scale = rng.standard_normal(out.size)
        comps.append(CallableComponent(
            out, out, (lambda o, s: lambda x: s * x[o] + s)(out, scale)))
    return make_custom(comps, geom, np.ones(len(comps)))


BUFFER_CASES = {**LINEAR_CASES, "callable": callable_instance()}


def lpq_per_component(op, geom, p, q, trials, rng):
    """lpq_empirical as one dense difference and one full dual norm per
    component and pair (the formula before the flat layout)."""
    weight = 1.0 / (p * q * q)

    def numer(x, y):
        total = 0.0
        for j, c in enumerate(op.components):
            diff = np.zeros(op.d)
            diff[c.out_idx] = value(c, x)
            np.subtract.at(diff, c.out_idx, value(c, y))
            total += weight[j] * geom.dual_norm_sq(diff)
        return total

    return _max_pair_ratio(geom, trials, rng, numer)


@pytest.mark.parametrize("name", sorted(BUFFER_CASES))
def test_lpq_empirical_equals_per_component_formula(name):
    inst = BUFFER_CASES[name]
    plan = problem_plan(inst)
    args = (inst.operator, inst.geometry, plan.p, plan.q, 20)
    got = lpq_empirical(*args, np.random.default_rng(46))
    want = lpq_per_component(*args, np.random.default_rng(46))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_lpq_empirical_rejects_non_finite():
    comp = CallableComponent([0], [0], lambda x: [np.nan])
    geom = GeometryBundle([euclidean_block(np.array([0]))])
    with pytest.raises(ValueError, match="finite"):
        lpq_empirical(FiniteSumOperator([comp], 1), geom, [1.0], [1.0], 3,
                      np.random.default_rng(0))


def old_table(op, x):
    """The table build before the flat buffer: one array per component."""
    return [value(c, x) for c in op.components], add_at_sum(op, x)


class TestWriteIntoBuffer:
    """evaluate(x, out, at) writes the same bits into any slice of any
    buffer; the full evaluation and the table build use it."""

    @staticmethod
    def points(inst, seed, count=6):
        rng = np.random.default_rng(seed)
        return [inst.geometry.sample_domain(rng, sharp=bool(t % 2))
                for t in range(count)]

    @pytest.mark.parametrize("name", sorted(BUFFER_CASES))
    def test_writes_exactly_its_slice(self, name):
        inst = BUFFER_CASES[name]
        for x in self.points(inst, 41):
            for c in inst.operator.components:
                want = value(c, x)
                n = c.out_idx.size
                for at in (0, 3):
                    buf = np.full(at + n + 4, np.nan)
                    assert c.evaluate(x, buf, at) is buf
                    assert buf[at:at + n].tobytes() == want.tobytes()
                    assert np.isnan(buf[:at]).all()
                    assert np.isnan(buf[at + n:]).all()

    @pytest.mark.parametrize("name", sorted(BUFFER_CASES))
    def test_full_equals_scatter_of_separate_values(self, name):
        op = BUFFER_CASES[name].operator
        for x in self.points(BUFFER_CASES[name], 42):
            want = add_at_sum(op, x)
            assert op.evaluate_full(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(BUFFER_CASES))
    def test_table_build_equals_separate_arrays(self, name):
        inst = BUFFER_CASES[name]
        op = inst.operator
        for x in [inst.x0] + self.points(inst, 43, count=2):
            table = ComponentTable(op, x)
            values, aggregate = old_table(op, x)
            assert table.values.dtype == np.float64
            assert table.values.shape == op.out_all.shape
            for j, want in enumerate(values):
                assert slot(table, j).tobytes() == want.tobytes()
            assert table.aggregate.tobytes() == aggregate.tobytes()

    @pytest.mark.parametrize("name", sorted(BUFFER_CASES))
    def test_refresh_leaves_other_slots(self, name):
        inst = BUFFER_CASES[name]
        op = inst.operator
        xs = self.points(inst, 44)
        table = ComponentTable(op, xs[0])
        want = [slot(table, j).copy() for j in range(op.m)]
        rng = np.random.default_rng(45)
        for k in range(1, 3 * op.m + 1):
            j = int(rng.integers(op.m))
            table.refresh(j, xs[k % len(xs)], k)
            # the shadow holds the overwritten slot's bits
            assert table.resolve_prev(j, k + 1).tobytes() == want[j].tobytes()
            want[j] = value(op.components[j], xs[k % len(xs)])
            for i, w in enumerate(want):
                assert slot(table, i).tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", sorted(BUFFER_CASES))
    def test_refresh_float_and_array_paths_bitwise(self, name):
        # the refresh adds a slot's change to the aggregate in numpy; the
        # compiled kernel adds it one coordinate at a time, written out
        # below in Python floats: the same values, aggregate and resolved
        # previous values after every refresh
        inst = BUFFER_CASES[name]
        op = inst.operator
        xs = self.points(inst, 47)
        seq = np.random.default_rng(48).integers(op.m, size=3 * op.m).tolist()
        table = ComponentTable(op, xs[0])
        values, aggregate = table.values.copy(), table.aggregate.tolist()
        for k, j in enumerate(seq, start=1):
            x = xs[k % len(xs)]
            at, end = op.offsets[j], op.offsets[j + 1]
            old = values[at:end].copy()
            table.refresh(j, x, k)
            values[at:end] = value(op.components[j], x)
            for i, o, v in zip(op.out_all[at:end].tolist(), old.tolist(),
                               values[at:end].tolist()):
                aggregate[i] = aggregate[i] + (v - o)
            assert table.values.tobytes() == values.tobytes()
            assert table.aggregate.tobytes() == np.array(aggregate).tobytes()
            assert table.resolve_prev(j, k + 1).tobytes() == old.tobytes()
            assert (table.resolve_prev(j, k + 2).tobytes()
                    == values[at:end].tobytes())

    @pytest.mark.parametrize("fn", [lambda x: 1.5, lambda x: [1.0, 2.0]],
                             ids=["scalar", "wrong-length"])
    def test_callable_wrong_shape_rejected(self, fn):
        comp = CallableComponent([0, 2, 1], [0], fn)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            value(comp, np.zeros(3))
        buf = np.full(5, np.nan)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            comp.evaluate(np.zeros(3), buf, 1)
        assert np.isnan(buf).all()
        op = FiniteSumOperator([comp], 3)
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            op.evaluate_full(np.zeros(3))
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            ComponentTable(op, np.zeros(3))


LIST_PATH_CASES = {
    **{f"family-{i}": inst
       for i, inst in enumerate(problem_instances_for_tests())},
    **LINEAR_CASES,
    "lad-40x30": generate_lad(40, 30, 1.0, seed=6, density=0.3),
}


def separate_values(op, x):
    """Each component's value from its own ``evaluate`` on the ndarray x,
    end to end."""
    return np.concatenate([value(c, x) for c in op.components])


def mixed_instance():
    """LAD 40x30's components plus a CallableComponent that needs the
    ndarray, on LAD's geometry."""
    lad = LIST_PATH_CASES["lad-40x30"]
    d = lad.operator.d

    def needs_array(x):
        if not isinstance(x, np.ndarray):
            raise TypeError(f"x is a {type(x).__name__}")
        return np.array([x[0] - x[d - 1], 2.0 * x[1]])

    comps = list(lad.operator.components) + [
        CallableComponent([0, d - 1], [0, 1, d - 1], needs_array)]
    return make_custom(comps, lad.geometry,
                       np.append(lad.profile.lam, 2.0))


def spy_calls(monkeypatch, kinds, seen):
    """Patch each component type in ``kinds`` to append, per ``evaluate``
    call, the types of x and out, the length of out and the set of the
    types of x's entries at the component's read set."""
    for kind in kinds:
        def spied(c, x, out, at, evaluate=kind.evaluate):
            reads = {type(x[i]) for i in c.in_idx.tolist()}
            seen.append((type(x), type(out), len(out), reads))
            return evaluate(c, x, out, at)

        monkeypatch.setattr(kind, "evaluate", spied)


def run_paths(monkeypatch, inst, mode):
    """Yields each loop path with its run: the compiled kernel (where it
    can be built) and the Python loop."""
    plan = problem_plan(inst)
    config = SolverConfig(iterations=30, seed=3, mode=mode,
                          eval_stride=7, eval_metrics=())
    for path in loop_paths(monkeypatch):
        yield path, run(inst, plan, config)


class TestScalarReads:
    """Components of a type that declares ``scalar_io`` are handed Python
    floats on every path: a list of x and a memoryview of the result in a
    bulk evaluation, memoryviews of x, the scratch buffer and the table's
    values in both REM loops.  Every other operator gets the ndarrays.
    Either way the values are the same bits as separate calls on the
    ndarray."""

    @pytest.mark.parametrize("name", sorted(LIST_PATH_CASES))
    def test_flat_equals_separate_ndarray_calls(self, name):
        inst = LIST_PATH_CASES[name]
        op = inst.operator
        kinds = {type(c) for c in op.components}
        assert op.scalar_io == all(k.scalar_io for k in kinds)
        rng = np.random.default_rng(50)
        for t in range(6):
            x = inst.geometry.sample_domain(rng, sharp=bool(t % 2))
            assert (op.evaluate_flat(x).tobytes()
                    == separate_values(op, x).tobytes())

    def test_only_lad_declares_scalar_io(self):
        lad_type = type(LIST_PATH_CASES["lad-40x30"].operator.components[0])
        kinds = {type(c) for inst in LIST_PATH_CASES.values()
                 for c in inst.operator.components}
        assert len(kinds) == 6
        assert {k for k in kinds if k.scalar_io} == {lad_type}
        for name in ("lad-40x30", "lad-sparse", "lad-quad"):
            assert LIST_PATH_CASES[name].operator.scalar_io
        for name in ("game-two-sided", "game-row-sided", "box-simplex",
                     "policy-eval"):
            assert not LIST_PATH_CASES[name].operator.scalar_io
        assert not mixed_instance().operator.scalar_io

    @pytest.mark.parametrize("mode", ["dense", "lazy"])
    def test_lad_gets_python_floats_on_every_path(self, mode, monkeypatch):
        inst = LIST_PATH_CASES["lad-40x30"]
        op = inst.operator
        seen = []
        spy_calls(monkeypatch, {type(op.components[0])}, seen)
        op.evaluate_flat(np.linspace(-1.0, 1.0, op.d))
        bulk = (list, memoryview, op.out_all.size, {float})
        assert seen == [bulk] * op.m
        seen.clear()
        for path, trace in run_paths(monkeypatch, inst, mode):
            assert trace.info["kernel"] in (path, "python")
            # the table build, then j1 into the scratch buffer and the
            # refresh of j2 into the table's values, K times each
            build, loop = seen[:op.m], seen[op.m:]
            assert build == [bulk] * op.m
            assert len(loop) == 2 * trace.iterations
            for size in (op.max_support, op.out_all.size):
                assert (loop.count((memoryview, memoryview, size, {float}))
                        == trace.iterations)
            # no buffer export is left on the iterate
            trace.final_x.resize(trace.final_x.size + 1)
            seen.clear()

    @pytest.mark.parametrize("name", [
        "game-two-sided", "game-row-sided", "box-simplex", "policy-eval",
        "mixed"])
    def test_other_operators_get_ndarrays_on_every_path(self, name,
                                                        monkeypatch):
        inst = (mixed_instance() if name == "mixed"
                else LIST_PATH_CASES[name])
        op = inst.operator
        seen = []
        spy_calls(monkeypatch, set(map(type, op.components)), seen)
        op.evaluate_flat(inst.geometry.sample_domain(
            np.random.default_rng(51)))
        for path, trace in run_paths(monkeypatch, inst, "lazy"):
            assert trace.info["kernel"] in (path, "python")
        assert len(seen) == 3 * op.m + 4 * trace.iterations
        assert {call[:2] for call in seen} == {(np.ndarray, np.ndarray)}

    def test_mixed_operator_takes_the_ndarray_path(self):
        inst = mixed_instance()
        op = inst.operator
        lad = LIST_PATH_CASES["lad-40x30"].operator
        rng = np.random.default_rng(51)
        for t in range(4):
            x = inst.geometry.sample_domain(rng, sharp=bool(t % 2))
            flat = op.evaluate_flat(x)
            assert flat.tobytes() == separate_values(op, x).tobytes()
            assert (flat[:lad.out_all.size].tobytes()
                    == lad.evaluate_flat(x).tobytes())


def test_matrix_market_roundtrip(tmp_path):
    from scipy.io import mmwrite
    from scipy.sparse import coo_matrix
    A = np.array([[1.5, 0.0], [0.0, -2.25]])
    path = tmp_path / "mat.mtx"
    mmwrite(str(path), coo_matrix(A))
    np.testing.assert_allclose(load_matrix_market(str(path)), A)
