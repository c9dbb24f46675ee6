import numpy as np
import pytest
from scipy.sparse import csr_matrix

from remvi.geometry import GeometryBundle, euclidean_block
from remvi.operators import (CallableComponent, ComponentTable,
                             FiniteSumOperator, LipschitzProfile,
                             empirical_full_lipschitz, load_matrix_market,
                             lpq_bound, lpq_empirical)
from remvi.problems import (generate_box_simplex, generate_instance,
                            generate_lad, generate_matrix_game,
                            generate_policy_eval, load_instance, make_custom,
                            make_lad, make_matrix_game,
                            problem_instances_for_tests, save_instance)
from remvi.sampling import problem_plan


class TestComponentEvaluation:
    def test_lad_single_entry(self):
        inst = make_lad(np.array([[2.0]]), np.array([3.0]))
        x = np.array([1.0, 0.5])  # z=1, y=0.5
        c = inst.operator.components[0]
        idx, vals = c.out_idx, c.evaluate(x)
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_single_component_equals_full(self):
        comp = CallableComponent(np.arange(3), np.arange(3), lambda x: 2.0 * x)
        op = FiniteSumOperator([comp], 3)
        x = np.array([1.0, -2.0, 0.5])
        idx, vals = comp.out_idx, op.components[0].evaluate(x)
        full = op.evaluate_full(x)
        np.testing.assert_array_equal(full[idx], vals)

    def test_game_row_component_zero_dual(self):
        inst = make_matrix_game(np.array([[1.0, 2.0], [3.0, 4.0]]))
        x = np.array([0.5, 0.5, 0.0, 1.0])  # y_0 = 0
        vals = inst.operator.components[0].evaluate(x)
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
                np.add.at(total, c.out_idx, c.evaluate(x))
            full = op.evaluate_full(x)
            scale = max(1.0, np.max(np.abs(full)))
            np.testing.assert_allclose(total, full, rtol=0, atol=1e-10 * scale)


def add_at_sum(op, x):
    """The full operator summed the way it was before the single scatter:
    one np.add.at per component, in component order."""
    out = np.zeros(op.d)
    for c in op.components:
        np.add.at(out, c.out_idx, c.evaluate(x))
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
            return np.array([1.0, 1.0])

        bad = CallableComponent.__new__(CallableComponent)  # skips the check
        bad.out_idx = bad.in_idx = np.array([0, 0])
        bad.fn = fn
        table = ComponentTable(FiniteSumOperator([bad], 1), np.zeros(1))
        table.refresh(0, np.array([10.0, 20.0]), 1)
        assert table.aggregate[0] == 21.0
        assert table.explicit_sum()[0] == 30.0
        with pytest.raises(ValueError, match="repeats a coordinate"):
            CallableComponent([0, 0], [0], fn)
        CallableComponent([0, 1], [0, 0], fn)      # reads may repeat

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_out_of_range_support_rejected(self, bad):
        ok = CallableComponent([0, 2], [0], lambda x: np.zeros(2))
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
            diff[c.out_idx] = c.evaluate(x) - c.evaluate(y)
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
            np.add.at(expect, c.out_idx, c.evaluate(None))
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
            table.refresh(j, comps[j].evaluate(points[t]), k)
        drift = np.max(np.abs(table.aggregate - table.explicit_sum()))
        scale = max(np.max(np.abs(v)) for v in table.values)
        assert drift <= 1e-8
        assert drift <= 1e-12 * scale

    def test_values_track_refresh_iterate(self):
        inst, table = self.make_table()
        rng = np.random.default_rng(6)
        op = inst.operator
        history = {}
        for k in range(1, 50):
            j = int(rng.integers(op.m))
            x = inst.sample_feasible(rng)
            table.refresh(j, op.components[j].evaluate(x), k)
            history[j] = x
        for j, x in history.items():
            np.testing.assert_array_equal(table.value(j),
                                          op.components[j].evaluate(x))

    def test_shadow_resolution_rule(self):
        inst, table = self.make_table()
        op = inst.operator
        rng = np.random.default_rng(7)
        x1 = inst.sample_feasible(rng)
        x2 = inst.sample_feasible(rng)
        before = table.value(2).copy()
        table.refresh(2, op.components[2].evaluate(x1), 1)
        # component refreshed at k-1 = 1 resolves to the pre-overwrite value
        np.testing.assert_array_equal(table.resolve_prev(2, 2), before)
        # other components resolve to their current slots
        np.testing.assert_array_equal(table.resolve_prev(0, 2), table.value(0))
        table.refresh(0, op.components[0].evaluate(x2), 2)
        # at k = 3 the shadow belongs to component 0; slot 2 is current again
        np.testing.assert_array_equal(table.resolve_prev(2, 3), table.value(2))


def test_matrix_market_roundtrip(tmp_path):
    from scipy.io import mmwrite
    from scipy.sparse import coo_matrix
    A = np.array([[1.5, 0.0], [0.0, -2.25]])
    path = tmp_path / "mat.mtx"
    mmwrite(str(path), coo_matrix(A))
    np.testing.assert_allclose(load_matrix_market(str(path)), A)
