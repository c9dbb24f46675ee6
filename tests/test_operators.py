import numpy as np
import pytest

from remvi.geometry import GeometryBundle, euclidean_block
from remvi.operators import (CallableComponent, ComponentTable,
                             FiniteSumOperator, LipschitzProfile,
                             empirical_full_lipschitz, load_matrix_market,
                             lpq_bound, lpq_empirical)
from remvi.problems import (generate_instance, make_lad, make_matrix_game,
                            problem_instances_for_tests)
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
        # overlapping supports, a repeated coordinate inside one support,
        # an empty support and values over 16 orders of magnitude
        rng = np.random.default_rng(13)
        comps = [CallableComponent([3, 1, 3], [0, 2],
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

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_out_of_range_support_rejected(self, bad):
        ok = CallableComponent([0, 2], [0], lambda x: np.zeros(2))
        wrong = CallableComponent([1, bad], [0], lambda x: np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            FiniteSumOperator([ok, wrong], 3)
        FiniteSumOperator([ok], 3)


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

    def test_aggregate_drift_bounded(self):
        inst, table = self.make_table()
        rng = np.random.default_rng(5)
        op = inst.operator
        for k in range(1, 100001):
            j = int(rng.integers(op.m))
            x = inst.sample_feasible(rng)
            table.refresh(j, op.components[j].evaluate(x), k)
        drift = np.max(np.abs(table.aggregate - table.explicit_sum()))
        assert drift <= 1e-8

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
