import math

import numpy as np
import pytest

from helpers import (assert_runs_bitwise_equal, calls_per_iteration,
                     loop_paths, scripted_plan, value)
from remvi import solver
from remvi.baselines import BaselineConfig, run_baseline
from remvi.geometry import GeometryBundle, euclidean_block, simplex_block
from remvi.metrics import default_metrics, evaluate_point
from remvi.operators import CallableComponent, ComponentTable, FiniteSumOperator
from remvi.problems import (generate_instance, make_custom, make_lad,
                            problem_instances_for_tests)
from remvi.sampling import RngStream, SamplingPlan, build_plan, problem_plan
from remvi.solver import (DivergenceError, SolverConfig, extrapolate,
                          next_step_size, run_dense, run_lazy,
                          step_condition_violations, step_schedule)

SQ23 = math.sqrt(2.0 / 3.0)


def rotation_instance(lpq=1.0):
    """Unconstrained bilinear toy: F(z, y) = (y, -z), one component, g = 0."""
    comp = CallableComponent(np.arange(2), np.arange(2),
                             lambda x: np.array([x[1], -x[0]]))
    geom = GeometryBundle([euclidean_block(np.arange(2),
                                           anchor=np.array([1.0, 0.0]))])
    return make_custom([comp], geom, [1.0], plan_lpq=lpq, plan_weights=np.ones(1))


class TestStepSize:
    def test_flat_schedule(self):
        a = next_step_size(0.0, 0.0, 1, 0.0, 1.0, 0.5)
        assert a == pytest.approx(0.0816496580927726, rel=1e-12)
        assert next_step_size(a, a, 2, 0.0, 1.0, 0.5) == a

    def test_strongly_monotone_branches(self):
        a1 = next_step_size(0.0, 0.0, 1, 1.0, 1.0, 0.5)
        assert a1 == pytest.approx(SQ23 / 10.0, rel=1e-12)
        a2 = next_step_size(a1, a1, 2, 1.0, 1.0, 0.5)
        assert a2 == pytest.approx(math.sqrt(1.1) * a1, rel=1e-12)
        assert a2 == pytest.approx(0.0856347, rel=1e-4)
        # the cap branch would have been (A_1 * 1 + 1)/10
        assert (a1 * 1.0 + 1.0) / 10.0 == pytest.approx(0.108165, rel=1e-5)

    def test_geometric_growth_cap(self):
        # enormous gamma: ratio approaches sqrt(1 + q*/5) with q* = 1
        a_prev, A_prev = 0.1, 10.0
        a = next_step_size(a_prev, A_prev, 5, 1e12, 1.0, 1.0)
        assert a / a_prev == pytest.approx(math.sqrt(1.2), rel=1e-12)

    def test_rejects_bad_lpq(self):
        with pytest.raises(ValueError):
            next_step_size(0.0, 0.0, 1, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("lpq", [1e150, 1e160, 1e200, 1e300])
    def test_certificate_holds_at_huge_lpq(self, lpq):
        # lpq * a is of order 0.1 at any lpq; squaring lpq alone overflowed
        # from about 1.3e154 on and counted every step as a violation
        for gamma in (0.0, 0.5):
            a_seq, _ = step_schedule(50, gamma, lpq, 0.25)
            assert step_condition_violations(a_seq, gamma, lpq, 0.25) == 0
        inst = generate_instance("lad", 5, 5, 1.0, seed=0, density=0.6)
        trace = run_lazy(inst, problem_plan(inst),
                         SolverConfig(iterations=50, mode="lazy", lpq=lpq))
        assert trace.cert_violations == 0

    @pytest.mark.parametrize("gamma, lpq", [(0.0, 1e-300), (0.5, 1e-200)])
    def test_certificate_holds_at_tiny_lpq(self, gamma, lpq):
        # the steps exceed 1e154: squaring one overflowed (a RuntimeWarning,
        # an error under the suite's filter) and counted inf <= inf as met
        a_seq, _ = step_schedule(50, gamma, lpq, 0.25)
        assert a_seq[0] > 1e154
        assert step_condition_violations(a_seq, gamma, lpq, 0.25) == 0
        a_seq[10] *= 3.0            # a jump the growth condition forbids
        assert step_condition_violations(a_seq, gamma, lpq, 0.25) > 0

    def test_certificate_counts_zero_steps_like_scalar_loop(self):
        # a zero step divides nothing by zero: no RuntimeWarning, and the
        # count of the squared form
        for gamma in (0.0, 0.5):
            a_seq, _ = step_schedule(20, gamma, 2.0, 0.25)
            a_seq[[3, 4, 9]] = 0.0
            count = step_condition_violations(a_seq, gamma, 2.0, 0.25)
            assert count == _scalar_violations(a_seq, gamma, 2.0, 0.25) > 0

    @pytest.mark.parametrize("lpq", [1e308, 2e307, 5e-324, 1e-310])
    def test_rejects_lpq_without_a_usable_first_step(self, lpq):
        # 10 * lpq overflows to inf (every step 0.0: the run would return
        # x0) or the first step does
        with pytest.raises(ValueError, match="first step size"):
            next_step_size(0.0, 0.0, 1, 0.0, lpq, 0.5)
        with pytest.raises(ValueError, match="first step size"):
            SolverConfig(iterations=50, mode="lazy", lpq=lpq)
        # the plan's constant, which the config does not check
        inst = generate_instance("lad", 5, 5, 1.0, seed=0, density=0.6)
        plan = build_plan("importance", inst.profile, lpq=lpq)
        with pytest.raises(ValueError, match="first step size"):
            run_lazy(inst, plan, SolverConfig(iterations=50, mode="lazy"))

    def test_certificate_counts_violations(self):
        # the implemented schedule passes; an inflated one fails
        lpq, gamma, q_star = 2.0, 0.5, 0.25
        a_seq = []
        a, A = 0.0, 0.0
        for k in range(1, 200):
            a = next_step_size(a, A, k, gamma, lpq, q_star)
            A += a
            a_seq.append(a)
        sched, A_seq = step_schedule(199, gamma, lpq, q_star)
        np.testing.assert_array_equal(sched, a_seq)
        assert A_seq[0] == 0.0 and A_seq[-1] == A
        assert step_condition_violations(a_seq, gamma, lpq, q_star) == 0
        assert step_condition_violations(np.array(a_seq) * 3.0, gamma, lpq,
                                         q_star) > 0

    @pytest.mark.parametrize("K", [0, 1, 1000, 20000])
    @pytest.mark.parametrize("lpq", [3.7, 1340.0, 1e-3])
    def test_constant_schedule_equals_loop(self, K, lpq):
        # at gamma = 0 the schedule is the first step repeated and its
        # running sums, bit for bit what the steps' loop adds in order
        a_ref, A_ref = [], [0.0]
        a = A = 0.0
        for k in range(1, K + 1):
            a = next_step_size(a, A, k, 0.0, lpq, 0.25)
            A = A + a
            a_ref.append(a)
            A_ref.append(A)
        a_seq, A_seq = step_schedule(K, 0.0, lpq, 0.25)
        assert a_seq.tobytes() == np.array(a_ref, dtype=float).tobytes()
        assert A_seq.tobytes() == np.array(A_ref).tobytes()

    def test_certificate_counts_nan_as_violation(self):
        # a NaN gamma (or step) makes every comparison false; each one counts
        a_seq, _ = step_schedule(50, 0.5, 2.0, 0.25)
        assert step_condition_violations(a_seq, math.nan, 2.0, 0.25) == 2 * 49
        a_seq[10] = math.nan
        assert step_condition_violations(a_seq, 0.0, 2.0, 0.25) > 0

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_vectorized_certificate_matches_scalar_loop(self, gamma):
        lpq, q_star = 1.5, 0.3
        rng = np.random.default_rng(int(gamma * 10))
        base, _ = step_schedule(300, gamma, lpq, q_star)
        for trial in range(20):
            a_seq = base * rng.uniform(0.98, 1.0, size=base.size)
            hit = rng.choice(base.size, size=int(rng.integers(1, 15)),
                             replace=False)
            a_seq[hit] *= rng.uniform(1.0, 4.0, size=hit.size)
            count = step_condition_violations(a_seq, gamma, lpq, q_star)
            assert count == _scalar_violations(a_seq, gamma, lpq, q_star)
            assert count > 0

    def test_growth_lower_bound(self):
        for gamma, lpq, q_star in [(0.0, 3.0, 0.2), (0.5, 2.0, 0.05),
                                   (2.0, 10.0, 0.5)]:
            a, A = 0.0, 0.0
            A_seq = []
            for k in range(1, 500):
                a = next_step_size(a, A, k, gamma, lpq, q_star)
                A += a
                A_seq.append(A)
            A1 = A_seq[0]
            alpha = min(q_star / 11.0, gamma / (10.0 * lpq))
            for k, Ak in enumerate(A_seq, start=1):
                bound = A1 * max(k, (1.0 + alpha) ** (k - 1))
                assert Ak >= bound * (1 - 1e-12)


def _scalar_violations(a_seq, gamma, lpq, q_star, rel=1e-12):
    """Reference: the three certificate inequalities, one iteration at a
    time."""
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


class TestExtrapolate:
    def make_state(self, m=3, d=4, seed=0):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(d, d)) for _ in range(m)]
        comps = [CallableComponent(np.arange(d), np.arange(d),
                                   (lambda M: lambda x: M @ x)(M))
                 for M in mats]
        op = FiniteSumOperator(comps, d)
        x0 = rng.normal(size=d)
        return op, ComponentTable(op, x0), rng

    def test_first_iteration_is_table_aggregate(self):
        op, table, rng = self.make_state()
        fhat = extrapolate(table, 1, rng.normal(size=op.d), 0.0, 0.5, 0.3, 1)
        np.testing.assert_array_equal(fhat, table.aggregate)

    def test_single_component_popov_form(self):
        # m = 1, p = 1: F_hat = F(x_prev) + (a_prev/a)(F(x_prev) - F(x_prev2))
        op, table, rng = self.make_state(m=1)
        x1, x2 = rng.normal(size=op.d), rng.normal(size=op.d)
        table.refresh(0, x2, k=1)  # F at x_{k-2}
        table.refresh(0, x1, k=2)  # F at x_{k-1}
        v = value(op.components[0], x1)
        fhat = extrapolate(table, 0, v, 0.25, 0.5, 1.0, 3)
        f1 = value(op.components[0], x1)
        f2 = value(op.components[0], x2)
        np.testing.assert_allclose(fhat, f1 + 0.5 * (f1 - f2), rtol=1e-12)

    def test_expectation_identity_two_components(self):
        # sum_j p_j F_hat(j) telescopes to the full extrapolated estimate
        op, table, rng = self.make_state(m=2)
        x_prev = rng.normal(size=op.d)
        table.refresh(1, rng.normal(size=op.d), k=1)
        p = np.array([0.3, 0.7])
        a_prev, a = 0.2, 0.4
        k = 2
        acc = np.zeros(op.d)
        for j in range(2):
            v = value(op.components[j], x_prev)
            acc += p[j] * extrapolate(table, j, v, a_prev, a, p[j], k)
        resolved = sum(table.resolve_prev(j, k) for j in range(2))
        expect = table.aggregate + (a_prev / a) * (
            op.evaluate_full(x_prev) - resolved)
        np.testing.assert_allclose(acc, expect, atol=1e-12)


@pytest.mark.parametrize("inst", problem_instances_for_tests(),
                         ids=lambda i: i.family)
def test_estimator_identity_frozen_states(inst):
    # exhaustive-enumeration unbiasedness on states reached by real runs
    plan = problem_plan(inst)
    op = inst.operator
    rng = np.random.default_rng(31)
    for trial in range(25):
        table = ComponentTable(op, inst.x0)
        k_frozen = int(rng.integers(1, 6))
        for k in range(1, k_frozen + 1):
            j = int(rng.integers(op.m))
            table.refresh(j, inst.sample_feasible(rng), k)
        x_prev = inst.sample_feasible(rng)
        a_prev, a = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        acc = np.zeros(op.d)
        for j in range(op.m):
            v = value(op.components[j], x_prev)
            acc += plan.p[j] * extrapolate(table, j, v, a_prev, a, plan.p[j],
                                           k_frozen + 1)
        resolved = np.zeros(op.d)
        for j, c in enumerate(op.components):
            resolved[c.out_idx] += table.resolve_prev(j, k_frozen + 1)
        expect = table.aggregate + (a_prev / a) * (op.evaluate_full(x_prev)
                                                   - resolved)
        scale = max(1.0, np.max(np.abs(expect)))
        np.testing.assert_allclose(acc, expect, atol=1e-10 * scale)


class TestRunDense:
    def test_zero_iterations_edge(self):
        inst = problem_instances_for_tests()[0]
        plan = problem_plan(inst)
        trace = run_dense(inst, plan, SolverConfig(iterations=0, mode="dense"))
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0
        assert trace.x_bar is None
        assert trace.oracle_calls == inst.m

    def test_oracle_accounting(self):
        inst = problem_instances_for_tests()[1]
        plan = problem_plan(inst)
        K = 137
        trace = run_dense(inst, plan, SolverConfig(iterations=K, mode="dense",
                                                   eval_stride=10))
        assert trace.oracle_calls == inst.m + 2 * K
        for rec in trace.records:
            assert rec.oracle_calls == inst.m + 2 * rec.iteration

    def test_rate_envelope_small(self):
        # Theorem envelope (slack 2) on a 2x2 game at modest K, 5 seeds
        inst = generate_instance("matrix-game", 2, 2, 1.0, seed=7)
        plan = build_plan("importance", profile=inst.profile)
        supD = math.log(2.0) + math.log(2.0)
        K = 3000
        gaps = []
        for seed in range(5):
            cfg = SolverConfig(iterations=K, seed=seed, mode="dense",
                               averaging="weighted-full", eval_point="average",
                               eval_stride=K)
            gaps.append(run_dense(inst, plan, cfg).records[-1].sup_gap)
        envelope = 2.0 * (2.0 * supD * 10.0 * plan.lpq / SQ23) / K
        assert np.mean(gaps) <= envelope

    def test_divergence_guard(self):
        inst = make_lad(np.eye(3) * 2.0, np.ones(3), ref_optimum=None)
        plan = problem_plan(inst)
        cfg = SolverConfig(iterations=5000, mode="dense", lpq=1e-8,
                           eval_stride=50, eval_metrics=(),
                           divergence_bound=1e6)
        with pytest.raises(DivergenceError):
            run_dense(inst, plan, cfg)

    def test_lazy_divergence_at_dense_iteration(self):
        inst = make_lad(np.eye(3) * 2.0, np.ones(3), ref_optimum=None)
        plan = problem_plan(inst)
        at = {}
        for mode, run in (("dense", run_dense), ("lazy", run_lazy)):
            cfg = SolverConfig(iterations=5000, mode=mode, lpq=1e-8,
                               eval_stride=1, eval_metrics=(),
                               divergence_bound=1e6)
            with pytest.raises(DivergenceError) as exc:
                run(inst, plan, cfg)
            at[mode] = exc.value.iteration
        assert at["lazy"] == at["dense"] > 1

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_overflow_named_below_stride(self, seed, monkeypatch):
        # at lpq = 1e-300 z overflows within a few iterations: both modes
        # name an iteration there, not the next metric record.  Both check
        # the base a refresh writes and every prox input they compute; dense
        # mode proxes, and so checks, every Euclidean coordinate, which on
        # this instance (every coordinate read or written each iteration)
        # names the same iteration as lazy mode, in the compiled kernel and
        # in the Python loop
        inst = make_lad(np.array([[1.0, 0.0], [0.0, 2.0]]),
                        np.array([3.0, -3.0]))
        plan = problem_plan(inst)
        at = {}
        for path in loop_paths(monkeypatch):
            for mode, run in (("dense", run_dense), ("lazy", run_lazy)):
                cfg = SolverConfig(iterations=4000, seed=seed, mode=mode,
                                   lpq=1e-300, eval_stride=100,
                                   eval_metrics=(), divergence_bound=1e3)
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(DivergenceError,
                                      match="dual vector z") as exc:
                    run(inst, plan, cfg)
                at[path, mode] = exc.value.iteration
        assert len(set(at.values())) == 1
        assert at["c", "dense"] < 100

    def test_cert_violations_zero_on_runs(self):
        for inst in problem_instances_for_tests():
            plan = problem_plan(inst)
            trace = run_dense(inst, plan, SolverConfig(iterations=300,
                                                       mode="dense"))
            assert trace.cert_violations == 0
            assert step_condition_violations(trace.a_seq, trace.info["gamma"],
                                             trace.info["lpq"],
                                             trace.info["q_star"]) == 0


def _test_instance(family):
    return next(i for i in problem_instances_for_tests() if i.family == family)


# every family, and the geometries that exercise each part of the dual state
BITWISE_CASES = {
    "two-sided": lambda: generate_instance("matrix-game", 12, 9, 1.5, seed=2,
                                           mode="two-sided"),
    "row-sided": lambda: generate_instance("matrix-game", 12, 9, 1.5, seed=2,
                                           mode="row-sided"),
    "matrix-game": lambda: _test_instance("matrix-game"),
    "box-simplex": lambda: _test_instance("box-simplex"),
    "lad": lambda: _test_instance("lad"),
    "policy-eval": lambda: _test_instance("policy-eval"),
    "mixed": lambda: mixed_instance(),
    "lad-quad": lambda: generate_instance("lad", 8, 7, 1.0, seed=5,
                                          density=0.5, quad=0.5),
    "policy-eval-mu0.1": lambda: generate_instance(
        "policy-eval", 10, 5, 0.0, seed=1, out_degree=2, beta=0.3,
        sym_margin=1.5, reward_scale=0.2, mu=0.1),
}


class TestDenseLazyEquivalence:
    @pytest.mark.parametrize("inst", problem_instances_for_tests(),
                             ids=lambda i: i.family)
    def test_metric_traces_match(self, inst):
        plan = problem_plan(inst)
        K = 400
        td = run_dense(inst, plan, SolverConfig(iterations=K, seed=5,
                                                mode="dense", eval_stride=40))
        tl = run_lazy(inst, plan, SolverConfig(iterations=K, seed=5,
                                               mode="lazy", eval_stride=40))
        assert len(td.records) == len(tl.records)
        for rd, rl in zip(td.records, tl.records):
            assert rd.iteration == rl.iteration
            assert rd.oracle_calls == rl.oracle_calls
            for key, dv in rd.metric_dict().items():
                lv = rl.metric_dict()[key]
                if dv is None:
                    assert lv is None
                else:
                    assert abs(dv - lv) <= 1e-9 * max(abs(dv), abs(lv), 1e-9)

    @pytest.mark.parametrize("name", BITWISE_CASES)
    def test_modes_bitwise_equal(self, name, monkeypatch):
        # both modes prox the same base z + A*S with the same arithmetic;
        # dense mode only does it for every coordinate, so the runs are
        # equal, in the compiled kernel and in the Python loop
        inst = BITWISE_CASES[name]()
        plan = problem_plan(inst)
        args = dict(iterations=1000, seed=7, eval_stride=50)
        runs = []
        for _ in loop_paths(monkeypatch):
            runs.append(run_dense(inst, plan, SolverConfig(mode="dense",
                                                           **args)))
            runs.append(run_lazy(inst, plan, SolverConfig(mode="lazy",
                                                          **args)))
        for tr in runs[1:]:
            assert_runs_bitwise_equal(tr, runs[0])

    @pytest.mark.parametrize("name", BITWISE_CASES)
    def test_array_writes_bitwise_equal(self, name, monkeypatch):
        # components handed the ndarrays (x, the scratch buffer, the table's
        # values) write the same bits as components handed memoryviews of
        # them (a scalar_io operator such as LAD's), in both modes, in the
        # compiled kernel and in the Python loop
        inst = BITWISE_CASES[name]()
        plan = problem_plan(inst)
        args = dict(iterations=1000, seed=7, eval_stride=50)
        ts = run_dense(inst, plan, SolverConfig(mode="dense", **args))
        monkeypatch.setattr(inst.operator, "scalar_io", False)
        for _ in loop_paths(monkeypatch):
            td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
            tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
            assert_runs_bitwise_equal(td, ts)
            assert_runs_bitwise_equal(tl, ts)

    def test_flushed_final_iterate_matches(self):
        inst = problem_instances_for_tests()[2]
        plan = problem_plan(inst)
        td = run_dense(inst, plan, SolverConfig(iterations=777, seed=3,
                                                mode="dense"))
        tl = run_lazy(inst, plan, SolverConfig(iterations=777, seed=3,
                                               mode="lazy"))
        scale = max(1.0, np.max(np.abs(td.final_x)))
        np.testing.assert_allclose(tl.final_x, td.final_x, rtol=0,
                                   atol=1e-9 * scale)

    def test_sampled_average_matches(self):
        inst = problem_instances_for_tests()[0]
        plan = problem_plan(inst)
        args = dict(iterations=300, seed=11, averaging="sampled-index-set")
        td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
        tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
        np.testing.assert_allclose(tl.x_bar, td.x_bar, atol=1e-11)


def mixed_instance():
    """Custom monotone affine operator on a mixed geometry: a 4-coordinate
    weighted Euclidean block that components read only in part, a simplex
    block, and a boxed singleton.  One component reads nothing."""
    geom = GeometryBundle([
        euclidean_block(np.arange(4), anchor=np.array([0.5, -0.2, 0.0, 0.1]),
                        weights=np.array([1.0, 2.0, 1.0, 0.5]), mu=0.3),
        simplex_block(np.arange(4, 7)),
        euclidean_block(np.array([7]), lo=-1.0, hi=1.0),
    ])
    comps = [
        CallableComponent([0], [4, 5], lambda x: [x[4] - 2.0 * x[5] + 0.1]),
        CallableComponent([4, 5], [0], lambda x: [-x[0], 2.0 * x[0]]),
        CallableComponent([1, 7], [1, 7],
                          lambda x: [0.5 * x[7], 0.2 - 0.5 * x[1]]),
        CallableComponent([2, 3], [2], lambda x: [0.2 * x[2], 0.1]),
        CallableComponent([6, 3], [3, 6], lambda x: [x[3], -x[6]]),
        CallableComponent([1], [], lambda x: [-0.3]),
    ]
    ref = geom.x0.copy()
    return make_custom(comps, geom, [2.3, 2.3, 0.5, 0.2, 1.0, 0.01],
                       reference=ref)


class TestLazyCatchup:
    def test_mixed_geometry_matches_dense_every_iteration(self):
        inst = mixed_instance()
        plan = problem_plan(inst)
        args = dict(iterations=3000, seed=4, eval_stride=1,
                    eval_metrics=("dist_sq", "gap_fixed"),
                    comparator=inst.x0)
        td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
        tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
        assert len(tl.records) == 3001
        for rd, rl in zip(td.records, tl.records):
            for key in ("dist_sq", "gap_fixed"):
                dv, lv = getattr(rd, key), getattr(rl, key)
                assert abs(dv - lv) <= 1e-9 * max(abs(dv), 1.0)
        np.testing.assert_allclose(tl.final_x, td.final_x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(tl.x_bar, td.x_bar, rtol=0, atol=1e-9)
        np.testing.assert_allclose(tl.info["fhat_last"], td.info["fhat_last"],
                                   rtol=0, atol=1e-9)

    def test_refresh_keeps_euclidean_dual_value(self, monkeypatch):
        # a refresh at step-size sum A moves S on j's Euclidean write set
        # and shifts the base z there, so z + A*S (the dual value) stays:
        # a lazy run stopped after any iteration ends at the prox of the
        # true dual vector, which the reference replay sums, up to rounding.
        # Every refresh here writes Euclidean coordinates, and a dropped
        # shift would move the iterate by about A times the change in S.
        # In the compiled kernel (from K = 2 on) and in the Python loop
        inst = mixed_instance()
        plan = problem_plan(inst)
        for _ in loop_paths(monkeypatch):
            for K in range(1, 13):
                cfg = SolverConfig(iterations=K, seed=0, mode="lazy",
                                   eval_metrics=())
                draws = ([0, 1, 2], [2, 3, 4, 0])
                tl = run_lazy(inst, scripted_plan(plan, *draws), cfg)
                iterates = _replay_dense(inst, scripted_plan(plan, *draws),
                                         tl, 0)[0]
                np.testing.assert_allclose(tl.final_x, iterates[K], rtol=0,
                                           atol=1e-13)
                if K == 1:
                    assert np.any(tl.info["table_values"]
                                  != ComponentTable(inst.operator,
                                                    inst.x0).values)

    @staticmethod
    def _long_horizon_equal(inst, K, monkeypatch):
        """Dense and lazy runs of K iterations, without any re-sum of the
        aggregate, are equal bit for bit, in the compiled kernel and in the
        Python loop."""
        monkeypatch.setattr(ComponentTable, "resum", None)  # never called
        plan = problem_plan(inst)
        args = dict(iterations=K, seed=0, eval_stride=K, eval_metrics=())
        for _ in loop_paths(monkeypatch):
            td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
            tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
            assert_runs_bitwise_equal(tl, td)

    def test_lad_long_horizon_drift(self, monkeypatch):
        # 1e5 iterations, each refreshing the incrementally summed aggregate
        inst = generate_instance("lad", 30, 30, 1.0, seed=0)
        self._long_horizon_equal(inst, 100_000, monkeypatch)

    @pytest.mark.parametrize("family", ["box-simplex", "policy-eval"])
    def test_long_horizon_drift(self, family, monkeypatch):
        self._long_horizon_equal(_test_instance(family), 4000, monkeypatch)

    @pytest.mark.parametrize("scalar_io", [True, False],
                             ids=["scalar", "array"])
    def test_dense_iterate_current_after_refresh(self, scalar_io,
                                                 monkeypatch):
        # dense mode settles the whole iterate once per iteration, after
        # the refresh and its base shift, so the iterate is the prox of
        # z + A*S on every Euclidean coordinate: a dense run stopped after
        # any iteration ends where a lazy run, which settles every
        # coordinate for its last record, ends, bit for bit, in the
        # compiled kernel and in the Python loop, with the components
        # handed memoryviews (they read x[i] and write a slice of a float
        # array, which a memoryview takes too) or the ndarrays
        inst = mixed_instance()
        monkeypatch.setattr(inst.operator, "scalar_io", scalar_io)
        plan = problem_plan(inst)
        for _ in loop_paths(monkeypatch):
            for K in range(1, 40):
                args = dict(iterations=K, seed=8, eval_metrics=())
                td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
                tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
                np.testing.assert_array_equal(td.final_x, tl.final_x)

    @pytest.mark.parametrize("seed", range(3))
    def test_settle_list_and_array_paths_bitwise(self, seed):
        # prox_into settles a set from z + A*S into x in numpy with the
        # per-coordinate IEEE operations of the compiled kernel's settle,
        # written out below in Python floats: the same bits inside the box
        # and at a clamped box coordinate.  A non-finite input is reported
        # as the largest magnitude, and nothing of x is written
        inst = mixed_instance()
        geom = inst.geometry
        eu = geom._eu_idx
        rng = np.random.default_rng(seed)
        z, S = rng.normal(size=inst.d), 3.0 * rng.normal(size=inst.d)
        S[7] = 50.0 * (1 if seed % 2 else -1)    # clamps the boxed coordinate
        A = 0.8
        floats = geom.x0.copy()
        for i in eu.tolist():
            u = z[i].item() + A * S[i].item()
            u = (geom._wx0[i].item() - u) / (geom._w[i].item()
                                             + A * geom._mu[i].item())
            lo, hi = geom._lo[i].item(), geom._hi[i].item()
            floats[i] = lo if u < lo else hi if u > hi else u
        x = geom.x0.copy()
        assert geom.prox_into(x, eu.copy(), z, S, A) is None
        np.testing.assert_array_equal(x, floats)
        assert abs(x[7]) == 1.0
        bad = z.copy()
        bad[eu[1]] = np.inf
        bad[eu[2]] = -1e300
        assert geom.prox_into(x, eu.copy(), bad, S, A) == np.inf
        bad[eu[3]] = np.nan
        assert np.isnan(geom.prox_into(x, eu.copy(), bad, S, A))
        np.testing.assert_array_equal(x, floats)


class TestLazySupportBookkeeping:
    def test_lad_touched_coordinates_bounded(self):
        inst = generate_instance("lad", 12, 9, 1.0, seed=2, density=0.3)
        A = inst.data["A"].toarray()
        bound = 2 * (np.count_nonzero(A, axis=1).max()
                     + np.count_nonzero(A, axis=0).max())
        op = inst.operator
        coord_block = np.empty(inst.d, dtype=np.intp)
        for bi, b in enumerate(inst.geometry.blocks):
            coord_block[b.idx] = bi
        for c in op.components:
            touched = set(coord_block[c.in_idx]) | set(coord_block[c.out_idx])
            assert 2 * len(touched) <= bound

    def test_lazy_iteration_python_calls(self, monkeypatch):
        # a lazy LAD iteration of the Python loop, which runs in numpy,
        # makes at most 18.1 Python-level calls: sample_p and sample_q with
        # a uniform and an alias lookup each, two component evaluations
        # (one in the table refresh), the refresh, settle -> prox_into ->
        # _prox_euclidean on the coordinates j1 and j2 read, the base
        # shift's finiteness check (_check_finite and ndarray.all) and the
        # schedule's step size; the records add about 0.05
        # (tests/test_kernel.py counts the kernel's)
        monkeypatch.setattr(solver._kernel, "load", lambda: None)
        inst = generate_instance("lad", 200, 150, 1.0, seed=5, density=0.05)
        cfg = SolverConfig(iterations=2000, seed=0, mode="lazy")
        assert calls_per_iteration(run_lazy, inst, problem_plan(inst),
                                   cfg) <= 18.1


class TestAveraging:
    def test_single_iteration_both_modes(self):
        inst = problem_instances_for_tests()[0]
        plan = problem_plan(inst)
        for averaging in ("weighted-full", "sampled-index-set"):
            cfg = SolverConfig(iterations=1, seed=2, mode="dense",
                               averaging=averaging)
            tr = run_dense(inst, plan, cfg)
            np.testing.assert_allclose(tr.x_bar, tr.final_x, atol=1e-14)

    def test_flat_weights_equal_plain_mean(self):
        inst = rotation_instance()
        plan = SamplingPlan(np.ones(1), np.ones(1), lpq=1.0)
        K = 20
        cfg = SolverConfig(iterations=K, seed=0, mode="dense",
                           averaging="weighted-full", eval_metrics=())
        tr = run_dense(inst, plan, cfg)
        # gamma = 0: all a_i equal, weighted average is the plain mean;
        # reconstruct iterates by replaying the deterministic m=1 recursion
        xs = _replay_rotation(inst, tr.a_seq, K)
        np.testing.assert_allclose(tr.x_bar, np.mean(xs, axis=0), atol=1e-12)

    def test_exhaustive_index_set_equals_mean(self):
        inst = rotation_instance()
        plan = SamplingPlan(np.ones(1), np.ones(1), lpq=1.0)
        K = 15
        cfg = SolverConfig(iterations=K, seed=0, mode="dense",
                           averaging="sampled-index-set", avg_samples=K,
                           eval_metrics=())
        tr = run_dense(inst, plan, cfg)
        xs = _replay_rotation(inst, tr.a_seq, K)
        np.testing.assert_allclose(tr.x_bar, np.mean(xs, axis=0), atol=1e-12)

    @pytest.mark.parametrize("eval_point", ["iterate", "average"])
    @pytest.mark.parametrize("family", ["matrix-game", "box-simplex", "lad",
                                        "policy-eval", "mixed"])
    def test_weighted_full_lazy_equals_dense(self, family, eval_point,
                                             monkeypatch):
        # weighted-full averaging picks every iteration, and lazy mode
        # settles the whole iterate at every pick: the run is dense mode's,
        # in the compiled kernel and in the Python loop
        inst = (mixed_instance() if family == "mixed"
                else _test_instance(family))
        plan = problem_plan(inst)
        args = dict(iterations=60, seed=4, eval_stride=7,
                    averaging="weighted-full", eval_point=eval_point)
        runs = []
        for _ in loop_paths(monkeypatch):
            runs.append(run_dense(inst, plan, SolverConfig(mode="dense",
                                                           **args)))
            runs.append(run_lazy(inst, plan, SolverConfig(mode="lazy",
                                                          **args)))
        for tr in runs[1:]:
            assert_runs_bitwise_equal(tr, runs[0])

    def test_non_positive_stride_and_samples_rejected(self):
        # a zero stride divided by zero in the loop; a negative one was
        # accepted and recorded at its absolute value
        for kw in (dict(eval_stride=0), dict(eval_stride=-5),
                   dict(avg_samples=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                SolverConfig(iterations=5, **kw)
        for stride in (0, -5):
            with pytest.raises(ValueError, match="eval_stride must be >= 1"):
                BaselineConfig(method="popov", iterations=5,
                               eval_stride=stride)

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", -1.0), ("divergence_bound", 0.0),
        ("divergence_bound", -1.0), ("divergence_bound", math.nan)])
    def test_nan_and_non_positive_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(iterations=5, **{field: value})

    def test_average_point_needs_weighted_full(self):
        for mode in ("dense", "lazy"):
            with pytest.raises(ValueError, match="averaged-point"):
                SolverConfig(iterations=5, mode=mode, eval_point="average",
                             averaging="sampled-index-set")

    def test_entry_points_reject_other_mode(self):
        inst = problem_instances_for_tests()[0]
        plan = problem_plan(inst)
        with pytest.raises(ValueError, match="'dense'"):
            run_dense(inst, plan, SolverConfig(iterations=5, mode="lazy"))
        with pytest.raises(ValueError, match="'lazy'"):
            run_lazy(inst, plan, SolverConfig(iterations=5, mode="dense"))

    def test_gamma_positive_sampled_set_empty(self):
        inst = problem_instances_for_tests()[3]  # policy eval, gamma > 0
        plan = problem_plan(inst)
        cfg = SolverConfig(iterations=10, mode="dense",
                           averaging="sampled-index-set")
        tr = run_dense(inst, plan, cfg)
        assert tr.x_bar is None


def _replay_rotation(inst, a_seq, K):
    """Closed-form replay of the m=1 dual-averaging recursion on the
    rotation instance (independent of the solver internals)."""
    F = lambda x: np.array([x[1], -x[0]])
    x0 = inst.x0
    xs = []
    z = np.zeros(2)
    hist = [F(x0)]
    x = x0
    for k in range(1, K + 1):
        a = a_seq[k - 1]
        a_prev = a_seq[k - 2] if k >= 2 else 0.0
        fhat = hist[-1] + (a_prev / a) * (hist[-1] - hist[-2 if k >= 2 else -1])
        z += a * fhat
        x = x0 - z
        hist.append(F(x))
        xs.append(x.copy())
    return xs


def _replay_dense(inst, plan, trace, seed):
    """Reference dense run from the public pieces (stream, plan, step sizes,
    table, full prox), independent of the solver's dual state: each step
    adds a*S and the correction to the true dual vector z and proxes all
    of it.  Returns the iterates by iteration, the last extrapolated
    estimate, the a-weighted average and the table."""
    op, geom = inst.operator, inst.geometry
    K = trace.iterations
    draw = RngStream(seed, stream=0)
    table = ComponentTable(op, geom.x0)
    z = np.zeros(op.d)
    x = geom.x0.copy()
    iterates = {0: x}
    wsum = np.zeros(op.d)
    a = A = 0.0
    gamma, lpq, q_star = (trace.info[k] for k in ("gamma", "lpq", "q_star"))
    for k in range(1, K + 1):
        a_prev = a
        a = next_step_size(a_prev, A, k, gamma, lpq, q_star)
        A += a
        j1 = plan.sample_p(draw)
        v1 = value(op.components[j1], x)
        z += a * table.aggregate
        if a_prev != 0.0:
            z[op.components[j1].out_idx] += (a_prev / plan.p[j1]) * (
                v1 - table.resolve_prev(j1, k))
        if k == K:
            fhat_last = extrapolate(table, j1, v1, a_prev, a, plan.p[j1], k)
        x = geom.prox_full(z, A)
        iterates[k] = x
        wsum += a * x
        j2 = plan.sample_q(draw)
        table.refresh(j2, x, k)
    return iterates, fhat_last, wsum / A, table


def test_table_freshness_exact_replay():
    """Replay a dense run on a matrix game and check that every table slot
    holds the component evaluated exactly at the iterate of its recorded
    refresh.  A game has only simplex blocks, whose z the solver also keeps
    as the true dual vector, so the replay is equal bit for bit."""
    inst = problem_instances_for_tests()[0]
    plan = problem_plan(inst)
    op = inst.operator
    K = 60
    tr = run_dense(inst, plan, SolverConfig(iterations=K, seed=13,
                                            mode="dense", eval_metrics=()))
    iterates, fhat_last, _, table = _replay_dense(inst, plan, tr, 13)
    np.testing.assert_array_equal(iterates[K], tr.final_x)
    np.testing.assert_array_equal(fhat_last, tr.info["fhat_last"])
    np.testing.assert_array_equal(tr.info["table_eval_iter"], table.eval_iter)
    ends = op.offsets
    for j in range(op.m):
        ki = int(tr.info["table_eval_iter"][j])
        np.testing.assert_array_equal(
            tr.info["table_values"][ends[j]:ends[j + 1]],
            value(op.components[j], iterates[ki]))


@pytest.mark.parametrize("name", BITWISE_CASES)
def test_dense_run_matches_reference_replay(name):
    """On Euclidean coordinates the solver keeps z as base + A*S, which
    rounds differently from the replay's running sum: the two agree to
    1e-9 of the iterate's scale."""
    inst = BITWISE_CASES[name]()
    plan = problem_plan(inst)
    K = 500
    tr = run_dense(inst, plan, SolverConfig(iterations=K, seed=3, mode="dense",
                                            averaging="weighted-full",
                                            eval_metrics=()))
    iterates, fhat_last, x_bar, _ = _replay_dense(inst, plan, tr, 3)
    for got, want in ((tr.final_x, iterates[K]), (tr.x_bar, x_bar),
                      (tr.info["fhat_last"], fhat_last)):
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def test_m1_rem_matches_popov_trajectory():
    """With one component and unit probabilities, the dense run reproduces
    the past-gradient (Popov) recursion exactly on the rotation instance."""
    lpq = 2.0
    inst = rotation_instance(lpq)
    plan = SamplingPlan(np.ones(1), np.ones(1), lpq=lpq)
    K = 60
    eta = SQ23 / (10.0 * lpq)
    tr = run_dense(inst, plan, SolverConfig(iterations=K, seed=0, mode="dense",
                                            eval_metrics=()))
    tp = run_baseline(inst, BaselineConfig(method="popov", iterations=K,
                                           eta=eta, eval_metrics=()))
    np.testing.assert_allclose(tr.final_x, tp.final_x, atol=1e-12)


def _run_named(name, inst, **kw):
    """A run of solver ``name``, evaluating at the average where it can."""
    if name.startswith("rem-"):
        dense = name == "rem-dense"
        cfg = SolverConfig(mode=name[4:], **kw,
                           averaging="weighted-full" if dense
                           else "sampled-index-set",
                           eval_point="average" if dense else "iterate")
        return solver.run(inst, problem_plan(inst), cfg)
    return run_baseline(inst, BaselineConfig(method=name, eval_point="average",
                                             **kw))


@pytest.mark.parametrize("name", ["rem-dense", "rem-lazy", "mirror-prox",
                                  "popov"])
def test_one_record_rule(name):
    """Every solver records at 0 (at x0), at each stride multiple and at K,
    with exact oracle counts, and raises at the first record past the
    divergence bound."""
    inst = _test_instance("policy-eval")
    m, K = inst.m, 23
    tr = _run_named(name, inst, iterations=K, seed=2, eval_stride=5)
    its = [r.iteration for r in tr.records]
    assert its == [0, 5, 10, 15, 20, 23]
    at_x0 = evaluate_point(inst, inst.x0, default_metrics(inst))
    assert at_x0 and {k: getattr(tr.records[0], k) for k in at_x0} == at_x0
    base, per_iter = {"mirror-prox": (0, 2 * m), "popov": (0, m)}.get(name,
                                                                      (m, 2))
    assert [r.oracle_calls for r in tr.records] == \
        [base + per_iter * k for k in its]
    # the iterate at record k is the final iterate of a k-iteration run
    norms = {k: float(np.max(np.abs(_run_named(
        name, inst, iterations=k, seed=2, eval_metrics=()).final_x)))
        for k in its[1:]}
    bound = sorted(norms.values())[len(norms) // 2]
    first = next(k for k in its[1:] if norms[k] >= bound)
    with pytest.raises(DivergenceError, match=f"at iteration {first}$") as exc:
        _run_named(name, inst, iterations=K, seed=2, eval_stride=5,
                   divergence_bound=bound)
    assert exc.value.iteration == first and exc.value.norm == norms[first]
