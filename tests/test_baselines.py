import math

import numpy as np
import pytest

from remvi.baselines import BaselineConfig, run_baseline
from remvi.geometry import GeometryBundle, euclidean_block, simplex_block
from remvi.operators import CallableComponent, empirical_full_lipschitz
from remvi.problems import (generate_instance, make_custom, make_lad,
                            make_matrix_game)


def zero_op_instance():
    geom = GeometryBundle([euclidean_block(np.arange(2), lo=-1.0, hi=1.0,
                                           anchor=np.array([0.3, -0.2])),
                           simplex_block(np.arange(2, 4))])
    comp = CallableComponent(np.arange(4), np.arange(4), lambda x: np.zeros(4))
    return make_custom([comp], geom, [1e-12], plan_lpq=1.0)


def quadratic_instance():
    # F(x) = x with quadratic regularizer of strength 1 (d = 1)
    geom = GeometryBundle([euclidean_block(np.array([0]), mu=1.0,
                                           anchor=np.array([2.0]))])
    comp = CallableComponent(np.array([0]), np.array([0]), lambda x: x[:1].copy())
    return make_custom([comp], geom, [1.0], plan_lpq=1.0)


def rotation_instance():
    comp = CallableComponent(np.arange(2), np.arange(2),
                             lambda x: np.array([x[1], -x[0]]))
    geom = GeometryBundle([euclidean_block(np.arange(2),
                                           anchor=np.array([1.0, 0.0]))])
    return make_custom([comp], geom, [1.0], plan_lpq=1.0)


class TestMirrorProx:
    def test_zero_operator_fixed_point(self):
        inst = zero_op_instance()
        cfg = BaselineConfig(method="mirror-prox", iterations=50, eta=0.5,
                             eval_metrics=())
        trace = run_baseline(inst, cfg)
        np.testing.assert_allclose(trace.final_x, inst.x0, atol=1e-14)

    def test_game_rate_constant(self):
        # classical 1/K rate; constant within factor 4 of L_emp * sup-D
        inst = generate_instance("matrix-game", 2, 2, 0.5, seed=1)
        K = 10000
        cfg = BaselineConfig(method="mirror-prox", iterations=K,
                             eval_stride=K, seed=0)
        trace = run_baseline(inst, cfg)
        L = empirical_full_lipschitz(inst.operator, inst.geometry, 400,
                                     np.random.default_rng(0))
        D_max = math.log(2.0) + math.log(2.0)
        assert trace.records[-1].sup_gap * K <= 4.0 * L * D_max

    def test_scalar_strongly_monotone_recursion(self):
        # hand-derived linear map: x+ = x (1 + eta^2) / (1 + eta)^2
        inst = quadratic_instance()
        eta = 0.5
        cfg = BaselineConfig(method="mirror-prox", iterations=40, eta=eta,
                             eval_metrics=(), eval_point="iterate")
        trace = run_baseline(inst, cfg)
        c = (1.0 + eta ** 2) / (1.0 + eta) ** 2
        assert abs(c) < 1.0
        np.testing.assert_allclose(trace.final_x, [2.0 * c ** 40], rtol=1e-12)

    def test_oracle_accounting(self):
        inst = generate_instance("matrix-game", 3, 4, 0.0, seed=2)
        K = 57
        trace = run_baseline(inst, BaselineConfig(method="mirror-prox",
                                                  iterations=K, eta=0.1,
                                                  eval_stride=10))
        assert trace.oracle_calls == 2 * inst.m * K
        for rec in trace.records:
            assert rec.oracle_calls == 2 * inst.m * rec.iteration


class TestPopov:
    def test_zero_operator_fixed_point(self):
        inst = zero_op_instance()
        trace = run_baseline(inst, BaselineConfig(method="popov", iterations=50,
                                                  eta=0.5, eval_metrics=()))
        np.testing.assert_allclose(trace.final_x, inst.x0, atol=1e-14)

    def test_rotation_bounded(self):
        # spectral radius of the linear past-gradient map stays below 1
        eta = 0.1
        M = np.zeros((4, 4))
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        M[:2, :2] = np.eye(2) - 2.0 * eta * J
        M[:2, 2:] = eta * J
        M[2:, :2] = np.eye(2)
        assert np.max(np.abs(np.linalg.eigvals(M))) < 1.0
        inst = rotation_instance()
        trace = run_baseline(inst, BaselineConfig(method="popov",
                                                  iterations=100000, eta=eta,
                                                  eval_metrics=()))
        assert np.linalg.norm(trace.final_x) <= 1.0 + 1e-9

    def test_oracle_accounting(self):
        inst = generate_instance("matrix-game", 3, 4, 0.0, seed=2)
        K = 41
        trace = run_baseline(inst, BaselineConfig(method="popov", iterations=K,
                                                  eta=0.1, eval_stride=7))
        assert trace.oracle_calls == inst.m * K
        for rec in trace.records:
            assert rec.oracle_calls == inst.m * rec.iteration

    def test_default_steps_from_empirical_lipschitz(self):
        inst = generate_instance("matrix-game", 3, 3, 0.0, seed=4)
        tp = run_baseline(inst, BaselineConfig(method="popov", iterations=1,
                                               seed=3, eval_metrics=()))
        tm = run_baseline(inst, BaselineConfig(method="mirror-prox",
                                               iterations=1, seed=3,
                                               eval_metrics=()))
        assert tp.info["eta"] == pytest.approx(tm.info["eta"] / 2.0, rel=1e-12)


@pytest.mark.parametrize("method", ["mirror-prox", "popov"])
def test_distance_nonincreasing_on_known_solutions(method):
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 3)) * 0.4
    instances = [
        make_lad(A, A @ rng.uniform(-0.5, 0.5, 3), quad=1.0,
                 solve_reference=True),
        generate_instance("policy-eval", 6, 3, 0.0, seed=6),
    ]
    for inst in instances:
        cfg = BaselineConfig(method=method, iterations=400, seed=1,
                             eval_stride=1, eval_point="iterate",
                             eval_metrics=("dist_sq",))
        trace = run_baseline(inst, cfg)
        dists = [r.dist_sq for r in trace.records]
        for prev, nxt in zip(dists[100:], dists[101:]):
            assert nxt <= prev + 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(method="unknown", iterations=5)
    with pytest.raises(ValueError):
        BaselineConfig(method="popov", iterations=5, eta=-1.0)


@pytest.mark.parametrize("field,value", [
    ("eta", math.nan), ("eta", 0.0), ("divergence_bound", 0.0),
    ("divergence_bound", -1.0), ("divergence_bound", math.nan)])
def test_nan_and_non_positive_values_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        BaselineConfig(method="popov", iterations=5, **{field: value})


def _replay_mirror_prox(inst, eta, K):
    """Mirror-prox written out: (x_k, average of the half points) per k."""
    geom, op = inst.geometry, inst.operator
    x, wsum, out = inst.x0.copy(), np.zeros(inst.d), []
    for k in range(1, K + 1):
        w = geom.prox_full(eta * op.evaluate_full(x), eta, anchor=x)
        x = geom.prox_full(eta * op.evaluate_full(w), eta, anchor=x)
        wsum += w
        out.append((x, wsum / k))
    return out


def _replay_popov(inst, eta, K):
    """Popov's method written out: (x_k, average of the iterates) per k."""
    geom, op = inst.geometry, inst.operator
    x, xsum, out = inst.x0.copy(), np.zeros(inst.d), []
    v_prev = None
    for k in range(1, K + 1):
        v = op.evaluate_full(x)
        u = v if v_prev is None else 2.0 * v - v_prev
        x = geom.prox_full(eta * u, eta, anchor=x)
        v_prev = v
        xsum += x
        out.append((x, xsum / k))
    return out


@pytest.mark.parametrize("eval_point", ["iterate", "average"])
@pytest.mark.parametrize("method", ["mirror-prox", "popov"])
def test_run_equals_written_out_replay(method, eval_point):
    from remvi.metrics import default_metrics, evaluate_point
    from remvi.problems import problem_instances_for_tests
    replay = _replay_mirror_prox if method == "mirror-prox" else _replay_popov
    calls_per_iter = 2 if method == "mirror-prox" else 1
    instances = problem_instances_for_tests() + [
        generate_instance("lad", 30, 30, 1.0, seed=13, density=0.2)]
    K, stride = 23, 5
    for inst in instances:
        trace = run_baseline(inst, BaselineConfig(
            method=method, iterations=K, seed=1, eval_stride=stride,
            eval_point=eval_point))
        steps = replay(inst, trace.info["eta"], K)
        np.testing.assert_array_equal(trace.final_x, steps[-1][0])
        np.testing.assert_array_equal(trace.x_bar, steps[-1][1])
        metrics = default_metrics(inst)
        want = [(0, 0, evaluate_point(inst, inst.x0, metrics))]
        for k in [*range(stride, K, stride), K]:
            x, x_avg = steps[k - 1]
            point = x_avg if eval_point == "average" else x
            want.append((k, calls_per_iter * inst.m * k,
                         evaluate_point(inst, point, metrics)))
        got = [(r.iteration, r.oracle_calls,
                {m: getattr(r, m) for m in metrics}) for r in trace.records]
        assert got == want
