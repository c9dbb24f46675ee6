"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Heavy runs (the rate criteria) are session fixtures shared by the certificate,
accounting, and policy-evaluation criteria.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import value
from remvi.baselines import BaselineConfig, run_baseline
from remvi.metrics import gap_fixed
from remvi.operators import LipschitzProfile
from remvi.problems import (generate_instance, make_box_simplex, make_lad,
                            make_matrix_game, problem_instances_for_tests)
from remvi.sampling import AliasTable, RngStream, build_plan, problem_plan
from remvi.solver import (SolverConfig, run_dense, run_lazy,
                          step_condition_violations)

SQ23 = math.sqrt(2.0 / 3.0)
REL_EQ = 1e-9


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def rel_close(a, b, tol=REL_EQ):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def equivalence_runs():
    """Criterion 1 runs: four families, K=1000, 5 seeds, both modes."""
    t0 = time.perf_counter()
    instances = {
        "matrix-game 20x20": generate_instance("matrix-game", 20, 20, 1.0, seed=11),
        "box-simplex 20x30": generate_instance("box-simplex", 20, 30, 1.0, seed=12),
        "lad 30x30@0.2": generate_instance("lad", 30, 30, 1.0, seed=13, density=0.2),
        "policy-eval n10 dim5": generate_instance("policy-eval", 10, 5, 0.0, seed=14),
    }
    out = {}
    for name, inst in instances.items():
        plan = problem_plan(inst)
        runs = []
        for seed in range(5):
            args = dict(iterations=1000, seed=seed, eval_stride=100,
                        averaging="sampled-index-set")
            td = run_dense(inst, plan, SolverConfig(mode="dense", **args))
            tl = run_lazy(inst, plan, SolverConfig(mode="lazy", **args))
            runs.append((td, tl))
        out[name] = (inst, plan, runs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sublinear_runs():
    """Criterion 2 runs: 2x2 and 10x10 games, importance plan, 20 seeds."""
    out = {}
    K = 50000
    t0 = time.perf_counter()
    for name, (n, d, iseed) in {"game 2x2": (2, 2, 7),
                                "game 10x10": (10, 10, 11)}.items():
        inst = generate_instance("matrix-game", n, d, 1.0, seed=iseed)
        plan = build_plan("importance", profile=inst.profile)
        traces = []
        for seed in range(20):
            cfg = SolverConfig(iterations=K, seed=seed, mode="dense",
                               averaging="weighted-full", eval_point="average",
                               eval_stride=100)
            traces.append(run_dense(inst, plan, cfg))
        out[name] = (inst, plan, traces)
    return out, time.perf_counter() - t0


def _predicted_iterations(inst, plan, eps):
    """Smallest k with 2*4*D/(A_k gamma + 1) <= eps under the guaranteed
    lower-bound growth A_k >= A_1 (1 + alpha)^(k-1)."""
    gamma = inst.gamma
    D = inst.geometry.bregman(inst.reference, inst.x0)
    alpha = min(plan.q_min / 11.0, gamma / (10.0 * plan.lpq))
    A1 = SQ23 / (10.0 * plan.lpq)
    A_needed = (8.0 * D / eps - 1.0) / gamma
    k = 1 + math.log(max(A_needed, A1) / A1) / math.log1p(alpha)
    return int(math.ceil(k))


@pytest.fixture(scope="session")
def linear_runs():
    """Criterion 3 runs: strongly monotone policy-eval and LAD variant."""
    pe = generate_instance("policy-eval", 10, 5, 0.0, seed=1, out_degree=2,
                           beta=0.3, sym_margin=1.5, reward_scale=0.2)
    assert pe.data["mu"] == 0.1
    rng = np.random.default_rng(5)
    A = 0.2 * rng.uniform(0.25, 1.0, (6, 6)) * rng.choice([-1.0, 1.0], (6, 6))
    lad = make_lad(A, A @ (0.3 * rng.uniform(-1, 1, 6)), quad=2.0,
                   ref_optimum=0.0, solve_reference=True)
    out = {}
    t0 = time.perf_counter()
    for name, inst in (("policy-eval mu=0.1", pe), ("lad quad=2", lad)):
        plan = problem_plan(inst)
        k_pred = _predicted_iterations(inst, plan, 1e-6)
        stride = max(500, (k_pred // 20) // 100 * 100)
        K = 2 * k_pred + stride
        traces = []
        for seed in range(20):
            cfg = SolverConfig(iterations=K, seed=seed, mode="dense",
                               eval_stride=stride, eval_metrics=("dist_sq",))
            traces.append(run_dense(inst, plan, cfg))
        out[name] = (inst, plan, traces, k_pred)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_dense_lazy_equivalence(equivalence_runs):
    equivalence_runs, elapsed = equivalence_runs
    worst = 0.0
    for name, (inst, plan, runs) in equivalence_runs.items():
        for td, tl in runs:
            assert len(td.records) == len(tl.records)
            for rd, rl in zip(td.records, tl.records):
                assert rd.iteration == rl.iteration
                for key, dv in rd.metric_dict().items():
                    lv = rl.metric_dict()[key]
                    assert rel_close(dv, lv), (name, rd.iteration, key, dv, lv)
                    if dv is not None and max(abs(dv), abs(lv)) > 1e-12:
                        worst = max(worst, abs(dv - lv) / max(abs(dv), abs(lv)))
    report(1, worst <= REL_EQ and elapsed < 60.0,
           f"dense/lazy metric traces agree on 4 families x 5 seeds "
           f"(worst relative difference {worst:.2e} <= 1e-9; "
           f"runtime {elapsed:.1f}s < 60s)")


def test_criterion_2_sublinear_rate(sublinear_runs):
    sublinear_runs, elapsed = sublinear_runs
    worst_ratio = 0.0
    for name, (inst, plan, traces) in sublinear_runs.items():
        n, d = inst.data["A"].shape
        supD = math.log(n) + math.log(d)
        env_const = 2.0 * (2.0 * supD * 10.0 * plan.lpq / SQ23)
        by_iter = {}
        for tr in traces:
            for rec in tr.records:
                if rec.iteration >= 100:
                    by_iter.setdefault(rec.iteration, []).append(rec.sup_gap)
        assert by_iter, "no measured iterations at or beyond 100"
        for k, gaps in by_iter.items():
            ratio = np.mean(gaps) / (env_const / k)
            worst_ratio = max(worst_ratio, ratio)
    report(2, worst_ratio <= 1.0 and elapsed < 120.0,
           f"mean sup-gap within the Theorem envelope (slack 2) at every "
           f"measured k >= 100; worst envelope fraction {worst_ratio:.3f}; "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_3_linear_rate(linear_runs):
    linear_runs, elapsed = linear_runs
    details = []
    ok = True and elapsed < 120.0
    details_time = f"runtime {elapsed:.1f}s < 120s"
    for name, (inst, plan, traces, k_pred) in linear_runs.items():
        gamma = inst.gamma
        D = inst.geometry.bregman(inst.reference, inst.x0)
        A = np.concatenate([[0.0], np.cumsum(traces[0].a_seq)])
        by_iter = {}
        for tr in traces:
            for rec in tr.records:
                if rec.iteration > 0:
                    by_iter.setdefault(rec.iteration, []).append(rec.dist_sq)
        worst_frac = 0.0
        for k, vals in by_iter.items():
            envelope = 2.0 * 4.0 * D / (A[k] * gamma + 1.0)
            worst_frac = max(worst_frac, np.mean(vals) / envelope)
        hit = [k for k, vals in sorted(by_iter.items())
               if k <= 2 * k_pred and np.mean(vals) <= 1e-6]
        ok = ok and worst_frac <= 1.0 and bool(hit)
        details.append(f"{name}: envelope fraction {worst_frac:.2e}, "
                       f"below 1e-6 at k={hit[0] if hit else 'never'}"
                       f" (budget {2 * k_pred})")
    report(3, ok, "; ".join(details + [details_time]))


def test_criterion_4_step_certificate(equivalence_runs, sublinear_runs,
                                      linear_runs):
    traces = []
    for _, _, runs in equivalence_runs[0].values():
        for td, tl in runs:
            traces.extend([td, tl])
    for _, _, ts in sublinear_runs[0].values():
        traces.extend(ts)
    for _, _, ts, _ in linear_runs[0].values():
        traces.extend(ts)
    inline = sum(tr.cert_violations for tr in traces)
    recheck = sum(
        step_condition_violations(tr.a_seq, tr.info["gamma"], tr.info["lpq"],
                                  tr.info["q_star"])
        for tr in traces)
    report(4, inline == 0 and recheck == 0,
           f"all three step-size inequalities hold at every iteration of "
           f"{len(traces)} runs (0 violations, inline and recomputed)")


def test_criterion_5_estimator_identity():
    from remvi.operators import ComponentTable
    from remvi.solver import extrapolate
    worst = 0.0
    for inst in problem_instances_for_tests():
        assert inst.m <= 50
        plan = problem_plan(inst)
        op = inst.operator
        rng = np.random.default_rng(101)
        for _ in range(100):
            table = ComponentTable(op, inst.x0)
            k_frozen = int(rng.integers(1, 6))
            for k in range(1, k_frozen + 1):
                j = int(rng.integers(op.m))
                table.refresh(j, inst.sample_feasible(rng), k)
            x_prev = inst.sample_feasible(rng)
            a_prev = float(rng.uniform(0.1, 1.0))
            a = float(rng.uniform(0.1, 1.0))
            acc = np.zeros(op.d)
            for j in range(op.m):
                v = value(op.components[j], x_prev)
                acc += plan.p[j] * extrapolate(table, j, v, a_prev, a,
                                               plan.p[j], k_frozen + 1)
            resolved = np.zeros(op.d)
            for j, c in enumerate(op.components):
                resolved[c.out_idx] += table.resolve_prev(j, k_frozen + 1)
            expect = table.aggregate + (a_prev / a) * (
                op.evaluate_full(x_prev) - resolved)
            scale = max(1.0, float(np.max(np.abs(expect))))
            worst = max(worst, float(np.max(np.abs(acc - expect))) / scale)
    report(5, worst <= 1e-10,
           f"conditional-mean identity holds on 100 frozen states per family "
           f"(worst deviation {worst:.2e} <= 1e-10)")


def test_criterion_6_sampling_guarantees():
    rng = np.random.default_rng(12)
    worst_qmin = np.inf
    norm_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 60))
        lam = np.exp(rng.uniform(-6.0, 6.0, size=m))
        plan = build_plan("importance", profile=LipschitzProfile(lam))
        worst_qmin = min(worst_qmin, plan.q_min * 2.0 * m)
        root = np.sqrt(lam)
        norm_ok &= np.sum(np.maximum(root, root.mean())) <= 2.0 * np.sum(root)
    tvs = []
    rng0 = np.random.default_rng(4)
    for trial, p in enumerate([np.full(16, 1 / 16),
                               np.exp(rng0.uniform(-3, 3, size=16))]):
        p = p / p.sum()
        table = AliasTable(p)
        stream = RngStream(1000 + trial)
        draws = table.sample_many(stream.uniform_array(1000000))
        freq = np.bincount(draws, minlength=16) / 1e6
        tvs.append(0.5 * np.sum(np.abs(freq - p)))
    ok = worst_qmin >= 1.0 - 1e-12 and max(tvs) <= 0.005 and norm_ok
    report(6, ok,
           f"q_min*2m >= 1 (min {worst_qmin:.15f}), alias TV <= 0.005 "
           f"(max {max(tvs):.5f}), normalizer bound exact")


def _game_equilibrium(A):
    """Equilibrium of a simplex-simplex matrix game via two linear programs."""
    n, d = A.shape
    # min over z of t subject to A z <= t 1
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res_z = linprog(c, A_ub=np.hstack([A, -np.ones((n, 1))]), b_ub=np.zeros(n),
                    A_eq=np.hstack([np.ones((1, d)), np.zeros((1, 1))]),
                    b_eq=[1.0], bounds=[(0, None)] * d + [(None, None)])
    # max over y of s subject to A' y >= s 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res_y = linprog(c, A_ub=np.hstack([-A.T, np.ones((d, 1))]), b_ub=np.zeros(d),
                    A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
                    b_eq=[1.0], bounds=[(0, None)] * n + [(None, None)])
    assert res_z.status == 0 and res_y.status == 0
    return res_z.x[:d], res_y.x[:n]


def test_criterion_7_gap_oracles():
    rng = np.random.default_rng(31)
    worst_agree = 0.0
    worst_eq = 0.0
    # closed-form sup-gap vs exhaustive enumeration over extreme comparators
    for shape in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        A = rng.normal(size=shape)
        game = make_matrix_game(A)
        box = make_box_simplex(A, rng.normal(size=shape[0]))
        for inst, extremes in ((game, _game_vertices(*shape)),
                               (box, _box_vertices(*shape))):
            for _ in range(20):
                cand = inst.sample_feasible(rng)
                brute = max(gap_fixed(inst, cand, x) for x in extremes)
                worst_agree = max(worst_agree,
                                  abs(inst.sup_gap(cand) - brute))
        # LP equilibrium of the game has sup-gap ~ 0
        z, y = _game_equilibrium(A)
        worst_eq = max(worst_eq, abs(game.sup_gap(np.concatenate([z, y]))))
    # LAD with consistent construction: reference optimum is exactly 0
    for shape in [(2, 2), (3, 3)]:
        A = rng.normal(size=shape)
        z0 = rng.normal(size=shape[1])
        lad = make_lad(A, A @ z0, ref_optimum=0.0)
        for _ in range(20):
            cand = lad.sample_feasible(rng)
            direct = np.sum(np.abs(A @ cand[:shape[1]] - A @ z0))
            worst_agree = max(worst_agree, abs(lad.sup_gap(cand) - direct))
        opt = np.concatenate([z0, np.zeros(shape[0])])
        worst_eq = max(worst_eq, abs(lad.sup_gap(opt)))
    # box-simplex instance with an attainable dual optimum, checked on a grid
    Az = np.array([[1.0, -1.0], [-1.0, 1.0]])
    box = make_box_simplex(Az, Az @ np.array([0.5, -0.5]))
    grid = np.linspace(-1.0, 1.0, 21)
    ys = np.linspace(0.0, 1.0, 21)
    best = min(box.sup_gap(np.array([z1, z2, t, 1.0 - t]))
               for z1 in grid for z2 in grid for t in ys)
    worst_eq = max(worst_eq, abs(best))
    ok = worst_agree <= 1e-10 and worst_eq <= 1e-6
    report(7, ok,
           f"closed-form sup-gap matches enumeration within {worst_agree:.2e} "
           f"(<= 1e-10); equilibrium sup-gap <= {worst_eq:.2e} (<= 1e-6)")


def _game_vertices(n, d):
    out = []
    for j, i in itertools.product(range(d), range(n)):
        x = np.zeros(d + n)
        x[j] = 1.0
        x[d + i] = 1.0
        out.append(x)
    return out


def _box_vertices(n, d):
    out = []
    for corner in itertools.product((-1.0, 1.0), repeat=d):
        for i in range(n):
            x = np.zeros(d + n)
            x[:d] = corner
            x[d + i] = 1.0
            out.append(x)
    return out


def test_criterion_8_policy_eval_oracle(linear_runs):
    inst, plan, traces, k_pred = linear_runs[0]["policy-eval mu=0.1"]
    final_dists = [math.sqrt(tr.records[-1].dist_sq) for tr in traces]
    worst = max(final_dists)
    report(8, worst < 1e-5,
           f"distance to the direct solve below 1e-5 on all 20 seeds at "
           f"K={traces[0].iterations} (worst {worst:.2e})")


def test_criterion_9_oracle_accounting(equivalence_runs):
    ok = True
    for name, (inst, plan, runs) in equivalence_runs[0].items():
        for td, tl in runs:
            K = td.iterations
            ok &= td.oracle_calls == inst.m + 2 * K
            ok &= tl.oracle_calls == inst.m + 2 * K
    inst = generate_instance("matrix-game", 5, 5, 0.0, seed=3)
    K = 53
    tm = run_baseline(inst, BaselineConfig(method="mirror-prox",
                                           iterations=K, eta=0.1))
    tp = run_baseline(inst, BaselineConfig(method="popov", iterations=K,
                                           eta=0.1))
    ok &= tm.oracle_calls == 2 * inst.m * K
    ok &= tp.oracle_calls == inst.m * K
    report(9, ok, "component-call totals exact: m+2K (REM dense and lazy), "
                  "2mK (mirror-prox), mK (Popov)")


def test_criterion_10_nonuniform_regime():
    inst = generate_instance("lad", 16, 64, 3.0, seed=21, density=1.0,
                             z_scale=0.3)
    assert inst.m >= 1000
    plan = problem_plan(inst)
    target = 1e-2

    mp_cfg = BaselineConfig(method="mirror-prox", iterations=3000, seed=0,
                            eval_stride=10, eval_point="average")
    mp = run_baseline(inst, mp_cfg)
    mp_calls = next(r.oracle_calls for r in mp.records
                    if r.sup_gap is not None and r.sup_gap <= target)

    rem_calls = None
    K = 1000
    while K <= 512000:
        cfg = SolverConfig(iterations=K, seed=0, mode="lazy",
                           averaging="sampled-index-set",
                           avg_samples=max(200, 8 * K // inst.m),
                           eval_stride=K, eval_metrics=())
        tr = run_lazy(inst, plan, cfg)
        if inst.sup_gap(tr.x_bar) <= target:
            rem_calls = inst.m + 2 * K
            break
        K = int(K * 1.5)
    assert rem_calls is not None, "randomized solver did not reach the target"
    factor = mp_calls / rem_calls
    report(10, factor >= 3.0,
           f"sup-gap {target:g} reached with {rem_calls} component calls vs "
           f"{mp_calls} for mirror-prox (factor {factor:.1f} >= 3)")
