import functools
import tracemalloc

import numpy as np
import pytest

from helpers import needs_compiler
from remvi import _kernel
from remvi.operators import LipschitzProfile, lpq_bound
from remvi.problems import (generate_instance, make_box_simplex, make_lad,
                            make_matrix_game)
from remvi.sampling import (BLOCK, AliasTable, RngStream, SamplingPlan,
                            build_plan, problem_plan)
from remvi.solver import SolverConfig, run_lazy


def scalar_alias_build(p):
    """The Vose build as it ran on numpy arrays, one entry at a time."""
    p = np.asarray(p, dtype=float)
    m = p.size
    scaled = p * m / p.sum()
    prob = np.ones(m)
    alias = np.arange(m, dtype=np.intp)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        (small if scaled[g] < 1.0 else large).append(g)
    return prob, alias


def pairing_alias_build(p):
    """The list build that pushed each large entry back after every small
    it absorbed: the reference for the build that keeps it in hand."""
    p = np.asarray(p, dtype=float)
    m = p.size
    scaled = (p * m / p.sum()).tolist()
    prob = [1.0] * m
    alias = list(range(m))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        (small if scaled[g] < 1.0 else large).append(g)
    return np.array(prob), np.array(alias, dtype=np.intp)


def assert_table_bytes(table, p):
    prob, alias = pairing_alias_build(p)
    assert table.prob.tobytes() == prob.tobytes()
    assert table.alias.tobytes() == alias.tobytes()


def pairing_cases():
    """300 distributions: uniform, log-uniform over up to 16 decades, a few
    heavy entries among light ones, and small integer weights (ties, and
    scaled entries at exactly 1)."""
    rng = np.random.default_rng(22)
    cases = []
    for trial in range(300):
        m = int(rng.integers(1, 400))
        kind = trial % 4
        if kind == 0:
            p = np.ones(m)
        elif kind == 1:
            p = 10.0 ** rng.uniform(-int(rng.integers(1, 17)), 0, size=m)
        elif kind == 2:
            p = np.full(m, 1e-9)
            p[rng.integers(m, size=int(rng.integers(1, 4)))] = 1.0
        else:
            p = rng.integers(1, 4, size=m).astype(float)
        cases.append(p / p.sum())
    return cases


@functools.cache
def lad_lazy_plan():
    """The plan of the benchmark's lazy LAD shape (3000 x 3000 at 0.7%)."""
    inst = generate_instance("lad", 3000, 3000, 1.0, seed=5, density=0.007)
    return problem_plan(inst)


class TestBuildPlan:
    def test_uniform(self):
        plan = build_plan("uniform", profile=LipschitzProfile(np.ones(4)))
        np.testing.assert_allclose(plan.p, 0.25)
        np.testing.assert_allclose(plan.q, 0.25)

    def test_importance_clipping(self):
        # sqrt(lam) = (4,1,1,1,1), mean 1.6 -> q prop (4,1.6,1.6,1.6,1.6)
        plan = build_plan("importance",
                          profile=LipschitzProfile([16.0, 1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(plan.p, [0.5, 0.125, 0.125, 0.125, 0.125])
        np.testing.assert_allclose(
            plan.q, np.array([4.0, 1.6, 1.6, 1.6, 1.6]) / 10.4, rtol=1e-14)
        assert plan.q_min >= 1.0 / 10.0

    def test_importance_uniform_profile_collapses(self):
        plan = build_plan("importance", profile=LipschitzProfile(np.full(6, 3.0)))
        np.testing.assert_allclose(plan.q, 1.0 / 6.0, rtol=1e-15)

    def test_lpq_field_set(self):
        prof = LipschitzProfile([1.0, 4.0])
        plan = build_plan("importance", profile=prof)
        assert plan.lpq == pytest.approx(lpq_bound(prof, plan.p, plan.q))

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(ValueError):
            build_plan("importance", profile=LipschitzProfile([1.0, -2.0]))

    def test_custom_requires_distributions(self):
        with pytest.raises(ValueError):
            build_plan("custom", p=[0.5, 0.5], q=None)
        with pytest.raises(ValueError):
            SamplingPlan([0.5, 0.5], [0.9, 0.1 - 1e-16, 1e-16], lpq=1.0)

    def test_rejects_tiny_probability(self):
        with pytest.raises(ValueError):
            SamplingPlan([1.0 - 1e-16, 1e-16], [0.5, 0.5], lpq=1.0)

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probability(self, name, bad):
        # NaN fails every comparison, so only an explicit check catches it:
        # in p the alias table would sample uniformly, in q_min it would
        # make every step after the first NaN
        dist = {"p": [1 / 3] * 3, "q": [1 / 3] * 3}
        dist[name] = [bad, 0.5, 0.5]
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            SamplingPlan(dist["p"], dist["q"], lpq=1.0)
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            build_plan("custom", p=dist["p"], q=dist["q"], lpq=1.0)
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            build_plan("custom", LipschitzProfile([1.0, 2.0, 3.0]),
                       p=dist["p"], q=dist["q"])


def reference_draws(seed, stream, n):
    """The first n doubles of the (seed, stream) generator, in one call."""
    gen = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, stream))))
    return gen.random(n)


class TestRngStreamBlocks:
    """``uniform`` serves pre-drawn blocks of BLOCK doubles; the values, the
    counter and replays are those of one draw per call."""

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 7])
    def test_scalar_draws_equal_one_array(self, n):
        rng = RngStream(11, stream=3)
        got = [rng.uniform() for _ in range(n)]
        assert got == reference_draws(11, 3, n).tolist()
        assert rng.counter == n

    def test_interleaved_calls_follow_the_counter(self):
        ref = reference_draws(6, 0, 6 * BLOCK).tolist()
        rng = RngStream(6)
        script = [("u", 5), ("a", 0), ("a", 3), ("u", BLOCK), ("a", BLOCK + 9),
                  ("j", 2), ("u", 1), ("a", 2 * BLOCK), ("j", 4 * BLOCK - 1),
                  ("u", 3), ("a", 1), ("j", 0), ("a", 5), ("u", BLOCK + 2)]
        for op, n in script:
            c = rng.counter
            if op == "u":
                got = [rng.uniform() for _ in range(n)]
            elif op == "a":
                out = rng.uniform_array(n)
                assert out.dtype == np.float64 and out.shape == (n,)
                got = out.tolist()
            else:
                rng.jump_to(n)
                assert rng.counter == n
                continue
            assert got == ref[c:c + n]
            assert rng.counter == c + n

    def test_run_draws_replay_from_a_fresh_stream(self):
        # a run consumes one uniform per draw, j1 from p then j2 from q,
        # across several blocks
        inst = generate_instance("lad", 40, 30, 1.0, seed=1, density=0.2)
        plan = problem_plan(inst)
        drawn = []
        for name in ("sample_p", "sample_q"):
            def record(rng, sample=getattr(plan, name)):
                drawn.append(sample(rng))
                return drawn[-1]
            setattr(plan, name, record)
        K = 2 * BLOCK + 5
        run_lazy(inst, plan, SolverConfig(iterations=K, seed=9, mode="lazy"))
        u = reference_draws(9, 0, 2 * K)
        want = [(plan._alias_p if t % 2 == 0 else plan._alias_q).sample(v)
                for t, v in enumerate(u.tolist())]
        assert drawn == want


class TestSampling:
    def test_single_component(self):
        plan = build_plan("uniform", profile=LipschitzProfile([2.0]))
        rng = RngStream(42)
        assert all(plan.sample_p(rng) == 0 for _ in range(10))

    def test_uniform_frequencies(self):
        plan = build_plan("uniform", profile=LipschitzProfile(np.ones(4)))
        rng = RngStream(7)
        counts = np.zeros(4)
        for _ in range(100000):
            counts[plan.sample_p(rng)] += 1
        np.testing.assert_allclose(counts / 1e5, 0.25, atol=0.01)

    def test_replay_determinism(self):
        plan = build_plan("uniform", profile=LipschitzProfile(np.ones(5)))
        rng = RngStream(99)
        seq = [plan.sample_p(rng) for _ in range(50)]
        rng2 = RngStream(99)
        rng2.jump_to(17)
        assert plan.sample_p(rng2) == seq[17]

    def test_two_streams_independent(self):
        a = RngStream(5, stream=0)
        b = RngStream(5, stream=1)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_alias_tv_distance(self):
        # fixed-seed suite: empirical distribution within TV 0.005 at 1e6 draws
        rng0 = np.random.default_rng(4)
        for trial, p in enumerate([
                np.full(16, 1.0 / 16.0),
                np.exp(rng0.uniform(-3, 3, size=16))]):
            p = p / p.sum()
            table = AliasTable(p)
            rng = RngStream(1000 + trial)
            draws = table.sample_many(rng.uniform_array(1000000))
            freq = np.bincount(draws, minlength=16) / 1e6
            tv = 0.5 * np.sum(np.abs(freq - p))
            assert tv <= 0.005

    @pytest.mark.parametrize("kind", ["random", "uniform", "one-heavy"])
    def test_build_equals_scalar_loop(self, kind):
        rng = np.random.default_rng(21)
        for m in (1, 2, 7, 1000):
            if kind == "random":
                p = np.exp(rng.uniform(-4, 4, size=m))
            elif kind == "uniform":
                p = np.ones(m)
            else:
                p = np.full(m, 1e-6)
                p[rng.integers(m)] = 1.0
            p = p / p.sum()
            table = AliasTable(p)
            prob, alias = scalar_alias_build(p)
            np.testing.assert_array_equal(table.prob, prob)
            np.testing.assert_array_equal(table.alias, alias)
            assert table.prob.dtype == prob.dtype
            assert table.alias.dtype == alias.dtype

    def test_build_equals_pairing_loop_bytes(self):
        for p in pairing_cases():
            assert_table_bytes(AliasTable(p), p)

    def test_lad_plan_tables_equal_pairing_loop_bytes(self):
        plan = lad_lazy_plan()
        assert_table_bytes(plan._alias_p, plan.p)
        assert_table_bytes(plan._alias_q, plan.q)

    @needs_compiler
    def test_compiled_build_equals_python_build(self, monkeypatch):
        # the same session builds each table in C and then in Python (the
        # accessor patched to find no library): the bytes are equal
        cases = pairing_cases() + [lad_lazy_plan().p]
        compiled = [AliasTable(p) for p in cases]
        assert _kernel.alias_builder() is not None
        monkeypatch.setattr(_kernel, "alias_builder", lambda: None)
        for p, table in zip(cases, compiled):
            reference = AliasTable(p)
            assert table.prob.tobytes() == reference.prob.tobytes()
            assert table.alias.tobytes() == reference.alias.tobytes()

    @needs_compiler
    def test_compiled_build_memory(self):
        # the build's own arrays (scaled, the small and large indices, prob
        # and alias) are 32 B an entry; the Python lists took about 120
        p = np.sqrt(np.random.default_rng(23).uniform(0.01, 1.0, 200_000))
        p /= p.sum()
        AliasTable(p[:2] / p[:2].sum())     # the library loaded
        tracemalloc.start()
        try:
            AliasTable(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * p.size

    def test_sample_reads_table_as_sample_many(self):
        # sample reads the table through memoryviews, sample_many through
        # numpy indexing: the same index for each of 1e5 uniforms
        table = lad_lazy_plan()._alias_p
        u = RngStream(24).uniform_array(100_000)
        # and at uniforms landing exactly on an entry's prob, where the
        # alias is drawn
        i = np.flatnonzero(table.prob < 1.0)
        edge = (i + table.prob[i]) / table.m
        scaled = edge * table.m
        exact = (scaled.astype(np.intp) == i) & (scaled - i == table.prob[i])
        u = np.concatenate((u, edge[exact]))
        assert exact.any()
        np.testing.assert_array_equal(
            np.array([table.sample(v) for v in u.tolist()]),
            table.sample_many(u))
        np.testing.assert_array_equal(table.sample_many(edge[exact]),
                                      table.alias[i[exact]])
        assert type(table.sample(0.5)) is int

    def test_sample_many_matches_sequential(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        table = AliasTable(p)
        r1 = RngStream(3)
        seq = [table.sample(r1.uniform()) for _ in range(200)]
        r2 = RngStream(3)
        np.testing.assert_array_equal(table.sample_many(r2.uniform_array(200)), seq)
        assert r1.counter == r2.counter == 200


class TestImportanceGuarantees:
    def test_q_min_floor_log_uniform(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            m = int(rng.integers(2, 60))
            lam = np.exp(rng.uniform(-6.0, 6.0, size=m))
            plan = build_plan("importance", profile=LipschitzProfile(lam))
            assert plan.q_min * 2.0 * m >= 1.0 - 1e-12

    def test_normalizer_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            lam = np.exp(rng.uniform(-6.0, 6.0, size=int(rng.integers(2, 60))))
            root = np.sqrt(lam)
            lhs = np.sum(np.maximum(root, root.mean()))
            assert lhs <= 2.0 * np.sum(root) * (1 + 1e-15)

    def test_plan_below_floor_raises_value_error(self):
        # q_min = 0.1 < 1/(2m) = 0.125; a ValueError maps to bench exit code 2
        with pytest.raises(ValueError, match="q_min"):
            SamplingPlan(np.full(4, .25), [.1, .3, .3, .3], 1.0, mode="importance")


class TestProblemPlans:
    def test_box_simplex_exponent(self):
        # sigma = (1, 32): 32^(2/5) = 4 -> p = (0.2, 0.8)
        inst = make_box_simplex(np.array([[1.0, 32.0]]), np.array([0.0]))
        plan = problem_plan(inst)
        np.testing.assert_allclose(plan.p, [0.2, 0.8], rtol=1e-14)
        np.testing.assert_allclose(plan.q, plan.p)

    def test_lad_uniform_entries(self):
        inst = make_lad(np.ones((2, 2)), np.zeros(2))
        plan = problem_plan(inst)
        np.testing.assert_allclose(plan.p, 0.25)

    def test_matrix_game_1x1_symmetric(self):
        inst = make_matrix_game(np.array([[3.0]]))
        plan = problem_plan(inst)
        np.testing.assert_allclose(plan.p, [0.5, 0.5])

    def test_matrix_game_two_sided_exponent(self):
        A = np.array([[1.0, 8.0], [0.5, 1.0]])
        inst = make_matrix_game(A)
        plan = problem_plan(inst)
        w = np.concatenate([np.max(np.abs(A), axis=1),
                            np.max(np.abs(A), axis=0)]) ** (2.0 / 3.0)
        np.testing.assert_allclose(plan.p, w / w.sum(), rtol=1e-14)

    def test_row_sided_concentrates_on_dominant_row(self):
        A = np.array([[100.0, 100.0], [1.0, 1.0], [1.0, 1.0]])
        plan = problem_plan(make_matrix_game(A, mode="row-sided"))
        assert plan.p[0] == max(plan.p) and plan.p[0] > 0.7

    def test_policy_eval_uses_importance(self):
        inst = generate_instance("policy-eval", 5, 3, 0.0, seed=0)
        plan = problem_plan(inst)
        assert plan.mode == "importance"
        assert plan.q_min * 2 * inst.m >= 1.0 - 1e-12

    def test_refined_lpq_values(self):
        A = np.array([[1.0, 2.0], [0.5, 4.0]])
        rho = np.array([2.0, 4.0])
        sigma = np.array([1.0, 4.0])
        game = problem_plan(make_matrix_game(A))
        both = np.concatenate([rho, sigma])
        assert game.lpq == pytest.approx(np.sum(both ** (2 / 3)) ** 1.5)
        row = problem_plan(make_matrix_game(A, mode="row-sided"))
        assert row.lpq == pytest.approx(np.sum(np.sqrt(rho)) ** 2)
        box = problem_plan(make_box_simplex(A, np.zeros(2)))
        assert box.lpq == pytest.approx(np.sum(sigma ** 0.4) ** 2.5)
        lad = problem_plan(make_lad(A, np.zeros(2)))
        assert lad.lpq == pytest.approx(np.sum(np.sqrt(np.abs(A))) ** 2)

    def test_refined_lpq_upper_bounds_empirical(self):
        from remvi.operators import lpq_empirical
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 4))
        for inst in (make_matrix_game(A), make_matrix_game(A, mode="row-sided"),
                     make_box_simplex(A, rng.normal(size=3)),
                     make_lad(A, rng.normal(size=3))):
            plan = problem_plan(inst)
            emp = lpq_empirical(inst.operator, inst.geometry, plan.p, plan.q,
                                2000, np.random.default_rng(9))
            assert emp <= plan.lpq * (1 + 1e-9)
