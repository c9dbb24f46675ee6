import json
import os

import numpy as np
import pytest

from remvi.bench import (CSV_HEADER, ConfigError, ExperimentConfig,
                         emit_summary, generate_files, load_config,
                         load_summary, main, read_csv, run_experiment,
                         save_config, write_csv)


def run_cfg(tmp_path, **kw):
    base = dict(problem="matrix-game", solver="rem-dense", sampling="problem",
                iterations=10, seeds=(0,), eval_stride=5,
                out_dir=str(tmp_path / "out"), n=3, d=3, exponent=0.5,
                instance_seed=1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_stride_rows(self, tmp_path):
        cfg = run_cfg(tmp_path)
        summary, code = run_experiment(cfg)
        assert code == 0
        rows = read_csv(os.path.join(cfg.out_dir, "seed_0.csv"))
        assert [r["iter"] for r in rows] == [0, 5, 10]

    def test_csv_roundtrip_exact(self, tmp_path):
        cfg = run_cfg(tmp_path, iterations=20, seeds=(3,))
        run_experiment(cfg)
        path = os.path.join(cfg.out_dir, "seed_3.csv")
        rows = read_csv(path)
        clone = tmp_path / "clone.csv"

        class _Rec:
            def __init__(self, r):
                self.iteration = r["iter"]
                self.oracle_calls = r["oracle_calls"]
                self.elapsed_ns = r["elapsed_ns"]
                self.gap_fixed = r["gap_fixed"]
                self.sup_gap = r["sup_gap"]
                self.dist_sq = r["dist_sq"]

        class _Tr:
            records = [_Rec(r) for r in rows]

        write_csv(_Tr, str(clone))
        assert open(path).read() == open(str(clone)).read()

    def test_determinism_modulo_elapsed(self, tmp_path):
        cfg1 = run_cfg(tmp_path, out_dir=str(tmp_path / "a"), iterations=50)
        cfg2 = run_cfg(tmp_path, out_dir=str(tmp_path / "b"), iterations=50)
        run_experiment(cfg1)
        run_experiment(cfg2)

        def strip(path):
            rows = read_csv(path)
            return [{k: v for k, v in r.items() if k != "elapsed_ns"}
                    for r in rows]

        assert strip(tmp_path / "a" / "seed_0.csv") == \
            strip(tmp_path / "b" / "seed_0.csv")

    def test_seeds_differ(self, tmp_path):
        cfg = run_cfg(tmp_path, seeds=(0, 1), iterations=50)
        run_experiment(cfg)
        a = read_csv(os.path.join(cfg.out_dir, "seed_0.csv"))
        b = read_csv(os.path.join(cfg.out_dir, "seed_1.csv"))
        assert any(x["sup_gap"] != y["sup_gap"] for x, y in zip(a, b))

    def test_dense_lazy_agree_through_cli_path(self, tmp_path):
        game = dict(problem="matrix-game", n=10, d=10, exponent=1.0,
                    instance_seed=4, iterations=500, seeds=(2,), eval_stride=50,
                    eval_point="iterate", averaging="sampled-index-set")
        cfg_d = run_cfg(tmp_path, out_dir=str(tmp_path / "dense"),
                        solver="rem-dense", **game)
        cfg_l = run_cfg(tmp_path, out_dir=str(tmp_path / "lazy"),
                        solver="rem-lazy", **game)
        run_experiment(cfg_d)
        run_experiment(cfg_l)
        rows_d = read_csv(tmp_path / "dense" / "seed_2.csv")
        rows_l = read_csv(tmp_path / "lazy" / "seed_2.csv")
        for rd, rl in zip(rows_d, rows_l):
            assert rd["iter"] == rl["iter"]
            assert abs(rd["sup_gap"] - rl["sup_gap"]) <= \
                1e-9 * max(abs(rd["sup_gap"]), 1e-9)

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(run_cfg(tmp_path, solver="bogus"))
        with pytest.raises(ConfigError):
            run_experiment(run_cfg(tmp_path, seeds=()))

    @pytest.mark.parametrize("lpq", [1e-8, 1e-300])
    @pytest.mark.parametrize("solver", ["rem-dense", "rem-lazy"])
    def test_divergence_flagged_partial_failure(self, tmp_path, solver, lpq):
        from remvi.problems import make_lad, save_instance
        inst = make_lad(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([3.0, -3.0]))
        base = str(tmp_path / "drift")
        save_instance(inst, base)
        # grossly understated step constant: dual averaging accumulates an
        # unbounded primal drift (at lpq = 1e-300 the dual vector overflows),
        # which both modes must flag per seed as a divergence
        cfg = run_cfg(tmp_path, problem=base, solver=solver,
                      iterations=4000, lpq=lpq, eval_stride=100,
                      averaging="sampled-index-set", eval_point="iterate",
                      divergence_bound=1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            summary, code = run_experiment(cfg)
        assert code == 3
        assert summary.diverged == [0]

    @pytest.mark.parametrize("solver", ["mirror-prox", "popov"])
    def test_baseline_overflow_flagged(self, tmp_path, solver):
        from remvi.problems import make_lad, save_instance
        inst = make_lad(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([3.0, -3.0]))
        base = str(tmp_path / "drift")
        save_instance(inst, base)
        # eta = 1e300 overflows the first prox input: a divergence of the
        # seed (exit 3 and a summary), not an invalid config (exit 2)
        cfg = run_cfg(tmp_path, problem=base, solver=solver, iterations=50,
                      eta=1e300, eval_stride=10)
        with np.errstate(over="ignore", invalid="ignore"):
            summary, code = run_experiment(cfg)
        assert code == 3
        assert summary.diverged == [0]
        assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))


class TestSummary:
    def test_requires_records(self, tmp_path):
        with pytest.raises(ValueError):
            emit_summary([], str(tmp_path / "s.json"))

    def test_single_seed_stats(self, tmp_path):
        path = str(tmp_path / "s.json")
        s = emit_summary([{"seed": 0, "sup_gap": 0.5}], path)
        assert s.mean["sup_gap"] == 0.5 and s.std["sup_gap"] == 0.0

    def test_known_mean_std(self, tmp_path):
        rows = [{"seed": i, "sup_gap": v} for i, v in enumerate((1.0, 2.0, 3.0))]
        s = emit_summary(rows, str(tmp_path / "s.json"))
        assert s.mean["sup_gap"] == 2.0
        assert s.std["sup_gap"] == pytest.approx(1.0)

    def test_seventeen_digit_serialization(self, tmp_path):
        path = str(tmp_path / "s.json")
        val = 1.0 / 3.0
        emit_summary([{"seed": 0, "sup_gap": val}], path)
        text = open(path).read()
        assert format(val, ".17g") in text
        assert json.loads(text)["per_seed"][0]["sup_gap"] == val

    def test_load_recomputes_means(self, tmp_path):
        path = str(tmp_path / "s.json")
        emit_summary([{"seed": 0, "sup_gap": 0.25},
                      {"seed": 1, "sup_gap": 0.75}], path)
        raw = load_summary(path)
        assert raw["mean"]["sup_gap"] == 0.5
        broken = json.load(open(path))
        broken["mean"]["sup_gap"] = 0.1
        with open(path, "w") as fh:
            json.dump(broken, fh)
        with pytest.raises(ValueError):
            load_summary(path)


class TestGenerate:
    def test_byte_identical_regeneration(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        generate_files("lad", 6, 5, 2.0, seed=3, out=a, density=0.5)
        generate_files("lad", 6, 5, 2.0, seed=3, out=b, density=0.5)
        for ext in (".mtx", ".meta"):
            assert open(a + ext, "rb").read() == open(b + ext, "rb").read()

    def test_generated_instance_loads_and_runs(self, tmp_path):
        base = str(tmp_path / "inst")
        generate_files("box-simplex", 4, 5, 1.0, seed=2, out=base)
        cfg = run_cfg(tmp_path, problem=base, iterations=20)
        summary, code = run_experiment(cfg)
        assert code == 0

    def test_policy_eval_files(self, tmp_path):
        base = str(tmp_path / "pe")
        generate_files("policy-eval", 5, 3, 0.0, seed=1, out=base)
        assert os.path.exists(base + ".mtx")
        assert os.path.exists(base + ".phi.mtx")
        assert os.path.exists(base + ".meta")


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(problem="lad", solver="rem-lazy",
                               iterations=77, seeds=(1, 2, 3), gamma=None,
                               exponent=2.5, density=0.4, out_dir="somewhere")
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "bad.cfg")
        with open(path, "w") as fh:
            fh.write("bogus=1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_cli_accepts_config_file(self, tmp_path):
        cfg = ExperimentConfig(problem="matrix-game", solver="rem-dense",
                               iterations=20, seeds=(0,), n=3, d=3,
                               exponent=0.5, eval_stride=10,
                               out_dir=str(tmp_path / "out"))
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        assert main(["run", "--config", path]) == 0
        assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "cli")
        code = main(["run", "--problem", "matrix-game", "--solver", "rem-lazy",
                     "--iters", "30", "--seeds", "0,1", "--stride", "10",
                     "--n", "3", "--d", "3", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "seed_1.csv"))

    @pytest.mark.parametrize("solver", ["rem-lazy", "rem-dense",
                                        "mirror-prox", "popov"])
    @pytest.mark.parametrize("stride", ["0", "-5"])
    def test_non_positive_stride_exit_two(self, tmp_path, capsys, solver,
                                          stride):
        code = main(["run", "--problem", "matrix-game", "--solver", solver,
                     "--iters", "10", "--stride", stride, "--n", "3",
                     "--d", "3", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "eval_stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("solver,flag,value", [
        ("rem-lazy", "--gamma", "nan"), ("rem-dense", "--gamma", "-1"),
        ("popov", "--eta", "nan"), ("mirror-prox", "--eta", "0")])
    def test_nan_and_non_positive_values_exit_two(self, tmp_path, capsys,
                                                  solver, flag, value):
        code = main(["run", "--problem", "lad", "--solver", solver,
                     "--iters", "10", "--n", "3", "--d", "3", flag, value,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["rem-lazy", "rem-dense", "popov"])
    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan")])
    def test_bad_divergence_bound_exit_two(self, tmp_path, capsys, solver,
                                           bound):
        cfg = ExperimentConfig(problem="lad", solver=solver, iterations=10,
                               n=3, d=3, divergence_bound=bound,
                               out_dir=str(tmp_path / "out"))
        path = str(tmp_path / "exp.cfg")
        save_config(cfg, path)
        assert main(["run", "--config", path]) == 2
        assert "divergence_bound must be positive" in capsys.readouterr().err

    def test_generate_subcommand(self, tmp_path):
        out = str(tmp_path / "gen")
        assert main(["generate", "--family", "lad", "--n", "4", "--d", "4",
                     "--exponent", "1.0", "--seed", "7", "--out", out]) == 0
        assert os.path.exists(out + ".mtx")

    def test_bad_config_exit_two(self, tmp_path, capsys):
        code = main(["run", "--problem", "no-such-file", "--out",
                     str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
