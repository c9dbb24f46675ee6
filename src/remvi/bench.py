"""Experiment runner: instance generation/loading, solver dispatch, multi-seed
aggregation, CSV/JSON emission, and the command-line front end.

Oracle calls, not wall-clock, are the primary x-axis; elapsed time is recorded
for the lazy-vs-dense engineering comparison only.  Every emitted byte except
the elapsed_ns fields is a pure function of (config, seed).

CSV schema (one file per seed): header ``iter,oracle_calls,elapsed_ns,gap,
sup_gap,dist_sq``; metrics that were not evaluated are empty fields.

JSON summary keys: ``config`` (echo of the experiment parameters), ``solver``
and ``version`` identifiers, ``per_seed`` (one row per seed: seed, final
metric values, oracle_calls, iterations, diverged), ``mean`` and ``std``
(sample standard deviation over seeds, 0 for a single seed), and ``diverged``
(list of failed seeds).  Numbers carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .baselines import BaselineConfig, run_baseline
from .problems import generate_instance, load_instance, save_instance
from .sampling import build_plan, problem_plan
from .solver import DivergenceError, SolverConfig, run

CSV_HEADER = "iter,oracle_calls,elapsed_ns,gap,sup_gap,dist_sq"
METRIC_KEYS = ("gap_fixed", "sup_gap", "dist_sq")

SOLVERS = ("rem-lazy", "rem-dense", "mirror-prox", "popov")
FAMILIES = ("matrix-game", "box-simplex", "lad", "policy-eval")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    problem: str                      # family name or instance file basename
    solver: str = "rem-lazy"
    sampling: str = "problem"         # uniform | importance | problem
    iterations: int = 1000
    gamma: float | None = None
    seeds: tuple = (0,)
    eval_stride: int | None = None
    out_dir: str = "runs"
    n: int = 10
    d: int = 10
    exponent: float = 0.0
    density: float = 1.0
    quad: float = 0.0
    instance_seed: int = 0
    averaging: str | None = None
    eval_point: str | None = None
    eta: float | None = None
    lpq: float | None = None
    divergence_bound: float = 1e9

    def validate(self):
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.sampling not in ("uniform", "importance", "problem"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.n, self.d) < 1:
            raise ConfigError("sizes must be >= 1")
        if self.exponent < 0:
            raise ConfigError("exponent must be >= 0")


@dataclass
class RunSummary:
    config: dict
    solver: str
    version: str
    per_seed: list
    mean: dict
    std: dict
    diverged: list = field(default_factory=list)


def save_config(cfg, path):
    """Write an experiment config as flat key=value text (diff-friendly,
    no parser dependency)."""
    with open(path, "w") as fh:
        for key, val in asdict(cfg).items():
            if val is None:
                fh.write(f"{key}=\n")
            elif isinstance(val, (tuple, list)):
                fh.write(f"{key}={','.join(str(v) for v in val)}\n")
            else:
                fh.write(f"{key}={val}\n")


def load_config(path):
    """Read a key=value experiment config written by ``save_config``."""
    import dataclasses
    types = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    kwargs = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            if raw == "":
                kwargs[key] = None if key != "seeds" else ()
                continue
            if key == "seeds":
                kwargs[key] = tuple(int(v) for v in raw.split(","))
            elif key in ("iterations", "n", "d", "instance_seed", "eval_stride"):
                kwargs[key] = int(raw)
            elif key in ("gamma", "exponent", "density", "quad", "eta", "lpq",
                         "divergence_bound"):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = raw
    return ExperimentConfig(**kwargs)


def _load_problem(cfg):
    if cfg.problem in FAMILIES:
        kwargs = {}
        if cfg.problem == "lad":
            kwargs = {"density": cfg.density, "quad": cfg.quad,
                      "solve_reference": cfg.quad > 0.0}
        return generate_instance(cfg.problem, cfg.n, cfg.d, cfg.exponent,
                                 cfg.instance_seed, **kwargs)
    if os.path.exists(cfg.problem) or os.path.exists(cfg.problem + ".meta"):
        return load_instance(cfg.problem)
    raise ConfigError(f"problem {cfg.problem!r} is neither a family nor an instance file")


def _make_plan(problem, sampling):
    if sampling == "problem":
        return problem_plan(problem)
    return build_plan(sampling, profile=problem.profile)


def _run_one(problem, plan, cfg, seed):
    if cfg.solver.startswith("rem"):
        mode = "dense" if cfg.solver == "rem-dense" else "lazy"
        gamma = problem.gamma if cfg.gamma is None else cfg.gamma
        averaging = cfg.averaging
        if averaging is None:
            averaging = "weighted-full" if (mode == "dense" and gamma == 0.0) \
                else "sampled-index-set"
        eval_point = cfg.eval_point
        if eval_point is None:
            eval_point = "average" if averaging == "weighted-full" else "iterate"
        sc = SolverConfig(iterations=cfg.iterations, seed=seed, mode=mode,
                          gamma=cfg.gamma, lpq=cfg.lpq,
                          eval_stride=cfg.eval_stride,
                          averaging=averaging, eval_point=eval_point,
                          divergence_bound=cfg.divergence_bound)
        return run(problem, plan, sc)
    bc = BaselineConfig(method=cfg.solver, iterations=cfg.iterations, seed=seed,
                        eta=cfg.eta, eval_stride=cfg.eval_stride,
                        eval_point=cfg.eval_point or "average",
                        divergence_bound=cfg.divergence_bound)
    return run_baseline(problem, bc)


def _fmt(v):
    return "" if v is None else repr(float(v))


def write_csv(trace, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in trace.records:
            fh.write(f"{r.iteration},{r.oracle_calls},{r.elapsed_ns},"
                     f"{_fmt(r.gap_fixed)},{_fmt(r.sup_gap)},{_fmt(r.dist_sq)}\n")


def read_csv(path):
    """Parse an emitted CSV back into row dicts (exact float round-trip)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            it, calls, ns, gap, sup, dist = line.strip().split(",")
            rows.append({
                "iter": int(it), "oracle_calls": int(calls), "elapsed_ns": int(ns),
                "gap_fixed": float(gap) if gap else None,
                "sup_gap": float(sup) if sup else None,
                "dist_sq": float(dist) if dist else None,
            })
    return rows


def _dumps17(obj, indent=0):
    # 17 significant digits round-trip doubles exactly
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(f'{pad}  {json.dumps(str(k))}: {_dumps17(v, indent + 2)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = ",\n".join(f"{pad}  {_dumps17(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return json.dumps(v) if not math.isfinite(v) else format(v, ".17g")
    return json.dumps(obj)


def emit_summary(per_seed, path, config_echo=None, solver=""):
    """Write the aggregate JSON summary for one experiment."""
    if not per_seed:
        raise ValueError("summary requires at least one run record")
    keys = [k for k in METRIC_KEYS if any(r.get(k) is not None for r in per_seed)]
    mean = {}
    std = {}
    for k in keys:
        vals = np.array([r[k] for r in per_seed if r.get(k) is not None], dtype=float)
        mean[k] = float(vals.mean())
        std[k] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    summary = RunSummary(config=config_echo or {}, solver=solver,
                         version=__version__, per_seed=list(per_seed),
                         mean=mean, std=std,
                         diverged=[r["seed"] for r in per_seed if r.get("diverged")])
    with open(path, "w") as fh:
        fh.write(_dumps17(asdict(summary)))
        fh.write("\n")
    return summary


def load_summary(path):
    """Load a summary; means are recomputed from the per-seed rows and the
    seed count is checked against the config echo."""
    with open(path) as fh:
        raw = json.load(fh)
    per_seed = raw["per_seed"]
    seeds = raw.get("config", {}).get("seeds")
    if seeds is not None and len(seeds) != len(per_seed):
        raise ValueError("per-seed row count does not match the config echo")
    for k, stored in raw["mean"].items():
        vals = np.array([r[k] for r in per_seed if r.get(k) is not None], dtype=float)
        if vals.size and not np.isclose(vals.mean(), stored, rtol=1e-12, atol=0):
            raise ValueError(f"summary mean for {k} does not match per-seed rows")
    return raw


def run_experiment(cfg):
    """Execute one experiment config over all its seeds.

    Returns (summary, exit_code): 0 on success, 3 if some seeds diverged.
    Emits one CSV per seed and one summary.json in the output directory.
    """
    cfg.validate()
    problem = _load_problem(cfg)
    plan = _make_plan(problem, cfg.sampling)
    os.makedirs(cfg.out_dir, exist_ok=True)
    per_seed = []
    any_diverged = False
    for seed in cfg.seeds:
        row = {"seed": seed, "diverged": False}
        try:
            trace = _run_one(problem, plan, cfg, seed)
        except DivergenceError as exc:
            row["diverged"] = True
            row["diverged_at"] = exc.iteration
            any_diverged = True
            per_seed.append(row)
            continue
        write_csv(trace, os.path.join(cfg.out_dir, f"seed_{seed}.csv"))
        last = trace.records[-1]
        row.update({k: getattr(last, k) for k in METRIC_KEYS})
        row["oracle_calls"] = trace.oracle_calls
        row["iterations"] = trace.iterations
        per_seed.append(row)
    summary = emit_summary(per_seed, os.path.join(cfg.out_dir, "summary.json"),
                           config_echo=asdict(cfg), solver=cfg.solver)
    return summary, (3 if any_diverged else 0)


def generate_files(family, n, d, exponent, seed, out, density=1.0, quad=0.0):
    """Generate a reproducible instance and write its files at ``out``."""
    kwargs = {}
    if family == "lad":
        kwargs = {"density": density, "quad": quad}
    instance = generate_instance(family, n, d, exponent, seed, **kwargs)
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    save_instance(instance, out)
    return instance


def _parse_seeds(text):
    return tuple(int(s) for s in text.split(",") if s)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="remvi-bench",
                                     description="GMVI solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment over seeds")
    p_run.add_argument("--config", default=None,
                       help="key=value experiment-config file; other run "
                            "flags are ignored when given")
    p_run.add_argument("--problem",
                       help="family name (matrix-game|box-simplex|lad|policy-eval) "
                            "or instance file basename")
    p_run.add_argument("--solver", default="rem-lazy", choices=SOLVERS)
    p_run.add_argument("--sampling", default="problem",
                       choices=("uniform", "importance", "problem"))
    p_run.add_argument("--iters", type=int, default=1000)
    p_run.add_argument("--gamma", type=float, default=None)
    p_run.add_argument("--seeds", type=_parse_seeds, default=(0,))
    p_run.add_argument("--stride", type=int, default=None)
    p_run.add_argument("--out", default="runs")
    p_run.add_argument("--n", type=int, default=10)
    p_run.add_argument("--d", type=int, default=10)
    p_run.add_argument("--exponent", type=float, default=0.0)
    p_run.add_argument("--density", type=float, default=1.0)
    p_run.add_argument("--quad", type=float, default=0.0)
    p_run.add_argument("--instance-seed", type=int, default=0)
    p_run.add_argument("--eta", type=float, default=None)

    p_gen = sub.add_parser("generate", help="generate and save a random instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--d", type=int, default=10)
    p_gen.add_argument("--exponent", type=float, default=0.0)
    p_gen.add_argument("--density", type=float, default=1.0)
    p_gen.add_argument("--quad", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.config is not None:
                cfg = load_config(args.config)
            elif args.problem is None:
                raise ConfigError("run needs --problem or --config")
            else:
                cfg = ExperimentConfig(
                    problem=args.problem, solver=args.solver,
                    sampling=args.sampling, iterations=args.iters,
                    gamma=args.gamma, seeds=args.seeds,
                    eval_stride=args.stride, out_dir=args.out, n=args.n,
                    d=args.d, exponent=args.exponent, density=args.density,
                    quad=args.quad,
                    instance_seed=args.instance_seed, eta=args.eta)
            summary, code = run_experiment(cfg)
            print(f"wrote {cfg.out_dir}/summary.json "
                  f"({len(summary.per_seed)} seeds, {len(summary.diverged)} diverged)")
            return code
        generate_files(args.family, args.n, args.d, args.exponent, args.seed,
                       args.out, density=args.density, quad=args.quad)
        print(f"wrote {args.out}.mtx / {args.out}.meta")
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
