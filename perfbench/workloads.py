"""Workload definitions, set-up, one measured pass, and the output checks.

A workload is a fixed experiment: one generated instance, one solver, a list
of solver seeds, an iteration count and an evaluation stride.  One *pass*
runs every seed of the workload through the public API in the order
``remvi.bench.run_experiment`` uses it (solver run per seed, ``write_csv``
per seed, then ``emit_summary``).  The benchmark repeats passes with the same
seeds, so every pass must reproduce the first one bitwise apart from the
``elapsed_ns`` stamps.

All library calls go through module attributes (``remvi.run_lazy``,
``bench.write_csv``) so that the tracer can swap them for timed wrappers.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field

# The benchmark imports the library from the checkout's source tree; every
# entry point imports this module before it imports remvi.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
# One OpenBLAS thread unless the caller asks for more.  On a 2-vCPU guest the
# workloads ran no faster on two threads, while the second thread spun for
# about one CPU-second per lad-lazy pass, load on the core the run shares.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import remvi  # noqa: E402
from remvi import bench  # noqa: E402

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REFERENCE_RTOL = 1e-9
# The measurement interleaves set-ups with passes (see run.measure), so that
# setup_s and the pass timings see the same mix of host load over the whole
# run.  Each cycle repeats the set-up until SETUP_CYCLE_SECONDS have passed
# (at least once), then runs passes until they have taken as long.
SETUP_CYCLE_SECONDS = 0.05

@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    solver: str                 # rem-lazy | rem-dense | mirror-prox
    n: int
    d: int
    exponent: float
    iterations: int
    stride: int
    seeds_per_pass: int
    density: float = 1.0        # LAD only

    @property
    def is_rem(self):
        return self.solver.startswith("rem-")

    def expected_calls(self, m):
        """Exact component-oracle accounting of one run."""
        if self.is_rem:
            return m + 2 * self.iterations
        return 2 * m * self.iterations


# The stride is part of each workload: on rem-lazy every evaluation pays a full
# lazy flush, so changing it changes what is measured.  A pass takes at most
# about two seconds, so a 55 s run holds many passes and at least 100
# evaluation windows.  K is a multiple of the stride, so all windows are equal.
# Two workloads cover every layer: lazy catch-up, prox_block, draws, step
# sizes and table refreshes on lad-lazy; evaluate_full, prox_full and the
# baseline on lad-mirror-prox.  More workloads do not fit the benchmark's
# total time budget at a run length long enough to average over the host's
# slow and fast phases.
WORKLOADS = {w.name: w for w in (
    Workload("lad-lazy", "lad", "rem-lazy", 3000, 3000, 1.0,
             iterations=1000, stride=100, seeds_per_pass=1, density=0.007),
    Workload("lad-mirror-prox", "lad", "mirror-prox", 300, 300, 1.0,
             iterations=20, stride=1, seeds_per_pass=1, density=0.05),
)}


def derive_seeds(workload, seed):
    """Instance seed and solver seeds, all a pure function of the workload
    seed and the workload name."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(workload.name.encode())])
    state = ss.generate_state(workload.seeds_per_pass + 1)
    return int(state[0]), [int(s) for s in state[1:]]


@dataclass
class Setup:
    problem: object
    plan: object
    etas: dict                  # solver seed -> step size (baselines only)
    instance_seed: int
    solver_seeds: list


def build_setup(workload, seed):
    """Instance build plus sampling plan; on baseline workloads also the
    default step size, resolved by the baseline's own empirical Lipschitz
    estimate (a zero-iteration run returns it in ``trace.info``)."""
    instance_seed, solver_seeds = derive_seeds(workload, seed)
    kwargs = {"density": workload.density} if workload.family == "lad" else {}
    problem = remvi.generate_instance(workload.family, workload.n, workload.d,
                                      workload.exponent, instance_seed, **kwargs)
    plan = None
    etas = {}
    if workload.is_rem:
        plan = remvi.problem_plan(problem)
    else:
        for s in solver_seeds:
            cfg = remvi.BaselineConfig(method=workload.solver, iterations=0,
                                       seed=s, eval_stride=workload.stride)
            etas[s] = remvi.run_baseline(problem, cfg).info["eta"]
    return Setup(problem, plan, etas, instance_seed, solver_seeds)


def timed_setups(workload, seed, on_setup=None):
    """Repeat the set-up for SETUP_CYCLE_SECONDS (at least once) and return
    (last setup, times).  The caller drops its own previous setup first.

    ``on_setup(setup)`` is called after each repetition; the traced run uses
    it to close the repetition's spans.
    """
    times = []
    setup = None
    while sum(times) < SETUP_CYCLE_SECONDS:
        setup = None            # drop the previous instance before building
        t0 = time.perf_counter()
        setup = build_setup(workload, seed)
        times.append(time.perf_counter() - t0)
        if on_setup is not None:
            on_setup(setup)
    return setup, times


def solve(workload, setup, seed):
    """One solver run through the public entry point of its mode."""
    K = workload.iterations
    if workload.is_rem:
        mode = "dense" if workload.solver == "rem-dense" else "lazy"
        cfg = remvi.SolverConfig(iterations=K, seed=seed, mode=mode,
                                 eval_stride=workload.stride)
        run = remvi.run_dense if mode == "dense" else remvi.run_lazy
        return run(setup.problem, setup.plan, cfg)
    cfg = remvi.BaselineConfig(method=workload.solver, iterations=K, seed=seed,
                               eta=setup.etas[seed], eval_stride=workload.stride)
    return remvi.run_baseline(setup.problem, cfg)


@dataclass
class RunResult:
    seed: int
    trace: object = None
    error: str | None = None
    tb: str | None = None
    span_range: tuple | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def run_pass(workload, setup, out_dir, mark=None):
    """One pass over the workload's seeds, emitting CSVs and the summary.

    Returns (wall seconds, results).  ``mark`` (the tracer's span counter)
    delimits each run's spans.
    """
    results = []
    per_seed = []
    t0 = time.perf_counter()
    for seed in setup.solver_seeds:
        res = RunResult(seed)
        row = {"seed": seed, "diverged": False}
        lo = mark() if mark else None
        try:
            res.trace = solve(workload, setup, seed)
        except Exception as exc:  # one failed run must not stop the pass
            res.error = f"{type(exc).__name__}: {exc}"
            res.tb = traceback.format_exc()
            row["diverged"] = isinstance(exc, remvi.DivergenceError)
        if mark:
            res.span_range = (lo, mark())
        if res.trace is not None:
            bench.write_csv(res.trace, os.path.join(out_dir, f"seed_{seed}.csv"))
            last = res.trace.records[-1]
            row.update({k: getattr(last, k) for k in bench.METRIC_KEYS})
            row["oracle_calls"] = res.trace.oracle_calls
            row["iterations"] = res.trace.iterations
        per_seed.append(row)
        results.append(res)
    echo = dict(asdict(workload), instance_seed=setup.instance_seed,
                seeds=list(setup.solver_seeds))
    bench.emit_summary(per_seed, os.path.join(out_dir, "summary.json"),
                       config_echo=echo, solver=workload.solver)
    return time.perf_counter() - t0, results


def fingerprint(trace):
    """Everything a run outputs except the elapsed_ns stamps."""
    recs = tuple((r.iteration, r.oracle_calls, r.gap_fixed, r.sup_gap, r.dist_sq)
                 for r in trace.records)
    return recs, trace.final_x.tobytes()


def final_metrics(trace):
    last = trace.records[-1]
    return {k: getattr(last, k) for k in bench.METRIC_KEYS
            if getattr(last, k) is not None}


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload.name]


def check_pass(workload, setup, results, out_dir, first, reference=None):
    """Record in each result every way its outputs are wrong.

    ``first`` maps solver seed to the fingerprint of the first pass (filled
    in by the first call); ``reference`` maps solver seed to the pinned final
    metrics, only at the default workload seed.
    """
    m = setup.problem.m
    K = workload.iterations
    strides = list(range(0, K + 1, workload.stride))
    if strides[-1] != K:
        strides.append(K)
    summary_problem = None
    try:
        summary = bench.load_summary(os.path.join(out_dir, "summary.json"))
        if len(summary["per_seed"]) != len(results):
            summary_problem = "summary.json has the wrong number of seeds"
    except (OSError, ValueError, KeyError) as exc:
        summary_problem = f"summary.json does not load back: {exc}"
    for res in results:
        if res.trace is None:
            continue
        tr = res.trace
        bad = res.problems
        if summary_problem:
            bad.append(summary_problem)
        if tr.diverged:
            bad.append("diverged")
        if tr.cert_violations:
            bad.append(f"{tr.cert_violations} step certificate violations")
        if tr.oracle_calls != workload.expected_calls(m):
            bad.append(f"oracle_calls {tr.oracle_calls} != "
                       f"{workload.expected_calls(m)}")
        if [r.iteration for r in tr.records] != strides:
            bad.append("records do not follow the evaluation stride")
        final = final_metrics(tr)
        if not final or not all(math.isfinite(v) for v in final.values()):
            bad.append(f"final metrics not finite: {final}")
        rows = bench.read_csv(os.path.join(out_dir, f"seed_{res.seed}.csv"))
        if [(r["iter"], r["oracle_calls"], r["elapsed_ns"], r["gap_fixed"],
             r["sup_gap"], r["dist_sq"]) for r in rows] != \
                [(r.iteration, r.oracle_calls, r.elapsed_ns, r.gap_fixed,
                  r.sup_gap, r.dist_sq) for r in tr.records]:
            bad.append("CSV does not read back as the trace records")
        fp = fingerprint(tr)
        if first.setdefault(res.seed, fp) != fp:
            bad.append("output differs from the first pass")
        if reference is not None:
            ref = reference.get(str(res.seed))
            if ref is None or set(ref) != set(final):
                bad.append(f"no pinned reference for seed {res.seed}")
            else:
                for k, v in ref.items():
                    if abs(final[k] - v) > REFERENCE_RTOL * abs(v):
                        bad.append(f"{k} {final[k]!r} != pinned {v!r}")


def windows_us(trace):
    """Microseconds per iteration of each evaluation window of one run."""
    it = np.array([r.iteration for r in trace.records], dtype=float)
    ns = np.array([r.elapsed_ns for r in trace.records], dtype=float)
    return np.diff(ns) / np.diff(it) / 1e3


def working_set(setup):
    """Computed bytes of the arrays one run keeps hot."""
    prob = setup.problem
    comps = prob.operator.components
    return {
        "data_bytes": int(sum(v.nbytes for v in prob.data.values()
                              if isinstance(v, np.ndarray))),
        "table_bytes": int(8 * sum(c.out_idx.size for c in comps)),
        "vectors_bytes": int(3 * 8 * prob.d),   # z, x and the aggregate
    }
