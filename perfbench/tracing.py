"""Span tracing around the library's public functions, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent) per call, and
``Tracer.uninstall`` puts the originals back.  Spans are kept in flat
in-memory arrays and reduced with numpy whenever no span is open (after each
set-up and each pass).  A span's self time is its duration minus the
durations of its direct children.

Wrapping happens from outside the program: the library itself is unchanged,
and the benchmark checks that a traced run reproduces an untraced one bitwise.
"""

from __future__ import annotations

import contextlib
import time
import types
from array import array
from collections import defaultdict

import numpy as np

import remvi
from remvi import (baselines, bench, geometry, metrics, operators, problems,
                   sampling, solver)

MODULES = (remvi, problems, sampling, operators, geometry, solver, metrics,
           baselines, bench)

# span name -> the library module it is charged to in the <module>.share
# metrics.  Component classes live in problems.py but are operator layer work.
SPAN_MODULE = {
    "generate_instance": "problems",
    "problem_plan": "sampling",
    "build_plan": "sampling",
    "sample_p": "sampling",
    "sample_q": "sampling",
    "component.evaluate": "operators",
    "table.init": "operators",
    "table.refresh": "operators",
    "table.resum": "operators",
    "evaluate_full": "operators",
    "empirical_full_lipschitz": "operators",
    "prox_block": "geometry",
    "prox_full": "geometry",
    "next_step_size": "solver",
    "run_dense": "solver",
    "run_lazy": "solver",
    "evaluate_point": "metrics",
    "run_baseline": "baselines",
    "write_csv": "bench",
    "emit_summary": "bench",
}
# Shares are of the traced passes; the problems module's one span, the
# instance build, runs only in set-up, so it has no share.
SHARE_MODULES = ("sampling", "operators", "geometry", "solver", "metrics",
                 "baselines", "bench")
NAMES = tuple(SPAN_MODULE)
NAME_ID = {n: i for i, n in enumerate(NAMES)}

# Per-layer metric -> (unit, the bounded end-to-end metric and workloads it
# should move).  "flat" names the workloads where the prediction is no change.
_BUILD = "setup_s, peak_rss_mb on lad-lazy"
_DRAW = "iter_us.mean on lad-lazy; flat on lad-mirror-prox"
_COMPONENT = "iter_us.mean on lad-lazy, lad-mirror-prox"
_FULL = "solve_s, iter_us.mean on lad-mirror-prox; flat on REM workloads"
_LAZY = "iter_us.mean, solve_s on lad-lazy; flat on lad-mirror-prox"
_PROX_FULL = "iter_us.mean on lad-mirror-prox"
_STEP = "iter_us.mean on lad-lazy"
# Every lad-lazy evaluation window ends with one evaluation, so the metric
# cost shows in iter_us.mean there.
_EVAL = "iter_us.mean, solve_s on lad-lazy"
LAYER_METRICS = {
    "problems.build_s": ("s", _BUILD),
    "problems.components": ("count", _BUILD),
    "problems.data_mb": ("MB", _BUILD),
    "sampling.plan_s": ("s", "setup_s on lad-lazy"),
    "sampling.draws": ("count", _DRAW),
    "sampling.draw_ns": ("ns", _DRAW),
    "operators.table_init_s": ("s", "solve_s on lad-lazy"),
    "operators.component_evals": ("count", _COMPONENT),
    "operators.component_eval_ns": ("ns", _COMPONENT),
    "operators.refresh_ns": ("ns", _COMPONENT),
    "operators.evaluate_full_calls": ("count", _FULL),
    "operators.evaluate_full_ms": ("ms", _FULL),
    "operators.lipschitz_s": ("s", "setup_s on lad-mirror-prox"),
    "geometry.prox_block_per_iter": ("count", _LAZY),
    "geometry.prox_block_ns": ("ns", _LAZY),
    "geometry.touched_frac": ("frac", _LAZY),
    "geometry.prox_full_calls": ("count", _PROX_FULL),
    "geometry.prox_full_us": ("us", _PROX_FULL),
    "solver.init_s": ("s", "solve_s on lad-lazy"),
    "solver.self_us_per_iter": ("us", _STEP),
    "solver.step_size_ns": ("ns", _STEP),
    "metrics.evals": ("count", _EVAL),
    "metrics.eval_ms": ("ms", _EVAL),
    "baselines.self_us_per_iter": ("us", "iter_us.mean on lad-mirror-prox"),
    "bench.emit_ms": ("ms", "solve_s on lad-mirror-prox"),
    **{f"{mod}.share": ("frac", "solve_s on every workload")
       for mod in SHARE_MODULES},
    "trace.overhead_s": ("s", "none: traced minus untraced solve_s"),
}


def _component_classes():
    seen = []
    todo = [operators.Component]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in seen if "evaluate" in c.__dict__]


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._size = array("q")     # coordinates re-proxed (prox_block only)
        self._stack = []
        self._saved = []

    def __len__(self):
        return len(self._name)

    def _wrap(self, name, fn, sized=False):
        nid = NAME_ID[name]
        names, parents = self._name, self._parent
        starts, ends, sizes, stack = self._start, self._end, self._size, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            # prox_block(self, block, z_block, A): size of the re-proxed block
            sizes.append(np.size(args[2]) if sized else 0)
            stack.append(i)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr, name, sized=False):
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig, sized))

    def install(self):
        """Wrap the traced functions in every module that binds them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        funcs = {
            problems.generate_instance: "generate_instance",
            sampling.problem_plan: "problem_plan",
            sampling.build_plan: "build_plan",
            operators.empirical_full_lipschitz: "empirical_full_lipschitz",
            solver.next_step_size: "next_step_size",
            metrics.evaluate_point: "evaluate_point",
            solver.run_dense: "run_dense",
            solver.run_lazy: "run_lazy",
            baselines.run_baseline: "run_baseline",
            bench.write_csv: "write_csv",
            bench.emit_summary: "emit_summary",
        }
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in funcs:
                    self._patch(mod, attr, funcs[val])
        self._patch(sampling.SamplingPlan, "sample_p", "sample_p")
        self._patch(sampling.SamplingPlan, "sample_q", "sample_q")
        for cls in _component_classes():
            self._patch(cls, "evaluate", "component.evaluate")
        self._patch(operators.ComponentTable, "__init__", "table.init")
        self._patch(operators.ComponentTable, "refresh", "table.refresh")
        self._patch(operators.ComponentTable, "resum", "table.resum")
        self._patch(operators.FiniteSumOperator, "evaluate_full", "evaluate_full")
        self._patch(geometry.GeometryBundle, "prox_block", "prox_block", sized=True)
        self._patch(geometry.GeometryBundle, "prox_full", "prox_full")

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self):
        """Hand over the recorded spans as arrays and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = Spans(np.frombuffer(self._name, dtype=np.int32).copy(),
                      np.frombuffer(self._parent, dtype=np.int32).copy(),
                      np.frombuffer(self._start, dtype=np.int64).copy(),
                      np.frombuffer(self._end, dtype=np.int64).copy(),
                      np.frombuffer(self._size, dtype=np.int64).copy())
        for arr in (self._name, self._parent, self._start, self._end, self._size):
            del arr[:]
        return spans


class Spans:
    """A closed batch of spans with derived durations and self times."""

    def __init__(self, name, parent, start, end, size):
        self.name = name
        self.parent = parent
        self.start = start
        self.dur = end - start
        self.size = size
        has = parent >= 0
        self.self_ns = self.dur - np.bincount(parent[has], weights=self.dur[has],
                                              minlength=name.size)

    def totals(self):
        """Per span name: (count, total ns, self ns, size)."""
        k = len(NAMES)
        return (np.bincount(self.name, minlength=k),
                np.bincount(self.name, weights=self.dur, minlength=k),
                np.bincount(self.name, weights=self.self_ns, minlength=k),
                np.bincount(self.name, weights=self.size, minlength=k))

    def count(self, name, lo, hi):
        return int(np.count_nonzero(self.name[lo:hi] == NAME_ID[name]))

    def duration(self, *names, top_only=False):
        """Summed duration in seconds of the spans with these names; with
        ``top_only``, of those not nested in another traced call."""
        pick = np.isin(self.name, [NAME_ID[n] for n in names])
        if top_only:
            pick &= self.parent < 0
        return float(self.dur[pick].sum()) / 1e9

    def init_ns(self, lo, hi):
        """Solver self time from the run call to its first metric record."""
        ev = np.flatnonzero(self.name[lo + 1:hi] == NAME_ID["evaluate_point"])
        if not ev.size:
            return 0
        first = lo + 1 + int(ev[0])
        kids = np.flatnonzero(self.parent[lo + 1:first] == lo) + lo + 1
        return int(self.start[first] - self.start[lo] - self.dur[kids].sum())


class LayerStats:
    """Accumulates traced set-ups and passes into the per-layer metrics."""

    def __init__(self):
        k = len(NAMES)
        self.count = np.zeros(k)
        self.total = np.zeros(k)
        self.self_ns = np.zeros(k)
        self.size = np.zeros(k)
        self.setup = defaultdict(list)
        self.pass_s = []
        self.runs = []    # (iterations, solver init ns, table init ns) per run
        self.components = 0
        self.data_mb = 0.0

    def add_setup(self, spans, problem):
        self.setup["build"].append(spans.duration("generate_instance"))
        self.setup["plan"].append(
            spans.duration("problem_plan", "build_plan", top_only=True))
        self.setup["lipschitz"].append(spans.duration("empirical_full_lipschitz"))
        self.components = problem.m
        self.data_mb = sum(v.nbytes for v in problem.data.values()
                           if isinstance(v, np.ndarray)) / 1e6

    def add_pass(self, spans, seconds, results):
        """Fold one traced pass in, and add to each run's problems where its
        spans disagree with the counts the run reports."""
        c, t, s, z = spans.totals()
        self.count += c
        self.total += t
        self.self_ns += s
        self.size += z
        self.pass_s.append(seconds)
        for res in results:
            if res.trace is None:
                continue
            lo, hi = res.span_range
            K = res.trace.iterations
            rem = res.trace.solver.startswith("rem-")
            table = spans.dur[lo:hi][spans.name[lo:hi] == NAME_ID["table.init"]]
            self.runs.append((K, spans.init_ns(lo, hi) if rem else 0,
                              int(table.sum())))
            evals = spans.count("component.evaluate", lo, hi)
            if evals != res.trace.oracle_calls:
                res.problems.append(f"traced component evaluations {evals} != "
                                    f"oracle_calls {res.trace.oracle_calls}")
            draws = spans.count("sample_p", lo, hi) + spans.count("sample_q", lo, hi)
            if rem and draws != 2 * K:
                res.problems.append(f"traced draws {draws} != 2K = {2 * K}")

    def span_table(self):
        """Per span name: calls, total ms and self ms over the traced passes."""
        return {n: (int(self.count[i]), self.total[i] / 1e6, self.self_ns[i] / 1e6)
                for i, n in enumerate(NAMES) if self.count[i]}

    def metrics(self, d, untraced_pass_s):
        runs = max(1, len(self.runs))
        iters = max(1, sum(r[0] for r in self.runs))
        init_ns = sum(r[1] for r in self.runs)

        def cnt(*names):
            return float(sum(self.count[NAME_ID[n]] for n in names))

        def mean(name, what, scale):
            i = NAME_ID[name]
            return float(what[i] / self.count[i] / scale) if self.count[i] else 0.0

        def med(key):
            vals = self.setup.get(key)
            return float(np.median(vals)) if vals else 0.0

        run_self = sum(self.self_ns[NAME_ID[n]] for n in ("run_dense", "run_lazy"))
        solve_ns = max(1.0, 1e9 * sum(self.pass_s))
        share = defaultdict(float)
        for name, mod in SPAN_MODULE.items():
            share[mod] += self.self_ns[NAME_ID[name]]
        draws = cnt("sample_p", "sample_q")
        draw_ns = (self.self_ns[NAME_ID["sample_p"]]
                   + self.self_ns[NAME_ID["sample_q"]]) / draws if draws else 0.0
        out = {
            "problems.build_s": med("build"),
            "problems.components": float(self.components),
            "problems.data_mb": self.data_mb,
            "sampling.plan_s": med("plan"),
            "sampling.draws": draws / runs,
            "sampling.draw_ns": float(draw_ns),
            "operators.table_init_s": sum(r[2] for r in self.runs) / runs / 1e9,
            "operators.component_evals": cnt("component.evaluate") / runs,
            "operators.component_eval_ns": mean("component.evaluate", self.self_ns, 1),
            "operators.refresh_ns": mean("table.refresh", self.self_ns, 1),
            "operators.evaluate_full_calls": cnt("evaluate_full") / runs,
            "operators.evaluate_full_ms": mean("evaluate_full", self.total, 1e6),
            "operators.lipschitz_s": med("lipschitz"),
            "geometry.prox_block_per_iter": cnt("prox_block") / iters,
            "geometry.prox_block_ns": mean("prox_block", self.self_ns, 1),
            "geometry.touched_frac": float(self.size[NAME_ID["prox_block"]]) / iters / d,
            "geometry.prox_full_calls": cnt("prox_full") / runs,
            "geometry.prox_full_us": mean("prox_full", self.self_ns, 1e3),
            "solver.init_s": init_ns / runs / 1e9,
            "solver.self_us_per_iter": float(run_self - init_ns) / iters / 1e3,
            "solver.step_size_ns": mean("next_step_size", self.self_ns, 1),
            "metrics.evals": cnt("evaluate_point") / runs,
            "metrics.eval_ms": mean("evaluate_point", self.total, 1e6),
            "baselines.self_us_per_iter":
                float(self.self_ns[NAME_ID["run_baseline"]]) / iters / 1e3
                if cnt("run_baseline") else 0.0,
            "bench.emit_ms": float(self.total[NAME_ID["write_csv"]]
                                   + self.total[NAME_ID["emit_summary"]])
                             / max(1, len(self.pass_s)) / 1e6,
            **{f"{mod}.share": float(share[mod]) / solve_ns for mod in SHARE_MODULES},
            "trace.overhead_s": (float(np.mean(self.pass_s))
                                 - float(np.mean(untraced_pass_s))),
        }
        return {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in out.items()}
