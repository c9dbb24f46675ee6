"""remvi benchmark: solver workloads measured end to end, and a traced run
that splits the time over the library's modules.

    python3 perfbench/run.py --workload lad-lazy --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Run from the root of a source checkout; the library is imported from
``src/``.  Load shape: batch work in a closed loop, in cycles that repeat
until ``--seconds`` have passed.  A cycle times the workload's set-up
(repeated for at least 50 ms), then runs passes (every solver seed of the
workload, with CSV and summary emission) until they have taken as long.
Every instance and solver seed derives from ``--seed``.  After each pass
the outputs are checked (see ``workloads.check_pass``); a run whose check
fails counts as failed.

``--trace 0`` prints the end-to-end metrics that BENCHMARK.json bounds:
  setup_s       median wall time of one set-up (instance, plan, and the
                baseline step size where the workload has one)
  solve_s       mean wall time of one pass (every pass does the same work)
  iter_us.mean  mean microseconds per iteration over all evaluation windows
                of all runs (from the records' elapsed_ns)
  peak_rss_mb   peak resident memory of this process
and, unbounded, the median and 90th percentile of the same windows and the
share of failed runs.  On a shared 2-vCPU KVM guest (Xeon, 2026) the same
code ran up to twice as slow in phases of 10 to 60 s, driven by load
outside the guest: a pure-Python loop slowed with it and process CPU time
moved with wall time.  Means over the whole run average those phases best.
Over seven minutes of lad-lazy passes, the quartile spread of the mean pass
of 55 s stretches was 0.11 of its median (0.15 at 35 s), against 0.22 for
the fastest pass and 0.28 for the 10th-percentile window.

``--trace 1`` alternates untraced and traced passes, checks that both give
bitwise equal outputs, and prints the per-layer metrics of
``tracing.LAYER_METRICS`` together with the end-to-end metric and workload
each one should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (solver runs), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="workload name, or 'all' for each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------

def _cache_sizes():
    sizes = {}
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(path, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KMG")) * scale
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown"
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found or "unknown"


def environment(working_set):
    import numpy as np
    import scipy
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "working_set_computed": dict(
            working_set, total_bytes=sum(working_set.values()),
            llc_bytes=caches.get("l3_bytes", caches.get("l2_bytes"))),
    }


# -- one workload -------------------------------------------------------------

def measure(name, seed, seconds, traced):
    import workloads as wl
    import numpy as np
    import tracing

    w = wl.WORKLOADS[name]
    tracer = tracing.Tracer()
    stats = tracing.LayerStats()

    def tracing_if(on):
        return tracer.installed() if on else contextlib.nullcontext()

    reference = wl.load_reference(w) if seed == wl.DEFAULT_SEED else None
    out_dir = os.path.join(OUT_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    first = {}
    setup = None
    setup_times = []
    pass_s = {False: [], True: []}
    windows = []
    attempted = 0
    failed = []
    t_start = time.perf_counter()

    def done():
        return time.perf_counter() - t_start >= seconds \
            and (not traced or pass_s[True])

    def one_pass(trace_this):
        nonlocal attempted
        with tracing_if(trace_this):
            sec, res = wl.run_pass(w, setup, out_dir,
                                   mark=tracer.__len__ if trace_this else None)
        if trace_this:
            stats.add_pass(tracer.take(), sec, res)
        else:
            windows.extend(wl.windows_us(r.trace) for r in res if r.trace)
        # Every pass, on every set-up, must repeat the first one bitwise.
        wl.check_pass(w, setup, res, out_dir, first, reference)
        pass_s[trace_this].append(sec)
        attempted += len(res)
        failed.extend(r for r in res if r.failed)
        for r in res:
            r.trace = None      # a run's table copies are large
        return sec

    try:
        cycles = 0
        while not done():
            trace_this = traced and cycles % 2 == 1
            cycles += 1
            setup = None        # drop the previous instance before building
            with tracing_if(trace_this):
                setup, times = wl.timed_setups(
                    w, seed, (lambda s: stats.add_setup(tracer.take(), s.problem))
                    if trace_this else None)
            if not trace_this:
                setup_times.extend(times)
            spent = 0.0
            while True:
                spent += one_pass(trace_this)
                if spent >= sum(times) or done():
                    break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("env " + json.dumps(environment(wl.working_set(setup))))

    for r in failed:
        print(f"FAILED {name} seed {r.seed}: {r.error or '; '.join(r.problems)}",
              file=sys.stderr)
        if r.tb:
            print(r.tb, file=sys.stderr)
    print(f"workload {name}: seed {seed}, {cycles} cycles, "
          f"{len(setup_times)} untraced set-ups, "
          f"{len(pass_s[False]) + len(pass_s[True])} passes, "
          f"{attempted} solver runs, "
          f"K={w.iterations}, stride {w.stride}, m={setup.problem.m}, "
          f"d={setup.problem.d}, pinned reference "
          f"{'checked' if reference is not None else 'not checked'}")
    print(f"  failed_frac {len(failed) / attempted:.4g} "
          f"({len(failed)}/{attempted} runs)")
    if traced:
        metrics = stats.metrics(setup.problem.d, pass_s[False])
        for span, (calls, total, own) in stats.span_table().items():
            print(f"  span {span:26s} {calls:10d} calls {total:12.1f} ms "
                  f"{own:12.1f} ms self")
        for key, (unit, moves) in tracing.LAYER_METRICS.items():
            print(f"  {key:30s} {metrics[key]['value']:14.6g} {unit:6s} -> {moves}")
    else:
        win = np.concatenate(windows) if windows else np.zeros(1)
        win_note = f"{win.size} windows"
        metrics = {
            "setup_s": (float(np.median(setup_times)), "s",
                        f"median of {len(setup_times)} set-ups"),
            "solve_s": (float(np.mean(pass_s[False])), "s",
                        f"mean of {len(pass_s[False])} passes"),
            "iter_us.mean": (float(np.mean(win)), "us", win_note),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "MB", "ru_maxrss"),
        }
        shown = dict(metrics)
        for q in (50, 90):
            shown[f"iter_us.p{q}"] = (float(np.percentile(win, q)), "us",
                                      f"{win_note}; unbounded")
        for key, (value, unit, note) in shown.items():
            print(f"  {key:12s} {value:12.6g} {unit:3s} ({note})")
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


# -- every workload -------------------------------------------------------------

def run_all(args):
    """Each workload in its own process (peak RSS is per process), in turn."""
    import workloads as wl

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}/{key}"] = val
        rows.append((name, res))
    if not args.trace:
        keys = list(rows[0][1]["metrics"])
        print(f"{'workload':16s}" + "".join(f"{k:>13s}" for k in keys)
              + f"{'failed_frac':>13s}")
        for name, res in rows:
            vals = "".join(f"{res['metrics'][k]['value']:13.5g}" for k in keys)
            print(f"{name:16s}{vals}{res['failed'] / res['attempted']:13.3g}")
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "remvi", "__init__.py")):
        print(f"error: no library source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
