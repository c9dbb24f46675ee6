"""Regenerate ``reference.json``: the final metrics of every run of every
workload at the default workload seed.

Lazy workloads are pinned by a rem-dense replay of the same seeds, so the
benchmark's check also pins the dense/lazy agreement.  The baseline workload
is pinned by a run with the default step size (``eta=None``), so the check
also pins the benchmark's set-up of that step size.

    python3 perfbench/make_reference.py
"""

import dataclasses
import json

import workloads as wl
import remvi  # after workloads, which puts the source tree on sys.path


def pinned(workload):
    setup = wl.build_setup(workload, wl.DEFAULT_SEED)
    if workload.solver == "rem-lazy":
        workload = dataclasses.replace(workload, solver="rem-dense")
    out = {}
    for seed in setup.solver_seeds:
        if workload.is_rem:
            trace = wl.solve(workload, setup, seed)
        else:
            cfg = remvi.BaselineConfig(method=workload.solver,
                                       iterations=workload.iterations,
                                       seed=seed, eval_stride=workload.stride)
            trace = remvi.run_baseline(setup.problem, cfg)
        out[str(seed)] = wl.final_metrics(trace)
    return out


def main():
    ref = {name: pinned(w) for name, w in wl.WORKLOADS.items()}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
