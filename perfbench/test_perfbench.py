"""Tests of the benchmark itself: the traced run must not change the
program, the counts it reports must match the solver's own accounting, and
the output checks must catch wrong outputs.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads as wl
import remvi  # after workloads, which puts the source tree on sys.path
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

# Each workload shrunk to a few milliseconds, same solver and plan kind.
SMALL = {
    "lad-lazy": dict(n=20, d=20, density=0.2, iterations=200, stride=20),
    "lad-mirror-prox": dict(n=12, d=12, density=0.3, iterations=5, stride=1),
}


def small(name, **changes):
    return dataclasses.replace(wl.WORKLOADS[name], **SMALL[name], **changes)


def traced_pass(w, setup, out_dir, stats):
    tracer = tracing.Tracer()
    with tracer.installed():
        sec, res = wl.run_pass(w, setup, out_dir, mark=tracer.__len__)
    stats.add_pass(tracer.take(), sec, res)
    return sec, res


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_matches_untraced_and_counts(name, tmp_path):
    w = small(name)
    setup = wl.build_setup(w, seed=5)
    first = {}
    sec_u, plain = wl.run_pass(w, setup, str(tmp_path))
    wl.check_pass(w, setup, plain, str(tmp_path), first)
    stats = tracing.LayerStats()
    sec_t, traced = traced_pass(w, setup, str(tmp_path), stats)
    wl.check_pass(w, setup, traced, str(tmp_path), first)
    for a, b in zip(plain, traced):
        assert not a.failed and not b.failed, (a.problems, b.problems, b.error)
        assert wl.fingerprint(a.trace) == wl.fingerprint(b.trace)
    m = stats.metrics(setup.problem.d, [sec_u])
    assert set(m) == set(tracing.LAYER_METRICS)
    calls = traced[0].trace.oracle_calls
    assert m["operators.component_evals"]["value"] == calls
    assert calls == w.expected_calls(setup.problem.m)
    if w.is_rem:
        assert m["sampling.draws"]["value"] == 2 * w.iterations
    else:
        assert m["operators.evaluate_full_calls"]["value"] == 2 * w.iterations
        assert m["baselines.self_us_per_iter"]["value"] > 0


def test_missing_spans_fail_the_count_checks(tmp_path):
    """The count checks compare the spans with the run, so a run whose
    spans are missing (here: the tracer was never installed) fails them."""
    w = small("lad-lazy")
    setup = wl.build_setup(w, seed=1)
    tracer = tracing.Tracer()
    sec, res = wl.run_pass(w, setup, str(tmp_path), mark=tracer.__len__)
    tracing.LayerStats().add_pass(tracer.take(), sec, res)
    assert any("draws" in p for p in res[0].problems)
    assert any("component evaluations" in p for p in res[0].problems)


def test_baseline_setup_reproduces_default_step(tmp_path):
    w = small("lad-mirror-prox")
    setup = wl.build_setup(w, seed=2)
    seed = setup.solver_seeds[0]
    default = remvi.run_baseline(setup.problem, remvi.BaselineConfig(
        method=w.solver, iterations=w.iterations, seed=seed,
        eval_stride=w.stride))
    assert default.info["eta"] == setup.etas[seed]
    assert wl.fingerprint(default) == wl.fingerprint(wl.solve(w, setup, seed))


def test_check_flags_wrong_outputs(tmp_path):
    w = small("lad-lazy", seeds_per_pass=3)
    setup = wl.build_setup(w, seed=0)
    _, res = wl.run_pass(w, setup, str(tmp_path))
    good = {str(r.seed): wl.final_metrics(r.trace) for r in res}
    wl.check_pass(w, setup, res, str(tmp_path), {}, good)
    assert not any(r.failed for r in res)

    bad_ref = dict(good)
    key = str(res[0].seed)
    bad_ref[key] = {k: v * (1 + 1e-8) for k, v in good[key].items()}
    _, res2 = wl.run_pass(w, setup, str(tmp_path))
    other = {r.seed: ((), b"") for r in res2[1:]}
    wl.check_pass(w, setup, res2, str(tmp_path), other, bad_ref)
    assert all(r.failed for r in res2)
    assert "pinned" in res2[0].problems[0]
    assert all("first pass" in r.problems[0] for r in res2[1:])


def test_seeds_derive_from_workload_seed():
    w = small("lad-lazy", seeds_per_pass=3)
    assert wl.derive_seeds(w, 7) == wl.derive_seeds(w, 7)
    inst, seeds = wl.derive_seeds(w, 7)
    assert len(set(seeds)) == w.seeds_per_pass
    assert wl.derive_seeds(w, 8) != (inst, seeds)


def test_reference_covers_default_seed():
    for name, w in wl.WORKLOADS.items():
        ref = wl.load_reference(w)
        assert set(ref) == {str(s) for s in wl.derive_seeds(w, wl.DEFAULT_SEED)[1]}


def test_benchmark_json_matches_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [x["name"] for x in spec["workloads"]] == list(wl.WORKLOADS)
    for x in spec["workloads"]:
        w = wl.WORKLOADS[x["name"]]
        assert f"K={w.iterations}" in x["why"] and f"stride {w.stride}" in x["why"]
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == \
        {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    assert [x["name"] for x in spec["end_to_end"]] == \
        ["setup_s", "solve_s", "iter_us.mean", "peak_rss_mb"]


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lad-lazy", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
