"""The compiled window kernel against the Python loop: on every geometry,
with and without entropy coordinates, the two run the same iterations bit
for bit, errors included, and without a compiler the run takes the Python
loop."""

import math
import os
import shutil
import stat
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from helpers import (assert_runs_bitwise_equal, calls_per_iteration,
                     loop_paths, needs_compiler, scripted_plan)
from remvi import _kernel, solver
from remvi.geometry import GeometryBundle, euclidean_block
from remvi.operators import CallableComponent, ComponentTable
from remvi.problems import generate_instance, make_custom, make_matrix_game
from remvi.sampling import problem_plan
from remvi.solver import DivergenceError, SolverConfig, run
from test_solver import mixed_instance


def callable_instance():
    """A Euclidean operator of CallableComponents whose reads differ from
    their writes, on a weighted block with mu and a boxed block; one
    component reads nothing."""
    geom = GeometryBundle([
        euclidean_block(np.arange(4), anchor=np.array([0.5, -0.2, 0.0, 0.1]),
                        weights=np.array([1.0, 2.0, 1.0, 0.5]), mu=0.3),
        euclidean_block(np.array([4, 5]), lo=-1.0, hi=1.0),
    ])
    comps = [
        CallableComponent([0], [4, 5], lambda x: [x[4] - 2.0 * x[5] + 0.1]),
        CallableComponent([4, 5], [0], lambda x: [-x[0], 2.0 * x[0]]),
        CallableComponent([1, 5], [1, 5],
                          lambda x: [0.5 * x[5], 0.2 - 0.5 * x[1]]),
        CallableComponent([2, 3], [2], lambda x: [0.2 * x[2], 0.1]),
        CallableComponent([3], [], lambda x: [-0.3]),
    ]
    return make_custom(comps, geom, [2.3, 2.3, 0.5, 0.2, 0.01],
                       reference=geom.x0.copy())


def wide_instance():
    """Three CallableComponents that each read and write all 20
    coordinates, skew linear maps plus an offset, at gamma = 0; half the
    coordinates are boxed."""
    rng = np.random.default_rng(0)
    d = 20
    geom = GeometryBundle([euclidean_block(np.arange(10)),
                           euclidean_block(np.arange(10, d), lo=-2.0, hi=2.0)])
    comps, lam = [], []
    for _ in range(3):
        B = rng.normal(size=(d, d))
        M, c = B - B.T, rng.normal(size=d)
        comps.append(CallableComponent(np.arange(d), np.arange(d),
                                       lambda x, M=M, c=c: M @ x + c))
        lam.append(np.linalg.norm(M, 2))
    return make_custom(comps, geom, lam, reference=geom.x0.copy())


CASES = {
    "lad": lambda: generate_instance("lad", 30, 25, 1.0, seed=3, density=0.2),
    "lad-quad": lambda: generate_instance("lad", 8, 7, 1.0, seed=5,
                                          density=0.5, quad=0.5),
    # gamma = mu > 0, and every component reads and writes 20 coordinates
    "policy-eval-wide": lambda: generate_instance("policy-eval", 30, 20, 0.0,
                                                  seed=2),
    "callable": callable_instance,
    "wide": wide_instance,
    # entropy coordinates: all of them, only the row player's, and mixed
    # with Euclidean ones (a boxed block, and the mixed geometry below)
    "two-sided": lambda: generate_instance("matrix-game", 12, 9, 1.5, seed=2,
                                           mode="two-sided"),
    "row-sided": lambda: generate_instance("matrix-game", 12, 9, 1.5, seed=2,
                                           mode="row-sided"),
    "box-simplex": lambda: generate_instance("box-simplex", 10, 12, 1.0,
                                             seed=4),
    "mixed": mixed_instance,
}


def both_paths(monkeypatch, inst, make_plan, **args):
    """The run in the compiled kernel and in the Python loop, each with a
    plan from ``make_plan()``."""
    runs = []
    for path in loop_paths(monkeypatch):
        runs.append(run(inst, make_plan(), SolverConfig(**args)))
        assert runs[-1].info["kernel"] in (path, "python")
    return runs


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("averaging, eval_point, stride", [
    ("sampled-index-set", "iterate", 40), ("weighted-full", "average", 37)])
def test_kernel_equals_python_loop(name, mode, averaging, eval_point, stride,
                                   monkeypatch):
    inst = CASES[name]()
    plan = problem_plan(inst)
    kern, loop = both_paths(monkeypatch, inst, lambda: plan,
                            iterations=400, seed=6,
                            mode=mode, averaging=averaging, avg_samples=7,
                            eval_point=eval_point, eval_stride=stride)
    assert_runs_bitwise_equal(kern, loop)
    assert loop.info["kernel"] == "python"


@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("stride, avg_samples", [(1, 7), (40, 60)])
def test_kernel_stops_every_iteration(mode, stride, avg_samples,
                                      monkeypatch):
    # a record every iteration, or every iteration picked (avg_samples at
    # least K): every window is one iteration long
    inst = CASES["lad"]()
    plan = problem_plan(inst)
    kern, loop = both_paths(monkeypatch, inst, lambda: plan, iterations=60,
                            seed=8, mode=mode, eval_stride=stride,
                            avg_samples=avg_samples)
    assert_runs_bitwise_equal(kern, loop)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("K", [1, 2, 3, 120])
def test_kernel_follows_scripted_draws(name, mode, K, monkeypatch):
    # the kernel calls the plan's draws as they are at the start of a run,
    # here a script that repeats j1 as the last j2 (the shadow) and draws
    # the same component as j1 and j2
    inst = CASES[name]()
    m = inst.m
    draws = ([0, 1, m - 1, 2, 2, 0], [1, m - 1, 2, 2, 0, 0, 1])
    kern, loop = both_paths(monkeypatch, inst,
                            lambda: scripted_plan(problem_plan(inst), *draws),
                            iterations=K, seed=0, mode=mode, eval_stride=9)
    assert_runs_bitwise_equal(kern, loop)


@pytest.mark.parametrize("which", ["p", "q"])
@pytest.mark.parametrize("bad", [-1, "m"])
def test_out_of_range_draw_raises(which, bad, monkeypatch):
    # a negative index would wrap, and m would read past the layout
    inst = CASES["lad"]()
    bad = inst.m if bad == "m" else bad
    good = [0, 1, 2, 3]
    draws = (good + [bad], good) if which == "p" else (good, good + [bad])
    for path in loop_paths(monkeypatch):
        plan = scripted_plan(problem_plan(inst), *draws)
        with pytest.raises(IndexError,
                           match=rf"drawn component index {bad} outside "
                                 rf"\[0, {inst.m}\)"):
            run(inst, plan, SolverConfig(iterations=50, seed=0, mode="lazy"))


def test_component_error_propagates(monkeypatch):
    inst = callable_instance()
    calls = {"n": 0}
    fn = inst.operator.components[2].fn

    def failing(x):
        calls["n"] += 1
        if calls["n"] == 40:
            raise ArithmeticError("component failed")
        return fn(x)

    inst.operator.components[2].fn = failing
    plan = problem_plan(inst)
    for path in loop_paths(monkeypatch):
        calls["n"] = 0
        with pytest.raises(ArithmeticError, match="component failed"):
            run(inst, plan, SolverConfig(iterations=500, seed=1,
                                         mode="lazy"))


def loud_game():
    """The two-sided game with its payoffs scaled by 1e8, so that at lpq =
    1e-300 z overflows within a few hundred iterations, on entropy
    coordinates (a game has no others)."""
    return make_matrix_game(1e8 * CASES["two-sided"]().data["A"])


@pytest.mark.parametrize("name, lpq", [("lad", 1e-300), ("wide", 1e-150),
                                       ("wide", 1e-3), ("loud-game", 1e-300)])
@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("seed", [16, 0])
def test_divergence_named_alike(name, lpq, mode, seed, monkeypatch):
    # at these lpq z overflows after a few iterations (about 100 on the
    # third and the fourth); both paths name the same iteration and
    # magnitude (the largest of the set)
    inst = loud_game() if name == "loud-game" else CASES[name]()
    plan = problem_plan(inst)
    errors = []
    for path in loop_paths(monkeypatch):
        cfg = SolverConfig(iterations=3000, seed=seed, mode=mode, lpq=lpq,
                           eval_stride=100, eval_metrics=(),
                           divergence_bound=1e300)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="dual vector z") as exc:
            run(inst, plan, cfg)
        err = exc.value
        errors.append((err.iteration, str(err), err.bound,
                       "nan" if math.isnan(err.norm) else err.norm))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("seed", [16, 0])
@pytest.mark.parametrize("at_call", [5, 12, 31, 799])
def test_non_finite_component_value_named_alike(name, mode, seed, at_call,
                                                monkeypatch):
    # from the loop's at_call-th evaluation on (5, 31 and 799 are j1's, 12
    # is j2's; 799 is in the last iteration, K = 400) every component
    # writes (inf, NaN, ...): z turns non-finite through j1's correction
    # (caught by the next prox or, on an entropy coordinate, by the entropy
    # step's check) or through a refresh's base shift.  The set names
    # numpy's max (NaN); both paths name the same iteration and magnitude
    inst = CASES[name]()
    calls = {"n": -inst.m}          # the table build evaluates each once

    def broken(c, x, out, at, evaluate):
        evaluate(c, x, out, at)
        calls["n"] += 1
        if calls["n"] >= at_call and len(c.out_idx):
            out[at] = math.inf
            if len(c.out_idx) > 1:
                out[at + 1] = math.nan
        return out

    for kind in set(map(type, inst.operator.components)):
        monkeypatch.setattr(kind, "evaluate",
                            lambda c, x, out, at, evaluate=kind.evaluate:
                            broken(c, x, out, at, evaluate))
    plan = problem_plan(inst)
    errors = []
    for path in loop_paths(monkeypatch):
        calls["n"] = -inst.m
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError) as exc:
            run(inst, plan, SolverConfig(iterations=400, seed=seed,
                                         mode=mode, eval_stride=50,
                                         eval_metrics=()))
        err = exc.value
        errors.append((err.iteration, str(err).split(" inf-norm")[0],
                       "nan" if math.isnan(err.norm) else err.norm))
    assert errors[0] == errors[1]
    assert at_call < 799 or errors[0][0] == 400


@needs_compiler
def test_kernel_runs_on_every_geometry():
    # with a compiler every run of one iteration or more takes the kernel
    for make in CASES.values():
        inst = make()
        plan = problem_plan(inst)
        for K, path in ((0, "python"), (1, "c"), (2, "c"), (20, "c")):
            cfg = SolverConfig(iterations=K, seed=0, mode="lazy")
            assert run(inst, plan, cfg).info["kernel"] == path


@needs_compiler
@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["dense", "lazy"])
@pytest.mark.parametrize("K", [1, 2, 37])
def test_compiled_run_never_enters_numpy_loop(name, mode, K, monkeypatch):
    # the kernel runs every iteration, the last one (which forms fhat_last)
    # included: the numpy loop's table refresh and extrapolate raise here
    def entered(*args):
        raise AssertionError("the numpy loop ran an iteration")

    inst = CASES[name]()
    plan = problem_plan(inst)
    cfg = SolverConfig(iterations=K, seed=4, mode=mode, eval_stride=9)
    with monkeypatch.context() as patch:
        patch.setattr(ComponentTable, "refresh", entered)
        patch.setattr(solver, "extrapolate", entered)
        kern = run(inst, plan, cfg)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert kern.info["kernel"] == "c"
    assert_runs_bitwise_equal(kern, run(inst, plan, cfg))


@needs_compiler
def test_kernel_iteration_python_calls():
    # in the kernel a lazy LAD iteration makes only the calls that stay in
    # Python: sample_p and sample_q with a uniform and an alias lookup
    # each, the two component evaluations, and the schedule's step size
    # (the kernel's state adds about 110 calls a run, 0.06 an iteration
    # here)
    inst = generate_instance("lad", 200, 150, 1.0, seed=5, density=0.05)
    cfg = SolverConfig(iterations=2000, seed=0, mode="lazy", eval_metrics=())
    assert calls_per_iteration(run, inst, problem_plan(inst), cfg) <= 9.1
    # a game adds the entropy prox: the callback is a functools.partial
    # of the segmented pass, one Python call (a record every m = 50
    # iterations adds about 0.2)
    inst = generate_instance("matrix-game", 30, 20, 1.0, seed=1)
    assert calls_per_iteration(run, inst, problem_plan(inst), cfg) <= 10.4


@needs_compiler
def test_source_compiles_without_warnings(tmp_path):
    # a failed build falls back to the Python loop with the same bits and
    # no error, so a C edit that breaks the build would pass most of the
    # suite: build the source here, with every warning an error
    res = subprocess.run(
        [shutil.which(_kernel.CC), *_kernel.FLAGS, "-Wall", "-Wextra",
         "-Werror", "-I", sysconfig.get_paths()["include"], _kernel.SOURCE,
         "-o", str(tmp_path / "window.so")],
        capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert os.path.getsize(tmp_path / "window.so") > 0


@pytest.fixture
def fresh_build(tmp_path, monkeypatch):
    """A kernel cache in tmp_path, with the loaded library forgotten before
    and after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel._library.cache_clear()
    yield tmp_path / "remvi"
    _kernel._library.cache_clear()


def test_missing_compiler_takes_python_loop(tmp_path, monkeypatch):
    inst = CASES["lad"]()
    plan = problem_plan(inst)
    cfg = SolverConfig(iterations=300, seed=2, mode="lazy", eval_stride=50)
    kern = run(inst, plan, cfg)
    # a new process on a machine with no compiler and no cached build
    monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel._library.cache_clear()
    try:
        fallback = run(inst, plan, cfg)
    finally:
        _kernel._library.cache_clear()
    assert fallback.info["kernel"] == "python"
    assert os.listdir(tmp_path / "remvi") == []
    assert_runs_bitwise_equal(kern, fallback)


@needs_compiler
def test_build_cached_per_user(fresh_build, monkeypatch):
    assert _kernel.load() is not None
    built = os.listdir(fresh_build)
    assert len(built) == 1 and built[0].endswith(".so")
    assert stat.S_IMODE(os.stat(fresh_build).st_mode) == 0o700
    # a new process finds the build in the cache and compiles nothing
    _kernel._library.cache_clear()
    os.chmod(fresh_build, 0o755)
    monkeypatch.setattr(_kernel, "CC", "no-such-compiler")
    assert _kernel.load() is not None
    assert os.listdir(fresh_build) == built
    assert stat.S_IMODE(os.stat(fresh_build).st_mode) == 0o700


@needs_compiler
def test_new_build_prunes_older_builds(fresh_build):
    # the KEEP_BUILDS most recently used builds for this Python stay, the
    # new one among them; another Python's build stays however old
    fresh_build.mkdir(mode=0o700)
    tag = sys.implementation.cache_tag
    old = [f"window-{tag}-0ld{i}.so" for i in range(_kernel.KEEP_BUILDS)]
    for i, name in enumerate([*old, "window-cpython-299-0ld.so"]):
        (fresh_build / name).write_bytes(b"")
        os.utime(fresh_build / name, ns=(10 ** 9 * (i % 4 + 1),) * 2)
    assert _kernel.load() is not None
    left = set(os.listdir(fresh_build))
    new = left - {*old, "window-cpython-299-0ld.so"}
    assert len(new) == 1 and new.pop().startswith(f"window-{tag}-")
    assert left > {*old[1:], "window-cpython-299-0ld.so"}
    assert len(left) == _kernel.KEEP_BUILDS + 1


@needs_compiler
def test_alternating_sources_compile_once_each(fresh_build, tmp_path,
                                               monkeypatch):
    # two source trees that run alternately under one cache: a load marks
    # its build used and keeps it, so each tree compiles once
    with open(_kernel.SOURCE, "rb") as fh:
        source = fh.read()
    trees = []
    for k in range(2):
        path = tmp_path / f"tree{k}" / "_window.c"
        path.parent.mkdir()
        path.write_bytes(source + f"/* tree {k} */\n".encode())
        trees.append(str(path))
    compiled = []
    compile_ = subprocess.run

    def counted(cmd, **kwargs):
        compiled.append(cmd[cmd.index("-o") - 1])
        return compile_(cmd, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    for k in (0, 1, 0, 1, 0):
        monkeypatch.setattr(_kernel, "SOURCE", trees[k])
        _kernel._library.cache_clear()
        assert _kernel.load() is not None
    assert compiled == trees
    builds = sorted(os.listdir(fresh_build))
    assert len(builds) == 2
    # a load refreshes the mtime of the build it finds, and only that one
    for name in builds:
        os.utime(fresh_build / name, ns=(10 ** 9, 10 ** 9))
    _kernel._library.cache_clear()
    assert _kernel.load() is not None
    fresh = [os.stat(fresh_build / name).st_mtime_ns > 10 ** 9
             for name in builds]
    assert sorted(fresh) == [False, True] and compiled == trees
