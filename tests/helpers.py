"""Helpers shared by the test modules."""

import copy
import dataclasses
import itertools
import sys

import numpy as np
import pytest

from remvi import _kernel

# the test needs the C compiler (the ``compiler`` fixture skips it if none)
needs_compiler = pytest.mark.usefixtures("compiler")


def value(component, x):
    """The component's value at x in a new array: ``evaluate`` into a fresh
    buffer of its support size."""
    return component.evaluate(x, np.empty(len(component.out_idx)), 0)


def slot(table, j):
    """Slot j of a component table's flat ``values`` (a view)."""
    ends = table.op.offsets
    return table.values[ends[j]:ends[j + 1]]


def calls_per_iteration(run, inst, plan, config):
    """Python-level calls (``sys.setprofile`` "call" events) per iteration
    of ``run(inst, plan, config)``: the calls of the configured run minus
    those of the same run at zero iterations, over the iteration count.
    Calls into C functions and methods are not counted."""
    def count(cfg):
        n = 0

        def profile(frame, event, arg):
            nonlocal n
            n += event == "call"

        saved = sys.getprofile()
        sys.setprofile(profile)
        try:
            run(inst, plan, cfg)
        finally:
            sys.setprofile(saved)
        return n

    idle = count(dataclasses.replace(config, iterations=0))
    return (count(config) - idle) / config.iterations


def assert_runs_bitwise_equal(t1, t2):
    """Records (bar the clock), final iterate, averaged output, last
    extrapolated estimate and table are equal bit for bit."""
    def records(trace):
        return [{k: v for k, v in vars(r).items() if k != "elapsed_ns"}
                for r in trace.records]

    assert records(t1) == records(t2)
    np.testing.assert_array_equal(t1.final_x, t2.final_x)
    assert (t1.x_bar is None) == (t2.x_bar is None)
    if t1.x_bar is not None:
        np.testing.assert_array_equal(t1.x_bar, t2.x_bar)
    np.testing.assert_array_equal(t1.info["fhat_last"], t2.info["fhat_last"])
    np.testing.assert_array_equal(t1.info["table_eval_iter"],
                                  t2.info["table_eval_iter"])
    np.testing.assert_array_equal(t1.info["table_values"],
                                  t2.info["table_values"], strict=True)


def scripted_plan(plan, j1s, j2s):
    """A copy of ``plan`` whose draws cycle through the indices j1s (from p)
    and j2s (from q) instead of sampling."""
    j1s, j2s = itertools.cycle(j1s), itertools.cycle(j2s)
    plan = copy.copy(plan)
    plan.sample_p = lambda rng: next(j1s)
    plan.sample_q = lambda rng: next(j2s)
    return plan


def loop_paths(monkeypatch):
    """Yields "c" and then "python", with the REM loop set to run in the
    compiled window kernel (where it can be built) and then in Python (the
    kernel's loader patched to find none)."""
    yield "c"
    monkeypatch.setattr(_kernel, "load", lambda: None)
    yield "python"
