"""Helpers shared by the test modules."""

import dataclasses
import sys

import numpy as np


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
