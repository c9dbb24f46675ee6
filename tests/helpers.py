"""Helpers shared by the test modules."""

import numpy as np


def value(component, x):
    """The component's value at x in a new array: ``evaluate`` into a fresh
    buffer of its support size."""
    return component.evaluate(x, np.empty(len(component.out_idx)), 0)


def slot(table, j):
    """Slot j of a component table's flat ``values`` (a view)."""
    ends = table.op.offsets
    return table.values[ends[j]:ends[j + 1]]
