"""Instrumented scalar arithmetic for verifying operation-count models.

The counting scalar overloads only multiplication, addition, and
subtraction (subtraction is tallied as an addition).  Any other
operation raises, so an implementation change that silently adds
arithmetic outside the accounted model breaks the count tests instead
of passing unnoticed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OpCounter:
    mul: int = 0
    add: int = 0


def _value(x) -> float:
    if isinstance(x, CountingScalar):
        return x.value
    return float(x)


class CountingScalar:
    """Float wrapper that tallies every multiply/add into a shared counter."""

    __slots__ = ("value", "counter")

    def __init__(self, value: float, counter: OpCounter):
        self.value = float(value)
        self.counter = counter

    def __mul__(self, other):
        self.counter.mul += 1
        return CountingScalar(self.value * _value(other), self.counter)

    __rmul__ = __mul__

    def __add__(self, other):
        self.counter.add += 1
        return CountingScalar(self.value + _value(other), self.counter)

    __radd__ = __add__

    def __sub__(self, other):
        self.counter.add += 1
        return CountingScalar(self.value - _value(other), self.counter)

    def __rsub__(self, other):
        self.counter.add += 1
        return CountingScalar(_value(other) - self.value, self.counter)

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"CountingScalar({self.value!r})"


def counting_vector(values, counter: OpCounter) -> np.ndarray:
    """Wrap a float vector in counting scalars (object dtype)."""
    out = np.empty(len(values), dtype=object)
    for n, x in enumerate(values):
        out[n] = CountingScalar(x, counter)
    return out


def measure_cascade_ops(cascade) -> OpCounter:
    """Run a postprocessing's real code path on instrumented scalars and return the tally.

    cascade is a RegularityCascade or anything with its target_size and
    apply, such as rdst.DenseHalf.
    """
    counter = OpCounter()
    seed_values = np.linspace(-1.0, 1.0, cascade.target_size)
    cascade.apply(counting_vector(seed_values, counter))
    return counter

