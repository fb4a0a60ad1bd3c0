"""What the public functions accept: one helper per kind of value, each
returning the Python int, float or Fraction that the code behind them reads,
or raising ValueError."""

from __future__ import annotations

import operator
from collections.abc import Iterable
from fractions import Fraction
from numbers import Real

import numpy as np


def integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """An int, a numpy integer or a 0-d integer array, but not a bool, as an
    int in lo..hi (unbounded for None)."""
    # The int test first: an Integral test alone made dimension_law twice as slow.
    if type(value) is not int:
        try:
            value = operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and (value < lo or hi is not None and value > hi):
        raise ValueError(f"{name} must be {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}, got {value}")
    return value


def real(name: str, value, lo, hi):
    """A real number in [lo, hi], such as a tolerance: not a bool, NaN or
    string, but a numpy scalar, or a 0-d array holding one, too. A Fraction
    stays exact; anything else becomes the float of its value."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value.item()
    # Every comparison with NaN is false.
    if isinstance(value, bool) or not isinstance(value, Real) or not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo!r}, {hi!r}], got {value!r}")
    return value if isinstance(value, Fraction) else float(value)


def parameter(value, name: str = "parameter"):
    """A channel parameter: a real number in [0, 1]."""
    return real(name, value, 0, 1)


def entries(name: str, values) -> list:
    """The entries of a 1-D array, or of an iterable but a string, as a list."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        return values.tolist()
    if isinstance(values, (str, bytes, np.ndarray)) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a 1-D sequence, got {values!r}")
    return list(values)
