"""Element-by-element float functions that round as Python's own do.

numpy's exp, log2, log10, arctan2 and ``**`` may round differently from
math's and Python's in the last bit (sin, cos, sqrt, radians and degrees
do not, on IEEE hosts with a correctly rounded libm). Array code takes those
functions element by element from Python floats, so every element of an
array gets exactly the number it gets on its own.
"""

from __future__ import annotations

import numpy as np


def each(fn, x):
    """fn of every element of x, in Python floats: an array of x's shape, 0-d for a scalar."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def square(x: float) -> float:
    return x**2  # Python's pow, which may round x * x differently
