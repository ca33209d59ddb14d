"""Float sums that round the same way on every supported Python.

Since Python 3.12 the builtin sum adds floats with compensated (Neumaier)
summation, so sum([1e16, 1.0, -1e16]) is 1.0 there and 0.0 before. Every
total that reaches an output file goes through left_sum instead, which
adds left to right, one rounding per addition, as sum did before 3.12, so
the same run writes the same bytes on 3.10 through 3.13.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float], start: float = 0) -> float:
    """values added one at a time to start, left to right; start defaults to the int 0, as sum's does."""
    total = start
    for value in values:
        total += value
    return total
