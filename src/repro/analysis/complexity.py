"""Growth-exponent estimation for the experiment harness.

The paper's claims are asymptotic (Õ(n²) messages, Õ(n^{2-eps}) rounds,
...).  The measurement surfaces -- the scaling scripts under
``benchmarks/`` and the asymptotics checks in ``tests/`` -- sweep n,
collect the meter counts, and fit the exponent alpha in
``count ~ C * n**alpha * polylog(n)`` by least squares on log-log data,
optionally dividing out a polylog factor first.  With the small n a
Python simulator affords, fitted exponents carry slack, so consumers
assert only coarse separations (e.g. the simulated message exponent is
closer to 2 than the baseline's is to 3) rather than exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class ExponentFit:
    exponent: float
    constant: float
    residual: float

    def predict(self, n: float) -> float:
        return self.constant * n ** self.exponent


def fit_exponent(ns: Sequence[float], counts: Sequence[float], *,
                 strip_polylog: int = 0) -> ExponentFit:
    """Fit counts ~ C * n^alpha, optionally dividing by log(n)^k first."""
    if len(ns) != len(counts) or len(ns) < 2:
        raise ValueError("need >= 2 (n, count) pairs")
    xs = []
    ys = []
    for n, c in zip(ns, counts):
        if c <= 0 or n <= 1:
            raise ValueError("counts and sizes must be positive / > 1")
        value = c / (math.log(n) ** strip_polylog) if strip_polylog else c
        xs.append(math.log(n))
        ys.append(math.log(value))
    x = np.array(xs)
    y = np.array(ys)
    alpha, logc = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((alpha * x + logc - y) ** 2)))
    return ExponentFit(exponent=float(alpha), constant=float(math.exp(logc)),
                       residual=residual)


def ratio_trend(ns: Sequence[float], numerators: Sequence[float],
                denominators: Sequence[float]) -> List[float]:
    """Pairwise ratios, the raw material of who-wins-by-what-factor."""
    return [a / b for a, b in zip(numerators, denominators)]


def is_monotone(values: Sequence[float], *, decreasing: bool = False,
                slack: float = 0.0) -> bool:
    """Monotonicity up to a multiplicative slack (noise tolerance)."""
    for a, b in zip(values, values[1:]):
        if decreasing:
            if b > a * (1 + slack):
                return False
        elif b < a * (1 - slack):
            return False
    return True


def crossover_point(xs: Sequence[float], a: Sequence[float],
                    b: Sequence[float]) -> Tuple[float, bool]:
    """First x where series a overtakes series b (and whether it does)."""
    for x, va, vb in zip(xs, a, b):
        if va > vb:
            return x, True
    return xs[-1] if xs else 0.0, False
