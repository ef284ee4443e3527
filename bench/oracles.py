"""Exact tail probabilities computed without the mlde package.

The benchmark checks mlde's outputs against these.  Every law here lives on
an integer lattice with integer weights over a power of a common
denominator, so sums are exact Python integers and only the final division
rounds (correctly, since int / int is correctly rounded in Python).

An atom lying exactly on the threshold x is a tie that float rounding in the
program under test may put on either side of ``>``.  Tails are therefore
returned as an interval ``(P(X > x + tol), P(X > x - tol))``; a value is
correct when it lies in (or, for exact methods, on an end of) the interval.
"""

from __future__ import annotations

import bisect
import math

# (integer values, integer weights, denominator) of the workloads' one-step laws
RADEMACHER = ((-1, 1), (1, 1), 2)
THREE_POINT = ((-1, 0, 2), (2, 1, 1), 4)


def variance(law) -> float:
    values, weights, denom = law
    mean = sum(v * w for v, w in zip(values, weights)) / denom
    return sum(w * (v - mean) ** 2 for v, w in zip(values, weights)) / denom


class IntLaw:
    """P(V = v) = weights[i] / denom for V on the sorted integer values."""

    def __init__(self, values, weights, denom):
        self.values = list(values)
        self.weights = list(weights)
        self.denom = denom
        # suffix[i] = total weight of values[i:]
        self.suffix = [0] * (len(self.weights) + 1)
        for i in range(len(self.weights) - 1, -1, -1):
            self.suffix[i] = self.suffix[i + 1] + self.weights[i]

    def weight_above(self, t: float) -> int:
        """Total weight of the values v with v > t."""
        return self.suffix[bisect.bisect_right(self.values, t)]


def _convolve(a: dict, b: dict) -> dict:
    out = {}
    for va, wa in a.items():
        for vb, wb in b.items():
            out[va + vb] = out.get(va + vb, 0) + wa * wb
    return out


def iid_sum(law, n: int) -> IntLaw:
    """Law of the sum of n iid draws of ``law``."""
    values, weights, denom = law
    if len(values) == 2:
        # binomial closed form: k draws of the upper atom
        (v0, v1), (w0, w1) = values, weights
        coef, out = 1, {}
        for k in range(n + 1):
            out[n * v0 + k * (v1 - v0)] = coef * w1**k * w0 ** (n - k)
            coef = coef * (n - k) // (k + 1)
    else:
        out, base, m = {0: 1}, dict(zip(values, weights)), n
        while m:
            if m & 1:
                out = _convolve(out, base)
            m >>= 1
            if m:
                base = _convolve(base, base)
    keys = sorted(out)
    return IntLaw(keys, [out[k] for k in keys], denom**n)


def _tol(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


def scaled_tail(law: IntLaw, scale: float, x: float):
    """Interval for P(scale * V > x), scale > 0."""
    tol = _tol(x)
    return (law.weight_above((x + tol) / scale) / law.denom,
            law.weight_above((x - tol) / scale) / law.denom)


def iid_tail(law, n: int, x: float):
    """Interval for P(X_n > x), X_n the sum of n iid draws normalized to variance 1."""
    return scaled_tail(iid_sum(law, n), 1.0 / math.sqrt(n * variance(law)), x)


def varswitch_tail(law, n: int, rho: float, x: float):
    """Interval for P(X_n > x) under the variance-switching rule.

    Within each pair the two draws are iid and only their scales swap with
    the sign of the running sum, so X_n is the sum of n/2 iid pair sums
    c_hi * eta_1 + c_lo * eta_2: X_n = c_hi * A + c_lo * B with A and B
    independent n/2-fold sums of the base law.
    """
    var = variance(law)
    c_hi = math.sqrt((1.0 + rho) / n / var)
    c_lo = math.sqrt((1.0 - rho) / n / var)
    half = iid_sum(law, n // 2)
    tol = _tol(x)
    lo = hi = 0
    for a, wa in zip(half.values, half.weights):
        lo += wa * half.weight_above((x + tol - c_hi * a) / c_lo)
        hi += wa * half.weight_above((x - tol - c_hi * a) / c_lo)
    denom = half.denom**2
    return lo / denom, hi / denom
