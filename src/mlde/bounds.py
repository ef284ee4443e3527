"""Closed-form bound evaluators: Gaussian tails, the two-sided tail-ratio
envelopes, the normal-approximation rate bound and its bounded-increment
comparison, and the moderate-deviation rate value.

Everything here is a deterministic pure function; out-of-range inputs are
flagged on the envelope objects rather than raised, so experiment sweeps can
plot exactly where the theory applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# The paper never pins its constants, so they are fixed here.  The upper
# envelope is stated for x <= alpha/epsilon with any alpha in (0, 1), the
# lower side for x <= alpha0/epsilon with some small absolute alpha0; ALPHA
# and ALPHA0 are those ranges.  C stands for every absolute constant in front
# of a budget (c_alpha, c_alpha0 and the rate constants).  What the exact
# values need is measured instead: the fitted c*, c2, c3 and fitted_c columns.
ALPHA = 0.9
ALPHA0 = 0.1
C = 1.0


@dataclass(frozen=True)
class BoundEnvelope:
    x: float
    lower_ratio: float
    upper_ratio: float
    valid: bool


def gaussian_tail(x):
    """1 - Phi(x): half of math.erfc at the double x/sqrt(2), which the tests
    hold within 4 ulps of exact.  A float for a float; for an ndarray, that
    erfc at every element, in its shape.  Phi(a) is gaussian_tail(-a)."""
    if isinstance(x, np.ndarray):
        z = (x / math.sqrt(2.0)).ravel().tolist()
        return 0.5 * np.fromiter(map(math.erfc, z), float, len(z)).reshape(x.shape)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _slack_term(x: float, epsilon: float, delta: float) -> float:
    return (1.0 + x) * (epsilon * abs(math.log(epsilon)) + delta)


def _safe_exp(v: float) -> float:
    # far-out-of-range x would overflow; the evaluators flag rather than throw
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def theorem1_upper(x: float, epsilon: float, delta: float) -> float:
    """Upper envelope for P(X_n > x) / (1 - Phi(x)) at c = C:

        exp(c (x^3 eps + x^2 delta^2)) * (1 + c (1+x)(eps|log eps| + delta))
    """
    _check_params(epsilon, delta)
    return _safe_exp(C * (x**3 * epsilon + x**2 * delta**2)) * (
        1.0 + C * _slack_term(x, epsilon, delta)
    )


def theorem2_lower(x: float, epsilon: float, delta: float) -> float:
    """Lower envelope for the same ratio at c = C:

        exp(-c (x^3 eps + x^2 delta^2 + (1+x)(eps|log eps| + delta)))
    """
    _check_params(epsilon, delta)
    return math.exp(-C * ratio_bound_expression(x, epsilon, delta))


def ratio_bound_expression(x: float, epsilon: float, delta: float) -> float:
    """The constant-free budget x^3 eps + x^2 delta^2 + (1+x)(eps|log eps| + delta)
    bounding |log ratio| up to an absolute constant."""
    return x**3 * epsilon + x**2 * delta**2 + _slack_term(x, epsilon, delta)


def theorems_envelope(x: float, epsilon: float, delta: float) -> BoundEnvelope:
    """Two-sided envelope with validity flags for the stated ranges
    (x <= ALPHA/epsilon for the upper side, x <= ALPHA0/epsilon and
    delta <= ALPHA0 for the lower side)."""
    upper = theorem1_upper(x, epsilon, delta)
    lower = theorem2_lower(x, epsilon, delta)
    valid = not (x > ALPHA / epsilon or x > ALPHA0 / epsilon or delta > ALPHA0)
    return BoundEnvelope(x=x, lower_ratio=lower, upper_ratio=upper, valid=valid)


def conjugate_rate_bound(lam: float, epsilon: float, delta: float) -> float:
    """Rate bound C * (lam*eps + eps|log eps| + delta) for the recentred
    martingale under the tilted measure; at lam = 0 it is the bound
    C * (eps|log eps| + delta) on sup_x |P(X_n <= x) - Phi(x)|."""
    _check_params(epsilon, delta)
    return C * (lam * epsilon + epsilon * abs(math.log(epsilon)) + delta)


def dominance_check(epsilon: float, n: int) -> bool:
    """Whether eps^3 n log n >= (3/4) eps |log eps|, so the eps|log eps| rate
    implies the bounded-increment rate eps^3 n log n + delta; both are stated
    for eps in [sqrt(3/(4n)), 1/2], and an eps outside raises DomainError."""
    floor = math.sqrt(3.0 / (4.0 * n))
    if epsilon < floor:
        raise DomainError(
            f"precondition-violated: epsilon = {epsilon:.6g} < sqrt(3/(4n)) = {floor:.6g}"
        )
    if epsilon > 0.5:
        raise DomainError("precondition-violated: epsilon > 1/2")
    return epsilon**3 * n * math.log(n) >= 0.75 * epsilon * abs(math.log(epsilon))


def mdp_rate(x: float) -> float:
    """Limit value of (1/a_n^2) log P(X_n > a_n x): -x^2/2."""
    if x < 0:
        raise DomainError("mdp_rate requires x >= 0")
    return -0.5 * x * x


def regime_tag(x: float, n: int) -> str:
    """Range classifier for envelope sweeps at the normalized scale
    eps ~ 1/sqrt(n):

      sqrt_log      x <= sqrt(log n)       (additive-expansion zone)
      sixth_root    x <= n^(1/6)           (relative-remainder zone)
      sqrt_n        x <= 0.5 * sqrt(n)     (log-ratio zone)
      outside       beyond all stated ranges

    The factors 1 and 0.5 are artifact choices; the theory fixes neither.
    """
    if x <= math.sqrt(math.log(n)):
        return "sqrt_log"
    if x <= n ** (1.0 / 6.0):
        return "sixth_root"
    if x <= 0.5 * math.sqrt(n):
        return "sqrt_n"
    return "outside"


def _check_params(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon <= 0.5:
        raise DomainError(f"epsilon = {epsilon!r} outside (0, 1/2]")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"delta = {delta!r} outside [0, 1/2]")
