"""Exact certification of the moment-growth (Bernstein-type) and variance
conditions, plus constructive conversions between the equivalent forms
(Sakhanenko's exponential-moment form, the absolute-moment form, and the
finite-exponential-moment form for iid laws).

All checks are closed-form scans over moment orders 3..K_MAX; no estimation
from samples is involved.  The conditions hold for every k >= 3, so K_MAX
only cuts the scan off: for finitely supported laws the scan criterion
(2|E eta^k| / (k! E eta^2))^(1/(k-2)) tends to 0 in k, so the binding order
is provably small and K_MAX = 30 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .errors import DomainError
from .model import IncrementDistribution, MartingaleSpec

K_MAX = 30  # highest moment order the scans check
SAKHANENKO_T0 = 0.10631368640098547  # the root of 6t/(1-t)^4 = 1 in (0, 1/2)


@dataclass(frozen=True)
class BernsteinCertificate:
    """Witness for the per-step moment-growth constant and the variance slack.

    H bounds |E(eta^k|F)| <= k!/2 * H^(k-2) * E(eta^2|F) for k >= 3 at the
    unnormalized scale; epsilon = H/sqrt(n) and delta = N/sqrt(n) are the
    same constants at the normalized scale.  slack is the largest ratio
    attained in the defining inequality (1 at the binding order).
    """

    H: float
    N: float
    epsilon: float
    delta: float
    k_max: int
    slack: float
    binding_k: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConditionReport:
    condition_name: str
    holds: bool
    witness: float
    detail: str


def _bernstein_scan(dist: IncrementDistribution):
    """Smallest H with |E eta^k| <= k!/2 H^(k-2) E eta^2 for 3 <= k <= K_MAX."""
    m2 = dist.moment(2)
    best, best_k = 0.0, 3
    for k in range(3, K_MAX + 1):
        mk = abs(dist.moment(k))
        if not math.isfinite(mk):
            raise DomainError(f"moment of order {k} diverges")
        if mk == 0.0:
            continue
        h = (2.0 * mk / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        if h > best:
            best, best_k = h, k
    return best, best_k


def minimal_bernstein_H(dist: IncrementDistribution) -> float:
    return _bernstein_scan(dist)[0]


def bernstein_slack(dist: IncrementDistribution, H: float) -> float:
    """max_k |E eta^k| / (k!/2 * H^(k-2) * E eta^2); <= 1 iff H is valid."""
    m2 = dist.moment(2)
    return max(
        abs(dist.moment(k)) / (0.5 * math.factorial(k) * H ** (k - 2) * m2)
        for k in range(3, K_MAX + 1)
    )


def certify(spec: MartingaleSpec) -> BernsteinCertificate:
    """Exact certificate for a spec's per-step laws.

    epsilon, binding_k and slack are maxima over the laws of the spec's iid
    parts, which are exactly the conditional step laws a path can meet (so
    for variance_switching, the supremum over both branch laws); delta is
    sqrt(|total variance - 1|), 0 for normalized and variance_switching specs.
    Raises DomainError when epsilon or delta land outside their admissible
    ranges (reported, never clamped).
    """
    laws = [d for d, _ in spec.iid_parts()]
    epsilon, binding_k = max(_bernstein_scan(d) for d in laws)
    slack = max(bernstein_slack(d, epsilon) for d in laws)
    delta = math.sqrt(abs(spec.total_variance() - 1.0))

    if epsilon > 0.5:
        raise DomainError(
            f"range-exceeded: epsilon = {epsilon:.6g} > 1/2 (n too small for this law)"
        )
    if delta > 0.5:
        raise DomainError(f"range-exceeded: delta = {delta:.6g} > 1/2")
    sqrt_n = math.sqrt(spec.n)
    return BernsteinCertificate(
        H=epsilon * sqrt_n,
        N=delta * sqrt_n,
        epsilon=epsilon,
        delta=delta,
        k_max=K_MAX,
        slack=slack,
        binding_k=binding_k,
    )


def sakhanenko_K_from_H(H: float) -> float:
    """Exponential-moment constant implied by a moment-growth constant H.

    K = t0/H where t0 = SAKHANENKO_T0 is the root of g(t) = 1 with
    g(t) = t * sum_k (k+3)!/k! t^k = 6t/(1-t)^4; g(0) = 0 and g(1/2) = 48,
    so the root exists and is unique on (0, 1/2).
    """
    if H <= 0:
        raise ValueError("H must be > 0")
    return SAKHANENKO_T0 / H


def _abs3_exp_moment(dist: IncrementDistribution, K: float) -> float:
    """E(|eta|^3 * exp(K|eta|)), exactly for tables and in closed form for
    gaussian eta ~ N(0, s^2): with a = K s, completing the square gives
    2 s^3 [(a^3 + 3a) e^(a^2/2) Phi(a) + (a^2 + 2)/sqrt(2 pi)], a sum of
    nonnegative terms; inf once e^(a^2/2) leaves the float range."""
    if dist.kind == "gaussian":
        sigma = math.sqrt(dist.sigma2)
        a = K * sigma
        try:
            lifted_cdf = math.exp(0.5 * a * a) * 0.5 * math.erfc(-a / math.sqrt(2.0))
        except OverflowError:
            return math.inf
        return 2.0 * sigma**3 * ((a**3 + 3.0 * a) * lifted_cdf
                                 + (a * a + 2.0) / math.sqrt(2.0 * math.pi))
    values, probs = dist.table()
    return float(math.fsum(p * abs(v) ** 3 * math.exp(K * abs(v)) for v, p in zip(values, probs)))


def check_sakhanenko(dist: IncrementDistribution, K: float) -> ConditionReport:
    """Does K * E(|eta|^3 exp(K|eta|)) <= E(eta^2) hold?"""
    if K < 0:
        raise ValueError("K must be >= 0")
    ratio = K * _abs3_exp_moment(dist, K) / dist.moment(2)
    holds = ratio <= 1.0
    detail = f"K*E(|eta|^3 e^(K|eta|))/E(eta^2) = {ratio:.6g}" + (
        "" if holds else " > 1"
    )
    return ConditionReport("sakhanenko", holds, ratio, detail)


def cramer_to_bernstein(c0: float, c1: float, sigma2: float) -> float:
    """Moment-growth constant built from a finite exponential moment.

    c1 = E exp(|eta|/c0) finite and sigma2 = E eta^2 give the valid (but not
    minimal) constant H = max(c0, 2 c0^3 c1 / sigma2).
    """
    if c0 <= 0 or c1 <= 0 or sigma2 <= 0:
        raise ValueError("c0, c1, sigma2 must be > 0")
    return max(c0, 2.0 * c0**3 * c1 / sigma2)


def minimal_factorial_rho(dist: IncrementDistribution) -> float:
    """Smallest rho with E|eta|^k <= k!/2 rho^(k-2) E eta^2 for 3 <= k <= K_MAX."""
    m2 = dist.moment(2)
    return max(
        (2.0 * dist.abs_moment(k) / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        for k in range(3, K_MAX + 1)
    )


def check_factorial_moment(dist: IncrementDistribution, rho: float) -> ConditionReport:
    """Absolute-moment growth check; differs from the signed form at odd k."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    m2 = dist.moment(2)
    worst_k, worst_ratio = 3, 0.0
    for k in range(3, K_MAX + 1):
        ratio = dist.abs_moment(k) / (0.5 * math.factorial(k) * rho ** (k - 2) * m2)
        if ratio > worst_ratio:
            worst_k, worst_ratio = k, ratio
    holds = worst_ratio <= 1.0 + 1e-12  # equality binds at the minimal rho
    needed = minimal_factorial_rho(dist)
    detail = (
        f"binding k = {worst_k}, ratio = {worst_ratio:.6g}; minimal rho = {needed:.6g}"
    )
    return ConditionReport("factorial_moment", holds, needed, detail)
