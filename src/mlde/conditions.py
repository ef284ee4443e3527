"""Exact certification of the moment-growth (Bernstein-type) and variance
conditions, plus constructive conversions between the equivalent forms
(Sakhanenko's exponential-moment form, the absolute-moment form, and the
finite-exponential-moment form for iid laws).

All checks are closed-form scans over moment orders 3..k_max; no estimation
from samples is involved.  For finitely supported laws the scan criterion
(2|E eta^k| / (k! E eta^2))^(1/(k-2)) tends to 0 in k, so the binding order
is provably small and k_max = 30 is a safe default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError
from .model import IncrementDistribution, MartingaleSpec

DEFAULT_K_MAX = 30


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


def _bernstein_scan(dist: IncrementDistribution, k_max: int):
    """Smallest H with |E eta^k| <= k!/2 H^(k-2) E eta^2 for 3 <= k <= k_max."""
    m2 = dist.moment(2)
    best, best_k = 0.0, 3
    for k in range(3, k_max + 1):
        mk = abs(dist.moment(k))
        if not math.isfinite(mk):
            raise DomainError(f"moment of order {k} diverges")
        if mk == 0.0:
            continue
        h = (2.0 * mk / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        if h > best:
            best, best_k = h, k
    return best, best_k


def minimal_bernstein_H(dist: IncrementDistribution, k_max: int = DEFAULT_K_MAX) -> float:
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    return _bernstein_scan(dist, k_max)[0]


def bernstein_slack(dist: IncrementDistribution, H: float, k_max: int = DEFAULT_K_MAX) -> float:
    """max_k |E eta^k| / (k!/2 * H^(k-2) * E eta^2); <= 1 iff H is valid."""
    m2 = dist.moment(2)
    return max(
        abs(dist.moment(k)) / (0.5 * math.factorial(k) * H ** (k - 2) * m2)
        for k in range(3, k_max + 1)
    )


def certify(spec: MartingaleSpec, k_max: int = DEFAULT_K_MAX) -> BernsteinCertificate:
    """Exact certificate for a spec's per-step laws.

    epsilon, binding_k and slack are maxima over the laws of the spec's iid
    parts, which are exactly the conditional step laws a path can meet (so
    for variance_switching, the supremum over both branch laws); delta is
    sqrt(|total variance - 1|), 0 for normalized and variance_switching specs.
    Raises DomainError when epsilon or delta land outside their admissible
    ranges (reported, never clamped).
    """
    laws = [d for d, _ in spec.iid_parts()]
    epsilon, binding_k = max(_bernstein_scan(d, k_max) for d in laws)
    slack = max(bernstein_slack(d, epsilon, k_max) for d in laws)
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
        k_max=k_max,
        slack=slack,
        binding_k=binding_k,
    )


def sakhanenko_K_from_H(H: float) -> float:
    """Exponential-moment constant implied by a moment-growth constant H.

    K = t0/H where t0 in (0, 1/2) is the root of g(t) = 1 with
    g(t) = t * sum_k (k+3)!/k! t^k = 6t/(1-t)^4; g(0) = 0 and g(1/2) = 48,
    so the root exists and is unique on (0, 1/2).
    """
    if H <= 0:
        raise ValueError("H must be > 0")
    t0 = brentq(lambda t: 6.0 * t / (1.0 - t) ** 4 - 1.0, 1e-16, 0.5 - 1e-12,
                xtol=1e-15, rtol=8.9e-16)
    return t0 / H


def _abs3_exp_moment(dist: IncrementDistribution, K: float) -> float:
    """E(|eta|^3 * exp(K|eta|)), exactly for tables, by quadrature for gaussian."""
    if dist.kind == "gaussian":
        sigma = math.sqrt(dist.sigma2)

        def integrand(z):
            return z**3 * math.exp(K * z) * math.exp(-z * z / (2 * dist.sigma2))

        val, _ = quad(integrand, 0.0, math.inf, limit=200)
        return 2.0 * val / (sigma * math.sqrt(2 * math.pi))
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


def minimal_factorial_rho(dist: IncrementDistribution, k_max: int = DEFAULT_K_MAX) -> float:
    """Smallest rho with E|eta|^k <= k!/2 rho^(k-2) E eta^2 for 3 <= k <= k_max."""
    m2 = dist.moment(2)
    return max(
        (2.0 * dist.abs_moment(k) / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        for k in range(3, k_max + 1)
    )


def check_factorial_moment(
    dist: IncrementDistribution, rho: float, k_max: int = DEFAULT_K_MAX
) -> ConditionReport:
    """Absolute-moment growth check; differs from the signed form at odd k."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    m2 = dist.moment(2)
    worst_k, worst_ratio = 3, 0.0
    for k in range(3, k_max + 1):
        ratio = dist.abs_moment(k) / (0.5 * math.factorial(k) * rho ** (k - 2) * m2)
        if ratio > worst_ratio:
            worst_k, worst_ratio = k, ratio
    holds = worst_ratio <= 1.0 + 1e-12  # equality binds at the minimal rho
    needed = minimal_factorial_rho(dist, k_max)
    detail = (
        f"binding k = {worst_k}, ratio = {worst_ratio:.6g}; minimal rho = {needed:.6g}"
    )
    return ConditionReport("factorial_moment", holds, needed, detail)
