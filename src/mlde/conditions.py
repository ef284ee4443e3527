"""Exact certification of the moment-growth (Bernstein-type) and variance
conditions.

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


def _bernstein_scan(dist: IncrementDistribution):
    """Smallest H with |E eta^k| <= k!/2 H^(k-2) E eta^2 for 3 <= k <= K_MAX."""
    m2 = dist.moment(2)
    best, best_k = 0.0, 3
    for k in range(3, K_MAX + 1):
        mk = abs(dist.moment(k))
        if not math.isfinite(mk):
            raise DomainError(f"moment of order {k} is past the double range")
        if mk == 0.0:
            continue
        h = (2.0 * mk / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        if h > best:
            best, best_k = h, k
    return best, best_k


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
