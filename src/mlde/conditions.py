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
from dataclasses import dataclass

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


def _moments(dist: IncrementDistribution):
    """(E eta^2, [|E eta^k| for 3 <= k <= K_MAX]): every moment the scan and
    the slack read, each one math.fsum."""
    return dist.moment(2), [abs(dist.moment(k)) for k in range(3, K_MAX + 1)]


def _bernstein_scan(moments):
    """Smallest H with |E eta^k| <= k!/2 H^(k-2) E eta^2 for 3 <= k <= K_MAX,
    from a law's _moments."""
    m2, mks = moments
    best, best_k = 0.0, 3
    for k, mk in enumerate(mks, 3):
        if not math.isfinite(mk):
            raise DomainError(f"moment of order {k} is past the double range")
        if mk == 0.0:
            continue
        h = (2.0 * mk / (math.factorial(k) * m2)) ** (1.0 / (k - 2))
        if h > best:
            best, best_k = h, k
    return best, best_k


def _scan(dist: IncrementDistribution):
    """A law's (_moments, _bernstein_scan), taken once: cached in its __dict__, unseen by eq."""
    if "_scan" not in dist.__dict__:
        moments = _moments(dist)
        dist.__dict__["_scan"] = moments, _bernstein_scan(moments)
    return dist.__dict__["_scan"]


def _slack(moments, H: float) -> float:
    """max_k |E eta^k| / (k!/2 * H^(k-2) * E eta^2) from a law's _moments;
    <= 1 iff H is valid."""
    m2, mks = moments
    return max(mk / (0.5 * math.factorial(k) * H ** (k - 2) * m2) for k, mk in enumerate(mks, 3))


def certify(spec: MartingaleSpec) -> BernsteinCertificate:
    """Exact certificate for a spec's per-step laws.

    epsilon, binding_k and slack are maxima over the laws of the spec's iid
    parts, which are exactly the conditional step laws a path can meet (so
    for variance_switching, the supremum over both branch laws); delta is
    sqrt(|total variance - 1|), 0 for normalized and variance_switching specs.
    Raises DomainError when epsilon or delta land outside their admissible
    ranges (reported, never clamped).
    """
    scans = [_scan(d) for d, _ in spec.iid_parts()]
    epsilon, binding_k = max(h for _, h in scans)
    slack = max(_slack(m, epsilon) for m, _ in scans)
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
