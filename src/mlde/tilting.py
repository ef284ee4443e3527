"""Conjugate-measure machinery.

The cumulant and drift processes of a whole spec, summed over its sum parts
from each step law's own cumulant, drift and slope at an array of tilts (see
``model``: no reader here knows a law's kind); the closed-form tilt parameter
solvers; and exact residual checks of the moment/drift/cumulant inequalities
that drive the ratio bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, conditions
from .errors import DomainError
from .model import IncrementDistribution, MartingaleSpec

LEMMA_ALPHA = 0.5  # the lemma checks take tilts 0 <= lam <= LEMMA_ALPHA/epsilon


# -- whole-spec processes ----------------------------------------------------
# Each takes a tilt or a 1-D array of tilts: a tilt gives a float, an array an
# array, each element with the bits of the one-tilt sums.

def _over_parts(spec: MartingaleSpec, lam, read):
    """sum over the spec's sum parts of count * each column read(law, tilts)
    gives at the 1-D array of tilts: a float for a tilt, an array for an
    array.  The parts add up as count * value, in order, with the bits of
    Python's sum from 0 (no product here is -0.0)."""
    lams = np.asarray(lam, dtype=float)
    total = None
    for law, count in spec.sum_parts():
        columns = [count * c for c in read(law, lams.reshape(-1))]
        total = columns if total is None else [t + c for t, c in zip(total, columns)]
    return [t.item() if lams.ndim == 0 else t for t in total]


def cumulant_process(spec: MartingaleSpec, lam):
    """Psi_n(lam) = sum_i log E(e^(lam xi_i) | F_{i-1}), summed over the
    spec's sum parts as sum count * law.cumulant(lam) (lam^2 V / 2 for a
    gaussian spec of total variance V).

    Deterministic for every spec: the parts are the conditional step laws,
    and every path meets each of them count times (for variance_switching,
    each pair visits both branch laws once whatever the realized sign).
    """
    (psi,) = _over_parts(spec, lam, lambda law, lams: (law.cumulant(lams),))
    return psi


def drift_and_slope(spec: MartingaleSpec, lam):
    """(B_n(lam), B_n'(lam)) from one tilted table per part.  B_n = sum_i of
    the tilted conditional means, summed over the spec's sum parts as sum
    count * the law's tilted mean; its slope is sum count * Var_lam(eta),
    the predictable variance under the lam-tilted measure, each part's the
    tilted mean square deviation from that part's drift (lam V and V for a
    gaussian spec).  Both are deterministic for the same reason as
    cumulant_process."""
    return tuple(_over_parts(spec, lam, lambda law, lams: law.drift_and_slope(lams)))


def drift_process(spec: MartingaleSpec, lam):
    """B_n(lam), drift_and_slope's drift."""
    return drift_and_slope(spec, lam)[0]


# -- tilt-parameter solvers ----------------------------------------------------

def solve_lambda_bar(x: float, epsilon: float, delta: float, c: float) -> float:
    """Largest root of lam + lam*delta^2 + c*lam^2*epsilon = x,
    in the closed form 2x / (sqrt((1+delta^2)^2 + 4 c x epsilon) + 1 + delta^2).

    Satisfies c0*x <= result <= x on the admissible range.
    """
    if not x >= 0:  # nan too
        raise DomainError("x must be >= 0")
    if epsilon <= 0 or c < 0:
        raise DomainError("epsilon must be > 0 and c >= 0")
    one = 1.0 + delta * delta
    return 2.0 * x / (math.sqrt(one * one + 4.0 * c * x * epsilon) + one)


def solve_lambda_under(x: float, epsilon: float, delta: float, c: float) -> float:
    """Smallest root of lam - lam*delta^2 - c*lam^2*epsilon = x,
    in the closed form 2x / (1 - delta^2 + sqrt((1-delta^2)^2 - 4 c x epsilon)).

    Raises DomainError when the discriminant is <= 0, i.e. x is past the
    range where the lower-bound construction applies.  Satisfies
    x <= result <= 2x on that range.
    """
    if not x >= 0:  # nan too
        raise DomainError("x must be >= 0")
    if epsilon <= 0 or c < 0:
        raise DomainError("epsilon must be > 0 and c >= 0")
    one = 1.0 - delta * delta
    disc = one * one - 4.0 * c * x * epsilon
    if disc <= 0.0:
        raise DomainError(
            f"out-of-range: discriminant {disc:.6g} <= 0 at x = {x:.6g}"
        )
    return 2.0 * x / (one + math.sqrt(disc))


# -- inequality checks -------------------------------------------------------

@dataclass(frozen=True)
class MomentBoundReport:
    holds: bool
    detail: str


def check_lemma1(dist: IncrementDistribution, epsilon: float) -> MomentBoundReport:
    """Exact check of the two conditional-moment bound families for a law
    satisfying the growth condition at scale epsilon:

        |E xi^k| <= 6 k! epsilon^k          for k >= 2,
        E|xi|^k  <= k! epsilon^(k-2) E xi^2 for k >= 2,

    plus the k = 2 consequence E xi^2 <= 12 epsilon^2.
    """
    m2 = dist.moment(2)
    worst_k, worst = 2, 0.0
    for k in range(2, conditions.K_MAX + 1):
        r1 = abs(dist.moment(k)) / (6.0 * math.factorial(k) * epsilon**k)
        r2 = dist.abs_moment(k) / (math.factorial(k) * epsilon ** (k - 2) * m2)
        r = max(r1, r2)
        if r > worst:
            worst_k, worst = k, r
    r_var = m2 / (12.0 * epsilon * epsilon)
    worst = max(worst, r_var)
    holds = worst <= 1.0 + 1e-12  # equality binds at the minimal epsilon
    return MomentBoundReport(
        holds=holds,
        detail=f"max ratio {worst:.6g} at k = {worst_k}; var ratio {r_var:.6g}",
    )


@dataclass(frozen=True)
class TiltReport:
    """One tilt parameter's exact drift/cumulant values and the residuals of
    the two-sided drift and cumulant bounds at c = bounds.C, together with
    the smallest constants that would make each bound hold."""

    lam: float
    psi_n: float
    b_n: float
    lemma2_residual: float
    lemma3_residual: float
    fitted_c2: float
    fitted_c3: float


def check_lemma2_lemma3(spec: MartingaleSpec, lambda_grid):
    """Exact B_n and Psi_n across a lambda grid with residuals of

        |B_n(lam) - lam|        <= lam delta^2 + c lam^2 epsilon
        |Psi_n(lam) - lam^2/2|  <= c lam^3 epsilon + lam^2 delta^2 / 2

    at c = bounds.C, and per-row minimal constants, with epsilon and delta
    from certify(spec).  Every grid point must satisfy 0 <= lam <=
    LEMMA_ALPHA/epsilon, checked before B_n and Psi_n are read for the
    whole grid, one call each.
    """
    cert = conditions.certify(spec)
    eps, delta = cert.epsilon, cert.delta
    lams = [float(lam) for lam in lambda_grid]
    for lam in lams:
        if not 0.0 <= lam <= LEMMA_ALPHA / eps * (1.0 + 1e-12):  # nan too
            raise DomainError(f"lambda = {lam:.6g} outside [0, alpha/epsilon]")
    grid = np.array(lams)
    reports = []
    for lam, b_n, psi in zip(lams, drift_process(spec, grid).tolist(),
                             cumulant_process(spec, grid).tolist()):
        dev2 = abs(b_n - lam)
        dev3 = abs(psi - 0.5 * lam * lam)
        res2 = dev2 - (lam * delta**2 + bounds.C * lam**2 * eps)
        res3 = dev3 - (bounds.C * lam**3 * eps + 0.5 * lam**2 * delta**2)
        if lam > 0.0:
            c2 = max(0.0, dev2 - lam * delta**2) / (lam**2 * eps)
            c3 = max(0.0, dev3 - 0.5 * lam**2 * delta**2) / (lam**3 * eps)
        else:
            c2 = c3 = 0.0
        reports.append(
            TiltReport(
                lam=lam,
                psi_n=psi,
                b_n=b_n,
                lemma2_residual=res2,
                lemma3_residual=res3,
                fitted_c2=c2,
                fitted_c3=c3,
            )
        )
    return reports
