"""Conjugate-measure machinery.

Per-step log moment generating functions ("cumulants"), tilted means and
tilted laws, the cumulant and drift processes of a whole spec, the closed-form
tilt parameter solvers, and exact residual checks of the moment/drift/cumulant
inequalities that drive the ratio bounds.

All exponential sums are evaluated max-shifted so that large lambda * value
products never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, conditions
from .errors import DomainError
from .model import IncrementDistribution, MartingaleSpec

LEMMA_ALPHA = 0.5  # the lemma checks take tilts 0 <= lam <= LEMMA_ALPHA/epsilon


# -- one-step quantities -----------------------------------------------------

def _table_logexp(values: np.ndarray, probs: np.ndarray, lam: float):
    """Shifted terms of E e^(lam*eta) for a finite table.

    Returns (shift, terms) with E e^(lam*eta) = e^shift * sum(terms).
    """
    a = lam * values + np.log(probs)
    shift = float(a.max())  # the ndarray methods skip np.max/np.sum dispatch
    return shift, np.exp(a - shift)


def step_cumulant(dist: IncrementDistribution, lam: float) -> float:
    """log E e^(lam * eta), exact per kind."""
    if dist.kind == "gaussian":
        return 0.5 * lam * lam * dist.sigma2
    values, probs = dist.table()
    shift, terms = _table_logexp(values, probs, lam)
    return shift + math.log(float(terms.sum()))


def step_drift(dist: IncrementDistribution, lam: float) -> float:
    """Tilted mean E(eta e^(lam eta)) / E(e^(lam eta))."""
    if dist.kind == "gaussian":
        return lam * dist.sigma2
    values, probs = dist.table()
    _, terms = _table_logexp(values, probs, lam)
    return float(np.dot(values, terms) / terms.sum())


def tilted_table(dist: IncrementDistribution, lam: float):
    """(values, probs) of the tilted law of a finitely supported dist, values
    ascending as in its table."""
    values, probs = dist.table()
    _, terms = _table_logexp(values, probs, lam)
    return values, terms / float(terms.sum())


# -- whole-spec processes ----------------------------------------------------

def cumulant_process(spec: MartingaleSpec, lam: float) -> float:
    """Psi_n(lam) = sum_i log E(e^(lam xi_i) | F_{i-1}), summed over the
    spec's iid parts as sum count * step_cumulant(law, lam).

    Deterministic for every spec: the parts are the conditional step laws,
    and every path meets each of them count times (for variance_switching,
    each pair visits both branch laws once whatever the realized sign).
    """
    if spec.dist.kind == "gaussian":
        # lam^2/2 times the total variance, taken exactly, so normalized and
        # variance_switching specs give lam^2/2 to the bit
        return 0.5 * lam * lam * spec.total_variance()
    return sum(count * step_cumulant(d, lam) for d, count in spec.iid_parts())


def drift_process(spec: MartingaleSpec, lam: float) -> float:
    """B_n(lam) = sum_i of the tilted conditional means, summed over the
    spec's iid parts as sum count * step_drift(law, lam); deterministic for
    the same reason as cumulant_process."""
    if spec.dist.kind == "gaussian":
        return lam * spec.total_variance()
    return sum(count * step_drift(d, lam) for d, count in spec.iid_parts())


def drift_slope(spec: MartingaleSpec, lam: float) -> float:
    """B_n'(lam) = sum over the spec's iid parts of count * Var_lam(eta), the
    predictable variance under the lam-tilted measure, read off the tilted
    tables."""
    if spec.dist.kind == "gaussian":
        return spec.total_variance()
    total = 0.0
    for d, count in spec.iid_parts():
        values, probs = tilted_table(d, lam)
        dev = values - float(np.dot(values, probs))
        total += count * float(np.dot(dev * dev, probs))
    return total


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


def check_lemma2_lemma3(spec: MartingaleSpec, lambda_grid, certificate):
    """Exact B_n and Psi_n across a lambda grid with residuals of

        |B_n(lam) - lam|        <= lam delta^2 + c lam^2 epsilon
        |Psi_n(lam) - lam^2/2|  <= c lam^3 epsilon + lam^2 delta^2 / 2

    at c = bounds.C, and per-row minimal constants, with epsilon and delta
    taken from the spec's certificate.  Grid points must satisfy
    0 <= lam <= LEMMA_ALPHA/epsilon.
    """
    eps, delta = certificate.epsilon, certificate.delta
    reports = []
    for lam in lambda_grid:
        lam = float(lam)
        if lam < 0.0 or lam > LEMMA_ALPHA / eps * (1.0 + 1e-12):
            raise DomainError(f"lambda = {lam:.6g} outside [0, alpha/epsilon]")
        b_n = drift_process(spec, lam)
        psi = cumulant_process(spec, lam)
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


def fitted_drift_cumulant_constants(reports) -> tuple:
    """Smallest constants making both bounds hold across a grid of reports."""
    c2 = max((r.fitted_c2 for r in reports), default=0.0)
    c3 = max((r.fitted_c3 for r in reports), default=0.0)
    return c2, c3
