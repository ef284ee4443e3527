"""mlde: numerical engine for martingale tail probabilities under
moment-growth (Bernstein-type) conditions -- conjugate tilting, rare-event
importance sampling, exact lattice oracles, and closed-form bound evaluators.
"""

from .bounds import (
    BoundEnvelope,
    dominance_check,
    gaussian_tail,
    mdp_rate,
    theorem1_upper,
    theorem2_lower,
    theorems_envelope,
)
from .conditions import (
    BernsteinCertificate,
    certify,
)
from .errors import ConfigError, DomainError, InfeasibleError
from .model import IncrementDistribution, MartingaleSpec
from .montecarlo import (
    TailEstimate,
    conjugate_clt_check,
    crude_tail_estimate,
    estimate_tail,
    exact_tail,
    mdp_diagnostic,
    ratio_experiment,
    saddlepoint_lambda,
    tilted_tail_estimate,
)
from .tilting import (
    TiltReport,
    check_lemma1,
    check_lemma2_lemma3,
    cumulant_process,
    drift_process,
    solve_lambda_bar,
    solve_lambda_under,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
