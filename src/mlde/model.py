"""Martingale-difference models: centered one-step laws, path sampling, and
exact conditional moments.

Two dynamics are supported:

* ``iid`` -- independent increments from a fixed law, optionally rescaled by
  1/sqrt(n * E eta^2) so the predictable variance sums to exactly 1.
* ``variance_switching`` -- steps are taken in pairs.  The pair starting after
  step 2j-2 looks at the sign s of the running sum (s = +1 at zero) and gives
  its first step conditional variance (1 + s*rho)/n and its second step
  (1 - s*rho)/n.  Each pair therefore contributes exactly 2/n to the
  predictable variance, so it sums to 1 on every path while the increments
  remain genuinely history-dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedKindError

# Paths are sampled in fixed-size blocks; block b of a run with master seed s
# draws from Philox(key=[s, b]).  Every path's randomness is a pure function
# of (seed, path index), so results never depend on the worker count.
BLOCK = 4096


def block_rng(seed: int, block: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def as_rng(stream) -> np.random.Generator:
    """Accept an explicit Generator or an integer master seed."""
    if isinstance(stream, np.random.Generator):
        return stream
    return block_rng(int(stream), 0)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class IncrementDistribution:
    """A centered one-step law with exact moment access.

    Kinds: ``finite_table`` (values/probs), ``gaussian`` (sigma2),
    ``scaled_rademacher`` (+/-scale with probability 1/2 each).
    """

    kind: str
    values: tuple = ()
    probs: tuple = ()
    sigma2: float = 0.0
    scale: float = 0.0

    # -- constructors -----------------------------------------------------

    @staticmethod
    def finite_table(pairs) -> "IncrementDistribution":
        values = [float(v) for v, _ in pairs]
        probs = [float(p) for _, p in pairs]
        if len(values) < 2:
            raise ConfigError("finite_table needs at least two atoms")
        if any(p < 0 for p in probs):
            raise ConfigError("finite_table probabilities must be nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"finite_table probabilities sum to {total!r}, not 1")
        probs = [p / total for p in probs]
        mean = math.fsum(p * v for v, p in zip(values, probs))
        values = [v - mean for v in values]  # centered automatically
        d = IncrementDistribution(
            kind="finite_table", values=tuple(values), probs=tuple(probs)
        )
        if d.variance <= 0.0:
            raise ConfigError("finite_table must have positive variance")
        return d

    @staticmethod
    def gaussian(sigma2: float) -> "IncrementDistribution":
        if sigma2 <= 0.0:
            raise ConfigError("gaussian sigma2 must be > 0")
        return IncrementDistribution(kind="gaussian", sigma2=float(sigma2))

    @staticmethod
    def scaled_rademacher(scale: float = 1.0) -> "IncrementDistribution":
        if scale <= 0.0:
            raise ConfigError("rademacher scale must be > 0")
        return IncrementDistribution(kind="scaled_rademacher", scale=float(scale))

    # -- exact moments -----------------------------------------------------

    @property
    def variance(self) -> float:
        return self.moment(2)

    def moment(self, k: int) -> float:
        """Exact E eta^k."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if self.kind == "finite_table":
            return math.fsum(p * v**k for v, p in zip(self.values, self.probs))
        if self.kind == "gaussian":
            if k % 2 == 1:
                return 0.0
            return self.sigma2 ** (k // 2) * _double_factorial(k - 1)
        if self.kind == "scaled_rademacher":
            return 0.0 if k % 2 == 1 else self.scale**k
        raise UnsupportedKindError(f"no closed-form moments for kind {self.kind!r}")

    def abs_moment(self, k: int) -> float:
        """Exact E |eta|^k."""
        if self.kind == "finite_table":
            return math.fsum(p * abs(v) ** k for v, p in zip(self.values, self.probs))
        if self.kind == "gaussian":
            sigma = math.sqrt(self.sigma2)
            return sigma**k * 2 ** (k / 2.0) * math.gamma((k + 1) / 2.0) / math.sqrt(math.pi)
        if self.kind == "scaled_rademacher":
            return self.scale**k
        raise UnsupportedKindError(f"no closed-form moments for kind {self.kind!r}")

    @property
    def max_abs(self) -> float:
        """Support bound; inf for gaussian."""
        if self.kind == "finite_table":
            return max(abs(v) for v in self.values)
        if self.kind == "gaussian":
            return math.inf
        return self.scale

    # -- transforms and sampling -------------------------------------------

    def scaled(self, c: float) -> "IncrementDistribution":
        """The law of c * eta."""
        if c <= 0.0:
            raise ValueError("scale factor must be > 0")
        if self.kind == "finite_table":
            return IncrementDistribution(
                kind="finite_table",
                values=tuple(c * v for v in self.values),
                probs=self.probs,
            )
        if self.kind == "gaussian":
            return IncrementDistribution(kind="gaussian", sigma2=c * c * self.sigma2)
        return IncrementDistribution(kind="scaled_rademacher", scale=c * self.scale)

    def table(self):
        """(values, probs) arrays for finitely supported kinds."""
        if self.kind == "finite_table":
            return np.asarray(self.values), np.asarray(self.probs)
        if self.kind == "scaled_rademacher":
            return np.array([-self.scale, self.scale]), np.array([0.5, 0.5])
        raise UnsupportedKindError("gaussian law has no finite table")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return math.sqrt(self.sigma2) * rng.standard_normal(size)
        values, probs = self.table()
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return values[idx]


@dataclass(frozen=True)
class MartingaleSpec:
    """n steps plus an increment rule; generates paths and exposes exact
    conditional moments and the predictable variance."""

    n: int
    rule: str  # "iid" | "variance_switching"
    dist: IncrementDistribution
    normalized: bool = False
    rho: float = 0.0

    @staticmethod
    def iid(dist: IncrementDistribution, n: int, normalized: bool = False) -> "MartingaleSpec":
        if n < 1:
            raise ConfigError("n must be >= 1")
        return MartingaleSpec(n=int(n), rule="iid", dist=dist, normalized=bool(normalized))

    @staticmethod
    def variance_switching(base: IncrementDistribution, n: int, rho: float) -> "MartingaleSpec":
        if n < 2 or n % 2 != 0:
            raise ConfigError("variance_switching needs an even n >= 2")
        if not 0.0 <= rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        return MartingaleSpec(n=int(n), rule="variance_switching", dist=base, rho=float(rho))

    # -- per-step laws -----------------------------------------------------

    @property
    def step_distribution(self) -> IncrementDistribution:
        """The (common) one-step law of an iid spec."""
        if self.rule != "iid":
            raise ValueError("step_distribution is only defined for iid specs")
        if not self.normalized:
            return self.dist
        return self.dist.scaled(1.0 / math.sqrt(self.n * self.dist.variance))

    @property
    def branch_variances(self) -> tuple:
        """(high, low) per-step conditional variances of a switching spec."""
        if self.rule != "variance_switching":
            raise ValueError("branch_variances requires a variance_switching spec")
        return (1.0 + self.rho) / self.n, (1.0 - self.rho) / self.n

    def iid_parts(self) -> tuple:
        """The terminal law as independent iid parts: ((law, count), ...).

        X_n is the sum over parts of count iid draws from law, under the base
        law and under every exponential tilt.  For variance_switching the two
        draws of a pair are iid and the sign of the running sum only decides
        which of them the high branch scales, so X_n is n/2 draws of the
        high-branch law plus n/2 draws of the low-branch law.

        This is the one place that knows the rule: every whole-spec quantity
        (Psi_n, B_n, the certificate, the moment-bound check, the samplers and
        the exact oracles) is a sum or a max over these parts, and the laws
        of the parts are exactly the conditional step laws a path can meet.
        """
        if self.rule == "iid":
            return ((self.step_distribution, self.n),)
        base_var = self.dist.variance
        return tuple(
            (self.dist.scaled(math.sqrt(v / base_var)), self.n // 2)
            for v in self.branch_variances
        )

    def total_variance(self) -> float:
        """Exact predictable variance at the horizon.

        Equals 1 by construction for normalized iid and variance_switching
        specs; returned as the literal 1.0 so downstream exact computations
        do not pick up rounding from n * (1/n).
        """
        if self.rule == "variance_switching" or self.normalized:
            return 1.0
        return self.n * self.dist.variance


@dataclass
class Path:
    increments: np.ndarray
    partial_sums: np.ndarray
    predictable_variances: np.ndarray


def _pair_sign(running: np.ndarray) -> np.ndarray:
    # sign of the partial sum at the pair start, +1 at zero
    return np.where(running >= 0.0, 1.0, -1.0)


def _sample_block(spec: MartingaleSpec, rng: np.random.Generator, m: int):
    """m paths' increments and realized predictable variances, (m, n) each."""
    n = spec.n
    if spec.rule == "iid":
        d = spec.step_distribution
        inc = d.sample(rng, (m, n))
        pv = np.full((m, n), d.variance)
        return inc, pv
    v_hi, v_lo = spec.branch_variances
    base = spec.dist
    base_var = base.variance
    c_hi = math.sqrt(v_hi / base_var)
    c_lo = math.sqrt(v_lo / base_var)
    # under the base measure the branch only rescales the drawn value
    draws = base.sample(rng, (m, n))
    inc = np.empty((m, n))
    pv = np.empty((m, n))
    running = np.zeros(m)
    for j in range(0, n, 2):
        s = _pair_sign(running)
        first_hi = s > 0
        for t, hi_mask in ((j, first_hi), (j + 1, ~first_hi)):
            c = np.where(hi_mask, c_hi, c_lo)
            inc[:, t] = draws[:, t] * c
            pv[:, t] = np.where(hi_mask, v_hi, v_lo)
            running = running + inc[:, t]
    return inc, pv


def sample_path(spec: MartingaleSpec, stream) -> Path:
    """One path; deterministic given the seed/stream."""
    rng = as_rng(stream)
    inc, pv = _sample_block(spec, rng, 1)
    inc, pv = inc[0], pv[0]
    partial = np.concatenate([[0.0], np.cumsum(inc)])
    return Path(increments=inc, partial_sums=partial, predictable_variances=pv)


def sample_paths(spec: MartingaleSpec, n_paths: int, seed: int):
    """(increments, predictable_variances) matrices for n_paths paths.

    Block b uses the (seed, b) sub-stream; see BLOCK.
    """
    blocks = []
    n_blocks = (n_paths + BLOCK - 1) // BLOCK
    for b in range(n_blocks):
        m = BLOCK if b < n_blocks - 1 else n_paths - (n_blocks - 1) * BLOCK
        blocks.append(_sample_block(spec, block_rng(seed, b), m))
    inc = np.concatenate([x for x, _ in blocks], axis=0)
    pv = np.concatenate([x for _, x in blocks], axis=0)
    return inc, pv


def conditional_moment(spec: MartingaleSpec, history_state, i: int, k: int) -> float:
    """Exact E(xi_i^k | F_{i-1}); i is 1-based.

    history_state is ignored for iid specs; for variance_switching it must
    expose partial_sums covering the start of step i's pair.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if not 1 <= i <= spec.n:
        raise ValueError("step index out of range")
    if spec.rule == "iid":
        return spec.step_distribution.moment(k)
    pair_start = 2 * ((i - 1) // 2)  # partial-sum index at the pair start
    running = float(history_state.partial_sums[pair_start])
    s = 1.0 if running >= 0.0 else -1.0
    v_hi, v_lo = spec.branch_variances
    first_of_pair = (i - 1) % 2 == 0
    if first_of_pair:
        v = v_hi if s > 0 else v_lo
    else:
        v = v_lo if s > 0 else v_hi
    c = math.sqrt(v / spec.dist.variance)
    return c**k * spec.dist.moment(k)


def quadratic_characteristic(path: Path, k: int) -> float:
    """Prefix sum of the realized predictable variances."""
    if not 0 <= k <= len(path.predictable_variances):
        raise ValueError("index out of range")
    return float(math.fsum(path.predictable_variances[:k]))


# -- spec config serialization ---------------------------------------------
#
# Key/value text format (see README):
#   model = rademacher | gaussian | finite | varswitch
#   n = <int>
#   normalized = true | false        (iid rules)
#   scale = <float>                  (rademacher)
#   sigma2 = <float>                 (gaussian)
#   rho = <float>                    (varswitch)
#   values = v1, v2, ...             (finite, or varswitch base table)
#   probs  = p1, p2, ...

def spec_to_dict(spec: MartingaleSpec) -> dict:
    d = {"n": spec.n}
    base = spec.dist
    if spec.rule == "variance_switching":
        d["model"] = "varswitch"
        d["rho"] = spec.rho
    elif base.kind == "scaled_rademacher":
        d["model"] = "rademacher"
        d["normalized"] = spec.normalized
    elif base.kind == "gaussian":
        d["model"] = "gaussian"
        d["normalized"] = spec.normalized
    else:
        d["model"] = "finite"
        d["normalized"] = spec.normalized
    if base.kind == "scaled_rademacher":
        d["scale"] = base.scale
    elif base.kind == "gaussian":
        d["sigma2"] = base.sigma2
    else:
        d["values"] = list(base.values)
        d["probs"] = list(base.probs)
    return d


def spec_from_dict(d: dict) -> MartingaleSpec:
    model = str(d.get("model", "")).lower()
    if "n" not in d:
        raise ConfigError("spec config needs a step count 'n'")
    n = int(d["n"])

    if "values" in d or "probs" in d:
        if "values" not in d or "probs" not in d:
            raise ConfigError("finite tables need both 'values' and 'probs'")
        base = IncrementDistribution.finite_table(list(zip(d["values"], d["probs"])))
    elif model == "gaussian":
        base = IncrementDistribution.gaussian(float(d.get("sigma2", 1.0)))
    elif model in ("rademacher", "varswitch"):
        base = IncrementDistribution.scaled_rademacher(float(d.get("scale", 1.0)))
    else:
        raise ConfigError(f"unknown model {model!r}")

    if model == "varswitch":
        if "rho" not in d:
            raise ConfigError("varswitch needs 'rho'")
        return MartingaleSpec.variance_switching(base, n=n, rho=float(d["rho"]))
    return MartingaleSpec.iid(base, n=n, normalized=bool(d.get("normalized", False)))


def _parse_scalar(text: str):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    if "," in t:
        return [float(x) for x in t.split(",") if x.strip()]
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def parse_config_dict(text: str) -> dict:
    d = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        d[key.strip().lower()] = _parse_scalar(value)
    return d


def parse_spec_config(text: str) -> MartingaleSpec:
    return spec_from_dict(parse_config_dict(text))


def format_spec_config(spec: MartingaleSpec) -> str:
    d = spec_to_dict(spec)
    lines = []
    for key in ("model", "n", "normalized", "scale", "sigma2", "rho"):
        if key in d:
            v = d[key]
            lines.append(f"{key} = {str(v).lower() if isinstance(v, bool) else v}")
    if "values" in d:
        lines.append("values = " + ", ".join(repr(v) for v in d["values"]))
        lines.append("probs = " + ", ".join(repr(p) for p in d["probs"]))
    return "\n".join(lines) + "\n"
