"""Martingale-difference models: centered one-step laws with exact moments,
and the specs that combine them into a martingale of n steps.

A one-step law is gaussian or finitely supported.  Every finitely supported
law, a Rademacher step included, is one canonical table: ascending distinct
values, each of positive mass.

Two rules are supported:

* ``iid`` -- independent increments from a fixed law, optionally rescaled by
  1/sqrt(n * E eta^2) so the predictable variance sums to exactly 1.
* ``variance_switching`` -- steps are taken in pairs.  The pair starting after
  step 2j-2 looks at the sign s of the running sum (s = +1 at zero) and gives
  its first step conditional variance (1 + s*rho)/n and its second step
  (1 - s*rho)/n.  Each pair therefore contributes exactly 2/n to the
  predictable variance, so it sums to 1 on every path while the increments
  remain genuinely history-dependent.

``MartingaleSpec.iid_parts`` turns either rule into the independent iid parts
of the terminal law; everything downstream works from those parts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConfigError, UnsupportedKindError

# Samples are drawn in fixed-size blocks; block b of a run with master seed s
# draws from Philox(key=[s, b]).  Every draw's randomness is a pure function
# of (seed, draw index), so results never depend on the worker count.
BLOCK = 4096


def block_rng(seed: int, block: int) -> np.random.Generator:
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(key=[seed, block]))


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class IncrementDistribution:
    """A centered one-step law with exact moment access.

    Kinds: ``finite_table`` (values/probs in canonical form, see
    ``finite_table``) and ``gaussian`` (sigma2).
    """

    kind: str
    values: tuple = ()
    probs: tuple = ()
    sigma2: float = 0.0

    # -- constructors -----------------------------------------------------

    @staticmethod
    def finite_table(pairs) -> "IncrementDistribution":
        """The centered law of (value, prob) pairs as its canonical table:
        values ascending and distinct (equal values merged, their masses
        summed), atoms of zero mass dropped.  Equal laws therefore give equal
        tables however they were written."""
        pairs = [(float(v), float(p)) for v, p in pairs]
        if not all(math.isfinite(v) and math.isfinite(p) for v, p in pairs):
            raise ConfigError("finite_table values and probabilities must be finite")
        if any(p < 0 for _, p in pairs):
            raise ConfigError("finite_table probabilities must be nonnegative")
        total = math.fsum(p for _, p in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"finite_table probabilities sum to {total!r}, not 1")
        mass = {}
        for v, p in pairs:
            if p > 0.0:
                mass.setdefault(v, []).append(p)
        values = sorted(mass)
        if len(values) < 2:
            raise ConfigError("finite_table needs at least two atoms of positive mass")
        probs = [math.fsum(mass[v]) / total for v in values]
        mean = math.fsum(p * v for v, p in zip(values, probs))
        values = [v - mean for v in values]  # centered automatically
        d = IncrementDistribution(
            kind="finite_table", values=tuple(values), probs=tuple(probs)
        )
        if not 0.0 < d.variance < math.inf:
            raise ConfigError("finite_table must have positive, finite variance")
        return d

    @staticmethod
    def gaussian(sigma2: float) -> "IncrementDistribution":
        if not 0.0 < sigma2 < math.inf:
            raise ConfigError("gaussian sigma2 must be finite and > 0")
        return IncrementDistribution(kind="gaussian", sigma2=float(sigma2))

    @staticmethod
    def scaled_rademacher(scale: float = 1.0) -> "IncrementDistribution":
        """+/-scale with probability 1/2 each, as a two-atom table."""
        if not scale > 0.0:
            raise ConfigError("rademacher scale must be > 0")
        return IncrementDistribution.finite_table([(-scale, 0.5), (scale, 0.5)])

    # -- exact moments -----------------------------------------------------

    @property
    def variance(self) -> float:
        return self.moment(2)

    def moment(self, k: int) -> float:
        """Exact E eta^k."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if self.kind == "gaussian":
            if k % 2 == 1:
                return 0.0
            return self.sigma2 ** (k // 2) * _double_factorial(k - 1)
        try:
            return math.fsum(p * v**k for v, p in zip(self.values, self.probs))
        except OverflowError:  # a power or the sum past the double range
            return math.inf

    def abs_moment(self, k: int) -> float:
        """Exact E |eta|^k."""
        if self.kind == "gaussian":
            sigma = math.sqrt(self.sigma2)
            return sigma**k * 2 ** (k / 2.0) * math.gamma((k + 1) / 2.0) / math.sqrt(math.pi)
        return math.fsum(p * abs(v) ** k for v, p in zip(self.values, self.probs))

    # -- transforms --------------------------------------------------------

    def scaled(self, c: float) -> "IncrementDistribution":
        """The law of c * eta."""
        if c <= 0.0:
            raise ValueError("scale factor must be > 0")
        if self.kind == "gaussian":
            return IncrementDistribution(kind="gaussian", sigma2=c * c * self.sigma2)
        return IncrementDistribution(
            kind="finite_table", values=tuple(c * v for v in self.values), probs=self.probs
        )

    def table(self):
        """(values, probs) arrays of a finitely supported law, read-only and
        built once per instance, outside the fields (equality, hashing and
        repr never see them)."""
        if self.kind == "gaussian":
            raise UnsupportedKindError("gaussian law has no finite table")
        return self._table

    @cached_property
    def _table(self):
        arrays = np.array(self.values), np.array(self.probs)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def lattice(self):
        """(g, k) with values = values[0] + g*k for integer offsets k from 0,
        each value within 1e-12 of the largest |value| (the rounding of a
        table on a lattice, not a table near one), or None.  g is the gcd of
        the gaps: the smallest gap over the lcm q of the denominators of each
        gap's ratio to it, as a fraction of denominator at most 1000; a
        lattice needs q <= 1000 too."""
        values = self.table()[0]
        gaps = np.diff(values)
        ratios = [Fraction(r).limit_denominator(1000) for r in gaps / gaps.min()]
        q = math.lcm(*(r.denominator for r in ratios))
        g = float(gaps.min()) / q
        k = np.rint((values - values[0]) / g)
        tol = 1e-12 * np.abs(values).max()
        on = q <= 1000 and (np.abs(values[0] + g * k - values) <= tol).all()
        return (g, k.astype(int)) if on else None


@dataclass(frozen=True)
class MartingaleSpec:
    """n steps plus an increment rule, exposed as the iid parts of its
    terminal law and its exact predictable variance."""

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
        The parts are derived once per spec and cached on it, outside the
        fields, so equality, hashing and repr never see them.
        """
        return self._parts

    def part_tables(self):
        """(counts, values, log_probs) of a finite spec's parts: the counts as
        floats, and a row of values and of log probs per part (every part is
        the base table scaled, so the rows have one length), read-only
        arrays built once per spec."""
        return self._part_tables

    @cached_property
    def _part_tables(self):
        tables = [d.table() for d, _ in self.iid_parts()]
        counts = tuple(float(count) for _, count in self.iid_parts())
        arrays = np.array([v for v, _ in tables]), np.log([p for _, p in tables])
        for a in arrays:
            a.flags.writeable = False
        return (counts, *arrays)

    @cached_property
    def _parts(self) -> tuple:
        if self.rule == "iid":
            if not self.normalized:
                return ((self.dist, self.n),)
            return ((self.dist.scaled(1.0 / math.sqrt(self.n * self.dist.variance)), self.n),)
        # the high branch has conditional variance (1 + rho)/n, the low one
        # (1 - rho)/n
        base_var = self.dist.variance
        return tuple(
            (self.dist.scaled(math.sqrt(v / base_var)), self.n // 2)
            for v in ((1.0 + self.rho) / self.n, (1.0 - self.rho) / self.n)
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
# A rademacher base is the table {-scale, scale}, so spec_to_dict writes every
# finitely supported base as its canonical values and probs.

def spec_to_dict(spec: MartingaleSpec) -> dict:
    base = spec.dist
    if spec.rule == "variance_switching":
        d = {"model": "varswitch", "rho": spec.rho}
    else:
        d = {"model": "gaussian" if base.kind == "gaussian" else "finite",
             "normalized": spec.normalized}
    d["n"] = spec.n
    if base.kind == "gaussian":
        d["sigma2"] = base.sigma2
    else:
        d["values"], d["probs"] = list(base.values), list(base.probs)
    return d


# the keys naming each base law's parameters
_BASE_KEYS = {"rademacher": {"scale"}, "gaussian": {"sigma2"}, "finite": {"values", "probs"}}


def _numbers(d: dict, key: str) -> list:
    """d[key] as a list of floats; a lone number is a list of one."""
    raw = d[key] if isinstance(d[key], list) else [d[key]]
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, not {d[key]!r}")


def _number(d: dict, key: str, default: float) -> float:
    """d[key] (default when absent) as a finite float; text or a bool is a
    ConfigError."""
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, not {v!r}")
    return float(v)


def spec_from_dict(d: dict) -> MartingaleSpec:
    """The spec a config dict describes; a key the model does not read is a
    ConfigError, never silently dropped."""
    if "n" not in d:
        raise ConfigError("spec config needs a step count 'n'")
    table = "values" in d or "probs" in d
    model = str(d.get("model", "")).lower() or ("finite" if table else "")
    if model == "varswitch":
        # sigma2 picks a gaussian base and values/probs a finite one, as
        # spec_to_dict writes them; the default base is Rademacher
        kind = "gaussian" if "sigma2" in d else "finite" if table else "rademacher"
        rule_keys = {"rho"}
    elif model in _BASE_KEYS:
        kind, rule_keys = model, {"normalized"}
    else:
        raise ConfigError(f"unknown model {model!r}")
    unused = set(d) - {"model", "n"} - rule_keys - _BASE_KEYS[kind]
    if unused:
        raise ConfigError(
            f"model {model!r} with a {kind} base does not read {sorted(unused)}"
        )

    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"n must be an integer >= 1, not {n!r}")
    normalized = d.get("normalized", False)
    if not isinstance(normalized, bool):
        raise ConfigError(f"normalized must be true or false, not {normalized!r}")
    if kind == "finite":
        if "values" not in d or "probs" not in d:
            raise ConfigError("finite tables need both 'values' and 'probs'")
        values, probs = _numbers(d, "values"), _numbers(d, "probs")
        if len(values) != len(probs):
            raise ConfigError(f"{len(values)} values but {len(probs)} probs")
        base = IncrementDistribution.finite_table(zip(values, probs))
    elif kind == "gaussian":
        base = IncrementDistribution.gaussian(_number(d, "sigma2", 1.0))
    else:
        base = IncrementDistribution.scaled_rademacher(_number(d, "scale", 1.0))

    if model == "varswitch":
        if "rho" not in d:
            raise ConfigError("varswitch needs 'rho'")
        return MartingaleSpec.variance_switching(base, n=n, rho=_number(d, "rho", 0.0))
    return MartingaleSpec.iid(base, n=n, normalized=normalized)


def _parse_scalar(text: str):
    """A config value: a bool, int or float, a list of the strings between
    commas (spec_from_dict reads them as numbers), or the text itself."""
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    if "," in t:
        return [x.strip() for x in t.split(",") if x.strip()]
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
