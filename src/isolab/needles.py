"""Weighted families of 1-convex needles and their L^1 aggregation.

A *needle* is a 1-convex probability measure ``exp(-sigma_q) dx`` on an
interval ``X_q``, carrying a weight ``w_q``; a finite ensemble
``{(w_q, m_q)}`` is the desk-scale stand-in for a needle decomposition
``(Q, nu, {m_q})`` arising from localization: integrals against ``nu``
become weighted sums.  The pushforward of the total measure under the
needle coordinate is the mixture density

    rho(x) = sum_q w_q * exp(-sigma_q(x)),   exp(-sigma_q(x)) := 0 off X_q.

This module verifies, needle by needle and in aggregate, the chain of
estimates that turns per-needle isoperimetric deficits into an L^1 bound on
``rho`` against the Gaussian:

* the disintegration identity ``int h rho dx = sum_q w_q int h dm_q``,
* the Markov step: needles whose half-line perimeter at the theta-quantile
  exceeds the profile by at least ``sqrt(delta)`` carry mass at most
  ``sqrt(delta)`` when the aggregate deficit is at most ``delta``,
* a centering criterion: needles whose quantiles ``r_q^-, r_q^+`` deviate
  from the Gaussian quantiles ``a_theta, a_{1-theta}`` by more than
  ``C * delta^{(1-eps)/(9-3eps)}`` are set aside,
* per-needle L^1 distances (each trivially ``<= 2``), the closed-form
  shifted-Gaussian L^1 ``4*Phi(|s|/2) - 2 <= 2|s|/sqrt(2*pi)``, and the
  aggregation inequality ``mixture_l1 <= sum_q w_q * needle_l1(q)``.

``generate_ensemble`` builds seeded synthetic ensembles with controlled
aggregate deficit and a prescribed mass of deliberately "bad" (far
translated) needles, so the scaling of the aggregate L^1 bound in ``delta``
can be measured empirically.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError, InvariantViolation, QuadratureError
from .measure1d import (
    Measure1D,
    gaussian_measure,
    gaussian_profile,
    normalize,
    truncated_gaussian_potential,
)
from .numerics import (
    Interval,
    find_root,
    gaussian_cdf,
    gaussian_pdf,
    gaussian_quantile,
    gaussian_sf,
    integrate,
)
from .stability import lp_distance, solve_truncation_for_deficit

__all__ = [
    "Needle",
    "NeedleEnsemble",
    "ClassificationReport",
    "DisintegrationReport",
    "AggregateReport",
    "Theorem31Report",
    "EnsembleConfig",
    "make_needle",
    "mixture_density",
    "disintegration_check",
    "classify_good",
    "classify_centered",
    "shifted_gaussian_l1",
    "needle_l1",
    "aggregate_l1",
    "theorem31_experiment",
    "generate_ensemble",
]


@dataclass(frozen=True)
class Needle:
    """One weighted needle; ``r_minus``/``r_plus`` are its theta- and
    (1-theta)-quantiles."""

    weight: float
    measure: Measure1D
    r_minus: float
    r_plus: float


def make_needle(weight: float, measure: Measure1D, theta: float) -> Needle:
    """Attach a weight and precomputed quantiles to a needle measure."""
    weight = float(weight)
    if not (weight >= 0.0 and math.isfinite(weight)):
        raise DomainError(f"needle weight {weight!r} must be finite and >= 0")
    r_minus = measure.quantile(theta)
    r_plus = measure.quantile(1.0 - theta)
    if abs(measure.cdf(r_minus) - theta) > 1e-10:
        raise InvariantViolation("needle quantile drifted beyond 1e-10")
    return Needle(weight=weight, measure=measure, r_minus=r_minus, r_plus=r_plus)


@dataclass(frozen=True)
class NeedleEnsemble:
    """Finite needle family with common ``theta`` and the rate parameter
    ``epsilon`` entering the exponent ``(1-eps)/(9-3eps)``."""

    needles: Tuple[Needle, ...]
    theta: float
    epsilon: float

    def __post_init__(self) -> None:
        if not self.needles:
            raise DomainError("ensemble needs at least one needle")
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"theta={self.theta!r} outside (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon={self.epsilon!r} outside (0, 1)")
        total = math.fsum(n.weight for n in self.needles)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"needle weights sum to {total!r}, not 1")

    @property
    def scaling_exponent(self) -> float:
        """The rate exponent ``(1 - eps) / (9 - 3 eps)``."""
        return (1.0 - self.epsilon) / (9.0 - 3.0 * self.epsilon)

    @property
    def weights(self) -> np.ndarray:
        return np.array([n.weight for n in self.needles])


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of a needle classification; the mass a given classifier did
    not compute is left as None."""

    good_mass: Optional[float]
    centered_mass: Optional[float]
    aggregate_deficit: float
    threshold_used: float


@dataclass(frozen=True)
class DisintegrationReport:
    lhs: float  # int h * rho dx
    rhs: float  # sum_q w_q int h dm_q


@dataclass(frozen=True)
class AggregateReport:
    mixture_l1: float
    needlewise_sum: float
    per_needle_l1: Tuple[float, ...]


@dataclass(frozen=True)
class Theorem31Report:
    delta: float
    epsilon: float
    mixture_l1: float
    rate_bound_exponent: float
    good_mass: float
    centered_mass: float
    bad_mass: float
    good_contribution: float
    needlewise_sum: float
    decomposition_bound: float
    markov_applies: bool
    bad_mass_within_rate: bool

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "epsilon": self.epsilon,
            "mixture_l1": self.mixture_l1,
            "rate_bound_exponent": self.rate_bound_exponent,
            "good_mass": self.good_mass,
            "centered_mass": self.centered_mass,
            "bad_mass": self.bad_mass,
            "good_contribution": self.good_contribution,
            "needlewise_sum": self.needlewise_sum,
            "decomposition_bound": self.decomposition_bound,
            "markov_applies": self.markov_applies,
            "bad_mass_within_rate": self.bad_mass_within_rate,
        }


def mixture_density(ens: NeedleEnsemble, x) -> float | np.ndarray:
    """``rho(x) = sum_q w_q exp(-sigma_q(x))`` (0 off every needle)."""
    arr = np.asarray(x, dtype=float)
    acc = np.zeros_like(arr, dtype=float)
    for nd in ens.needles:
        acc = acc + nd.weight * np.asarray(nd.measure.density(arr), dtype=float)
    if arr.ndim == 0:
        return float(acc)
    return acc


# -- mixture integrals ---------------------------------------------------------


def _integration_range(ens: NeedleEnsemble) -> Tuple[Interval, list]:
    """Range covering all needle effective supports plus the Gaussian bulk,
    and the interior breakpoints (finite needle endpoints)."""
    lo, hi = -9.0, 9.0
    inner = []
    for nd in ens.needles:
        support = nd.measure.effective_support
        lo = min(lo, support.lo)
        hi = max(hi, support.hi)
        for e in (nd.measure.domain.lo, nd.measure.domain.hi):
            if math.isfinite(e):
                inner.append(float(e))
    return Interval(lo, hi), inner


def _sign_change_roots(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    probe_step: float = 0.01,
) -> list:
    """Locate roots of a continuous function of floats or arrays by probing
    then Brent refining; used to split ``|rho - phi|`` at its crossing
    points."""
    n = max(16, int(math.ceil((hi - lo) / probe_step)) + 1)
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(f(xs), dtype=float)
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if flips.size > 500:
        raise QuadratureError(
            f"{flips.size} sign changes of rho - phi; integrand too oscillatory"
        )
    roots = []
    for i in flips:
        roots.append(find_root(f, Interval(float(xs[i]), float(xs[i + 1])), tol=1e-12))
    return roots


def _mixture_l1(ens: NeedleEnsemble) -> float:
    """``|| rho e^{psi_g} - 1 ||_{L^1(gamma)} = int |rho - phi| dx`` plus the
    analytic Gaussian tail mass beyond the covered range."""
    span, inner = _integration_range(ens)

    def diff(x):
        return mixture_density(ens, x) - gaussian_pdf(x)

    crossings = _sign_change_roots(diff, span.lo, span.hi)
    body = integrate(lambda x: np.abs(diff(x)), span, points=(*inner, *crossings))
    return body + gaussian_cdf(span.lo) + gaussian_sf(span.hi)


def disintegration_check(
    ens: NeedleEnsemble, h: Callable[[np.ndarray], np.ndarray]
) -> DisintegrationReport:
    """Fubini consistency: ``int h rho dx`` vs ``sum_q w_q int h dm_q``.

    ``h`` must accept numpy arrays (any polynomial/ufunc composition does).
    The two sides differ in integrand and partition -- the mixture is
    integrated once, with its pieces starting at every needle endpoint, and
    each needle on its own domain -- so agreement within 1e-8 genuinely
    exercises the disintegration identity.
    """
    span, inner = _integration_range(ens)
    lhs = integrate(lambda x: h(x) * mixture_density(ens, x), span, points=tuple(inner))
    rhs = 0.0
    for nd in ens.needles:
        if nd.weight == 0.0:
            continue
        rhs += nd.weight * integrate(
            lambda x: h(x) * nd.measure.density(x), nd.measure.domain, nd.measure.settings
        )
    return DisintegrationReport(lhs=lhs, rhs=rhs)


# -- classification -----------------------------------------------------------


def _half_line_perimeters(ens: NeedleEnsemble) -> np.ndarray:
    """Per-needle perimeter ``exp(-sigma_q(r_minus))`` of the theta half-line."""
    return np.array([float(nd.measure.density(nd.r_minus)) for nd in ens.needles])


def _aggregate_deficit(ens: NeedleEnsemble, perims: np.ndarray) -> float:
    prof = gaussian_profile(ens.theta)
    return float(np.dot(ens.weights, perims - prof))


def classify_good(ens: NeedleEnsemble, delta: float) -> ClassificationReport:
    """Mass of needles with half-line perimeter below ``profile + sqrt(delta)``.

    When the aggregate deficit is at most ``delta``, Markov's inequality
    (per-needle deficits are nonnegative by the isoperimetric inequality)
    forces ``good_mass >= 1 - sqrt(delta)``; that is asserted.  With
    aggregate deficit above ``delta`` the classification is still returned
    but the assertion is skipped with a warning.
    """
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta={delta!r} must be positive")
    prof = gaussian_profile(ens.theta)
    perims = _half_line_perimeters(ens)
    agg = _aggregate_deficit(ens, perims)
    if agg < -1e-9:
        raise InvariantViolation(f"aggregate deficit {agg!r} < -1e-9")
    sqrt_d = math.sqrt(delta)
    threshold = prof + sqrt_d
    good = float(np.dot(ens.weights, (perims < threshold).astype(float)))
    if agg <= delta:
        # numerical margin: per-needle deficits may carry ~1e-9 noise
        if good < 1.0 - sqrt_d - 2e-9 / sqrt_d:
            raise InvariantViolation(
                f"Markov bound violated: good_mass={good!r} < 1 - sqrt(delta)"
            )
    else:
        warnings.warn(
            f"aggregate deficit {agg:.3e} exceeds delta={delta:.3e}; "
            "Markov assertion skipped",
            RuntimeWarning,
            stacklevel=2,
        )
    return ClassificationReport(
        good_mass=good,
        centered_mass=None,
        aggregate_deficit=agg,
        threshold_used=threshold,
    )


def _quantile_deviations(ens: NeedleEnsemble) -> np.ndarray:
    a_lo = gaussian_quantile(ens.theta)
    a_hi = gaussian_quantile(1.0 - ens.theta)
    return np.array(
        [max(abs(a_lo - nd.r_minus), abs(a_hi - nd.r_plus)) for nd in ens.needles]
    )


def classify_centered(
    ens: NeedleEnsemble, delta: float, c_threshold: float = 1.0
) -> ClassificationReport:
    """Mass of needles whose quantiles track the Gaussian quantiles.

    A needle passes when ``max(|a_theta - r_minus|, |a_{1-theta} - r_plus|)
    <= c_threshold * delta^{(1-eps)/(9-3eps)}``.  The constant is not given
    by the theory (only the power of ``delta`` is), hence it is exposed as
    a parameter with default 1.0.
    """
    delta = float(delta)
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta={delta!r} must be positive")
    if not c_threshold > 0.0:
        raise DomainError(f"c_threshold={c_threshold!r} must be positive")
    threshold = c_threshold * delta**ens.scaling_exponent
    dev = _quantile_deviations(ens)
    mass = float(np.dot(ens.weights, (dev <= threshold).astype(float)))
    perims = _half_line_perimeters(ens)
    return ClassificationReport(
        good_mass=None,
        centered_mass=mass,
        aggregate_deficit=_aggregate_deficit(ens, perims),
        threshold_used=threshold,
    )


# -- L^1 quantities -----------------------------------------------------------


def shifted_gaussian_l1(s: float) -> float:
    """``|| gamma(. - s) - gamma ||_{L^1(dx)}`` by quadrature.

    The two densities cross exactly once, at ``s/2``, which gives the closed
    form ``4*Phi(|s|/2) - 2``; it is bounded by ``2|s|/sqrt(2*pi)`` (mean
    value bound on ``Phi``).  This function *computes* the integral and is
    checked against the closed form in tests.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError("shift must be finite")
    if s == 0.0:
        return 0.0

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.abs(gaussian_pdf(x - s) - gaussian_pdf(x))

    lo = min(-9.0, s - 9.0)
    hi = max(9.0, s + 9.0)
    return integrate(integrand, Interval(lo, hi), points=(0.5 * s,))


def needle_l1(n: Needle) -> float:
    """``|| exp(psi_g - sigma_q) - 1 ||_{L^1(gamma)}`` (off-needle ratio 0).

    Always at most 2: the integrand is bounded by ``exp(psi_g - sigma_q) +
    1`` whose integral is the needle mass plus the Gaussian mass.
    """
    value = lp_distance(n.measure, 1.0)
    if value > 2.0 + 1e-12:
        raise InvariantViolation(f"needle L1 {value!r} exceeds the trivial bound 2")
    return value


def aggregate_l1(ens: NeedleEnsemble) -> AggregateReport:
    """Mixture L^1 distance vs its needlewise upper bound.

    ``mixture_l1 <= sum_q w_q needle_l1(q)`` pointwise under the integral
    (triangle inequality plus the disintegration); violation beyond 1e-8
    indicates an implementation bug and raises.
    """
    per = tuple(needle_l1(nd) for nd in ens.needles)
    nsum = float(np.dot(ens.weights, np.array(per)))
    mix = _mixture_l1(ens)
    if mix > nsum + 1e-8:
        raise InvariantViolation(
            f"mixture L1 {mix!r} exceeds the needlewise sum {nsum!r}"
        )
    return AggregateReport(mixture_l1=mix, needlewise_sum=nsum, per_needle_l1=per)


def theorem31_experiment(
    ens: NeedleEnsemble, delta: float, c_threshold: float = 1.0
) -> Theorem31Report:
    """Full decomposition experiment at one deficit level ``delta``.

    Classifies needles (good: small half-line deficit; centered: quantiles
    within ``c_threshold * delta^alpha`` of the Gaussian ones, with
    ``alpha = (1-eps)/(9-3eps)``), then checks the aggregation
    decomposition::

        mixture_l1 <= (good-and-centered L^1 contribution) + 2 * bad_mass

    The report records whether the experiment's preconditions (aggregate
    deficit <= delta, bad mass <= delta^alpha) held; violations are
    reported, not fatal.
    """
    good_rep = classify_good(ens, delta)
    cent_rep = classify_centered(ens, delta, c_threshold)
    perims = _half_line_perimeters(ens)
    dev = _quantile_deviations(ens)
    good_mask = perims < good_rep.threshold_used
    cent_mask = dev <= cent_rep.threshold_used
    both = good_mask & cent_mask
    w = ens.weights
    both_mass = float(np.dot(w, both.astype(float)))
    bad_mass = 1.0 - both_mass

    agg = aggregate_l1(ens)
    good_contribution = float(np.dot(w[both], np.array(agg.per_needle_l1)[both]))
    bound = good_contribution + 2.0 * bad_mass
    if agg.mixture_l1 > bound + 1e-8:
        raise InvariantViolation(
            f"decomposition bound failed: {agg.mixture_l1!r} > {bound!r}"
        )

    alpha = ens.scaling_exponent
    markov_applies = good_rep.aggregate_deficit <= delta
    bad_ok = bad_mass <= delta**alpha + 1e-12
    if not markov_applies or not bad_ok:
        warnings.warn(
            f"experiment preconditions not met (aggregate deficit "
            f"{good_rep.aggregate_deficit:.3e} vs delta {delta:.3e}, "
            f"bad mass {bad_mass:.3e} vs delta^alpha {delta**alpha:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return Theorem31Report(
        delta=float(delta),
        epsilon=ens.epsilon,
        mixture_l1=agg.mixture_l1,
        rate_bound_exponent=alpha,
        good_mass=float(good_rep.good_mass),
        centered_mass=float(cent_rep.centered_mass),
        bad_mass=bad_mass,
        good_contribution=good_contribution,
        needlewise_sum=agg.needlewise_sum,
        decomposition_bound=bound,
        markov_applies=bool(markov_applies),
        bad_mass_within_rate=bool(bad_ok),
    )


# -- synthetic generator ------------------------------------------------------


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of the synthetic ensemble generator.

    Ranges: ``needle_count >= 1``; ``theta, epsilon`` in (0, 1);
    ``deficit_scale`` in [0, 0.5] (target aggregate deficit);
    ``bad_fraction`` in [0, 1] (mass carried by far-translated needles);
    ``seed`` a nonnegative integer.  A mixed ensemble (0 < bad_fraction < 1)
    needs ``needle_count >= 2``.
    """

    needle_count: int
    theta: float = 0.5
    epsilon: float = 0.1
    deficit_scale: float = 0.0
    bad_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.needle_count) != self.needle_count or self.needle_count < 1:
            raise ConfigError(f"needle_count={self.needle_count!r} must be an integer >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta={self.theta!r} outside (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon={self.epsilon!r} outside (0, 1)")
        if not 0.0 <= self.deficit_scale <= 0.5:
            raise ConfigError(
                f"deficit_scale={self.deficit_scale!r} outside [0, 0.5]"
            )
        if not 0.0 <= self.bad_fraction <= 1.0:
            raise ConfigError(f"bad_fraction={self.bad_fraction!r} outside [0, 1]")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError(f"seed={self.seed!r} must be a nonnegative integer")
        if 0.0 < self.bad_fraction < 1.0 and self.needle_count < 2:
            raise ConfigError("mixed good/bad ensemble needs needle_count >= 2")

    def to_dict(self) -> dict:
        return {
            "needle_count": int(self.needle_count),
            "theta": float(self.theta),
            "epsilon": float(self.epsilon),
            "deficit_scale": float(self.deficit_scale),
            "bad_fraction": float(self.bad_fraction),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "EnsembleConfig":
        known = {
            "needle_count",
            "theta",
            "epsilon",
            "deficit_scale",
            "bad_fraction",
            "seed",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown ensemble config keys: {sorted(unknown)}")
        return cls(**{k: v for k, v in d.items()})  # type: ignore[arg-type]


# Base translation of bad needles: far enough that their mass is disjoint
# from the Gaussian bulk, so each contributes needle_l1 ~ 2 and fails the
# centering criterion for every delta in the sweep range.
_BAD_SHIFT_BASE = 6.0


def generate_ensemble(config: EnsembleConfig | Mapping[str, object]) -> NeedleEnsemble:
    """Seeded synthetic ensemble with controlled deficit and bad mass.

    Deterministic for a fixed config (numpy ``default_rng``, i.e. PCG64,
    with the configured seed; fixed draw order).  Construction:

    * ``max(1, needle_count // 5)`` slots are *bad* needles -- standard
      Gaussians translated by ``~ 6 * U[1, 1.25]`` (same sign), each with
      zero deficit but ``needle_l1 ~ 2`` -- jointly carrying exactly
      ``bad_fraction`` of the mass.  The slot count does not depend on
      ``bad_fraction``, so sweeping ``bad_fraction`` with a fixed seed
      moves mass between *the same* needles (monotone degradation).
    * the remaining slots are symmetric truncated Gaussians whose radii are
      root-solved so the weighted aggregate deficit is ``~= 0.95 *
      (1 - bad_fraction) * deficit_scale`` (within the calibration band
      [0.5, 1.5] x deficit_scale for the small bad fractions used in rate
      sweeps).  ``deficit_scale = 0`` degenerates them to exact Gaussians.

    Zero-weight slots (``bad_fraction`` of exactly 0 or 1) are dropped from
    the returned ensemble.
    """
    if not isinstance(config, EnsembleConfig):
        config = EnsembleConfig.from_dict(config)
    n = int(config.needle_count)
    theta = config.theta
    b = config.bad_fraction

    if n == 1:
        n_bad = 1 if b == 1.0 else 0
    else:
        n_bad = max(1, n // 5)
    n_good = n - n_bad

    rng = np.random.default_rng(int(config.seed))
    # fixed draw order regardless of bad_fraction
    raw_w_good = rng.uniform(0.5, 1.5, size=n_good)
    raw_w_bad = rng.uniform(0.5, 1.5, size=n_bad)
    deficit_factors = rng.uniform(0.5, 1.5, size=n_good)
    shift_factors = rng.uniform(1.0, 1.25, size=n_bad)

    needles = []
    if n_good and b < 1.0:
        w_good = (1.0 - b) * raw_w_good / raw_w_good.sum()
        ref = raw_w_good / raw_w_good.sum()
        mean_factor = float(np.dot(ref, deficit_factors))
        targets = 0.95 * config.deficit_scale * deficit_factors / mean_factor
        for w, target in zip(w_good, targets):
            if target <= 1e-300:
                measure = gaussian_measure()
            else:
                D = solve_truncation_for_deficit(float(target), theta)
                measure = normalize(truncated_gaussian_potential(D))
            needles.append(make_needle(float(w), measure, theta))
    if n_bad and b > 0.0:
        w_bad = b * raw_w_bad / raw_w_bad.sum()
        base = gaussian_measure()
        for w, f in zip(w_bad, shift_factors):
            needles.append(
                make_needle(float(w), base.translate(_BAD_SHIFT_BASE * float(f)), theta)
            )
    return NeedleEnsemble(needles=tuple(needles), theta=theta, epsilon=config.epsilon)
