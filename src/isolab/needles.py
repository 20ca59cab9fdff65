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
* the Markov step (``classify_good``): needles whose half-line perimeter at
  the theta-quantile exceeds the profile by at least ``sqrt(delta)`` carry
  mass at most ``sqrt(delta)`` when the aggregate deficit is at most
  ``delta``,
* a centering criterion, which ``theorem31_experiment`` applies and reports
  as ``centered_mass``: needles whose quantiles ``r_q^-, r_q^+`` deviate
  from the Gaussian quantiles ``a_theta, a_{1-theta}`` by more than
  ``C * delta^{(1-eps)/(9-3eps)}`` are set aside,
* per-needle L^1 distances (each trivially ``<= 2``), the closed-form
  shifted-Gaussian L^1 ``4*Phi(|s|/2) - 2 <= 2|s|/sqrt(2*pi)``, and the
  aggregation inequality ``mixture_l1 <= sum_q w_q * needle_l1(q)``.

Every needle is one Gaussian cell, ``exp(log_amp_q) * phi(x + beta_q)`` on
``(lo_q, hi_q)``: a Gaussian, a truncation of one, or a translate.
:class:`NeedleEnsemble` is built from the arrays ``weights, lo, hi, beta``
and reads ``log_amp``, the quantiles and the half-line perimeters off them,
so each step above is an array operation, not a loop over needles:

* ``mixture_density`` sums the needles that share a ``beta`` with one sorted
  cumulative sum and two ``searchsorted`` calls, by one Hermite expansion
  per cluster of full-line translates (the one-centre fast Gauss transform
  of Greengard and Strain), and directly in bounded blocks for the rest;
* the needle L^1 distances are ``lp_distance``'s closed form on the cells,
  and the classifications compare the stored perimeters and quantiles with
  their thresholds;
* ``disintegration_check``'s needlewise side is one batched quadrature over
  every needle's own support, and the mixture L^1 is the total variation of
  the mixture cdf less ``Phi``, read where ``rho - phi`` changes sign.

``generate_ensemble`` builds seeded synthetic ensembles with controlled
aggregate deficit and a prescribed mass of deliberately "bad" (far
translated) needles, so the scaling of the aggregate L^1 bound in ``delta``
can be measured empirically; all truncation radii come from one root solve.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Callable, Tuple

import numpy as np

from .errors import BracketError, ConfigError, DomainError, InvariantViolation
from .measure1d import Measure1D, MeasureStack, gaussian_profile
from .numerics import (
    LOG_SQRT_2PI,
    SQRT_2PI,
    Interval,
    find_root,
    gaussian_cdf,
    gaussian_pdf,
    gaussian_quantile,
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
    "needle_l1",
    "aggregate_l1",
    "theorem31_experiment",
    "generate_ensemble",
    "rate_exponent",
]


def rate_exponent(epsilon: float) -> float:
    """The needle-mixture rate exponent ``(1 - eps) / (9 - 3 eps)``."""
    return (1.0 - epsilon) / (9.0 - 3.0 * epsilon)


@dataclass(frozen=True)
class Needle:
    """One weighted needle; ``r_minus``/``r_plus`` are its theta- and
    (1-theta)-quantiles."""

    weight: float
    measure: Measure1D
    r_minus: float
    r_plus: float


def make_needle(weight: float, measure: Measure1D, theta: float) -> Needle:
    """Attach a weight and precomputed quantiles to a one-cell needle
    measure (a Gaussian, a truncation or a translate of one)."""
    weight = float(weight)
    if not (weight >= 0.0 and math.isfinite(weight)):
        raise DomainError(f"needle weight {weight!r} must be finite and >= 0")
    if measure.log_amp.size != 1:
        raise DomainError(f"a needle has one cell, this measure has {measure.log_amp.size}")
    r_minus, r_plus = measure.quantile(np.array([theta, 1.0 - theta])).tolist()
    if abs(measure.cdf(r_minus) - theta) > 1e-10:
        raise InvariantViolation("needle quantile drifted beyond 1e-10")
    return Needle(weight=weight, measure=measure, r_minus=r_minus, r_plus=r_plus)


@dataclass(frozen=True, eq=False)
class NeedleEnsemble:
    """Finite needle family with common ``theta`` and the rate parameter
    ``epsilon`` entering the exponent ``(1-eps)/(9-3eps)``.

    Needle ``q`` is one Gaussian cell, ``exp(log_amp_q) * phi(x + beta_q)``
    on ``(lo_q, hi_q)``, with weight ``weights[q]``.  The ensemble is built
    from those arrays, one entry per needle, and holds the needles as the
    rows of one :class:`MeasureStack`, ``cells``, which normalizes them
    (``log_amp``) and reads the quantiles ``r_minus``, ``r_plus`` and the
    half-line perimeter ``perimeter`` (the density at ``r_minus``), so that
    every aggregate below is an array operation.  All eight arrays are
    read-only.  :attr:`needles` makes the per-needle records on first use.
    """

    weights: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    beta: np.ndarray
    theta: float
    epsilon: float
    log_amp: np.ndarray = field(init=False, repr=False)
    r_minus: np.ndarray = field(init=False, repr=False)
    r_plus: np.ndarray = field(init=False, repr=False)
    perimeter: np.ndarray = field(init=False, repr=False)
    cells: MeasureStack = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"theta={self.theta!r} outside (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon={self.epsilon!r} outside (0, 1)")
        weights, lo, hi, beta = (np.array(column, dtype=float)
                                 for column in (self.weights, self.lo, self.hi, self.beta))
        if not (weights.ndim == 1 and weights.size
                and weights.shape == lo.shape == hi.shape == beta.shape):
            raise DomainError("ensemble needs 1-d arrays of one entry per needle, and a needle")
        if not np.all((weights >= 0.0) & np.isfinite(weights)):
            raise DomainError("needle weights must be finite and >= 0")
        if not np.all((lo < hi) & np.isfinite(beta)):
            raise DomainError("needles need lo < hi and a finite beta")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"needle weights sum to {total!r}, not 1")
        cells = MeasureStack.normalized(np.stack([lo, hi], axis=1), beta[:, None], np.zeros((lo.size, 1)))
        r_minus, perimeter = cells.theta_point(self.theta)
        arrays = dict(weights=weights, lo=lo, hi=hi, beta=beta, log_amp=cells.log_amp[:, 0],
                      r_minus=r_minus, r_plus=cells.theta_point(1.0 - self.theta)[0], perimeter=perimeter)
        for name, column in arrays.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        # the stack without what the reads above cached, 14 floats a needle: cell masses,
        # cumulative masses and inversion ends from either end, the mirror's edges and slopes
        object.__setattr__(self, "cells", MeasureStack(cells.edges, cells.beta, cells.log_amp))

    @cached_property
    def needles(self) -> Tuple[Needle, ...]:
        """One :class:`Needle` per needle, each holding its row of ``cells``."""
        return tuple(Needle(w, m, r_minus, r_plus) for w, m, r_minus, r_plus
                     in zip(self.weights.tolist(), self.cells, self.r_minus.tolist(), self.r_plus.tolist()))

    @property
    def scaling_exponent(self) -> float:
        """The rate exponent :func:`rate_exponent` of ``epsilon``."""
        return rate_exponent(self.epsilon)

    @cached_property
    def _mixture_terms(self) -> Tuple[list, list, Tuple[np.ndarray, ...]]:
        """The mixture's terms: :meth:`_terms` of ``c_q = w_q * exp(log_amp_q)``."""
        return self._terms(self.weights * np.exp(self.log_amp))

    def _terms(self, coef: np.ndarray) -> Tuple[list, list, Tuple[np.ndarray, ...]]:
        """The terms of ``sum_q coef_q * phi(x + beta_q)`` on ``(lo_q, hi_q)``,
        in three kinds:

        * needles that share their ``beta`` form one group ``(beta, lo
          sorted, cumsum of coef by lo, hi sorted, cumsum of coef by hi)``;
        * the other full-line needles (``lo = -inf``, ``hi = inf``) are sorted
          into clusters, each every ``beta`` within ``_CLUSTER_WIDTH`` of its
          smallest member.  A cluster of more needles than its expansion has
          terms is one Hermite expansion ``(centre, A)`` about the midpoint
          ``centre`` of its extremes: ``A_n = sum_q (coef_q / sqrt(2*pi))
          (-t_q)^n / n!`` with ``t_q = beta_q - centre``, n < ``_HERMITE_TERMS``;
        * the rest are kept as the arrays ``(beta, lo, hi, coef / sqrt(2*pi))``.
        """
        slopes, group, count = np.unique(self.beta, return_inverse=True, return_counts=True)
        groups = []
        for k in np.nonzero(count > 1)[0]:
            members = group == k
            by_lo, by_hi = np.argsort(self.lo[members]), np.argsort(self.hi[members])
            c = coef[members]
            groups.append((
                slopes[k],
                self.lo[members][by_lo], np.concatenate([[0.0], np.cumsum(c[by_lo])]),
                self.hi[members][by_hi], np.concatenate([[0.0], np.cumsum(c[by_hi])]),
            ))
        alone = count[group] == 1
        translates = np.nonzero(alone & (self.lo == -math.inf) & (self.hi == math.inf))[0]
        translates = translates[np.argsort(self.beta[translates])]
        beta = self.beta[translates]
        expansions = []
        start = 0
        while start < beta.size:
            stop = int(np.searchsorted(beta, beta[start] + _CLUSTER_WIDTH, side="right"))
            if stop - start > _HERMITE_TERMS:
                centre = 0.5 * (beta[start] + beta[stop - 1])
                members = translates[start:stop]
                expansions.append((centre, _hermite_coefficients(
                    self.beta[members] - centre, coef[members] / SQRT_2PI)))
                alone[members] = False
            start = stop
        singles = (self.beta[alone], self.lo[alone], self.hi[alone], coef[alone] / SQRT_2PI)
        return groups, expansions, singles


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of :func:`classify_good`."""

    good_mass: float
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
        return asdict(self)


# Elements (needles x points) in one block of a direct sum over needles: the
# block's temporaries stay near half a megabyte each.
_BLOCK = 1 << 16

# A cluster of translates spans at most this range of beta, so every
# |t_q| = |beta_q - centre| <= 0.75.
_CLUSTER_WIDTH = 1.5
# Terms n = 0..25 of a cluster's Hermite expansion.  By Cramer's inequality
# |He_n(y)| exp(-y^2/4) <= 1.0865 sqrt(n!), term n is at most 1.0865 *
# 0.75^n / sqrt(n!) * sum_q c_q at every x: 2.1e-16 at n = 25, and the
# terms dropped from n = 26 on sum to 3.6e-17 * sum_q c_q.  A cluster is
# expanded only when it holds more needles than this: the expansion costs
# one Clenshaw step per term and point, the direct sum one exponential per
# needle and point.
_HERMITE_TERMS = 26
# exp(-y^2/2) is exactly 0 beyond |y| = 38.6.  Every path of
# mixture_density clips its shifted abscissa y to this before squaring it,
# so y^2 never overflows and the Hermite polynomial stays finite: the term
# is an exact 0, never inf * 0, and NaN stays NaN.
_Y_CLIP = 40.0


def _hermite_coefficients(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``A_n = sum_q c_q (-t_q)^n / n!`` for n < ``_HERMITE_TERMS``, so that
    ``sum_q c_q exp(-(y + t_q)^2 / 2) = exp(-y^2/2) sum_n A_n He_n(y)`` (the
    generating function of the probabilists' Hermite polynomials)."""
    coefs = np.empty(_HERMITE_TERMS)
    power = c.copy()
    for n in range(_HERMITE_TERMS):
        coefs[n] = power.sum()
        power *= -t / (n + 1)
    return coefs


def _hermite_sum(coefs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_n coefs[n] He_n(y)`` by Clenshaw's recurrence ``b_k = A_k +
    y b_{k+1} - (k+1) b_{k+2}``, in place on three buffers; the sum is
    ``b_0``."""
    b1, b2, yb = np.zeros_like(y), np.zeros_like(y), np.empty_like(y)
    for k in range(coefs.size - 1, -1, -1):
        np.multiply(y, b1, out=yb)
        b2 *= -(k + 1)
        b2 += yb
        b2 += coefs[k]
        b1, b2 = b2, b1
    return b1


def mixture_density(ens: NeedleEnsemble, x) -> float | np.ndarray:
    """``rho(x) = sum_q w_q exp(-sigma_q(x))`` (0 off every needle), by :func:`_term_sum`."""
    return _term_sum(ens._mixture_terms, x)


def _term_sum(terms: Tuple[list, list, Tuple[np.ndarray, ...]], x) -> float | np.ndarray:
    """The sum of :meth:`NeedleEnsemble._terms` at ``x``.

    A group of needles with one ``beta`` contributes ``phi(x + beta)`` times
    the sum of ``c_q`` over the needles with ``lo_q < x < hi_q``: the ``c``
    summed over ``lo_q < x`` less that over ``hi_q <= x``, two
    ``searchsorted`` calls on the sorted ends.  A cluster of full-line
    translates contributes ``exp(-y^2/2) sum_n A_n He_n(y)`` with ``y = x +
    centre``: one Hermite expansion per cluster, whatever its size.  The
    other needles are summed directly, in blocks of at most ``_BLOCK``
    needle-point pairs.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    acc = np.zeros_like(flat)
    groups, expansions, (beta, lo, hi, coef) = terms
    for b, lo_sorted, below_lo, hi_sorted, below_hi in groups:
        inside = (below_lo[np.searchsorted(lo_sorted, flat, side="left")]
                  - below_hi[np.searchsorted(hi_sorted, flat, side="right")])
        acc += inside * gaussian_pdf(np.clip(flat + b, -_Y_CLIP, _Y_CLIP))
    for centre, coefs in expansions:
        y = np.clip(flat + centre, -_Y_CLIP, _Y_CLIP)
        acc += np.exp(-0.5 * y * y) * _hermite_sum(coefs, y)
    if beta.size:
        step = max(1, _BLOCK // beta.size)
        for k in range(0, flat.size, step):
            xs = flat[k : k + step]
            # the block's terms, formed in place in one buffer rather than
            # in a fresh block-sized temporary per step
            y = xs + beta[:, None]
            np.clip(y, -_Y_CLIP, _Y_CLIP, out=y)
            y *= y
            y *= -0.5
            np.exp(y, out=y)
            y *= (xs > lo[:, None]) & (xs < hi[:, None])
            acc[k : k + step] += coef @ y
    if arr.ndim == 0:
        return float(acc[0])
    return acc.reshape(arr.shape)


# -- mixture integrals ---------------------------------------------------------

# A needle's bump has unit variance: beyond 16 of its potential minimum its
# mass is below 1e-55.
_SUPPORT_HALF_WIDTH = 16.0


def _supports(ens: NeedleEnsemble) -> Tuple[np.ndarray, np.ndarray]:
    """Each needle's effective support: its potential minimum ``-beta``,
    clipped to the domain, +- 16, intersected with the domain."""
    center = np.clip(-ens.beta, ens.lo, ens.hi)
    return (np.maximum(ens.lo, center - _SUPPORT_HALF_WIDTH),
            np.minimum(ens.hi, center + _SUPPORT_HALF_WIDTH))


def _integration_range(ens: NeedleEnsemble) -> Tuple[Interval, np.ndarray]:
    """Range covering all needle effective supports plus the Gaussian bulk,
    and the interior breakpoints: the finite needle endpoints and the ends
    of the union of the supports.  The latter start a piece at every
    component of the union, so no piece spans the empty stretch between two
    far-apart bumps, where a Kronrod pass could land no node on either."""
    lo, hi = _supports(ens)
    order = np.argsort(lo)
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    # a component of the union starts where lo passes every earlier hi
    gap = lo[1:] > reach[:-1]
    ends = np.concatenate([ens.lo, ens.hi, lo[:1], lo[1:][gap], reach[:-1][gap], reach[-1:]])
    span = Interval(min(-9.0, float(lo[0])), max(9.0, float(reach[-1])))
    return span, ends[np.isfinite(ends)]


def _mixture_l1(ens: NeedleEnsemble) -> float:
    """``|| rho e^{psi_g} - 1 ||_{L^1(gamma)} = int |rho - phi| dx`` in closed form.

    It is the total variation of ``D = R - Phi``, ``R`` the mixture cdf:
    ``sum_k |D(t_{k+1}) - D(t_k)|`` over the points where ``rho - phi``
    changes sign, ``D = 0`` at both infinities and ``rho < 1e-55`` beyond the
    span, which is cut at every needle end and, for short root solves, at the
    integers.  The points are the span's ends, the cuts where ``rho - phi``
    flips or reads 0 (both underflow), and the zeros inside the pieces.  On a
    piece the live needles are fixed, so ``log(rho/phi) = log sum_q c_q
    e^{-beta_q x - beta_q^2/2}`` is convex: one zero where the inside ends
    differ in sign, none where both are negative, and where both are positive
    two or none, two when ``rho < phi`` at the minimum of ``rho/phi``, the
    zero of ``M = sum_q c_q beta_q phi(x + beta_q) = -(rho' + x rho)``, inside
    where ``M`` falls from positive to negative (slopes of both signs).
    """
    span, inner = _integration_range(ens)
    cuts = np.unique(np.clip(np.concatenate([inner, np.arange(math.floor(span.lo), span.hi + 1.0)]),
                             span.lo, span.hi))
    lo, hi = np.nextafter(cuts[:-1], math.inf), np.nextafter(cuts[1:], -math.inf)  # inside ends

    def diff(x):
        return mixture_density(ens, x) - gaussian_pdf(x)

    sign_lo, sign_hi = np.split(np.sign(diff(np.concatenate([lo, hi]))), 2)
    one = sign_lo * sign_hi < 0.0
    brackets = [(lo[one], hi[one])]
    both = np.nonzero((sign_lo > 0.0) & (sign_hi > 0.0))[0]
    if both.size and ens.beta.min() < 0.0 < ens.beta.max():
        slope = partial(_term_sum, ens._terms(ens.weights * np.exp(ens.log_amp) * ens.beta))  # M
        m_lo, m_hi = np.split(slope(np.concatenate([lo[both], hi[both]])), 2)
        dips = both[(m_lo > 0.0) & (m_hi < 0.0)]
        bottom = find_root(slope, (lo[dips], hi[dips]), tol=1e-12)
        two = diff(bottom) < 0.0
        brackets += [(lo[dips[two]], bottom[two]), (bottom[two], hi[dips[two]])]
    zeros = find_root(diff, tuple(np.concatenate(ends) for ends in zip(*brackets)), tol=1e-12)
    jumps = cuts[1:-1][sign_hi[:-1] * sign_lo[1:] <= 0.0]
    t = np.sort(np.concatenate([cuts[[0, -1]], jumps, zeros]))
    q = ens.weights.size  # the cdf is read at most _BLOCK needle-point pairs at a time
    mixture_cdf = np.concatenate([ens.cells.cdf(np.repeat(x, q), np.tile(np.arange(q), x.size)).reshape(x.size, q)
                                  @ ens.weights for x in np.split(t, np.arange(0, t.size, max(1, _BLOCK // q))[1:])])
    return float(np.abs(np.diff(mixture_cdf - gaussian_cdf(t), prepend=0.0, append=0.0)).sum())


def disintegration_check(
    ens: NeedleEnsemble, h: Callable[[np.ndarray], np.ndarray]
) -> DisintegrationReport:
    """Fubini consistency: ``int h rho dx`` vs ``sum_q w_q int h dm_q``.

    ``h`` must accept numpy arrays (any polynomial/ufunc composition does).
    The two sides differ in integrand and partition, and share no code: the
    mixture is integrated once over the common range, with its pieces
    starting at every needle endpoint; the needlewise side maps each needle's
    own effective support onto ``(0, 1)`` and integrates the weighted sum of
    the mapped densities there, one batched quadrature for all needles.  So
    agreement within 1e-8 genuinely exercises the disintegration identity.
    """
    span, inner = _integration_range(ens)
    lhs = integrate(lambda x: h(x) * mixture_density(ens, x), span, points=inner)
    start, end = _supports(ens)
    width = end - start
    scale = ens.weights * width

    def needlewise(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        step = max(1, _BLOCK // u.size)
        for k in range(0, width.size, step):
            q = slice(k, k + step)
            x = start[q, None] + width[q, None] * u
            log_dens = ens.log_amp[q, None] - LOG_SQRT_2PI - 0.5 * (x + ens.beta[q, None]) ** 2
            out += scale[q] @ (np.reshape(h(x.ravel()), x.shape) * np.exp(log_dens))
        return out

    rhs = integrate(needlewise, Interval(0.0, 1.0))
    return DisintegrationReport(lhs=lhs, rhs=rhs)


# -- classification -----------------------------------------------------------


def _aggregate_deficit(ens: NeedleEnsemble) -> float:
    return float(np.dot(ens.weights, ens.perimeter - gaussian_profile(ens.theta)))


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
    agg = _aggregate_deficit(ens)
    if agg < -1e-9:
        raise InvariantViolation(f"aggregate deficit {agg!r} < -1e-9")
    sqrt_d = math.sqrt(delta)
    threshold = prof + sqrt_d
    good = float(np.dot(ens.weights, (ens.perimeter < threshold).astype(float)))
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
        aggregate_deficit=agg,
        threshold_used=threshold,
    )


def _centered(ens: NeedleEnsemble, delta: float, c_threshold: float) -> np.ndarray:
    """Which needles' quantiles track the Gaussian quantiles: those with
    ``max(|a_theta - r_minus|, |a_{1-theta} - r_plus|) <= c_threshold *
    delta^{(1-eps)/(9-3eps)}``.  The constant is not given by the theory
    (only the power of ``delta`` is), hence a parameter."""
    if not (c_threshold > 0.0 and math.isfinite(c_threshold)):
        raise DomainError(f"c_threshold={c_threshold!r} must be positive and finite")
    dev = np.maximum(np.abs(gaussian_quantile(ens.theta) - ens.r_minus),
                     np.abs(gaussian_quantile(1.0 - ens.theta) - ens.r_plus))
    return dev <= c_threshold * delta**ens.scaling_exponent


# -- L^1 quantities -----------------------------------------------------------


def _check_trivial_bound(values: np.ndarray) -> None:
    """Each needle L1 is at most 2: the integrand is bounded by ``exp(psi_g -
    sigma_q) + 1``, whose integral is the needle mass plus the Gaussian
    mass."""
    if np.any(values > 2.0 + 1e-12):
        worst = float(np.max(values))
        raise InvariantViolation(f"needle L1 {worst!r} exceeds the trivial bound 2")


def needle_l1(n: Needle) -> float:
    """``|| exp(psi_g - sigma_q) - 1 ||_{L^1(gamma)}`` (off-needle ratio 0),
    the closed form of :func:`lp_distance` at ``p = 1``; always at most 2.
    This is ``4 Phi(-D)`` for ``gamma`` on ``(-D, D)`` and ``4 Phi(|s|/2) -
    2`` for ``gamma`` translated by ``s``."""
    value = lp_distance(n.measure, 1.0)
    _check_trivial_bound(value)
    return value


def aggregate_l1(ens: NeedleEnsemble) -> AggregateReport:
    """Mixture L^1 distance vs its needlewise upper bound.

    ``mixture_l1 <= sum_q w_q needle_l1(q)`` pointwise under the integral
    (triangle inequality plus the disintegration); violation beyond 1e-8
    indicates an implementation bug and raises.  The needle L1 values are
    :func:`needle_l1`'s closed form, one :func:`lp_distance` call on the
    ensemble's ``cells``; the mixture's is :func:`_mixture_l1`'s closed form.
    """
    per = lp_distance(ens.cells, 1.0)
    _check_trivial_bound(per)
    nsum = float(np.dot(ens.weights, per))
    mix = _mixture_l1(ens)
    if mix > nsum + 1e-8:
        raise InvariantViolation(
            f"mixture L1 {mix!r} exceeds the needlewise sum {nsum!r}"
        )
    return AggregateReport(mixture_l1=mix, needlewise_sum=nsum, per_needle_l1=tuple(per.tolist()))


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
    w, centered = ens.weights, _centered(ens, float(delta), c_threshold)
    both = (ens.perimeter < good_rep.threshold_used) & centered
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
        good_mass=good_rep.good_mass,
        centered_mass=float(np.dot(w, centered.astype(float))),
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
        if not (math.isfinite(self.needle_count) and int(self.needle_count) == self.needle_count >= 1):
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
        if not (math.isfinite(self.seed) and int(self.seed) == self.seed >= 0):
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


# Base translation of bad needles: far enough that their mass is disjoint
# from the Gaussian bulk, so each contributes needle_l1 ~ 2 and fails the
# centering criterion for every delta in the sweep range.
_BAD_SHIFT_BASE = 6.0


def generate_ensemble(config: EnsembleConfig) -> NeedleEnsemble:
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
      root-solved, all in one elementwise solve, so the weighted aggregate
      deficit is ``~= 0.95 *
      (1 - bad_fraction) * deficit_scale`` (within the calibration band
      [0.5, 1.5] x deficit_scale for the small bad fractions used in rate
      sweeps).  ``deficit_scale = 0`` degenerates them to exact Gaussians.

    Zero-weight slots (``bad_fraction`` of exactly 0 or 1) are dropped from
    the returned ensemble.
    """
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

    # the columns (weights, lo, hi, beta) of the good needles, then the bad
    columns = []
    if n_good and b < 1.0:
        ref = raw_w_good / raw_w_good.sum()
        mean_factor = float(np.dot(ref, deficit_factors))
        targets = 0.95 * config.deficit_scale * deficit_factors / mean_factor
        radii = np.full(n_good, math.inf)
        positive = targets > 1e-300
        if np.any(positive):
            radii[positive] = solve_truncation_for_deficit(targets[positive], theta)
        if np.any(np.isnan(radii)):
            raise BracketError(f"no truncation radius reaches deficit {targets[np.isnan(radii)][0]:.3e}")
        columns.append(((1.0 - b) * raw_w_good / raw_w_good.sum(), -radii, radii, np.zeros(n_good)))
    if n_bad and b > 0.0:
        columns.append((b * raw_w_bad / raw_w_bad.sum(), np.full(n_bad, -math.inf),
                        np.full(n_bad, math.inf), -_BAD_SHIFT_BASE * shift_factors))
    return NeedleEnsemble(*map(np.concatenate, zip(*columns)), theta=theta, epsilon=config.epsilon)
