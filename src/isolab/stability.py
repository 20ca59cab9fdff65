"""Quantitative stability of the Gaussian isoperimetric bound on an interval.

For a centered 1-convex measure ``m = exp(-psi) dx`` on ``I`` the half-line
through the Gaussian ``theta``-quantile ``a_theta`` has perimeter
``exp(-psi(a_theta))``, which the Bakry-Ledoux inequality bounds below by the
Gaussian profile ``exp(-psi_g(a_theta))``.  The *deficit*

    delta = exp(-psi(a_theta)) - exp(-psi_g(a_theta))  >= 0

is the smallness parameter of every estimate in this module.
:func:`deficit` reads it once, at ``m``'s own ``theta``-quantile, with the
shift that moves that point to ``a_theta``; each estimate that centers ``m``
translates it by that shift:

* :func:`check_gap_bounds`, the two-sided potential-gap bounds: ``psi -
  psi_g`` dominates its tangent line of slope ``psi'_+(a_theta) - a_theta``
  up to ``O(delta)`` from below on all of ``I``, and stays within
  ``O(sqrt(delta))`` of it from above on a window around ``a_theta`` that
  widens as ``delta`` shrinks; its report carries the slope and the window;
* ``lp_distance``: the L^p(gamma) distance of the density ratio
  ``exp(psi_g - psi)`` from 1, with the convention that the ratio is 0 off
  ``I`` (so the integrand is 1 there, weighted by ``gamma(R \\ I)``), in
  closed form at ``p = 1``;
* ``relative_entropy`` of ``m`` with respect to the Gaussian and the
  Talagrand inequality ``W_2^2 <= 2 Ent``;
* ``w2_to_gaussian`` by quadrature of the quantile coupling, and
  ``w1_to_gaussian`` and a dual upper bound for it as closed moment sums;
* the exactly solvable truncated-Gaussian family (:func:`example23`) whose
  closed forms make the order ``delta^{1/p}`` sharp.

The constants in the gap bounds are *measured*, never asserted against
theoretical values: the theory proves they exist, not what they are.  They
are exact over their ranges, because the gap minus its tangent line is
linear on each cell of the potential.
Two distinct small parameters appear for the truncated family: the
normalization excess ``delta_E`` with ``gamma(I) = (1+delta_E)^{-1}`` and the
isoperimetric deficit; at ``theta = 1/2`` they are related by
``deficit = delta_E / sqrt(2*pi)``.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import DomainError, InvariantViolation, QuadratureError
from .measure1d import (
    Measure1D,
    MeasureStack,
    cell_index,
    gaussian_profile,
    gaussian_psi,
    normalize,
    stacked,
    truncated_gaussian_potential,
)
from .numerics import (
    LOG_SQRT_2PI,
    SQRT_2PI,
    TAIL_CUTOFF,
    Interval,
    find_root,
    gaussian_cdf,
    gaussian_log_mass,
    gaussian_pdf,
    gaussian_quantile,
    gaussian_sf,
    integrate,
)

__all__ = [
    "DeficitReport",
    "GapBoundReport",
    "TalagrandReport",
    "Example23Family",
    "Example23ClosedForms",
    "deficit",
    "check_gap_bounds",
    "lp_distance",
    "relative_entropy",
    "w2_to_gaussian",
    "w1_to_gaussian",
    "talagrand_check",
    "w1_dual_bound",
    "example23",
    "truncated_deficit",
    "solve_truncation_for_deficit",
]

# mass window of the quantile-coupling integral and the cdf-crossing search:
# _quantile_coupling bounds the tails it drops, _cdf_crossings states its cost
_T_CLIP = 1e-12
# deficits below this are treated as the exact equality case
_EQUALITY_TOL = 1e-13

# Room that lp_distance leaves beyond its integrand's peak: the log-integrand
# falls at least like -(x - peak)^2/2 there, so the mass cut off is below
# Phi(-10) ~ 8e-24 of the total.
_PEAK_MARGIN = 10.0


# a measure, or a stack of them, one row per measure
Measures = Union[Measure1D, MeasureStack]


def _shaped(values: np.ndarray, m: Measures):
    """A float for a single measure, the array of rows for a stack."""
    return float(values[0]) if isinstance(m, Measure1D) else values


@dataclass(frozen=True)
class DeficitReport:
    """Half-line perimeter vs the Gaussian profile at ``a_theta``; for
    measures, ``shift``, ``perimeter_at_a`` and ``deficit`` are arrays."""

    theta: float
    a_theta: float
    shift: float
    perimeter_at_a: float
    profile_at_theta: float
    deficit: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GapBoundReport:
    """Fitted constants for the two-sided potential-gap bounds.

    With ``gap(x) = psi(x) - psi_g(x)`` and ``s = slope_gap``, the report
    certifies on the ranges of :func:`check_gap_bounds`::

        gap(x) >= s*(x - a_theta) - fitted_lower_constant * delta      on I
        gap(x) <= s*(x - a_theta) + fitted_upper_constant * sqrt(delta) on window

    both constants being the smallest nonnegative values that make the
    inequalities true there.  ``equality_case`` marks ``delta = 0`` (both
    bounds then collapse to exact linearity of the gap).
    """

    theta: float
    deficit: float
    slope_gap: float
    window: Interval
    fitted_lower_constant: float
    fitted_upper_constant: float
    equality_case: bool

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "deficit": self.deficit,
            "slope_gap": self.slope_gap,
            "window": [self.window.lo, self.window.hi],
            "fitted_lower_constant": self.fitted_lower_constant,
            "fitted_upper_constant": self.fitted_upper_constant,
            "equality_case": self.equality_case,
        }


@dataclass(frozen=True)
class TalagrandReport:
    lhs: float  # W_2^2
    rhs: float  # 2 * relative entropy
    passed: bool

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "talagrand_pass": self.passed}


@dataclass(frozen=True)
class Example23Family:
    """Truncated Gaussian on (-D, D): ``gamma(I) = (1 + delta_E)^{-1}``."""

    D: float
    delta_E: float


@dataclass(frozen=True)
class Example23ClosedForms:
    """Exact deficit and L^p distance of the truncated family at theta=1/2."""

    deficit: float
    lp: Callable[[float], float]


def deficit(m: Measures, theta: float) -> DeficitReport:
    """Isoperimetric deficit of the half-line at ``a_theta``, of a measure
    or of each row of a :class:`MeasureStack`.

    The deficit is read at ``m``'s own ``theta``-quantile ``q``, which
    centering moves to ``a_theta``: the perimeter is ``density(q)``, both
    read by :meth:`MeasureStack.theta_point`, and the report records the
    centering shift ``a_theta - q``.  For 1-convex input the deficit is
    nonnegative (up to 1e-9 of rounding noise) because the half-line is an
    admissible competitor in the isoperimetric inequality.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError(f"deficit: theta={theta!r} outside (0, 1)")
    q, peri = stacked(m).theta_point(theta)
    a_theta, prof = gaussian_quantile(theta), gaussian_profile(theta)
    return DeficitReport(theta=theta, a_theta=a_theta, shift=_shaped(a_theta - q, m),
                         perimeter_at_a=_shaped(peri, m), profile_at_theta=prof,
                         deficit=_shaped(peri - prof, m))


def check_gap_bounds(m: Measure1D, theta: float) -> GapBoundReport:
    """The smallest constants making the two gap bounds hold on their ranges.

    ``m`` is centered once, by the shift of its :func:`deficit` report,
    whose deficit is the ``delta`` of both bounds.  The lower bound's range
    is the domain cut to its ``[1e-12, 1 - 1e-12]`` quantiles and to the
    tail cutoff, widened to hold the window; the upper bound's range is the
    window ``a_theta +- sqrt(2 ln(1/delta))`` (``+- 1`` for ``delta >= 1``)
    cut to the domain, which widens as the deficit shrinks.
    On each cell ``g(x) = psi(x) - psi_g(x) - s*(x - a_theta)`` is linear,
    so its extrema over a range lie at the range ends and the cell edges
    inside it, and ``g`` is evaluated there only: the constants are exact
    over the ranges.  ``delta = 0`` degenerates both bounds to a linearity
    check of the gap, reported as ``equality_case`` with both constants 0.
    """
    rep = deficit(m, theta)
    centered, a_theta, delta = m.translate(rep.shift), rep.a_theta, rep.deficit
    small = max(delta, _EQUALITY_TOL)
    half = math.sqrt(2.0 * math.log(1.0 / small)) if small < 1.0 else 1.0
    window = Interval(a_theta - half, a_theta + half).intersect(centered.domain)
    sg = float(centered.potential.right_derivative(a_theta)) - a_theta
    clip_lo, clip_hi = centered.quantile(np.array([_T_CLIP, 1.0 - _T_CLIP])).tolist()
    lo = max(min(window.lo, clip_lo), -TAIL_CUTOFF)
    hi = min(max(window.hi, clip_hi), TAIL_CUTOFF)

    # on cell i, g is the line slope[i]*x + icpt[i]: psi - psi_g is
    # beta_i*x + beta_i^2/2 - log_amp_i there
    pot = centered.potential
    slope = pot.slopes - sg
    icpt = 0.5 * pot.slopes**2 - centered.log_amp + sg * a_theta

    def gap(start: float, stop: float) -> np.ndarray:
        """``g`` at both ends of each piece that the edges cut ``[start,
        stop]`` into, on the piece's own cell."""
        inner = pot.edges[(pot.edges > start) & (pot.edges < stop)]
        xs = np.concatenate([[start], inner, [stop]])
        i = np.searchsorted(pot.edges[1:-1], xs[:-1], side="right")
        return np.concatenate([slope[i] * xs[:-1] + icpt[i], slope[i] * xs[1:] + icpt[i]])

    equality = delta <= _EQUALITY_TOL
    if equality:
        c_low = c_up = 0.0
    else:
        c_low = max(0.0, -float(np.min(gap(lo, hi)))) / delta
        c_up = max(0.0, float(np.max(gap(window.lo, window.hi)))) / math.sqrt(delta)

    return GapBoundReport(
        theta=theta,
        deficit=delta,
        slope_gap=sg,
        window=window,
        fitted_lower_constant=c_low,
        fitted_upper_constant=c_up,
        equality_case=equality,
    )


def _ratio_crossings(edges, beta, log_amp) -> np.ndarray:
    """Where the density ratio ``exp(psi_g - psi)`` crosses 1, the kinks of
    ``|ratio - 1|``, per cell of normalized cells with any leading axes
    (NaN where a cell holds none): on each cell ``psi_g - psi`` is linear,
    ``log_amp_i - beta_i^2/2 - beta_i * x``, so its zero is exact."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (log_amp - 0.5 * beta**2) / beta
    return np.where((x > edges[..., :-1]) & (x < edges[..., 1:]), x, np.nan)


def lp_distance(m: Measures, p: float):
    """``|| exp(psi_g - psi) - 1 ||_{L^p(gamma)}`` with off-domain ratio 0.

    A float for one measure; an array for a :class:`MeasureStack`, whose
    rows' integrals are the rows of one quadrature.  Off ``I``
    the density ratio is taken to be 0, so the integrand there is ``|0 -
    1|^p = 1`` and contributes exactly ``gamma(R \\ I)``.  ``p`` must lie in
    [1, 64].  ``g = psi_g - psi`` is linear on each cell.

    ``p = 1`` is a closed form: cut at the zeros of ``g``, the cells fall
    into pieces ``J`` on which ``m - gamma`` keeps its sign, and the distance
    is ``sum_J |m(J) - gamma(J)| + gamma(R \\ I)``, each term taken from the
    log masses as ``e^top * (1 - e^{-|log m(J) - log gamma(J)|})``.  For ``p >
    1`` the integrand is formed in log space, ``exp(p * log|expm1(g)| -
    psi_g)``, and scaled by its peak value when that exceeds 1: the integral
    itself may overflow a double (about ``e^18144`` for the Gaussian
    translated by 3 at ``p = 64``, whose integrand peaks at ``x = 192``)
    while its p-th root does not.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"lp_distance: p={p!r} must be >= 1")
    if p > 64.0:
        raise DomainError(f"lp_distance: p={p!r} must be <= 64")
    st = stacked(m)
    edges, beta, log_amp = st.edges, st.beta, st.log_amp
    if p == 1.0:
        cut = np.fmin(_ratio_crossings(edges, beta, log_amp), edges[:, 1:])  # no crossing: all one piece
        total = gaussian_cdf(edges[:, 0]) + gaussian_sf(edges[:, -1])
        for a, b in ((edges[:, :-1], cut), (cut, edges[:, 1:])):
            log_m, log_g = log_amp + gaussian_log_mass(a + beta, b + beta), gaussian_log_mass(a, b)
            top = np.maximum(log_m, log_g)
            with np.errstate(invalid="ignore"):
                gap = np.exp(top) * -np.expm1(np.minimum(log_m, log_g) - top)
            total = total + np.sum(np.where(top > -math.inf, gap, 0.0), axis=1)
        return _shaped(total, m)

    def log_integrand(g: np.ndarray, x: np.ndarray) -> np.ndarray:
        # log|e^g - 1| = max(g, 0) + log(1 - e^{-|g|}), finite for any g != 0
        with np.errstate(divide="ignore"):
            return p * (np.maximum(g, 0.0) + np.log(-np.expm1(-np.abs(g)))) - gaussian_psi(x)

    # Where g >> 0 the log-integrand is p*g - psi_g up to a term of size
    # p*e^{-g}, and g is linear on each cell, so its peak is near the vertex
    # -p*beta of the cell, clipped to it: scale by the largest vertex value
    # when that exceeds 0, and integrate over the domain cut to a window
    # that holds that vertex and the tail cutoff.
    vertices = np.clip(-p * beta, edges[:, :-1], edges[:, 1:])
    values = log_integrand(log_amp - 0.5 * beta**2 - beta * vertices, vertices)
    peak = np.arange(len(edges)), np.argmax(values, axis=1)  # each row's largest
    top, at = values[peak], vertices[peak]
    shift = np.maximum(top, 0.0)
    reach = np.where(np.isfinite(top), np.maximum(TAIL_CUTOFF, np.abs(at) + _PEAK_MARGIN), TAIL_CUTOFF)

    def on_rows(x: np.ndarray, row: np.ndarray) -> np.ndarray:
        cell = cell_index(edges, x, row)
        b, w = beta[row, cell], log_amp[row, cell]
        return np.exp(log_integrand(w - 0.5 * b * b - b * x, x) - shift[row])

    inside = integrate(on_rows, (np.maximum(-reach, edges[:, 0]), np.minimum(reach, edges[:, -1])),
                       points=np.concatenate([edges[:, 1:-1], _ratio_crossings(edges, beta, log_amp)], 1))
    outside = (gaussian_cdf(edges[:, 0]) + gaussian_sf(edges[:, -1])) * np.exp(-shift)
    return _shaped(np.exp(shift / p) * (inside + outside) ** (1.0 / p), m)


def _cell_moments(lo, hi, beta, log_amp):
    """The mass and first moment of ``exp(log_amp) * phi(x + beta)`` over
    ``(lo, hi)``, elementwise: with ``a = lo + beta`` and ``b = hi + beta``
    the moment is ``exp(log_amp) * (phi(a) - phi(b)) - beta * mass``."""
    a, b = lo + beta, hi + beta
    mass = np.exp(log_amp + gaussian_log_mass(a, b))
    moment = np.exp(log_amp - 0.5 * a * a - LOG_SQRT_2PI) - np.exp(log_amp - 0.5 * b * b - LOG_SQRT_2PI)
    return mass, moment - beta * mass


def relative_entropy(m: Measures):
    """``Ent(m | gamma) = int_I (psi_g - psi) dm >= 0``, in closed form: a
    float for one measure, an array for the rows of a :class:`MeasureStack`.

    On cell ``i``, where the density is ``w_i * phi(x + beta_i)``, ``psi_g -
    psi`` is the line ``a_i - beta_i * x`` with ``a_i = log w_i -
    beta_i^2/2``, so ``Ent = sum_i (a_i * m_i - beta_i * mu_i)``, where
    ``m_i`` and ``mu_i`` are the cell's mass and first moment
    (:func:`_cell_moments`).
    Negative rounding noise down to -1e-11 is clamped to 0; a more negative
    value would contradict Jensen's inequality and raises
    ``InvariantViolation``.
    """
    st = stacked(m)
    mass, moment = _cell_moments(st.edges[:, :-1], st.edges[:, 1:], st.beta, st.log_amp)
    value = np.sum((st.log_amp - 0.5 * st.beta**2) * mass - st.beta * moment, axis=1)
    if np.any(value < -1e-11):
        raise InvariantViolation(f"relative entropy came out negative: {float(np.min(value))!r}")
    return _shaped(np.maximum(value, 0.0), m)


def _moment_gap(st: MeasureStack, cuts: np.ndarray, c: float = 0.0) -> np.ndarray:
    """Per row of ``st``, ``sum_J |int_J (x - c) d(m - gamma)|`` over the
    stretches ``J`` between the row's ``cuts`` (NaN-padded), which is ``int
    |x - c| d|m - gamma|`` where the cuts leave ``(x - c)(m - gamma)`` one
    sign on each.  Cut also at the cell edges and at both infinities, each
    piece holds one cell of ``m`` (none off its domain) and of ``gamma``."""
    n, ends = len(st), np.full((len(st), 1), math.inf)
    points = np.sort(np.concatenate([-ends, st.edges, np.where(np.isnan(cuts), math.inf, cuts), ends], 1), 1)
    lo, hi = points[:, :-1], points[:, 1:]
    k = cell_index(st.edges, lo.ravel(), np.repeat(np.arange(n), lo.shape[1])).reshape(lo.shape)
    e_lo, e_hi = np.take_along_axis(st.edges, k, 1), np.take_along_axis(st.edges, k + 1, 1)
    mass, moment = _cell_moments(np.clip(lo, e_lo, e_hi), np.clip(hi, e_lo, e_hi),
                                 np.take_along_axis(st.beta, k, 1), np.take_along_axis(st.log_amp, k, 1))
    mass_g, moment_g = _cell_moments(lo, hi, 0.0, 0.0)
    gap = (moment - moment_g) - c * (mass - mass_g)
    # a piece's stretch is the number of cuts at or below its lower end
    stretch = np.sum(cuts[:, None, :] <= lo[:, :, None], axis=2) + lo.shape[1] * np.arange(n)[:, None]
    return np.abs(np.bincount(stretch.ravel(), gap.ravel(), minlength=gap.size)).reshape(gap.shape).sum(1)


def _transport(st: MeasureStack, s: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``F_m^{-1}(Phi(s))``, the monotone map pushing gamma to ``m``, at
    ``s[i]`` for row ``row[i]``: the lesser tail ``Phi(-|s|)`` inverted."""
    return st.invert(np.clip(gaussian_cdf(-np.abs(s)), _T_CLIP, 0.5), s > 0.0, row)


def _quantile_coupling(m: Measures) -> np.ndarray:
    """``int_0^1 (F_m^{-1}(t) - Phi^{-1}(t))^2 dt`` by quadrature, one row
    per measure of ``m``, as ``int (F_m^{-1}(Phi(s)) - s)^2 phi(s) ds``: in
    ``t`` the integrand piles into boundary layers at 0 and 1, while in ``s``
    it is a Gaussian-damped, polynomially growing profile that adaptive
    quadrature resolves cleanly.
    The s-range is clipped to the ``[1e-12, 1 - 1e-12]`` quantile window;
    the discarded tails are bounded analytically using the quantile
    differences at the clip points (1-convexity keeps the difference from
    growing toward the endpoints faster than a constant plus the clip-point
    value).  A non-negligible tail bound is reported as a failure rather
    than absorbed.
    """
    st = stacked(m)
    n, rows = len(st), np.arange(len(st))
    s_lo, s_hi = gaussian_quantile(_T_CLIP), gaussian_quantile(1.0 - _T_CLIP)

    def integrand(s: np.ndarray, row: np.ndarray) -> np.ndarray:
        return (_transport(st, s, row) - s) ** 2 * gaussian_pdf(s)

    # The map s -> F_m^{-1}(Phi(s)) has derivative jumps at the images of the
    # potential's kinks; hand those to the quadrature as interior breakpoints
    t = st.knot_cdf
    inside = (t > _T_CLIP) & (t < 1.0 - _T_CLIP)
    points = np.where(inside, gaussian_quantile(np.where(inside, t, 0.5)), np.nan)
    try:
        value = integrate(integrand, (np.full(n, s_lo), np.full(n, s_hi)), points=points,
                          abs_tol=1e-10, rel_tol=1e-8)
    except QuadratureError as exc:
        raise QuadratureError(f"quantile-coupling integral failed near the endpoints: {exc}") from exc
    # the quantile differences at both clip points
    q_lo, q_hi = st.invert(np.full(2 * n, _T_CLIP), np.arange(2 * n) >= n, np.tile(rows, 2)).reshape(2, n)
    tail_bound = np.max(_T_CLIP * ((np.abs(q_lo - s_lo) + 1.0) ** 2 + (np.abs(q_hi - s_hi) + 1.0) ** 2))
    if tail_bound > 1e-8:
        raise QuadratureError(f"clipped endpoint mass bound {tail_bound:.3e} is not negligible")
    return value


def _cdf_crossings(st: MeasureStack) -> np.ndarray:
    """Where ``F_m`` crosses ``Phi``, per row (NaN-padded): the ends of the
    stretches on which ``F_m - Phi`` keeps its sign.  ``F_m - Phi`` is
    monotone between the cell edges and the ratio crossings (its derivative
    is ``density - phi``), so each such piece holds at most one zero, found
    by one elementwise root solve where the piece's ends differ in sign.
    The solve reads the map's offset ``transport(s) - s``, ``transport(s) =
    F_m^{-1}(Phi(s))``, of the opposite sign and with upper masses read from
    the right end: ``cdf - Phi`` is rounding noise where both near 1.  Only
    the window ``[Phi^{-1}(1e-12), Phi^{-1}(1 - 1e-12)]`` is searched: a
    zero outside it is not found, which merges the stretches beyond it and
    costs ``W_1`` at most twice ``int |F_m - Phi|`` beyond the window."""
    lo, hi = gaussian_quantile(_T_CLIP), gaussian_quantile(1.0 - _T_CLIP)
    ends = np.concatenate([st.edges, _ratio_crossings(st.edges, st.beta, st.log_amp)], 1)
    ends = np.sort(np.clip(np.where(np.isnan(ends), lo, ends), lo, hi), 1)
    row = np.repeat(np.arange(len(ends)), ends.shape[1]).reshape(ends.shape)
    g = (_transport(st, ends.ravel(), row.ravel()) - ends.ravel()).reshape(ends.shape)
    change = np.sign(g[:, :-1]) * np.sign(g[:, 1:]) < 0.0
    crossings = np.full(change.shape, np.nan)
    if change.any():
        at = row[:, 1:][change]
        crossings[change] = find_root(lambda x: _transport(st, x, at) - x,
                                      (ends[:, :-1][change], ends[:, 1:][change]))
    return np.concatenate([np.where(g == 0.0, ends, np.nan), crossings], 1)


def w2_to_gaussian(m: Measures):
    """Quadratic Wasserstein distance to the standard Gaussian: a float for
    one measure, an array for the rows of a :class:`MeasureStack`.

    One-dimensional optimal transport is the monotone (quantile) coupling:
    ``W_2^2 = int_0^1 (F_m^{-1}(t) - Phi^{-1}(t))^2 dt``.
    """
    return _shaped(np.sqrt(np.maximum(_quantile_coupling(m), 0.0)), m)


def w1_to_gaussian(m: Measures):
    """First Wasserstein distance to the Gaussian, a float for one measure
    and an array for the rows of a :class:`MeasureStack`, and ``<=
    w2_to_gaussian`` by Hoelder: ``int |F_m - Phi| dx``, which by parts is
    ``sum_J |int_J x d(m - gamma)|`` over the stretches between the zeros of
    ``F_m - Phi`` (:func:`_cdf_crossings`), where ``F_m = Phi``: a closed
    sum of first moments (:func:`_moment_gap`)."""
    st = stacked(m)
    return _shaped(_moment_gap(st, _cdf_crossings(st)), m)


def talagrand_check(m: Measure1D) -> TalagrandReport:
    """Check ``W_2^2 <= 2 Ent`` (a theorem for 1-convex measures)."""
    lhs = w2_to_gaussian(m) ** 2
    rhs = 2.0 * relative_entropy(m)
    return TalagrandReport(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs + 1e-8))


def w1_dual_bound(m: Measure1D, theta: float) -> float:
    """Kantorovich-Rubinstein style upper bound for ``W_1(m, gamma)``:
    ``int |x - a_theta| * |exp(psi_g - psi) - 1| dgamma`` with the off-domain
    ratio-0 convention (the integrand is ``|x - a_theta|`` times the Gaussian
    density off ``I``), the closed sum of :func:`_moment_gap` about ``c =
    a_theta`` over the pieces between the cell edges, the ratio crossings and
    ``a_theta``, where the integrand keeps its sign.  The test function ``x
    -> |x - a_theta|`` is 1-Lipschitz, which makes this a valid dual bound.
    ``m`` is centered internally, by the shift of its :func:`deficit`
    report; for a centered measure ``w1_to_gaussian(m) <= w1_dual_bound(m,
    theta) + 1e-8``."""
    rep = deficit(m, theta)
    st, a_theta = m.translate(rep.shift).cells, rep.a_theta
    cuts = np.concatenate([st.edges, _ratio_crossings(st.edges, st.beta, st.log_amp), [[a_theta]]], 1)
    return float(_moment_gap(st, cuts, a_theta)[0])


def example23(D: float) -> Tuple[Measure1D, Example23Family, Example23ClosedForms]:
    """The exactly solvable truncated-Gaussian family on ``(-D, D)``.

    The measure is ``(1+delta_E) * gamma`` restricted to ``(-D, D)`` with
    ``gamma((-D, D)) = (1+delta_E)^{-1}``.  At ``theta = 1/2`` everything is
    explicit:

        deficit = delta_E / sqrt(2*pi)
        lp(p)   = ((1 + delta_E^{p-1}) / (1 + delta_E))^{1/p} * delta_E^{1/p}

    which realizes the order ``delta^{1/p}`` exactly -- the family showing
    the L^p stability exponent is sharp.  ``delta_E`` is formed from the
    tail ``s = Phi(-D)`` as ``2s / (1 - 2s)``: ``1/gamma(I) - 1`` cancels as
    ``D`` grows (1.4e-3 relative at ``D = 7.5``).
    """
    if not (D > 0.0 and math.isfinite(D)):
        raise DomainError(f"example23: D={D!r} must be positive and finite")
    tail = gaussian_sf(D)
    delta_E = 2.0 * tail / (1.0 - 2.0 * tail)
    m = normalize(truncated_gaussian_potential(D))
    fam = Example23Family(D=float(D), delta_E=float(delta_E))

    def lp_closed(p: float) -> float:
        p = float(p)
        if p < 1.0:
            raise DomainError("closed-form lp needs p >= 1")
        return ((1.0 + delta_E ** (p - 1.0)) / (1.0 + delta_E)) ** (1.0 / p) * (
            delta_E ** (1.0 / p)
        )

    closed = Example23ClosedForms(deficit=delta_E / SQRT_2PI, lp=lp_closed)
    return m, fam, closed


def truncated_deficit(D, theta: float):
    """Deficit of the symmetric truncated Gaussian on ``(-D, D)``; ``D`` a
    float or an array of radii.

    ``theta`` and ``1 - theta`` share it, so take ``theta <= 1/2`` and ``a =
    a_theta <= 0``.  With ``s = Phi(-D)`` the theta-quantile ``r = a + h``
    solves ``Phi(r) = theta + s*(1 - 2*theta)``, and ``phi(r)/gamma(I) -
    phi(a)`` is ``phi(a) * expm1(-h*(2a + h)/2 - log1p(-2s))``, whose two
    terms are nonnegative: nothing cancels.  Where ``u = s*(1 -
    2*theta)/phi(a)`` is below 5e-3, ``h`` is its Taylor series in ``u`` (six
    terms), not a difference of nearby quantiles.
    """
    theta = min(theta, 1.0 - theta)
    a = gaussian_quantile(theta)
    prof = float(gaussian_pdf(a))
    s = gaussian_sf(np.asarray(D, dtype=float))
    u = s * (1.0 - 2.0 * theta) / prof
    series = u * np.polyval([(120.0 * a**5 + 326.0 * a**3 + 127.0 * a) / 720.0,
                             (24.0 * a**4 + 46.0 * a**2 + 7.0) / 120.0, (6.0 * a**3 + 7.0 * a) / 24.0,
                             (2.0 * a**2 + 1.0) / 6.0, a / 2.0, 1.0], u)
    h = np.where(u < 5e-3, series, gaussian_quantile(theta + s * (1.0 - 2.0 * theta)) - a)
    out = prof * np.expm1(-0.5 * h * (2.0 * a + h) - np.log1p(-2.0 * s))
    return float(out) if out.ndim == 0 else out


def solve_truncation_for_deficit(target, theta: float):
    """Radius ``D`` in [0.05, 9] whose truncated Gaussian has the target
    deficit, or NaN for a target that no radius there reaches; for an array
    of targets, all radii come from one elementwise root solve.

    As ``D`` grows the deficit tends to ``k * Phi(-D)``, with ``k`` read at
    ``D = 4``: each root is bracketed by ``-Phi^{-1}(t/k) +- 0.05``, or by
    [0.05, 9] where that misses it, and solved in ``log delta``.
    """
    target = np.asarray(target, dtype=float)
    t = target.ravel()
    k = truncated_deficit(4.0, theta) / gaussian_sf(4.0)
    guess = -gaussian_quantile(np.clip(np.nan_to_num(t / k), 1e-300, 0.5))
    ends = np.concatenate([np.clip(guess - 0.05, 0.05, 9.0), np.clip(guess + 0.05, 0.05, 9.0)])
    # the deficit falls as the radius grows
    at_lo, at_hi, (most, least) = np.split(truncated_deficit(np.append(ends, (0.05, 9.0)), theta),
                                           [t.size, 2 * t.size])
    reach, near = (least <= t) & (t <= most), (at_hi <= t) & (t <= at_lo)
    lo, hi = np.where(near, ends[:t.size], 0.05)[reach], np.where(near, ends[t.size:], 9.0)[reach]
    log_t, radius = np.log(t[reach]), np.full(t.shape, np.nan)
    radius[reach] = find_root(lambda D: np.log(truncated_deficit(D, theta)) - log_t, (lo, hi), tol=1e-12)
    return float(radius[0]) if target.ndim == 0 else radius.reshape(target.shape)
