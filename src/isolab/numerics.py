"""Numerical kernels: Gaussian special functions, quadrature, roots.

Everything downstream (measures, deficits, transport distances) funnels its
numerics through the four operations in this module so that tolerances and
failure behaviour are controlled in exactly one place:

* ``gaussian_cdf`` / ``gaussian_sf`` / ``gaussian_quantile`` -- the standard
  normal CDF ``Phi``, its upper tail ``1 - Phi`` and the inverse of ``Phi``,
  accurate to ~1 ulp in either tail; ``gaussian_log_mass`` /
  ``gaussian_quantile_log`` are their array forms in log space, which the
  closed-form measure kernels use.
* ``integrate`` -- one adaptive Gauss-Kronrod (G7/K15) kernel for every
  integral in the package, with array integrands and an *explicit* failure
  mode: if the estimated error exceeds the requested tolerance a
  ``QuadratureError`` is raised instead of silently returning a bad value.
* ``find_root`` -- bracketed root finding with explicit bracket validation.

The root kernel delegates to scipy's Brent solver behind this contract; the
scalar Gaussian CDF uses the C library's ``erfc`` and the array forms and the
quantile use ``scipy.special``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize as _sci_optimize
from scipy import special as _sci_special

from .errors import BracketError, DomainError, QuadratureError

__all__ = [
    "SQRT_2PI",
    "LOG_SQRT_2PI",
    "Interval",
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "gaussian_pdf",
    "gaussian_cdf",
    "gaussian_sf",
    "gaussian_quantile",
    "gaussian_log_mass",
    "gaussian_quantile_log",
    "integrate",
    "find_root",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Interval:
    """An open interval (lo, hi); either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise DomainError("interval endpoints must not be NaN")
        if not lo < hi:
            raise DomainError(f"empty interval: lo={lo!r} >= hi={hi!r}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        """Strict membership x in (lo, hi)."""
        return self.lo < x < self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Interval(lo, hi)


REAL_LINE = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and truncation policy for all quadratures.

    ``tail_cutoff`` truncates unbounded integration ranges to
    ``[-tail_cutoff, tail_cutoff]``.  Every integrand in this package decays
    like exp(-x^2/2) or faster around some center of mass well inside that
    window, so at the default cutoff of 40 the discarded tails are far below
    double precision.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200
    tail_cutoff: float = 40.0

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions must be at least 10")
        if not self.tail_cutoff >= 10.0:
            raise DomainError("tail_cutoff below 10 would truncate real mass")


DEFAULT_SETTINGS = QuadratureSettings()


def gaussian_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi), on floats or
    elementwise on arrays."""
    if isinstance(x, float):
        return math.exp(-0.5 * x * x) / SQRT_2PI
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF ``Phi(x)``, accurate in both tails.

    Uses ``erfc`` rather than ``0.5*(1+erf(.))`` so the far negative tail is
    computed without cancellation: Phi(-8) ~ 6.2e-16 comes out with full
    relative precision.  Saturates to 0/1 in the extreme tails; by symmetry
    of ``erfc``, ``Phi(x) + Phi(-x) = 1`` to machine precision.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("gaussian_cdf: x must not be NaN")
    return 0.5 * math.erfc(-x * _INV_SQRT2)


def gaussian_sf(x: float) -> float:
    """Standard normal upper tail ``1 - Phi(x)``, accurate in both tails.

    The mirror of :func:`gaussian_cdf`: ``0.5*erfc(x/sqrt 2)`` keeps full
    relative precision for large positive ``x``, where ``1 - Phi(x)`` would
    cancel to a multiple of the ulp of 1.
    """
    x = float(x)
    if math.isnan(x):
        raise DomainError("gaussian_sf: x must not be NaN")
    return 0.5 * math.erfc(x * _INV_SQRT2)


def gaussian_log_mass(a, b):
    """``log(Phi(b) - Phi(a))`` for ``a <= b``, on floats or elementwise on
    arrays; ``-inf`` where ``a == b``.

    Both endpoints may be infinite.  Pairs with ``a > 0`` are mirrored to
    ``log(Phi(-a) - Phi(-b))``, so the difference is always taken in the
    lower tail, from ``log Phi``: a mass far out in either tail keeps its
    relative precision instead of cancelling against 1 or underflowing.
    """
    if isinstance(a, float) and isinstance(b, float):
        if not a < b:
            return -math.inf
        if a > 0.0:
            a, b = -b, -a
        log_hi = _sci_special.log_ndtr(b)
        gap = -math.expm1(_sci_special.log_ndtr(a) - log_hi)
        return log_hi + math.log(gap) if gap > 0.0 else -math.inf
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    upper = a > 0.0
    log_hi = _sci_special.log_ndtr(np.where(upper, -a, b))
    log_lo = _sci_special.log_ndtr(np.where(upper, -b, a))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log(-np.expm1(log_lo - log_hi))
    return np.where(a < b, out, -math.inf)


def gaussian_quantile_log(log_p):
    """``Phi^{-1}(exp(log_p))`` for ``log_p <= 0``, on floats or arrays.

    The inverse of ``log Phi``: a lower-tail mass given by its logarithm is
    inverted without ever forming the mass, so it may lie far below the
    smallest double.
    """
    return _sci_special.ndtri_exp(log_p)


def gaussian_quantile(theta: float) -> float:
    """Inverse standard normal CDF on (0, 1), by ``scipy.special.ndtri``,
    which resolves both tails to about an ulp."""
    theta = float(theta)
    if math.isnan(theta) or not 0.0 < theta < 1.0:
        raise DomainError(f"gaussian_quantile: theta={theta!r} outside (0, 1)")
    return float(_sci_special.ndtri(theta))


# Gauss-Kronrod 7/15 on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# positive Kronrod nodes, outermost first, and their weights; the centre node
# 0 has weight 0.2094....  The 7 Gauss nodes are the odd-indexed Kronrod
# nodes in ascending order.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_KRONROD_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_GAUSS_WEIGHTS = np.zeros(15)
_GAUSS_WEIGHTS[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    domain: Interval,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    points: Optional[tuple] = None,
) -> float:
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of ``f`` over ``domain``.

    ``f`` takes a 1-d array of abscissae and returns the values there; each
    pass calls it once, on the 15 Kronrod nodes of every open piece.
    Unbounded endpoints are truncated at ``settings.tail_cutoff``; the caller
    is responsible for integrands that actually decay inside that window
    (every density in this package does).  The pieces start at ``points``,
    the known non-smooth abscissae (kinks of ``|.|`` integrands); points
    outside the effective range are dropped.  A piece is bisected while its
    error estimate ``|K15 - G7|`` exceeds its share, by length, of
    ``max(abs_tol, rel_tol * |value|)``.

    Raises ``QuadratureError`` when more than ``settings.max_subdivisions``
    bisections would be needed or when a value is non-finite.  Never returns
    a silently inaccurate value.
    """
    lo = max(domain.lo, -settings.tail_cutoff)
    hi = min(domain.hi, settings.tail_cutoff)
    if lo >= hi:
        return 0.0  # the whole domain lies beyond the truncation window
    edges = np.array(sorted({lo, hi, *(p for p in points or () if lo < p < hi)}))
    a, b = edges[:-1], edges[1:]
    done = 0.0
    bisections = 0
    while True:
        half = 0.5 * (b - a)
        x = (a + half)[:, None] + half[:, None] * _KRONROD_NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        kronrod = half * (fx @ _KRONROD_WEIGHTS)
        error = np.abs(kronrod - half * (fx @ _GAUSS_WEIGHTS))
        value = done + float(np.sum(kronrod))
        if not math.isfinite(value):
            raise QuadratureError(
                f"quadrature over ({lo}, {hi}) failed: non-finite value {value!r}"
            )
        tol = max(settings.abs_tol, settings.rel_tol * abs(value))
        bad = error > tol * (b - a) / (hi - lo)
        if not np.any(bad):
            return value
        bisections += int(np.count_nonzero(bad))
        if bisections > settings.max_subdivisions:
            raise QuadratureError(
                f"quadrature over ({lo}, {hi}) failed: value={value!r}, "
                f"error estimate {float(np.sum(error)):.3e} > tol={tol:.3e} "
                f"after {settings.max_subdivisions} bisections"
            )
        done += float(np.sum(kronrod[~bad]))
        a, b = a[bad], b[bad]
        mid = a + 0.5 * (b - a)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])


def find_root(
    f: Callable[[float], float],
    bracket: Interval,
    tol: float = 1e-13,
) -> float:
    """Root of ``f`` inside a sign-changing bracket (Brent's method).

    The bracket must be bounded and ``f`` must change sign across it; a
    same-sign bracket raises ``BracketError`` (with the endpoint values in
    the message) rather than guessing.
    """
    if not bracket.is_bounded:
        raise DomainError("find_root requires a bounded bracket")
    if not tol > 0.0:
        raise DomainError("find_root: tol must be positive")
    f_lo = float(f(bracket.lo))
    f_hi = float(f(bracket.hi))
    if math.isnan(f_lo) or math.isnan(f_hi):
        raise BracketError(f"f is NaN at a bracket endpoint: f({bracket.lo})={f_lo!r}, f({bracket.hi})={f_hi!r}")
    if f_lo == 0.0:
        return bracket.lo
    if f_hi == 0.0:
        return bracket.hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: "
            f"f(lo)={f_lo:.6e}, f(hi)={f_hi:.6e}"
        )
    return float(
        _sci_optimize.brentq(
            f, bracket.lo, bracket.hi, xtol=tol, rtol=8.9e-16, maxiter=200
        )
    )
