"""Numerical kernels: Gaussian special functions, quadrature, roots.

This is the one module that knows how the Gaussian functions are computed
and where an unbounded integral is cut; every other module calls these:

* ``gaussian_cdf`` / ``gaussian_sf`` / ``gaussian_quantile`` -- the standard
  normal CDF ``Phi``, its upper tail ``1 - Phi`` and the inverse of ``Phi``,
  accurate to ~1 ulp in either tail, on floats or arrays;
  ``gaussian_log_mass``, ``gaussian_log_cdf`` and ``gaussian_quantile_log``
  are their array forms in log space, which the closed-form measure kernels
  use.  All of them are ``scipy.special`` ufuncs, and no other module of the
  package imports scipy.
* ``integrate`` -- one adaptive Gauss-Kronrod (G7/K15) kernel for every
  integral in the package, with array integrands, one or many rows (each
  its own integral, all evaluated in the same passes) and an *explicit*
  failure mode: if the estimated error exceeds the requested tolerance a
  ``QuadratureError`` is raised instead of silently returning a bad value.
  An infinite end is cut at ``TAIL_CUTOFF``; a finite one is kept.
* ``find_root`` -- one elementwise bracketed solver (Chandrupatla's method)
  with one loop: a bracket is a pair ``(lo, hi)`` of floats, for a single
  root, or of arrays, for one root per element; brackets are validated
  explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as _sci_special

from .errors import BracketError, DomainError, QuadratureError

__all__ = [
    "SQRT_2PI",
    "LOG_SQRT_2PI",
    "TAIL_CUTOFF",
    "Interval",
    "gaussian_pdf",
    "gaussian_cdf",
    "gaussian_sf",
    "gaussian_quantile",
    "gaussian_log_mass",
    "gaussian_log_cdf",
    "gaussian_quantile_log",
    "integrate",
    "find_root",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Where integrate cuts an infinite end.  Every integrand in this package
# decays like exp(-x^2/2) or faster around a center of mass well inside
# [-40, 40], so the tails cut off are far below double precision.
TAIL_CUTOFF = 40.0


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

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo >= hi:
            return None
        return Interval(lo, hi)


REAL_LINE = Interval(-math.inf, math.inf)


def gaussian_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def _finite(values, arg, name: str, domain: str):
    """``values`` of a Gaussian ufunc at ``arg``: a float for a scalar
    ``arg``, the array otherwise.  The ufuncs return NaN or +-inf exactly
    where ``arg`` lies outside their domain, and at most 39 in magnitude
    elsewhere, so the sum of the squared values is finite if and only if
    every element is valid: one dot product validates an array."""
    if isinstance(values, np.ndarray):
        flat = values.ravel()
        if math.isfinite(flat.dot(flat)):
            return values
        arg = np.asarray(arg, dtype=float)[~np.isfinite(values)][0]
    else:
        values = float(values)
        if math.isfinite(values):
            return values
    raise DomainError(f"{name}: {float(arg)!r} outside {domain}")


def gaussian_cdf(x):
    """Standard normal CDF ``Phi(x)`` of a float or an array, accurate in
    both tails, by ``scipy.special.ndtr``.

    The far negative tail is computed without cancellation: Phi(-8) ~ 6.2e-16
    comes out with full relative precision.  Saturates to 0/1 in the extreme
    tails.  NaN anywhere raises ``DomainError``.
    """
    return _finite(_sci_special.ndtr(x), x, "gaussian_cdf", "the real line")


def gaussian_sf(x):
    """Standard normal upper tail ``1 - Phi(x) = Phi(-x)`` of a float or an
    array, accurate in both tails.

    Negation is exact, so this is ``ndtr`` at ``-x``, bit for bit
    ``gaussian_cdf(-x)``: it keeps full relative precision for large
    positive ``x``, where ``1 - Phi(x)`` would cancel to a multiple of the
    ulp of 1.
    """
    return _finite(_sci_special.ndtr(-x), x, "gaussian_sf", "the real line")


def gaussian_log_mass(a, b):
    """``log(Phi(b) - Phi(a))`` for ``a <= b``, elementwise; ``-inf`` where
    ``a == b``.

    Both endpoints may be infinite.  Pairs with ``a > 0`` are mirrored to
    ``log(Phi(-a) - Phi(-b))``, so the difference is always taken in the
    lower tail, from ``log Phi``: a mass far out in either tail keeps its
    relative precision instead of cancelling against 1 or underflowing.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    upper = a > 0.0
    log_hi = _sci_special.log_ndtr(np.where(upper, -a, b))
    log_lo = _sci_special.log_ndtr(np.where(upper, -b, a))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log(-np.expm1(log_lo - log_hi))
    return np.where(a < b, out, -math.inf)


def gaussian_log_cdf(x):
    """``log Phi(x)``, elementwise: the inverse of :func:`gaussian_quantile_log`,
    and ``gaussian_log_mass(-inf, x)`` to the bit at a fraction of its cost."""
    return _sci_special.log_ndtr(x)


def gaussian_quantile_log(log_p):
    """``Phi^{-1}(exp(log_p))`` for ``log_p <= 0``, elementwise.

    The inverse of ``log Phi``: a lower-tail mass given by its logarithm is
    inverted without ever forming the mass, so it may lie far below the
    smallest double.
    """
    return _sci_special.ndtri_exp(log_p)


def gaussian_quantile(theta):
    """Inverse standard normal CDF of a float or an array in (0, 1), by
    ``scipy.special.ndtri``, which resolves both tails to about an ulp.  A
    value outside (0, 1), or NaN, anywhere raises ``DomainError``."""
    return _finite(_sci_special.ndtri(theta), theta, "gaussian_quantile", "(0, 1)")


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


# Bisections after which integrate reports failure.
_MAX_BISECTIONS = 200


def integrate(f: Callable[..., np.ndarray], domain, *, points=None,
              abs_tol: float = 1e-12, rel_tol: float = 1e-10):
    """Adaptive Gauss-Kronrod (G7/K15) quadrature of ``f`` over ``domain``.

    ``domain`` is an ``Interval`` (the value a float), or a pair ``(lo, hi)``
    of 1-d arrays, one *row* per entry (the value the array of the rows'
    integrals).  ``f`` takes a 1-d array of abscissae, with rows also each
    one's row, ``f(x, row)``; each pass calls it once, on the 15 Kronrod
    nodes of every open piece of every row.  An infinite end is cut at
    ``TAIL_CUTOFF`` (so ``-inf`` becomes -40); the caller is responsible for
    integrands that actually decay inside that window (every density in this
    package does).  A finite end is integrated as given; a row whose cut ends
    meet is 0.  The pieces start at ``points``, the known non-smooth
    abscissae (kinks of ``|.|`` integrands), with rows one row of them per
    row; NaN and points outside the range are dropped.  A piece is bisected
    while its error estimate ``|K15 - G7|`` exceeds its share, by length, of
    its row's ``max(abs_tol, rel_tol * |value|)`` (both must be positive), so
    a row's value is its own call's up to rounding.

    Raises ``QuadratureError`` when a row would need more than 200
    bisections or when a value is non-finite.  Never returns a silently
    inaccurate value.
    """
    if not (abs_tol > 0.0 and rel_tol > 0.0):
        raise DomainError("integrate: tolerances must be positive")
    single = isinstance(domain, Interval)
    ends = np.asarray((domain.lo, domain.hi) if single else domain, dtype=float).reshape(2, -1)
    lo, hi = np.where(np.isinf(ends), np.copysign(TAIL_CUTOFF, ends), ends)
    hi = np.maximum(hi, lo)  # a row whose cut ends cross is empty
    n = lo.size
    # per row, its ends and the points clipped to them, sorted: a piece is two neighbours lo < hi
    pts = np.asarray(() if points is None else points, dtype=float).reshape(n, -1)
    ends = np.sort(np.column_stack([lo, np.minimum(np.maximum(pts, lo[:, None]), hi[:, None]), hi]), 1)
    piece = ends[:, :-1] < ends[:, 1:]
    a, b, row = ends[:, :-1][piece], ends[:, 1:][piece], np.nonzero(piece)[0]
    width = np.where(hi > lo, hi - lo, 1.0)  # 1 for an empty row, which has no piece
    done = value = np.zeros(n)
    bisections = np.zeros(n, dtype=int)
    while a.size:
        half = 0.5 * (b - a)
        x = ((a + half)[:, None] + half[:, None] * _KRONROD_NODES).ravel()
        fx = np.asarray(f(x) if single else f(x, np.repeat(row, 15)), dtype=float).reshape(-1, 15)
        kronrod = half * (fx @ _KRONROD_WEIGHTS)
        error = np.abs(kronrod - half * (fx @ _GAUSS_WEIGHTS))
        value = done + np.bincount(row, kronrod, n)
        if not np.isfinite(value).all():
            r = int(np.argmin(np.isfinite(value)))
            raise QuadratureError(f"quadrature over ({lo[r]}, {hi[r]}) failed: non-finite value {value[r]!r}")
        tol = np.maximum(abs_tol, rel_tol * np.abs(value))
        bad = error > (tol / width)[row] * (b - a)  # a piece's share of its row's tolerance
        if not bad.any():
            break
        bisections += np.bincount(bad_row := row[bad], minlength=n)
        if bisections.max() > _MAX_BISECTIONS:
            r = int(np.argmax(bisections))
            raise QuadratureError(f"quadrature over ({lo[r]}, {hi[r]}) failed: value={value[r]!r}, error estimate "
                                  f"{np.sum(error[row == r]):.3e} > tol={tol[r]:.3e} after {_MAX_BISECTIONS} bisections")
        done = value - np.bincount(bad_row, kronrod[bad], n)  # the pieces kept
        a, b, row, mid = a[bad], b[bad], bad_row, (a + half)[bad]
        a, b, row = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([row, row])
    return float(value[0]) if single else value


# Root steps beyond which a bracket is reported as unusable; Chandrupatla's
# steps shrink a bracket of width 10 below 1e-13 in well under 100.
_MAX_ROOT_STEPS = 200
# Relative part of the root tolerance: 4 ulp of the root.
_ROOT_RTOL = 4.0 * np.finfo(float).eps


def find_root(f: Callable, bracket, tol: float = 1e-13, *, full_output: bool = False):
    """Roots of ``f`` inside sign-changing brackets, elementwise.

    ``bracket`` is a pair ``(lo, hi)`` of floats or of arrays, one root per
    element of their broadcast shape (a float for floats).  ``f`` takes and
    returns arrays of that shape, and element ``i`` of ``f(x)`` may depend
    on ``i`` and ``x[i]`` only; every call passes every element, converged
    ones at their root.

    Each step moves every unconverged element to one new point: the secant
    point of the bracket at the first step, then inverse quadratic
    interpolation through the last three points where that is safe and
    bisection otherwise (Chandrupatla, Adv. Eng. Software 28, 1997).
    An element stops when ``f`` is 0 at its best point or its bracket is
    narrower than ``tol + 4 ulp``.  With ``full_output`` the pair ``(root,
    steps)`` is returned, ``steps`` counting the calls of ``f`` after the
    two bracket ends, per element.

    Every bracket must be bounded (else ``DomainError``) and ``f`` must
    change sign across it; the first element that does not, or where ``f``
    is NaN, raises ``BracketError`` with its index and end values rather than
    a guess.
    """
    if not tol > 0.0:
        raise DomainError("find_root: tol must be positive")
    lo, hi = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in bracket))
    if not np.all(np.isfinite(lo) & np.isfinite(hi)):
        raise DomainError("find_root requires bounded brackets")
    root, steps = _roots_of_array_function(f, lo, hi, tol)
    if not root.ndim:
        root, steps = float(root), int(steps)
    return (root, steps) if full_output else root


def _check_bracket(lo, hi, f_lo, f_hi, where="") -> None:
    if math.isnan(f_lo) or math.isnan(f_hi) or (
        (f_lo > 0.0) == (f_hi > 0.0) and f_lo != 0.0 and f_hi != 0.0
    ):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]{where}: f(lo)={f_lo:.6e}, f(hi)={f_hi:.6e}"
        )


def _step_fraction(x1, x2, x3, f1, f2, f3):
    """Chandrupatla's next point, as the fraction of the way from the newest
    point ``x1`` to the bracket end ``x2``: inverse quadratic interpolation
    through ``x1, x2, x3`` where the function is monotone enough for it to be
    safe, else 1/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        alpha = (x3 - x1) / (x2 - x1)
        quadratic = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
    return np.where(quadratic, t, 0.5)


def _roots_of_array_function(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """The elementwise loop of :func:`find_root`: the state of every element
    is advanced where it has not converged and held where it has."""
    # x1 is the newest point, x2 the bracket end where f has the other sign,
    # x3 the point dropped last
    x1, x2 = lo, hi
    f1, f2 = np.asarray(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    for i in np.argwhere(np.isnan(f1) | np.isnan(f2) | ((f1 > 0.0) == (f2 > 0.0))):
        i = tuple(i.tolist())
        _check_bracket(lo[i], hi[i], f1[i], f2[i], f" (element {i})" if i else "")
    steps = np.zeros(lo.shape, dtype=int)
    x3, f3 = x2, f2
    for step in range(_MAX_ROOT_STEPS + 1):
        best = np.abs(f1) < np.abs(f2)
        root = np.where(best, x1, x2)
        width = np.abs(x2 - x1)
        xtol = tol + _ROOT_RTOL * np.abs(root)
        active = (np.where(best, f1, f2) != 0.0) & (width >= xtol)
        if not np.any(active):
            return root, steps
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _step_fraction(x1, x2, x3, f1, f2, f3) if step else f1 / (f1 - f2)
        t_min = 0.5 * xtol / np.where(active, width, 1.0)
        x = np.where(active, x1 + np.clip(t, t_min, 1.0 - t_min) * (x2 - x1), root)
        fx = np.asarray(f(x), dtype=float)
        for i in np.argwhere(np.isnan(fx) & active):
            i = tuple(i.tolist())
            raise BracketError(f"f is NaN at {x[i]} (element {i})")
        steps += active
        same = (fx > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(active, np.where(same, x1, x2), x3), np.where(active, np.where(same, f1, f2), f3)
        x2, f2 = np.where(active & ~same, x1, x2), np.where(active & ~same, f1, f2)
        x1, f1 = np.where(active, x, x1), np.where(active, fx, f1)
    raise BracketError(f"no root to {tol:g} after {_MAX_ROOT_STEPS} steps on some bracket")
