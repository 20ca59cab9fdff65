"""Weighted intervals ``(I, exp(-psi) dx)`` with curvature-one convexity.

The basic object is a finite measure on an open interval ``I`` of the real
line given by a density ``exp(-psi_hat)``; :func:`normalize` turns it into a
probability measure ``exp(-psi) dx``, ``psi = psi_hat + log Z``.  The
standard Gaussian corresponds to ``psi_g(x) = x^2/2 + log sqrt(2*pi)`` on
the whole line.

A measure is *1-convex* when ``psi(x) - x^2/2`` is convex on ``I``; this is
the curvature condition under which the Gaussian isoperimetric profile
``I(theta) = exp(-a_theta^2/2)/sqrt(2*pi)``, ``theta = Phi(a_theta)``, is a
lower bound for the boundary measure of any set of mass ``theta``
(Bakry-Ledoux).  Everything in this package measures *how close to equality*
that bound is, so this module provides:

* :class:`PotentialSpec`, a potential given by its cells, and the
  constructors of the Gaussian, its truncations and translates, convex
  piecewise-linear perturbations of it and tabulated potentials,
* :class:`MeasureStack`, probability measures sharing a cell count as
  normalized cells ``(edges, beta, log_amp)`` with a row per measure, the
  one reader of such cells, which reads upper tails as the lower tails of
  its mirror image, and :class:`Measure1D`, one such row and nothing else,
  held as a stack of one that answers each of its reads,
* an exact :func:`check_one_convexity` test on the cell edges: ``psi_hat -
  x^2/2`` is convex when it neither jumps nor loses slope at any of them,
* perimeter of finite unions of intervals (sum of ``exp(-psi)`` over the
  interior boundary points) and :func:`brute_force_minimizer`, an exhaustive
  grid search over candidate sets of at most two components that serves as
  an honest competitor to the half-line predicted by Bobkov's theorem.  It
  reads the profile ``density(quantile(t))`` in array calls, skipping the
  blocks of candidates that a lower bound shows cannot beat the half-line,
  forms each candidate's perimeter as a broadcast sum of profile values,
  and keeps the first minimum in search order.

Every potential is a *cell potential*, ``psi_hat(x) = x^2/2 + beta_i*x +
gamma_i`` on the cells ``(e_i, e_{i+1})`` of the domain.  On a cell the
normalized density is ``exp(log_amp_i) * phi(x + beta_i)``, a Gaussian of
mean ``-beta_i``, so masses, normalizer, cdf, upper tail and quantile are
differences and inverses of ``Phi`` at ``x + beta_i``: no quadrature and no
root search; a translation moves edges and slopes and keeps ``log_amp``.
Each kernel has one code path, on arrays; a float goes in as a 0-d array and
comes back as a float.

Conventions: all intervals are open; the density is ``0`` off ``I``; boundary
points lying on the closure of ``I`` but not in its interior contribute no
perimeter (a half-line cut at the end of a bounded interval is "free").
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, InvalidPotentialError, IsolabError, NonIntegrableError
from .numerics import (
    LOG_SQRT_2PI,
    REAL_LINE,
    Interval,
    gaussian_log_cdf,
    gaussian_log_mass,
    gaussian_pdf,
    gaussian_quantile,
    gaussian_quantile_log,
)

__all__ = [
    "PotentialSpec",
    "Measure1D",
    "BoundarySet",
    "ConvexityReport",
    "MinimizerResult",
    "gaussian_potential",
    "truncated_gaussian_potential",
    "perturbed_gaussian_potential",
    "tabulated_potential",
    "potential_from_config",
    "translate_potential",
    "gaussian_psi",
    "gaussian_measure",
    "normalize",
    "cell_log_masses",
    "MeasureStack",
    "stacked",
    "cell_index",
    "check_one_convexity",
    "gaussian_profile",
    "boundary_set",
    "perimeter",
    "brute_force_minimizer",
]

ArrayLike = Union[float, np.ndarray]

def _vec(fn: Callable[[np.ndarray], np.ndarray], x: ArrayLike) -> ArrayLike:
    """Apply the array kernel ``fn`` to ``x``; a scalar goes in as a 0-d
    array and comes back as a float."""
    arr = np.asarray(x, dtype=float)
    return fn(arr) if arr.ndim else float(fn(arr))


def cell_index(edges: np.ndarray, x: np.ndarray, row: Optional[np.ndarray] = None,
               side: str = "right") -> np.ndarray:
    """Index of the cell ``(edges[i], edges[i+1])`` holding ``x``, an interior
    edge in the cell on its right (left for ``side="left"``) and points beyond
    the ends in the end cells.  With ``row``, ``edges`` has a row per measure
    and ``x[j]`` counts the interior edges of ``edges[row[j]]`` below it;
    without, one binary search takes a fifth to a third of that time."""
    if row is None:
        return edges[1:-1].searchsorted(x, side=side)
    inner = edges[row, 1:-1]
    return np.sum(inner <= x[:, None] if side == "right" else inner < x[:, None], axis=1)


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A potential ``psi_hat`` on an open interval, before normalization.

    ``psi_hat(x) = x^2/2 + slopes[i]*x + offsets[i]`` on the cell
    ``(edges[i], edges[i+1])``; ``edges`` runs from ``domain.lo`` to
    ``domain.hi``.  Its one method, ``value``, accepts floats or numpy
    arrays.
    """

    domain: Interval
    edges: np.ndarray
    slopes: np.ndarray
    offsets: np.ndarray

    def value(self, x: ArrayLike) -> ArrayLike:
        def impl(a: np.ndarray) -> np.ndarray:
            i = cell_index(self.edges, a)
            return 0.5 * a * a + self.slopes[i] * a + self.offsets[i]

        return _vec(impl, x)


def cell_log_masses(edges, beta, log_amp):
    """The log of each cell's mass under ``exp(log_amp) * phi(x + beta)``,
    elementwise over leading axes: ``edges`` has one more entry than
    ``beta`` and ``log_amp`` along the last axis."""
    return log_amp + gaussian_log_mass(edges[..., :-1] + beta, edges[..., 1:] + beta)


def _cells(domain: Interval, edges, slopes, offsets) -> PotentialSpec:
    """Spec from cell arrays covering the whole line, cut to ``domain``."""
    e = np.asarray(edges, dtype=float)
    first = int(np.searchsorted(e, domain.lo, side="right")) - 1
    last = int(np.searchsorted(e, domain.hi, side="left"))
    e = e[first : last + 1].copy()
    e[0], e[-1] = domain.lo, domain.hi
    cut = slice(first, last)
    return PotentialSpec(domain, e, np.array(slopes, dtype=float)[cut],
                         np.array(offsets, dtype=float)[cut])


def gaussian_psi(x: ArrayLike) -> ArrayLike:
    """The standard Gaussian potential ``x^2/2 + log sqrt(2*pi)``."""
    return _vec(lambda a: 0.5 * a * a + LOG_SQRT_2PI, x)


def gaussian_potential() -> PotentialSpec:
    """Potential of the standard Gaussian on the whole line."""
    return _cells(REAL_LINE, (-math.inf, math.inf), (0.0,), (LOG_SQRT_2PI,))


def truncated_gaussian_potential(
    D: Optional[float] = None,
    *,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> PotentialSpec:
    """Gaussian potential restricted to ``(-D, D)`` or a general (lo, hi).

    Exactly one of ``D`` / the pair ``lo, hi`` must be given.  The restricted
    measure is 1-convex (restriction preserves the convexity of
    ``psi - x^2/2``); its normalization differs from the Gaussian's, which is
    what produces a positive isoperimetric deficit.
    """
    if D is not None:
        if lo is not None or hi is not None:
            raise DomainError("give either D or (lo, hi), not both")
        if not (math.isfinite(D) and D > 0.0):
            raise DomainError(f"truncation radius D={D!r} must be positive and finite")
        dom = Interval(-float(D), float(D))
    else:
        if lo is None or hi is None:
            raise DomainError("truncated_gaussian_potential needs D or both lo and hi")
        dom = Interval(float(lo), float(hi))
        if dom == REAL_LINE:
            raise DomainError("truncation interval must be a proper sub-interval")
    return _cells(dom, (-math.inf, math.inf), (0.0,), (LOG_SQRT_2PI,))


def perturbed_gaussian_potential(
    breakpoints: Sequence[float],
    slopes: Sequence[float],
    domain: Interval = REAL_LINE,
) -> PotentialSpec:
    """``x^2/2 + log sqrt(2*pi)`` plus a convex piecewise-linear perturbation.

    ``slopes`` has one more entry than ``breakpoints`` and must be
    nondecreasing -- that makes the perturbation convex, hence the potential
    exactly 1-convex by construction.  The perturbation is continuous and
    vanishes at the first breakpoint (at the origin when there are none); a
    perturbation with no breakpoints is a pure linear tilt, i.e. a mean
    shift with zero deficit.
    """
    b = np.asarray(breakpoints, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if b.ndim != 1 or s.ndim != 1 or s.size != b.size + 1:
        raise InvalidPotentialError("need len(slopes) == len(breakpoints) + 1")
    if b.size and not np.all(np.diff(b) > 0.0):
        raise InvalidPotentialError("breakpoints must be strictly increasing")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(s))):
        raise InvalidPotentialError("breakpoints and slopes must be finite")
    if np.any(np.diff(s) < -1e-15):
        raise InvalidPotentialError("slopes must be nondecreasing (convex perturbation)")
    # the perturbation on cell i is v[j] + s[i]*(x - b[j]), anchored at the
    # breakpoint j = max(i - 1, 0) with value v[j]
    offsets = np.full(s.size, LOG_SQRT_2PI)
    if b.size:
        v = np.concatenate([[0.0], np.cumsum(s[1:-1] * np.diff(b))])
        j = np.maximum(np.arange(s.size) - 1, 0)
        offsets += v[j] - s * b[j]
    return _cells(domain, np.concatenate([[-math.inf], b, [math.inf]]), s, offsets)


def tabulated_potential(xs: Sequence[float], values: Sequence[float]) -> PotentialSpec:
    """Potential from a table of ``(x, psi_hat(x))`` samples.

    The *convex part* ``t(x) = psi_hat(x) - x^2/2`` is interpolated linearly
    between the grid points, so the reconstructed potential is exactly
    1-convex provided the tabulated convex part has nondecreasing secant
    slopes; tables that fail :func:`check_one_convexity` are rejected.
    The domain is the open hull of the grid, and each grid interval is one
    cell, whose slope is the secant slope of ``t``.
    """
    x = np.asarray(xs, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 3 or v.shape != x.shape:
        raise InvalidPotentialError("need matching 1-d arrays with at least 3 samples")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(v)):
        raise InvalidPotentialError("table entries must be finite")
    if not np.all(np.diff(x) > 0.0):
        raise InvalidPotentialError("sample abscissae must be strictly increasing")
    t = v - 0.5 * x * x
    secants = np.diff(t) / np.diff(x)
    spec = PotentialSpec(Interval(float(x[0]), float(x[-1])), x.copy(), secants,
                         t[:-1] - secants * x[:-1])
    report = check_one_convexity(spec)
    if not report.passed:
        raise InvalidPotentialError(f"tabulated convex part is not convex: violation "
                                    f"{report.worst_violation:.3e} at x = {report.worst_edge!r}")
    return spec


def translate_potential(spec: PotentialSpec, s: float) -> PotentialSpec:
    """The potential of the pushforward under ``x -> x + s``.

    ``psi_hat(x - s)`` is again a cell potential: each cell moves by ``s``,
    its slope becomes ``beta - s`` and its offset ``gamma + s^2/2 - beta*s``.
    """
    s = float(s)
    if not math.isfinite(s):
        raise DomainError("translation must be finite")
    if s == 0.0:
        return spec
    return PotentialSpec(Interval(spec.domain.lo + s, spec.domain.hi + s), spec.edges + s,
                         spec.slopes - s, spec.offsets + (0.5 * s * s - spec.slopes * s))


def potential_from_config(config: Mapping[str, object]) -> PotentialSpec:
    """The potential that a potential file's dict describes: its
    ``family`` key names the constructor (``gaussian``,
    ``truncated_gaussian``, ``perturbed_gaussian`` or ``tabulated_convex``),
    the other keys are that constructor's arguments, and an optional
    ``shift`` translates the result.  A missing key, or a value that does
    not convert, raises ``DomainError``; the package's own errors pass
    through as raised."""
    cfg = dict(config)
    family = cfg.pop("family", None)
    try:
        shift = float(cfg.pop("shift", 0.0))
        if family == "gaussian":
            spec = gaussian_potential()
        elif family == "truncated_gaussian":
            if "D" in cfg:
                spec = truncated_gaussian_potential(float(cfg.pop("D")))
            else:
                spec = truncated_gaussian_potential(
                    lo=float(cfg.pop("lo")), hi=float(cfg.pop("hi"))
                )
        elif family == "perturbed_gaussian":
            dom = REAL_LINE
            if "lo" in cfg or "hi" in cfg:
                dom = Interval(float(cfg.pop("lo", -math.inf)), float(cfg.pop("hi", math.inf)))
            spec = perturbed_gaussian_potential(
                tuple(cfg.pop("breakpoints")), tuple(cfg.pop("slopes")), dom  # type: ignore[arg-type]
            )
        elif family == "tabulated_convex":
            spec = tabulated_potential(cfg.pop("xs"), cfg.pop("values"))  # type: ignore[arg-type]
        else:
            raise DomainError(f"unknown potential family: {family!r}")
    except KeyError as exc:
        raise DomainError(f"potential config missing key: {exc.args[0]!r}") from None
    except IsolabError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad value in potential config: {exc}") from None
    if cfg:
        raise DomainError(f"unknown keys in potential config: {sorted(cfg)}")
    return translate_potential(spec, shift) if shift else spec


def _cell_log_density(x, beta, log_amp):
    """``log(exp(log_amp) * phi(x + beta))``, elementwise: the one cell-density expression."""
    return log_amp - LOG_SQRT_2PI - 0.5 * (x + beta) ** 2


@dataclass(frozen=True)
class Measure1D:
    """A probability measure ``exp(-psi) dx`` on an open interval: one row of
    normalized cells, ``cells``, a :class:`MeasureStack` of one row that
    answers every read.  Made by :func:`normalize`, or by indexing a stack."""

    cells: "MeasureStack"

    @cached_property
    def domain(self) -> Interval:
        return Interval(self.cells.edges[0, 0], self.cells.edges[0, -1])

    @property
    def log_amp(self) -> np.ndarray:
        """Per cell, the log amplitude of the density ``exp(log_amp_i) * phi(x + beta_i)``."""
        return self.cells.log_amp[0]

    @cached_property
    def potential(self) -> PotentialSpec:
        """``psi`` from the cells: ``gamma_i = log sqrt(2*pi) + beta_i^2/2 - log_amp_i``."""
        beta = self.cells.beta[0]
        return PotentialSpec(self.domain, self.cells.edges[0], beta,
                             LOG_SQRT_2PI + 0.5 * beta**2 - self.log_amp)

    def density(self, x: ArrayLike) -> ArrayLike:
        """``exp(-psi)`` on the domain, 0 outside (and at the endpoints)."""

        def impl(a: np.ndarray) -> np.ndarray:
            k = cell_index(self.cells.edges[0], a)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                density = np.exp(_cell_log_density(a, self.cells.beta[0][k], self.log_amp[k]))
            return np.where((a > self.domain.lo) & (a < self.domain.hi), density, 0.0)

        return _vec(impl, x)

    def translate(self, s: float) -> "Measure1D":
        """Pushforward under ``x -> x + s``: the edges move by ``s``, the
        slopes by ``-s``, and the log amplitudes stay, bit for bit."""
        if not math.isfinite(s):
            raise DomainError("translation must be finite")
        return Measure1D(MeasureStack(self.cells.edges + s, self.cells.beta - s, self.cells.log_amp))

    def cdf_many(self, x: ArrayLike) -> ArrayLike:
        """Mass of ``(-inf, x]``; floats or arrays.  0 at the left end of the
        domain, 1 at the right end."""
        return _vec(self.cells.cdf, x)

    cdf = cdf_many

    def sf(self, x: ArrayLike) -> ArrayLike:
        """Mass of ``(x, inf)``; floats or arrays: the cdf of the mirrored
        measure at ``-x``, summed from the right end, so it keeps its
        relative precision where ``1 - cdf`` cancels."""
        return _vec(lambda a: self.cells._mirror.cdf(-a), x)

    def quantile(self, theta: ArrayLike) -> ArrayLike:
        """Generalized inverse of the cdf on (0, 1); floats or arrays: the
        lesser of the masses ``theta`` below and ``1 - theta`` above,
        inverted from its end, so both tails are resolved equally well."""

        def impl(t: np.ndarray) -> np.ndarray:
            if not ((t > 0.0) & (t < 1.0)).all():
                raise DomainError("quantile: masses must lie in (0, 1)")
            return self.cells.invert(np.minimum(t, 1.0 - t), t > 0.5)

        return _vec(impl, theta)

    def _profile(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``quantile(u)`` and ``density`` there, the same floats, from one
        inversion: the density in the cell each point was inverted in, read
        through :meth:`density` where the point is that cell's end (a domain
        end, which reads 0, or an edge that it reads in the next cell)."""
        q, reads = self.cells._invert(np.minimum(u, 1.0 - u), u > 0.5, None)
        J, on_end = np.empty_like(q), np.empty(q.shape, dtype=bool)
        with np.errstate(over="ignore"):
            for at, point, (lo, hi, beta, log_amp) in reads:
                J[at] = np.exp(_cell_log_density(point, beta, log_amp))
                on_end[at] = (point == lo) | (point == hi)
        if on_end.any():
            J[on_end] = self.density(q[on_end])
        return q, J

    @cached_property
    def _span(self) -> float:
        """The span of the quantiles at ``_MASS_EPS`` and ``1 - _MASS_EPS``: the minimizer's grid."""
        q_lo, q_hi = self.quantile(np.array([_MASS_EPS, 1.0 - _MASS_EPS])).tolist()
        return q_hi - q_lo


class MeasureStack(Sequence):
    """Probability measures sharing a cell count, as normalized cells with a
    row per measure: row ``i`` has density ``exp(log_amp[i, j]) * phi(x +
    beta[i, j])`` on ``(edges[i, j], edges[i, j+1])``.  Indexing a row makes
    its :class:`Measure1D`, a view of the row.  This is the one reader of
    normalized cells: :meth:`normalized` scales rows to mass 1, :meth:`cdf`
    and :attr:`knot_cdf` read masses, :meth:`invert` and
    :meth:`theta_point` points; a read takes the row of each point, or none
    for a stack of one row.  A stack reads its rows from its lower end, with
    their cumulative masses and each cell's inversion end built on first
    use; its upper ends are the lower ends of its mirror, ``x -> -x``."""

    def __init__(self, edges: np.ndarray, beta: np.ndarray, log_amp: np.ndarray) -> None:
        self.edges, self.beta, self.log_amp = edges, beta, log_amp

    @classmethod
    def normalized(cls, edges: np.ndarray, beta: np.ndarray, log_weight: np.ndarray) -> "MeasureStack":
        """The stack of the densities ``exp(log_weight[i, j]) * phi(x +
        beta[i, j])`` on the cells, each row scaled to mass 1; ``edges`` is
        one row per measure, or one row that every measure shares."""
        log_phi = cell_log_masses(edges, beta, 0.0)  # each cell's mass under phi(x + beta)
        log_amp = log_weight - np.logaddexp.reduce(log_weight + log_phi, axis=1, keepdims=True)
        stack = cls(np.broadcast_to(edges, log_amp.shape[:1] + edges.shape[-1:]), beta, log_amp)
        stack._mass = np.exp(log_amp + log_phi)  # as the property computes it, without a second pass
        return stack

    def __len__(self) -> int:
        return len(self.edges)

    def __getitem__(self, i: int) -> "Measure1D":
        i = range(len(self))[i]
        return Measure1D(MeasureStack(self.edges[i : i + 1], self.beta[i : i + 1], self.log_amp[i : i + 1]))

    @cached_property
    def _mass(self) -> np.ndarray:
        """Each cell's mass."""
        return np.exp(cell_log_masses(self.edges, self.beta, self.log_amp))

    @cached_property
    def _cum(self) -> np.ndarray:
        """Each row's mass below each of its edges."""
        return np.concatenate([np.zeros((len(self), 1)), np.cumsum(self._mass, axis=1)], 1)

    @cached_property
    def _flat(self) -> Tuple[np.ndarray, ...]:
        """Edges and cumulative masses, then slopes and log amplitudes,
        flattened: cell ``k`` of row ``r`` is entry ``r*cells + k`` of a
        cell field, and its lower edge entry ``r*cells + k + r``."""
        return self.edges.ravel(), self._cum.ravel(), self.beta.ravel(), self.log_amp.ravel()

    @cached_property
    def _ends(self) -> Tuple[np.ndarray, ...]:
        """Each cell's inversion end (:func:`_inversion_end`), flattened."""
        e, c = self.edges, self._cum
        return tuple(a.ravel() for a in _inversion_end(e[:, :-1], e[:, 1:], self.beta, c[:, :-1], c[:, 1:]))

    @cached_property
    def _mirror(self) -> "MeasureStack":
        """The rows under ``x -> -x``: their upper tails are its lower tails, as precise."""
        mirror = MeasureStack(-self.edges[:, ::-1], -self.beta[:, ::-1], self.log_amp[:, ::-1])
        mirror._mass = self._mass[:, ::-1]
        return mirror

    def _cell(self, ends: np.ndarray, x: np.ndarray, side: str, row) -> Tuple[np.ndarray, np.ndarray]:
        """The flat index of the cell of each ``x`` among ``ends``, a row of
        edge-aligned values per measure, and of its lower end."""
        if row is None:
            k = cell_index(ends[0], x, side=side)
            return k, k
        k = row * (ends.shape[1] - 1) + cell_index(ends, x, row, side)
        return k, k + row

    def cdf(self, x: np.ndarray, row=None) -> np.ndarray:
        """Mass of ``(-inf, x]``: the cells below ``x`` plus the ``Phi``
        difference inside the cell of ``x``."""
        k, e = self._cell(self.edges, x, "right", row)
        edges, cum, beta, log_amp = self._flat
        x, beta = np.minimum(np.maximum(x, edges[e]), edges[e + 1]), beta[k]
        part = np.exp(log_amp[k] + gaussian_log_mass(edges[e] + beta, x + beta))
        return np.minimum(cum[e] + part, 1.0)

    @property
    def knot_cdf(self) -> np.ndarray:
        """Each row's cdf at its interior edges, its cells' cumulative masses."""
        return self._cum[:, 1:-1]

    def _below(self, mass: np.ndarray, row) -> Tuple[np.ndarray, tuple]:
        """The point with ``mass`` below it, for ``0 < mass <= 1/2``, and its cell
        ``k``, ``cum[k] < mass <= cum[k+1]``, as ``(lo, hi, slope, log amplitude)``."""
        k, e = self._cell(self._cum, mass, "left", row)
        edges, _, beta, log_amp = self._flat
        cell = edges[e], edges[e + 1], beta[k], log_amp[k]
        return _cell_quantile(*cell, *(a[k] for a in self._ends), mass), cell

    def invert(self, tail: np.ndarray, upper: np.ndarray, row=None) -> np.ndarray:
        """The point with the mass ``tail`` (in ``(0, 1/2]``) below it, or
        above it where ``upper`` (bools shaped as ``tail``)."""
        return self._invert(tail, upper, row)[0]

    def _invert(self, tail: np.ndarray, upper: np.ndarray, row) -> Tuple[np.ndarray, list]:
        """:meth:`invert`'s points and, per end read, its mask, the points
        it inverted and their cells ``(lo, hi, slope, log amplitude)``: a
        mass below is inverted from this stack, a mass above from its
        mirror, built only when it is read."""
        x, reads = np.empty_like(tail), []
        for at, sign in ((~upper, 1.0), (upper, -1.0)):
            if np.count_nonzero(at):
                stack = self if sign > 0.0 else self._mirror
                point, cell = stack._below(tail[at], None if row is None else row[at])
                x[at] = sign * point
                reads.append((at, point, cell))
        return x, reads

    def theta_point(self, theta: float) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's ``theta``-quantile ``q`` and the density at ``q`` in the
        cell ``q`` was inverted in, the floats of :meth:`invert`."""
        stack, sign = (self._mirror, -1.0) if theta > 0.5 else (self, 1.0)
        n = len(self)
        point, (_, _, beta, log_amp) = stack._below(np.full(n, min(theta, 1.0 - theta)),
                                                   None if n == 1 else np.arange(n))
        with np.errstate(over="ignore"):  # root brackets probe far into cells' tails
            return sign * point, np.exp(_cell_log_density(point, beta, log_amp))


def stacked(m) -> MeasureStack:
    """A measure's own stack of one row, or a stack as it is; anything else,
    a list of measures among them, is a ``DomainError``."""
    if isinstance(m, Measure1D):
        return m.cells
    if isinstance(m, MeasureStack):
        return m
    raise DomainError(f"expected a Measure1D or a MeasureStack, got {type(m).__name__}")


def _inversion_end(lo, hi, beta, below, above):
    """The end that cells ``(lo, hi)`` of slope ``beta``, with masses ``below`` and
    ``above`` their ends, are inverted from: ``sign`` is -1 for a cell in the upper
    half of its Gaussian, where ``Phi(lo + beta)`` may round to 1, inverted from its
    upper end, and 1 otherwise; ``base`` is the mass below that end and ``start``
    the log of ``Phi(sign * (end + beta))``."""
    lo, hi = lo + beta, hi + beta
    upper = lo > 0.0
    sign = np.where(upper, -1.0, 1.0)
    return sign, gaussian_log_cdf(sign * np.where(upper, hi, lo)), np.where(upper, above, below)


def _cell_quantile(lo, hi, beta, log_amp, sign, start, base, mass):
    """The point ``x`` with ``mass`` below it inside the cell ``(lo, hi)`` of
    a probability measure of density ``exp(log_amp) * phi(x + beta)`` there,
    elementwise, read from the end of the cell (of ``sign``, ``start`` and
    ``base`` as :func:`_inversion_end` gives them): ``Phi(sign * (x + beta)) =
    exp(start) + sign * (mass - base) / exp(log_amp)``, a sum of nonnegative
    terms, inverted in log space.  From the upper end ``Phi(-(x + beta))``
    keeps the digits that ``Phi(x + beta)``, near 1, would round away."""
    with np.errstate(divide="ignore"):  # all the mass below hi: x = hi
        log_p = np.logaddexp(start, np.log(sign * (mass - base)) - log_amp)
    return np.minimum(np.maximum(sign * gaussian_quantile_log(np.minimum(log_p, 0.0)) - beta, lo), hi)


def normalize(spec: PotentialSpec) -> Measure1D:
    """Normalize ``exp(-psi_hat)``, ``sqrt(2*pi) * exp(beta^2/2 - gamma) *
    phi(x + beta)`` on a cell, to a probability measure, one row of
    :meth:`MeasureStack.normalized`.  Raises ``NonIntegrableError`` when the
    mass is not a positive finite number."""
    log_weight = LOG_SQRT_2PI + 0.5 * spec.slopes**2 - spec.offsets
    cells = MeasureStack.normalized(spec.edges[None], spec.slopes[None], log_weight[None])
    if not np.isfinite(cells.log_amp).all():
        raise NonIntegrableError("the mass of exp(-psi_hat) is not a positive finite number")
    return Measure1D(cells)


def gaussian_measure() -> Measure1D:
    """The standard Gaussian as a :class:`Measure1D` (normalized honestly)."""
    return normalize(gaussian_potential())


# -- convexity ----------------------------------------------------------------


# the largest slope drop, and the largest jump of psi_hat - x^2/2 relative to
# 1 + |its value|, that check_one_convexity lets pass at an interior edge
_CONVEXITY_TOL = 1e-9


@dataclass(frozen=True)
class ConvexityReport:
    """``worst_violation`` is the largest slope drop or relative jump over the
    interior edges (0 when there are none), found at ``worst_edge`` (None
    when there are none); the check passes when it is at most 1e-9."""

    passed: bool
    worst_violation: float
    worst_edge: Optional[float]


def check_one_convexity(spec: PotentialSpec) -> ConvexityReport:
    """Exact test of convexity of ``psi_hat(x) - x^2/2`` from the cell arrays.

    On cell ``i`` the function is the line ``slopes[i]*x + offsets[i]``, so it
    is convex on the domain exactly when, at every interior edge, it does
    not jump and its slope does not drop.  Both are read at the edges: the
    slope drop ``slopes[i-1] - slopes[i]``, and the jump between the two
    lines divided by ``1 + |value|``, must each be at most 1e-9.
    """
    e = spec.edges[1:-1]
    right = spec.slopes[1:] * e + spec.offsets[1:]
    jump = np.abs(right - (spec.slopes[:-1] * e + spec.offsets[:-1])) / (1.0 + np.abs(right))
    violation = np.maximum(spec.slopes[:-1] - spec.slopes[1:], jump)
    if not violation.size:
        return ConvexityReport(passed=True, worst_violation=0.0, worst_edge=None)
    w = int(np.argmax(violation))  # a NaN comes first and fails
    worst = float(violation[w])
    return ConvexityReport(passed=worst <= _CONVEXITY_TOL, worst_violation=worst,
                           worst_edge=float(e[w]))


# -- perimeter ----------------------------------------------------------------


def gaussian_profile(theta: float) -> float:
    """Gaussian isoperimetric profile ``exp(-a_theta^2/2)/sqrt(2*pi)``
    with ``Phi(a_theta) = theta``; symmetric about ``theta = 1/2``."""
    return float(gaussian_pdf(gaussian_quantile(theta)))


@dataclass(frozen=True)
class BoundarySet:
    """A finite union of disjoint open sub-intervals of the domain.

    ``boundary_points`` are the piece endpoints interior to the domain --
    the only ones that carry boundary measure.  ``total_measure`` is the
    measure of the union under the owning :class:`Measure1D`.
    """

    pieces: Tuple[Interval, ...]
    boundary_points: Tuple[float, ...]
    total_measure: float


def boundary_set(m: Measure1D, pieces: Sequence[Interval]) -> BoundarySet:
    """Validate, clip, and measure a candidate union of open intervals.

    Pieces are clipped to the domain; each must intersect it.  Pieces must
    be disjoint with nonempty gaps between them (touching pieces should be
    handed in merged -- a shared endpoint would fabricate boundary where
    the union has none).  A piece is measured as ``cdf(hi) - cdf(lo)``, or
    as ``sf(lo) - sf(hi)`` when it lies in the upper half, so upper pieces
    keep the relative precision of lower ones.
    """
    clipped = []
    for p in pieces:
        q = p.intersect(m.domain)
        if q is None:
            raise DomainError(f"piece {p} does not intersect the domain {m.domain}")
        clipped.append(q)
    clipped.sort(key=lambda q: q.lo)
    for left, right in zip(clipped, clipped[1:]):
        if not left.hi < right.lo:
            raise DomainError(
                f"pieces overlap or touch: ({left.lo}, {left.hi}) and ({right.lo}, {right.hi})"
            )
    return _measured(m, clipped)


def _measured(m: Measure1D, pieces: Sequence[Interval]) -> BoundarySet:
    """The :class:`BoundarySet` of ``pieces``, already inside the domain,
    sorted and apart.  A piece's mass is ``cdf(hi) - cdf(lo)``, or ``sf(lo)
    - sf(hi)`` where ``cdf(lo) >= 1/2``, since there ``1 - cdf`` would
    cancel; ``sf`` is read only there."""
    ends = np.array([[q.lo for q in pieces], [q.hi for q in pieces]])
    below = m.cdf_many(ends)
    masses, upper = below[1] - below[0], below[0] >= 0.5
    if upper.any():
        above = m.sf(ends[:, upper])
        masses[upper] = above[0] - above[1]
    inside = (ends > m.domain.lo) & (ends < m.domain.hi)
    return BoundarySet(pieces=tuple(pieces), boundary_points=tuple(sorted(ends[inside].tolist())),
                       total_measure=float(sum(masses.tolist())))


def perimeter(m: Measure1D, bset: BoundarySet) -> float:
    """Sum of ``exp(-psi)`` over the interior boundary points of ``bset``."""
    return float(sum(m.density(np.array(bset.boundary_points)).tolist()))


# -- brute-force minimizer ----------------------------------------------------


@dataclass(frozen=True)
class MinimizerResult:
    boundary_set: BoundarySet
    perimeter: float
    is_half_line: bool
    candidates_checked: int


_MASS_EPS = 1e-9  # tail clip for candidate endpoint masses
_MASS_GAP = 1e-6  # disjointness margin between pieces, in mass
_GRID_STEP = 0.01  # x-pitch of the single-interval mass grid in the bulk
_BOUND_BLOCK = 32  # candidates per bounded block of the single-interval and complement families
_BOUND_SLACK = 1e-9  # relative room a bound leaves for the rounding of the sums it bounds
_EDGE_ROOM = 1e-12  # widening of each cell edge's mass, so that rounding drops no edge from a range
# the two-interval family's first endpoint masses, which depend on neither theta nor the measure
_PAIR_BASE = np.linspace(_MASS_EPS, 1.0 - _MASS_EPS, 64)
_PAIR_BASE.setflags(write=False)


def _block_ends(n: int) -> np.ndarray:
    """The ends of the blocks of a column of ``n`` candidates: block ``j``
    holds candidates ``j*B`` to ``j*B + B - 1``, ``B = _BOUND_BLOCK``, and
    lies between those at ``ends[j]`` and ``ends[j + 1]``."""
    if not n:
        return np.zeros(0, dtype=int)
    return np.minimum(np.arange(0, n + _BOUND_BLOCK, _BOUND_BLOCK), n - 1)


def _pair_floor(tu: np.ndarray, j_ends: np.ndarray, edge_mass: np.ndarray,
                edge_density: np.ndarray) -> np.ndarray:
    """Per candidate ``(t, u)`` of the increasing mass columns ``tu`` (shape
    ``(2, n)``), a lower bound of its perimeter ``J(t) + J(u)`` shared by its
    block: ``J = density(quantile(.))`` is read at the block ends
    (``j_ends``, at ``tu[:, _block_ends(n)]``), and the interior cell edges
    are given by their masses and the lesser of their two one-sided
    densities.  On a cell the density is one Gaussian bump, which has no
    interior minimum, and ``quantile`` is monotone, so over a mass range
    ``J`` is at least the least of its values at the range's ends and at the
    edges whose mass (widened by ``_EDGE_ROOM``) lies in it."""
    ends = _block_ends(tu.shape[1])
    lo, hi = tu[:, ends[:-1], None], tu[:, ends[1:], None]
    inner = (edge_mass >= lo - _EDGE_ROOM) & (edge_mass <= hi + _EDGE_ROOM)
    floor = np.minimum(np.minimum(j_ends[:, :-1], j_ends[:, 1:]),
                       np.where(inner, edge_density, math.inf).min(axis=2, initial=math.inf))
    return (floor[0] + floor[1])[np.arange(tu.shape[1]) // _BOUND_BLOCK]


def brute_force_minimizer(m: Measure1D, theta: float) -> MinimizerResult:
    """Exhaustive search for the least-perimeter set of measure ``theta``.

    Candidates are parametrized in *mass coordinates*, so each one has
    measure ``theta`` by construction (up to quantile accuracy) and its
    perimeter is a sum of the profile ``J(t) = density(quantile(t))`` at its
    endpoint masses.  In search order: the exact half-lines at ``q(theta)``
    / ``q(1 - theta)``; single intervals ``(q(t), q(t + theta))`` swept over
    ``t``; their complements; then, for each split ``theta = s + (theta -
    s)``, a left half-line plus an interval, an interval plus a right
    half-line, and two bounded intervals, on coarser mass grids.  Sets
    touching a finite domain endpoint are covered by the half-line-bearing
    families (their touching endpoint carries no perimeter).  The
    single-interval mass grid matches an x-pitch of roughly ``_GRID_STEP``
    through the bulk of the measure.

    Once per measure, the quantiles at ``_MASS_EPS`` and ``1 - _MASS_EPS``
    set the single-interval grid (``Measure1D._span``).  A call inverts
    masses twice, each point's ``J`` read in the cell it was inverted in
    (``Measure1D._profile``), and only where a candidate can still beat the
    half-lines (masses outside (0, 1) read ``+inf``): first at the
    half-lines, the endpoints of the coarse families and the block ends of
    the single-interval and complement sweeps, then for the candidates left
    once a block of ``_BOUND_BLOCK`` of those is skipped where its lower
    bound (:func:`_pair_floor`) exceeds the lesser half-line perimeter by
    more than the relative ``_BOUND_SLACK``.  A split's two-interval block
    is formed only when a bound on its least perimeter, the least first
    interval plus the best disjoint second one, reaches that threshold.
    Each family's perimeters are broadcast sums of ``J`` columns, left to
    right, with ``+inf`` where two intervals overlap or run out of mass, or
    where a block was skipped; the first minimum in search order wins.  It
    then competes against the exact half-lines; ties within 1e-12 go to the
    half-line.  The winner's endpoints and perimeter, and the half-lines',
    are read from the ``J`` reads, and only the set returned is measured (a
    half-line's piece, built by the search, is not validated again).

    The result is that of the search over every candidate: each ``J`` read
    is the same value, summed in the same order, and a skipped candidate's
    perimeter lies above a half-line's, which comes first in search order,
    so it is never the first minimum.  The bound holds for every potential,
    so under 1-convexity, where Bobkov's theorem says the half-line always
    wins, this function checks that rather than assuming it.
    """
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise DomainError(f"theta={theta!r} outside (0, 1)")

    dom = m.domain
    eps, gap, inf = _MASS_EPS, _MASS_GAP, math.inf
    k_single = int(min(2000.0, max(160.0, math.ceil(m._span / _GRID_STEP) + 1.0)))
    k_pair, k_split = _PAIR_BASE.size, 11

    # endpoint masses of the families tagged 2..6 below, one row per split;
    # a family without room has no rows (2, 3) or NaN rows (4, 5), which
    # read J = +inf
    t2 = np.linspace(eps, 1.0 - theta - eps, k_single if 1.0 - theta - eps > eps else 0)
    t3 = np.linspace(eps, theta - eps, k_single if theta - eps > eps else 0)
    s = np.linspace(theta / (k_split + 1.0), theta * k_split / (k_split + 1.0), k_split)
    rest = theta - s
    lo4, hi4 = s + gap, 1.0 - rest - eps
    ok4 = hi4 > lo4
    # the rows np.linspace(lo4, hi4, k_pair, axis=1) makes, bit for bit
    t4 = np.arange(k_pair) * ((hi4 - lo4) / (k_pair - 1))[:, None] + lo4[:, None]
    t4[:, -1] = hi4
    t4[~ok4] = np.nan
    ok5 = 1.0 - theta - gap > eps
    t5 = np.linspace(eps, 1.0 - theta - gap, k_pair) if ok5 else np.full(k_pair, np.nan)
    base = _PAIR_BASE
    b1, b2 = base + s[:, None], base + rest[:, None]
    c5 = 1.0 - rest
    u4, u5 = t4 + rest[:, None], t5 + s[:, None]
    # the long families 2 and 3 as (2, n) columns (t, u), bounded in blocks
    pairs = (np.stack([t2, t2 + theta]), np.stack([t3, t3 + (1.0 - theta)]))

    def read(cols: Sequence[np.ndarray]) -> Tuple[list, list]:
        """``quantile`` and ``J`` at the masses of ``cols``, in one
        inversion, split back into the columns' shapes; a mass outside (0,
        1), or NaN, reads NaN and ``+inf``."""
        u = np.concatenate([c.ravel() for c in cols])
        inside = (u > 0.0) & (u < 1.0)
        q, J = np.full(u.size, np.nan), np.full(u.size, inf)
        if inside.any():
            q[inside], J[inside] = m._profile(u[inside])
        stops = np.cumsum([c.size for c in cols]).tolist()
        spans = list(zip([0] + stops, stops, (c.shape for c in cols)))
        return ([q[a:b].reshape(shape) for a, b, shape in spans],
                [J[a:b].reshape(shape) for a, b, shape in spans])

    Q, J = read((np.array([theta, 1.0 - theta]), s, t4, u4, t5, u5, c5, base, b1, b2,
                 *(p[:, _block_ends(p.shape[1])] for p in pairs)))
    Qh, Qs, Q4, Qu4, Q5, Qu5, Qc5, Qb, Qb1, Qb2 = Q[:10]
    Jh, Js, J4, Ju4, J5, Ju5, Jc5, Jb, Jb1, Jb2 = J[:10]
    bar = float(np.min(Jh)) / (1.0 - _BOUND_SLACK)  # a perimeter above it cannot win

    # each interior cell edge's mass, and the lesser of its one-sided densities
    x, beta, log_amp = m.cells.edges[0, 1:-1], m.cells.beta[0], m.log_amp
    edge_mass = m.cells.knot_cdf[0]
    edge_density = np.exp(np.minimum(_cell_log_density(x, beta[:-1], log_amp[:-1]),
                                     _cell_log_density(x, beta[1:], log_amp[1:])))
    # the candidates of a skipped block read as masses NaN: q = NaN, J = +inf
    Q, J = read([np.where(_pair_floor(p, j_ends, edge_mass, edge_density) <= bar, p, np.nan)
                 for p, j_ends in zip(pairs, J[10:])])
    (Q2, Qu2), (Q3, Qu3) = Q
    (J2, Ju2), (J3, Ju3) = J

    P2, P3 = J2 + Ju2, J3 + Ju3
    P4 = Js[:, None] + J4 + Ju4
    P5 = J5 + Ju5 + Jc5[:, None]
    # two intervals (q(base[a]), q(b1[i, a])) and (q(base[b]), q(b2[i, b])):
    # disjoint for b >= first[i, a], and b2 in range on a prefix of each
    # row, so split i has sum_a max(0, nvalid[i] - first[i, a]) candidates,
    # and its least perimeter is at least the least over a of the first
    # interval plus the best second one from first[i, a] on
    valid = b2 <= 1.0 - eps
    first = base.searchsorted(b1 + gap)
    second = np.minimum.accumulate(np.where(valid, Jb + Jb2, inf)[:, ::-1], axis=1)[:, ::-1]
    second = np.concatenate([second, np.full((k_split, 1), inf)], 1)
    low6 = np.min(Jb + Jb1 + np.take_along_axis(second, first, 1), axis=1)
    # one block per split, and a winner found from the blocks' minima, keep
    # every temporary under glibc's 128 KB mmap threshold: larger ones are
    # mapped, and their pages faulted in, afresh on every call
    P6 = [np.where((b1[i, :, None] + gap <= base) & valid[i],
                   Jb[:, None] + Jb1[i, :, None] + Jb + Jb2[i], inf)
          if low6[i] <= bar else np.full((1, 1), inf)  # skipped: never the least block
          for i in range(k_split)]
    n6 = int(np.maximum(valid.sum(axis=1)[:, None] - first, 0).sum())
    checked = 2 + t2.size + t3.size + k_pair * int(ok4.sum()) + k_split * k_pair * ok5 + n6

    # the least perimeter of each block in search order: the exact
    # half-lines (tags 0 and 1), families 2 and 3, then per split 4, 5, 6
    lows = np.concatenate([Jh, [np.min(P2, initial=inf), np.min(P3, initial=inf)],
                           np.stack([P4.min(axis=1), P5.min(axis=1), [p.min() for p in P6]], 1).ravel()])
    win = int(np.argmin(lows))  # the first block holding the least perimeter

    def pieces_for(tag: int, inner: Sequence[float]) -> list:
        """Family ``tag``'s pieces with endpoints ``inner``; half-lines end at the domain's."""
        points = [dom.lo] * (tag in (0, 3, 4)) + list(inner) + [dom.hi] * (tag in (1, 3, 5))
        return [Interval(a, b) for a, b in zip(points[::2], points[1::2])]

    half_tag = 0 if Jh[0] <= Jh[1] else 1
    half_peri = float(Jh[half_tag])
    if half_peri <= float(lows[win]) + 1e-12:  # so does a half-line block that wins
        return MinimizerResult(_measured(m, pieces_for(half_tag, [float(Qh[half_tag])])),
                               half_peri, True, checked)
    # the winning block's perimeters and endpoints broadcastable to them
    i, family = divmod(win - 4, 3)
    win_tag, p, ends = ((2, P2, (Q2, Qu2)), (3, P3, (Q3, Qu3)))[win - 2] if win < 4 else (
        (4, P4[i], (Qs[i], Q4[i], Qu4[i])), (5, P5[i], (Q5, Qu5[i], Qc5[i])),
        (6, P6[i], (Qb[:, None], Qb1[i, :, None], Qb, Qb2[i])))[family]
    at = np.unravel_index(int(np.argmin(p)), p.shape)
    best_q = [float(np.broadcast_to(e, p.shape)[at]) for e in ends]
    return MinimizerResult(boundary_set(m, pieces_for(win_tag, best_q)), float(p[at]), False, checked)
