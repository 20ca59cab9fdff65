"""Empirical convergence orders: deficit sweeps and log-log power-law fits.

A *family* maps a requested deficit ``delta`` to a centered measure
realizing it; :func:`sweep` evaluates one metric per grid point and
:func:`fit_exponent` least-squares fits ``log value = alpha * log delta +
c``.  The theory's orders to compare against are ``1/p`` for the L^p
distance (sharp on the truncated-Gaussian family) and ``1/2`` for W_2
(possibly with logarithmic corrections -- the fit is reported, optimality is
not asserted).  The needle-mixture L^1 and its order ``(1-eps)/(9-3eps)``
are the ``needles`` module's, fitted by the same :func:`fit_exponent`.

Default grid: 9 log-spaced points from 1e-2 down to 1e-6, inside the
"sufficiently small deficit" regime where the stability estimates apply
while quadratures stay well-conditioned.

A family takes the whole grid at once: its parameters are solved from the
deltas by one elementwise bracketed root solve, and a grid point whose solve
fails is skipped and logged, never silently filled.  A family hands the
metric its points' cells as one :class:`MeasureStack`, and the metric reads
them all in one call.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Dict, Optional, Protocol, Sequence, Tuple

import numpy as np

from .errors import BracketError, DomainError
from .measure1d import (
    Measure1D,
    MeasureStack,
    PotentialSpec,
    gaussian_profile,
    normalize,
    perturbed_gaussian_potential,
)
from .numerics import find_root
from .stability import (
    deficit,
    lp_distance,
    relative_entropy,
    solve_truncation_for_deficit,
    w1_to_gaussian,
    w2_to_gaussian,
)

__all__ = [
    "Metric",
    "SweepResult",
    "DEFAULT_DELTA_GRID",
    "sweep",
    "fit_exponent",
    "Example23SweepFamily",
    "PerturbedSweepFamily",
    "GaussianSweepFamily",
]

logger = logging.getLogger("isolab.rates")

DEFAULT_DELTA_GRID: Tuple[float, ...] = tuple(
    float(d) for d in np.logspace(-2, -6, 9)
)

# families are allowed to miss the requested deficit by this relative amount
_SOLVE_RTOL = 0.05

# values at or below this are treated as exact zeros when fitting: quadrature
# reports ~1e-16 residuals even for identically-zero distances
_FIT_FLOOR = 1e-12


@dataclass(frozen=True)
class Metric:
    """Sweep metric selector: ``lp`` (with its ``p``), ``w1``, ``w2`` or
    ``entropy``."""

    kind: str
    p: Optional[float] = None

    _KINDS = ("lp", "w1", "w2", "entropy")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown metric {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "lp":
            if self.p is None:
                raise DomainError("metric lp needs p")
            if not (1.0 <= self.p <= 64.0):
                raise DomainError(f"metric lp needs 1 <= p <= 64, got {self.p!r}")
        elif self.p is not None:
            raise DomainError(f"metric {self.kind!r} takes no p")

    @classmethod
    def parse(cls, text: str) -> "Metric":
        """Parse ``"lp:2"`` / ``"w2"`` style metric strings."""
        if ":" in text:
            kind, _, rest = text.partition(":")
            return cls(kind=kind.strip(), p=float(rest))
        return cls(kind=text.strip())

    @property
    def label(self) -> str:
        return f"lp(p={self.p:g})" if self.kind == "lp" else self.kind


@dataclass(frozen=True)
class SweepResult:
    """Grid of (delta, value) points with the fitted power law.

    Deltas are strictly decreasing toward 0 and values nonnegative; the fit
    fields are :func:`fit_exponent`'s, NaN when it skipped the fit.
    """

    points: Tuple[Tuple[float, float], ...]
    fitted_exponent: float
    fitted_log_constant: float
    r_squared: float
    metric_label: str = ""
    family_name: str = ""
    skipped: Tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        deltas = [d for d, _ in self.points]
        if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
            raise DomainError("sweep deltas must be strictly decreasing")
        if any(d <= 0.0 for d in deltas):
            raise DomainError("sweep deltas must be positive")
        if any(v < 0.0 for _, v in self.points):
            raise DomainError("sweep values must be nonnegative")

    @property
    def fit_available(self) -> bool:
        return not math.isnan(self.fitted_exponent)

    def to_dict(self) -> dict:
        return {
            "family": self.family_name,
            "metric": self.metric_label,
            "points": [[d, v] for d, v in self.points],
            "alpha": self.fitted_exponent,
            "c": self.fitted_log_constant,
            "r_squared": self.r_squared,
            "skipped_deltas": list(self.skipped),
        }


class SweepFamily(Protocol):
    """A family's answer for a deficit grid is the pair ``(stack, failed)``:
    ``stack`` holds the measures of the realized grid points, a row each in
    grid order, and ``failed`` maps every other grid index to its
    ``BracketError``."""

    name: str

    def at_deficit(self, deltas: Sequence[float], theta: float) -> Tuple[MeasureStack, Dict[int, BracketError]]: ...


def fit_exponent(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    """Least-squares power-law fit ``value ~= e^c * delta^alpha``: ``(alpha,
    c, r^2)``.

    This is the one fit rule.  Only points with value > ``_FIT_FLOOR``
    participate (log-log coordinates); with fewer than 3 of them the fit is
    skipped and all three fields are NaN.  The floor keeps quadrature noise
    out of the fit: a degenerate family whose distances are exact zeros
    still reports values of order 1e-16, and log-regressing on those would
    produce a meaningless exponent.  Exact on noiseless power-law data to
    ~1e-12, invariant under value rescaling (only ``c`` moves) and under
    grid-order reversal.
    """
    positive = [(d, v) for d, v in points if v > _FIT_FLOOR]
    if len(positive) < 3:
        return math.nan, math.nan, math.nan
    ln_d = np.log([d for d, _ in positive])
    ln_v = np.log([v for _, v in positive])
    slope, intercept = np.polyfit(ln_d, ln_v, 1)
    pred = slope * ln_d + intercept
    ss_res = float(np.sum((ln_v - pred) ** 2))
    ss_tot = float(np.sum((ln_v - ln_v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def sweep(
    family: SweepFamily,
    theta: float,
    metric: Metric,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
) -> SweepResult:
    """Evaluate ``metric`` on ``family`` across a deficit grid and fit.

    One point per grid entry, in descending order of delta; the family
    realizes the whole grid in one call, and the metric takes every realized
    point in one call.  A point with a ``BracketError`` instead of a
    realization is skipped with a log message; the surviving
    points are fitted by :func:`fit_exponent`, so the fit fields are NaN
    when fewer than 3 values clear its noise floor.
    """
    grid = sorted({float(d) for d in delta_grid}, reverse=True)
    if not grid:
        raise DomainError("delta grid is empty")
    if any(not (d > 0.0 and math.isfinite(d)) for d in grid):
        raise DomainError("delta grid entries must be positive and finite")

    stack, failed = family.at_deficit(grid, theta)
    measure_metric = {"w1": w1_to_gaussian, "w2": w2_to_gaussian, "entropy": relative_entropy,
                      "lp": lambda stack: lp_distance(stack, float(metric.p))}[metric.kind]
    values = iter(measure_metric(stack).tolist() if len(stack) else [])
    points, skipped = [], []
    for i, d in enumerate(grid):
        if i in failed:
            logger.warning("skipping delta=%.3e for family %s: %s", d, family.name, failed[i])
            skipped.append(d)
        else:
            points.append((d, next(values)))
    alpha, c, r2 = fit_exponent(points)
    return SweepResult(
        points=tuple(points),
        fitted_exponent=alpha,
        fitted_log_constant=c,
        r_squared=r2,
        metric_label=metric.label,
        family_name=family.name,
        skipped=tuple(skipped),
    )


# -- built-in families --------------------------------------------------------


def _centered_at(stack: MeasureStack, solved: np.ndarray, deltas: np.ndarray,
                 theta: float) -> Tuple[MeasureStack, Dict[int, BracketError]]:
    """The grid points ``solved`` as the rows of ``stack``, each checked and
    centered at ``theta``, and a ``BracketError`` for every other point.

    Each row is centered by the shift of its :func:`deficit` report, which
    moves its ``theta``-point to ``a_theta``: its edges move by the shift,
    its slopes by minus it, and its log amplitudes stay.  The centered rows
    are checked by forward reads: each must hold the mass ``theta`` below
    ``a_theta`` to 1e-12, and its deficit must be the requested one to 5%.
    So a fault of the inversion that gave the ``theta``-point (and the
    perturbed solver's deficits) cannot pass."""
    failed = {i: BracketError(f"could not bracket deficit {d:.3e}")
              for i, d in enumerate(deltas) if not solved[i]}
    found = np.flatnonzero(solved)
    rep = deficit(stack, theta)
    s = rep.shift[:, None]
    centered = MeasureStack(stack.edges + s, stack.beta - s, stack.log_amp)
    held = centered.cdf(np.full(len(stack), rep.a_theta), np.arange(len(stack)))
    for i, h, got, want in zip(found.tolist(), held.tolist(), rep.deficit.tolist(), deltas[found].tolist()):
        if abs(h - theta) > 1e-12:
            failed[i] = BracketError(f"solved theta-point holds mass {h:.6e}, not {theta:.6e}")
        elif abs(got - want) > _SOLVE_RTOL * want:
            failed[i] = BracketError(f"solved deficit {got:.6e} misses requested {want:.6e} by >5%")
    keep = np.array([i not in failed for i in found.tolist()], dtype=bool)
    return MeasureStack(centered.edges[keep], centered.beta[keep], centered.log_amp[keep]), failed


@dataclass(frozen=True)
class Example23SweepFamily:
    """Truncated Gaussians ``(-D, D)`` parametrized by the deficit."""

    name: ClassVar[str] = "example23"

    def at_deficit(self, deltas: Sequence[float], theta: float) -> Tuple[MeasureStack, Dict[int, BracketError]]:
        deltas = np.asarray(deltas, dtype=float)
        radii = solve_truncation_for_deficit(deltas, theta)
        solved = ~np.isnan(radii)
        D = radii[solved][:, None]  # one cell, of density phi / gamma((-D, D))
        stack = MeasureStack.normalized(np.hstack([-D, D]), np.zeros_like(D), np.zeros_like(D))
        return _centered_at(stack, solved, deltas, theta)


@dataclass(frozen=True)
class GaussianSweepFamily:
    """Degenerate family: the standard Gaussian at every delta (deficit 0).
    All metrics vanish, so sweeps over it exercise the fit-skipped path."""

    name: ClassVar[str] = "gaussian"

    def at_deficit(self, deltas: Sequence[float], theta: float) -> Tuple[MeasureStack, Dict[int, BracketError]]:
        n = len(deltas)
        stack = MeasureStack(np.tile([-math.inf, math.inf], (n, 1)), np.zeros((n, 1)), np.zeros((n, 1)))
        return stack, {}


@dataclass(frozen=True)
class PerturbedSweepFamily:
    """Convex piecewise-linear perturbations scaled to a target deficit.

    The unit perturbation (breakpoints + nondecreasing slopes) is fixed at
    construction, typically drawn from a seed; ``at_deficit`` root-solves
    the scale factor of every grid point at once, on brackets found by
    doubling from 0.
    """

    breakpoints: Tuple[float, ...]
    unit_slopes: Tuple[float, ...]
    name: str = "perturbed_gaussian"

    @classmethod
    def seeded(cls, seed: int) -> "PerturbedSweepFamily":
        rng = np.random.default_rng(int(seed))
        k = int(rng.integers(1, 4))
        bkpts = np.sort(rng.uniform(-1.5, 1.5, size=k))
        increments = rng.uniform(0.2, 1.0, size=k)
        slopes = np.concatenate([[0.0], np.cumsum(increments)])
        slopes = slopes - 0.5 * slopes[-1]  # balance the tilt
        return cls(
            breakpoints=tuple(float(b) for b in bkpts),
            unit_slopes=tuple(float(s) for s in slopes),
            name=f"perturbed_gaussian[seed={int(seed)}]",
        )

    def measure_at(self, lam: float) -> Measure1D:
        spec = perturbed_gaussian_potential(
            self.breakpoints, tuple(lam * s for s in self.unit_slopes)
        )
        return normalize(spec)

    @cached_property
    def _unit(self) -> PotentialSpec:
        """The potential of scale 1, whose cells :meth:`_cells_at` scales."""
        return perturbed_gaussian_potential(self.breakpoints, self.unit_slopes)

    def _cells_at(self, lams: np.ndarray) -> MeasureStack:
        """The normalized cells of ``measure_at(lam)`` for a 1-d array of
        scales: the edges do not depend on the scale, cell ``i`` has slope
        ``lam * s_i`` and offset ``lam`` times the unit one's up to a
        constant, so its log amplitude is ``(lam * s_i)^2/2 - lam *
        offset_i`` up to a constant, which normalizing removes."""
        lam = lams[:, None]
        beta = lam * self._unit.slopes
        return MeasureStack.normalized(self._unit.edges, beta, 0.5 * beta**2 - lam * self._unit.offsets)

    def deficit_at(self, lams: Sequence[float], theta: float) -> np.ndarray:
        """The deficits of ``measure_at(lam)`` for a 1-d array of scales,
        from one :meth:`MeasureStack.theta_point` read of their cells."""
        cells = self._cells_at(np.asarray(lams, dtype=float))
        return cells.theta_point(theta)[1] - gaussian_profile(theta)

    def at_deficit(self, deltas: Sequence[float], theta: float) -> Tuple[MeasureStack, Dict[int, BracketError]]:
        deltas = np.asarray(deltas, dtype=float)
        # a target at or below the deficit read at scale 0, the Gaussian's
        # rounding noise, has no bracket on (0, hi): that point fails
        reachable = deltas > self.deficit_at([0.0], theta)[0]
        # double each upper scale from 0.25 until it brackets, 16 times at most:
        # further out, deficit_at reads rounding noise that may exceed any
        # target (7.9e13 at 0.25 * 2^32 for seed 3, theta 0.5)
        hi = np.full(deltas.shape, 0.25)
        short = reachable.copy()
        for _ in range(16):
            short[short] = ~(self.deficit_at(hi[short], theta) >= deltas[short])
            if not np.any(short):
                break
            hi[short] *= 2.0
        solved = reachable & ~short
        target = deltas[solved]
        lams = find_root(lambda t: self.deficit_at(t, theta) - target,
                         (np.zeros(target.size), hi[solved]), tol=1e-12)
        return _centered_at(self._cells_at(lams), solved, deltas, theta)

