"""Empirical convergence orders: deficit sweeps and log-log power-law fits.

A *family* maps a requested deficit ``delta`` to a centered measure (or a
needle ensemble) realizing it; :func:`sweep` evaluates one metric per grid
point and :func:`fit_exponent` least-squares fits ``log value = alpha * log
delta + c``.  The theory's orders to compare against are ``1/p`` for the
L^p distance (sharp on the truncated-Gaussian family), ``1/2`` for W_2
(possibly with logarithmic corrections -- the fit is reported, optimality is
not asserted), and ``(1-eps)/(9-3eps)`` for the needle-mixture L^1.

Default grid: 9 log-spaced points from 1e-2 down to 1e-6, inside the
"sufficiently small deficit" regime where the stability estimates apply
while quadratures stay well-conditioned.

A family takes the whole grid at once: its parameters are solved from the
deltas by one elementwise bracketed root solve, and a grid point whose solve
fails is skipped and logged, never silently filled.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from .errors import BracketError, DomainError
from .measure1d import (
    Measure1D,
    cell_log_masses,
    gaussian_measure,
    gaussian_profile,
    normalize,
    perturbed_gaussian_potential,
    profile_point,
    truncated_gaussian_potential,
)
from .needles import (
    EnsembleConfig,
    NeedleEnsemble,
    aggregate_l1,
    generate_ensemble,
    rate_exponent,
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
    "NeedleSweepFamily",
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
    """Sweep metric selector: ``lp`` (with its ``p``), ``w1``, ``w2``,
    ``entropy``, or ``mixture_l1`` (ensembles only)."""

    kind: str
    p: Optional[float] = None

    _KINDS = ("lp", "w1", "w2", "entropy", "mixture_l1")

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


# a family's answer for a grid point: what realizes its deficit, or why none does
Realization = Union[Measure1D, NeedleEnsemble, BracketError]


class SweepFamily(Protocol):
    name: str

    def at_deficit(self, deltas: Sequence[float], theta: float) -> List[Realization]: ...


def _fit(points: Sequence[Tuple[float, float]]) -> Tuple[float, float, float]:
    ln_d = np.log([d for d, _ in points])
    ln_v = np.log([v for _, v in points])
    slope, intercept = np.polyfit(ln_d, ln_v, 1)
    pred = slope * ln_d + intercept
    ss_res = float(np.sum((ln_v - pred) ** 2))
    ss_tot = float(np.sum((ln_v - ln_v.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


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
    return _fit(positive)


def _evaluate_metric(metric: Metric, objs: Sequence[Union[Measure1D, NeedleEnsemble]]) -> list:
    """The metric's value on each realization, or the ``BracketError`` that
    kept it from one: the quadrature metrics in one call on all of them."""
    ensembles = metric.kind == "mixture_l1"
    if not all(isinstance(obj, NeedleEnsemble if ensembles else Measure1D) for obj in objs):
        raise DomainError("metric mixture_l1 needs a needle-ensemble family" if ensembles
                          else f"metric {metric.kind!r} needs a measure family")
    if objs and metric.kind in ("lp", "w1", "w2"):
        distance = {"w1": w1_to_gaussian, "w2": w2_to_gaussian}.get(metric.kind)
        return (distance(objs) if distance else lp_distance(objs, float(metric.p))).tolist()
    out: list = []
    for obj in objs:  # the closed-form entropy, and mixture_l1 per ensemble
        try:
            out.append(aggregate_l1(obj).mixture_l1 if ensembles else relative_entropy(obj))
        except BracketError as exc:
            out.append(exc)
    return out


def sweep(
    family: SweepFamily,
    theta: float,
    metric: Metric,
    delta_grid: Sequence[float] = DEFAULT_DELTA_GRID,
) -> SweepResult:
    """Evaluate ``metric`` on ``family`` across a deficit grid and fit.

    One point per grid entry, in descending order of delta; the family
    realizes the whole grid in one call, and a quadrature metric takes every
    realized point in one call.  A point with a ``BracketError`` instead of
    a realization or a value is skipped with a log message; the surviving
    points are fitted by :func:`fit_exponent`, so the fit fields are NaN
    when fewer than 3 values clear its noise floor.
    """
    grid = sorted({float(d) for d in delta_grid}, reverse=True)
    if not grid:
        raise DomainError("delta grid is empty")
    if any(not (d > 0.0 and math.isfinite(d)) for d in grid):
        raise DomainError("delta grid entries must be positive and finite")

    outcome = list(family.at_deficit(grid, theta))
    found = [i for i, obj in enumerate(outcome) if not isinstance(obj, BracketError)]
    for i, value in zip(found, _evaluate_metric(metric, [outcome[i] for i in found])):
        outcome[i] = value
    points, skipped = [], []
    for d, value in zip(grid, outcome):
        if isinstance(value, BracketError):
            logger.warning("skipping delta=%.3e for family %s: %s", d, family.name, value)
            skipped.append(d)
        else:
            points.append((d, value))
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


def _centered_at(params: np.ndarray, deltas: np.ndarray, theta: float,
                 build: Callable[[float], Measure1D]) -> List[Realization]:
    """Per grid point, ``build(param)`` centered at ``theta``; a
    ``BracketError`` where the parameter is NaN (no bracket) or the measure
    misses its requested deficit by more than 5%.  One :func:`deficit` read
    of the stacked measures gives every point's deficit to check, which
    translation does not change, and its centering shift."""
    out: List[Realization] = [BracketError(f"could not bracket deficit {d:.3e}") for d in deltas]
    solved = np.flatnonzero(~np.isnan(params))
    ms = [build(param) for param in params[solved].tolist()]
    if not ms:
        return out
    rep = deficit(ms, theta)
    for i, m, d, s in zip(solved.tolist(), ms, rep.deficit.tolist(), rep.shift.tolist()):
        miss = abs(d - deltas[i]) > _SOLVE_RTOL * deltas[i]
        out[i] = BracketError(f"solved deficit {d:.6e} misses requested "
                              f"{deltas[i]:.6e} by >5%") if miss else m.translate(s)
    return out


@dataclass(frozen=True)
class Example23SweepFamily:
    """Truncated Gaussians ``(-D, D)`` parametrized by the deficit."""

    name: str = "example23"

    def at_deficit(self, deltas: Sequence[float], theta: float) -> List[Realization]:
        deltas = np.asarray(deltas, dtype=float)
        radii = solve_truncation_for_deficit(deltas, theta)
        return _centered_at(radii, deltas, theta,
                            lambda D: normalize(truncated_gaussian_potential(D)))


@dataclass(frozen=True)
class GaussianSweepFamily:
    """Degenerate family: the standard Gaussian at every delta (deficit 0).
    All metrics vanish, so sweeps over it exercise the fit-skipped path."""

    name: str = "gaussian"

    def at_deficit(self, deltas: Sequence[float], theta: float) -> List[Realization]:
        return [gaussian_measure() for _ in deltas]


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
    def _unit(self) -> Measure1D:
        """``measure_at(1)``, whose cells :meth:`deficit_at` scales."""
        return self.measure_at(1.0)

    def deficit_at(self, lams: Sequence[float], theta: float) -> np.ndarray:
        """The deficits of ``measure_at(lam)`` for a 1-d array of scales.

        The cells do not depend on the scale: cell ``i`` has slope ``lam *
        s_i``, and its log amplitude is ``lam`` times the unit measure's,
        less ``lam * s_i^2/2``, plus ``(lam * s_i)^2/2``, up to a constant
        that normalizing removes.  So every scale's ``theta``-quantile and
        density there come from ``(scales, cells)`` arrays in one
        :func:`profile_point` call.
        """
        unit = self._unit
        edges, slopes = unit.potential.edges, unit.potential.slopes
        lam = np.asarray(lams, dtype=float)[:, None]
        beta = lam * slopes
        log_amp = lam * (unit.log_amp - 0.5 * slopes**2) + 0.5 * beta**2
        log_amp -= np.logaddexp.reduce(cell_log_masses(edges, beta, log_amp), axis=1, keepdims=True)
        return profile_point(edges, beta, log_amp, theta)[1] - gaussian_profile(theta)

    def at_deficit(self, deltas: Sequence[float], theta: float) -> List[Realization]:
        deltas = np.asarray(deltas, dtype=float)
        # double each upper scale from 0.25 until it brackets, 16 times at most:
        # further out, deficit_at reads rounding noise that may exceed any
        # target (7.9e13 at 0.25 * 2^32 for seed 3, theta 0.5)
        hi = np.full(deltas.shape, 0.25)
        short = np.ones(deltas.shape, dtype=bool)
        for _ in range(16):
            short[short] = ~(self.deficit_at(hi[short], theta) >= deltas[short])
            if not np.any(short):
                break
            hi[short] *= 2.0
        lams = np.full(deltas.shape, np.nan)
        target = deltas[~short]
        lams[~short] = find_root(lambda t: self.deficit_at(t, theta) - target,
                                 (np.zeros(target.size), hi[~short]), tol=1e-12)
        return _centered_at(lams, deltas, theta, self.measure_at)


@dataclass(frozen=True)
class NeedleSweepFamily:
    """Seeded needle ensembles calibrated per grid point.

    At deficit ``delta`` the ensemble is generated with ``deficit_scale =
    delta`` and ``bad_fraction = delta^{(1-eps)/(9-3eps)}`` -- the bad mass
    exactly at the rate the aggregate L^1 bound should follow.
    """

    needle_count: int = 100
    epsilon: float = 0.1
    seed: int = 0
    name: str = "needle_ensemble"

    def at_deficit(self, deltas: Sequence[float], theta: float) -> List[Realization]:
        alpha = rate_exponent(self.epsilon)
        out: List[Realization] = []
        for delta in map(float, deltas):
            try:
                out.append(generate_ensemble(EnsembleConfig(
                    needle_count=self.needle_count, theta=theta, epsilon=self.epsilon,
                    deficit_scale=delta, bad_fraction=min(1.0, delta**alpha), seed=self.seed)))
            except BracketError as exc:
                out.append(exc)
        return out
