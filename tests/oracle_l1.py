"""The quadrature that ``lp_distance`` replaced at ``p = 1``, kept as its oracle.

``|| exp(psi_g - psi) - 1 ||_{L^1(gamma)} = int_I |e^g - 1| phi dx +
gamma(R \\ I)``, where on each cell of the normalized density
``exp(log_amp_i) * phi(x + beta_i)`` the log ratio ``g = psi_g - psi`` is the
line ``log_amp_i - beta_i^2/2 - beta_i * x``.  The integrand is formed in log
space, ``exp(log|e^g - 1| - psi_g)``, so a far translate whose ``e^g``
overflows a double is still integrated.  The library's adaptive G7/K15
kernel integrates it on pieces that start at the cell edges and at the zeros
of ``g``; the library sums the same distance in closed form, piece by piece.
"""
from __future__ import annotations

import numpy as np

from isolab import Interval, gaussian_cdf, gaussian_psi, gaussian_sf, integrate


def l1_quadrature(edges, beta, log_amp) -> float:
    """The ``L^1(gamma)`` distance of one measure given by its normalized
    cells: ``edges`` has one more entry than ``beta`` and ``log_amp``."""
    edges, beta, log_amp = (np.asarray(a, dtype=float) for a in (edges, beta, log_amp))

    def integrand(x: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, beta.size - 1)
        g = log_amp[i] - 0.5 * beta[i] ** 2 - beta[i] * x
        with np.errstate(divide="ignore"):
            return np.exp(np.maximum(g, 0.0) + np.log(-np.expm1(-np.abs(g))) - gaussian_psi(x))

    # every cell's bump sits at -beta_i, clipped to the cell, and phi's at 0;
    # 40 beyond them both densities are below e^-800
    bumps = np.append(np.clip(-beta, edges[:-1], edges[1:]), 0.0)
    lo, hi = max(float(edges[0]), bumps.min() - 40.0), min(float(edges[-1]), bumps.max() + 40.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        zeros = (log_amp - 0.5 * beta**2) / beta
    inside = integrate(integrand, Interval(lo, hi), points=np.concatenate([edges[1:-1], zeros]),
                       abs_tol=1e-17, rel_tol=1e-12)
    return inside + gaussian_cdf(lo) + gaussian_sf(hi)
