"""The quadrature that ``needles._mixture_l1`` replaced, kept as its oracle.

``int |rho - phi| dx`` over the span of the needles' effective supports and
the Gaussian bulk, plus the Gaussian mass beyond it.  ``rho - phi`` is probed
every 0.01 over the span and on both sides of every needle end, every
bracketed sign change is refined by one root solve, and the library's
adaptive G7/K15 kernel integrates ``|rho - phi|`` on pieces that start at the
needle ends, the ends of the union of the supports and those crossings.  It
cannot see two crossings inside one probe pitch; the library reads the
mixture cdf at certified crossings instead.
"""
from __future__ import annotations

import math

import numpy as np

from isolab import find_root, gaussian_cdf, gaussian_pdf, gaussian_sf, integrate, mixture_density
from isolab.needles import _integration_range

PROBE_STEP = 0.01


def mixture_l1_quadrature(ens) -> float:
    """``int |rho - phi| dx`` of the ensemble ``ens`` by quadrature."""
    span, inner = _integration_range(ens)

    def diff(x):
        return mixture_density(ens, x) - gaussian_pdf(x)

    xs = np.linspace(span.lo, span.hi, max(16, int(math.ceil((span.hi - span.lo) / PROBE_STEP)) + 1))
    # and the inside points of every needle end, where a zero next to the
    # end would cancel against the end's own flip between two probes
    ends = np.concatenate([ens.lo, ens.hi])
    ends = ends[np.isfinite(ends)]
    xs = np.unique(np.concatenate([xs, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)]))
    sign = np.sign(diff(xs))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    crossings = find_root(diff, (xs[flips], xs[flips + 1]), tol=1e-12) if flips.size else xs[flips]
    body = integrate(lambda x: np.abs(diff(x)), span, points=np.concatenate([inner, crossings]))
    return body + gaussian_cdf(span.lo) + gaussian_sf(span.hi)
