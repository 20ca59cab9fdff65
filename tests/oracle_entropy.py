"""The quadrature that ``relative_entropy`` replaced, kept as its oracle.

``Ent(m | gamma) = int_I (psi_g - psi) exp(-psi) dx`` by the library's
adaptive G7/K15 kernel, on pieces aligned with the potential's cell edges.
The library sums the same integral in closed form, cell by cell; the two
agree to the quadrature's absolute tolerance of 1e-12.
"""
from __future__ import annotations

import numpy as np

from isolab import Measure1D, gaussian_psi, integrate


def relative_entropy_quadrature(m: Measure1D) -> float:
    def integrand(x: np.ndarray) -> np.ndarray:
        return (gaussian_psi(x) - m.psi(x)) * m.density(x)

    return integrate(integrand, m.domain, points=m.potential.knots())
