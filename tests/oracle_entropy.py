"""Two oracles of ``relative_entropy``.

The quadrature it replaced: ``Ent(m | gamma) = int_I (psi_g - psi)
exp(-psi) dx`` by the library's adaptive G7/K15 kernel, on pieces aligned
with the potential's cell edges.  The library sums the same integral in
closed form, cell by cell; the two agree to the quadrature's absolute
tolerance of 1e-12.

And that closed form in 100-digit decimal arithmetic, on the Gaussian cdf
of ``oracle_erf``: at small deficits the entropy is a sum of terms some
five orders of magnitude larger than itself, so only a sum over the very
same cells, free of rounding, can check its last digits.
"""
from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np

from isolab import Measure1D, gaussian_psi, integrate
from oracle_erf import PRECISION, _phi_decimal, pi_decimal


def relative_entropy_quadrature(m: Measure1D) -> float:
    def integrand(x: np.ndarray) -> np.ndarray:
        return (gaussian_psi(x) - m.potential.value(x)) * m.density(x)

    return integrate(integrand, m.domain, points=m.potential.edges[1:-1])


def relative_entropy_decimal(edges, beta, log_amp) -> Decimal:
    """``Ent(m | gamma)`` of one measure given by its normalized cells: on
    the cell ``(e_i, e_{i+1})`` the density is ``w * phi(x + b)`` with ``w =
    exp(log_amp_i)``, ``b = beta_i``, and ``psi_g - psi = log w - b^2/2 -
    b*x``, so with ``y = x + b`` the cell adds

        (log w + b^2/2) * m_i - b * w * (phi(e_i + b) - phi(e_{i+1} + b)),

    where ``m_i = w * (Phi(e_{i+1} + b) - Phi(e_i + b))`` is its mass."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        inv_sqrt_2pi = 1 / (2 * pi_decimal()).sqrt()

        def pdf(y: Decimal) -> Decimal:
            return Decimal(0) if y.is_infinite() else inv_sqrt_2pi * (-y * y / 2).exp()

        total = Decimal(0)
        for lo, hi, b, log_w in zip(edges[:-1].tolist(), edges[1:].tolist(), beta.tolist(),
                                    log_amp.tolist()):
            lo, hi, b, log_w = Decimal(lo) + Decimal(b), Decimal(hi) + Decimal(b), Decimal(b), Decimal(log_w)
            w = log_w.exp()
            mass = w * (_phi_decimal(hi) - _phi_decimal(lo))
            total += (log_w + b * b / 2) * mass - b * w * (pdf(lo) - pdf(hi))
    return +total
