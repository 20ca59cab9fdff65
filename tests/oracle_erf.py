"""Self-contained high-precision Gaussian cdf oracle.

Nothing here touches the library under test, ``math.erf``/``math.erfc`` or
scipy: ``pi`` comes from the iteration in the ``decimal`` module
documentation and the error function from its Maclaurin series

    erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1)),

both evaluated in 100-digit decimal arithmetic.  The series alternates with
a worst intermediate term of about exp(x^2), so near ``|x| = 8`` the
cancellation costs ~28 digits and still leaves far more accuracy than the
1e-15 comparisons the tests make.
"""
from __future__ import annotations

from decimal import Decimal, localcontext
from functools import lru_cache
from statistics import NormalDist

PRECISION = 100


@lru_cache(maxsize=None)
def pi_decimal() -> Decimal:
    """The decimal-module documentation recipe (no transcendental imports)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        three = Decimal(3)
        lasts, t, s = Decimal(0), three, three
        n, na, d, da = 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        result = +s
    return result


def erf_decimal(x: Decimal | float | int) -> Decimal:
    """Maclaurin-series erf, accurate to ~(PRECISION - x^2/ln 10) digits."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 30
        xd = Decimal(x)
        if not xd.is_finite():
            raise ValueError(f"erf oracle needs finite input, got {x!r}")
        if abs(xd) > 12:
            # series still converges but the cancellation guard above is
            # sized for |x| <= 12; everything the tests ask for is well below
            raise ValueError(f"erf oracle range is |x| <= 12, got {x!r}")
        x2 = xd * xd
        term = xd  # x^(2n+1) / n!
        total = xd  # n = 0 contribution
        cutoff = Decimal(10) ** (-(PRECISION + 20))
        n = 0
        while True:
            n += 1
            term = term * x2 / n
            contribution = term / (2 * n + 1)
            if n % 2:
                total -= contribution
            else:
                total += contribution
            if abs(contribution) < cutoff:
                break
        result = 2 * total / pi_decimal().sqrt()
    return +result


def gaussian_cdf_decimal(x: Decimal | float | int) -> Decimal:
    """``Phi(x) = (1 + erf(x / sqrt 2)) / 2`` in decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        xd = Decimal(x) / Decimal(2).sqrt()
        result = (1 + erf_decimal(xd)) / 2
    return +result


def gaussian_cdf_oracle(x: float) -> float:
    return float(gaussian_cdf_decimal(x))


def truncation_excess_decimal(D: Decimal | float | int) -> Decimal:
    """``delta_E`` of the symmetric truncation: ``1/gamma((-D, D)) - 1``.

    ``gamma((-D, D)) = erf(D / sqrt 2)``.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        mass = erf_decimal(Decimal(D) / Decimal(2).sqrt())
        result = 1 / mass - 1
    return +result


def gaussian_quantile_decimal(p: Decimal | float) -> Decimal:
    """``Phi^{-1}(p)`` by Newton steps on the decimal ``Phi``, from the
    stdlib's double-precision ``NormalDist().inv_cdf``: each step squares
    the relative error, so three or four reach the working precision."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        p = Decimal(p)
        x = Decimal(NormalDist().inv_cdf(float(p)))
        inv_sqrt_2pi = 1 / (2 * pi_decimal()).sqrt()
        small = Decimal(10) ** (-(PRECISION - 10))
        for _ in range(20):
            step = (gaussian_cdf_decimal(x) - p) / (inv_sqrt_2pi * (-x * x / 2).exp())
            x -= step
            if abs(step) < small:
                break
    return +x


def truncated_deficit_decimal(D: Decimal | float, theta: Decimal | float) -> Decimal:
    """Deficit of the Gaussian truncated to ``(-D, D)`` at ``theta``:
    ``phi(r)/gamma(I) - phi(a_theta)``, where ``Phi(r) = theta * gamma(I) +
    Phi(-D)`` and ``gamma(I) = 1 - 2 Phi(-D)``, straight from its definition."""
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        theta = Decimal(theta)
        below = gaussian_cdf_decimal(-Decimal(D))
        mass = 1 - 2 * below
        r = gaussian_quantile_decimal(theta * mass + below)
        a = gaussian_quantile_decimal(theta)
        result = ((-r * r / 2).exp() / mass - (-a * a / 2).exp()) / (2 * pi_decimal()).sqrt()
    return +result


def truncation_radius_decimal(target: float, theta: float, width: float = 1e-15) -> Decimal:
    """The radius whose truncated Gaussian has deficit ``target`` at
    ``theta``, by bisection of [0.05, 9] (the deficit falls as the radius
    grows) down to ``width``."""
    target = Decimal(target)
    lo, hi = Decimal("0.05"), Decimal(9)
    while hi - lo > Decimal(width):
        mid = (lo + hi) / 2
        if truncated_deficit_decimal(mid, theta) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@lru_cache(maxsize=None)
def _phi_decimal(x: Decimal) -> Decimal:
    """``Phi`` that also takes the infinities."""
    if x.is_infinite():
        return Decimal(0) if x < 0 else Decimal(1)
    return gaussian_cdf_decimal(x)


def log_sqrt_2pi_decimal() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        result = (2 * pi_decimal()).ln() / 2
    return +result


def piecewise_mass_decimal(cells, lo=None, hi=None) -> Decimal:
    """``int exp(-psi_hat)`` over ``(lo, hi)`` for a cell potential.

    ``cells`` lists ``(a, b, beta, gamma)`` with ``psi_hat(x) = x^2/2 +
    beta*x + gamma`` on ``(a, b)``, in Decimal (``a``/``b`` may be
    infinite); ``lo``/``hi`` default to the whole line.  Each cell adds its
    completed-square mass

        sqrt(2*pi) * exp(beta^2/2 - gamma) * (Phi(b' + beta) - Phi(a' + beta))

    over ``(a', b') = (a, b)`` intersected with ``(lo, hi)``.
    """
    lo = Decimal("-Infinity") if lo is None else Decimal(lo)
    hi = Decimal("Infinity") if hi is None else Decimal(hi)
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        sqrt_2pi = (2 * pi_decimal()).sqrt()
        total = Decimal(0)
        for a, b, beta, gamma in cells:
            a, b = max(a, lo), min(b, hi)
            if a >= b:
                continue
            weight = sqrt_2pi * (beta * beta / 2 - gamma).exp()
            total += weight * (_phi_decimal(b + beta) - _phi_decimal(a + beta))
    return +total


def lp_translated_gaussian_decimal(s: Decimal | float | int, p: int) -> Decimal:
    """``|| exp(psi_g - psi) - 1 ||_{L^p(gamma)}`` of the Gaussian translated
    by ``s``, for an even integer ``p``.

    The density ratio is ``e^{a x + b}`` with ``a = s``, ``b = -s^2/2``, so
    for even ``p`` the binomial theorem and ``E e^{k a X} = e^{k^2 a^2/2}``
    give the integral as

        sum_{k=0}^{p} C(p, k) (-1)^{p-k} e^{k b + k^2 a^2 / 2},

    whose terms grow like ``e^{k^2 s^2/2}``: at ``s = 3, p = 64`` the sum is
    about ``e^18144`` and the top term dominates, so 100 digits are ample.
    """
    if p < 2 or p % 2:
        raise ValueError(f"the binomial oracle needs an even p >= 2, got {p!r}")
    with localcontext() as ctx:
        ctx.prec = PRECISION + 10
        a = Decimal(s)
        b = -a * a / 2
        total = Decimal(0)
        binom = 1
        for k in range(p + 1):
            term = binom * (k * b + k * k * a * a / 2).exp()
            total += term if (p - k) % 2 == 0 else -term
            binom = binom * (p - k) // (k + 1)
        result = (total.ln() / p).exp()
    return +result
