"""The test oracles must hold themselves up before they judge the library."""
from __future__ import annotations

from decimal import Decimal, localcontext

import pytest

import oracle_constants as oc
import oracle_erf as oe
from oracle_ot import discrete_w2_oracle


def _as_float(fn) -> float:
    with localcontext() as ctx:
        ctx.prec = oe.PRECISION
        return float(fn())


def test_pi_matches_published_digits():
    digits = "3.14159265358979323846264338327950288419716939937510"
    assert str(oe.pi_decimal()).startswith(digits)


def test_erf_odd_and_bounded():
    for x in (0.3, 1.7, 4.0):
        assert oe.erf_decimal(-x) == -oe.erf_decimal(x)
        assert abs(oe.erf_decimal(x)) < 1
    assert oe.erf_decimal(0) == 0


def test_erf_known_value():
    # erf(1) from published tables, 20 digits
    assert str(oe.erf_decimal(1)).startswith("0.84270079294971486934")


def test_erf_out_of_range_rejected():
    with pytest.raises(ValueError):
        oe.erf_decimal(13)


@pytest.mark.parametrize(
    "name, derive",
    [
        ("PHI_1", lambda: oe.gaussian_cdf_decimal(1)),
        ("PHI_HALF", lambda: oe.gaussian_cdf_decimal(Decimal("0.5"))),
        ("PHI_QUARTER", lambda: oe.gaussian_cdf_decimal(Decimal("0.25"))),
        ("PHI_MINUS_2", lambda: oe.gaussian_cdf_decimal(-2)),
        ("GAUSSIAN_MASS_D2", lambda: oe.erf_decimal(Decimal(2).sqrt())),
        ("DELTA_E_D2", lambda: oe.truncation_excess_decimal(2)),
        (
            "DEFICIT_D2",
            lambda: oe.truncation_excess_decimal(2) / (2 * oe.pi_decimal()).sqrt(),
        ),
        (
            "ENTROPY_D2",
            lambda: (1 + oe.truncation_excess_decimal(2)).ln(),
        ),
        ("TAIL_D2", lambda: 1 - oe.erf_decimal(Decimal(2).sqrt())),
        (
            "NEEDLE_L1_D2",
            lambda: 2
            * oe.truncation_excess_decimal(2)
            / (1 + oe.truncation_excess_decimal(2)),
        ),
        ("INV_SQRT_2PI", lambda: 1 / (2 * oe.pi_decimal()).sqrt()),
        (
            "PDF_AT_1",
            lambda: Decimal("-0.5").exp() / (2 * oe.pi_decimal()).sqrt(),
        ),
        (
            "HALF_LINE_PERIMETER_D2",
            lambda: (1 + oe.truncation_excess_decimal(2))
            / (2 * oe.pi_decimal()).sqrt(),
        ),
        ("SHIFTED_L1_S01", lambda: 4 * oe.gaussian_cdf_decimal(Decimal("0.05")) - 2),
        ("SHIFTED_L1_S05", lambda: 4 * oe.gaussian_cdf_decimal(Decimal("0.25")) - 2),
        ("SHIFTED_L1_S10", lambda: 4 * oe.gaussian_cdf_decimal(Decimal("0.5")) - 2),
    ],
)
def test_frozen_constant_rederives(name, derive):
    assert _as_float(derive) == getattr(oc, name)


@pytest.mark.parametrize("p, frozen", [(1, oc.LP1_D2), (2, oc.LP2_D2), (4, oc.LP4_D2)])
def test_frozen_lp_constants_rederive(p, frozen):
    with localcontext() as ctx:
        ctx.prec = oe.PRECISION
        dE = oe.truncation_excess_decimal(2)
        value = float(((1 + dE ** (p - 1)) / (1 + dE) * dE) ** (Decimal(1) / p))
    assert value == frozen


def test_ot_oracle_gaussian_fixed_point():
    from isolab import gaussian_measure

    assert discrete_w2_oracle(gaussian_measure(), n_nodes=20_000) < 1e-6


def test_ot_oracle_shifted_gaussian_is_the_shift():
    from isolab import gaussian_measure

    for s in (0.25, 1.0):
        got = discrete_w2_oracle(gaussian_measure().translate(s), n_nodes=40_000)
        assert got == pytest.approx(s, abs=5e-4)


def test_truncation_radii_pinned_in_the_stability_tests():
    from test_stability import ORACLE_RADII, TRUNCATION_TARGETS

    for theta, radii in ORACLE_RADII.items():
        for target, want in zip(TRUNCATION_TARGETS, radii):
            assert float(oe.truncation_radius_decimal(target, theta)) == pytest.approx(want, abs=1e-14)


def test_truncated_deficit_oracle_at_one_half_is_the_excess():
    # at theta = 1/2 the deficit is delta_E / sqrt(2 pi)
    with localcontext() as ctx:
        ctx.prec = oe.PRECISION
        want = oe.truncation_excess_decimal(2) / (2 * oe.pi_decimal()).sqrt()
        assert abs(oe.truncated_deficit_decimal(2, 0.5) - want) < Decimal(10) ** -90
