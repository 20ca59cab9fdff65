"""End-to-end acceptance battery: nine numbered criteria, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; each criterion also enforces its own wall-clock budget.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracle_constants as oc
from oracle_ot import discrete_w2_oracle
from isolab import (
    DEFAULT_DELTA_GRID,
    EnsembleConfig,
    Example23SweepFamily,
    Metric,
    PerturbedSweepFamily,
    aggregate_l1,
    brute_force_minimizer,
    check_gap_bounds,
    classify_good,
    deficit,
    disintegration_check,
    example23,
    fit_exponent,
    gaussian_measure,
    gaussian_profile,
    generate_ensemble,
    lp_distance,
    make_needle,
    needle_l1,
    relative_entropy,
    sweep,
    talagrand_check,
    w1_to_gaussian,
    w2_to_gaussian,
)
from isolab.cli import main

SQRT_2PI = 1.0 / oc.INV_SQRT_2PI


@contextmanager
def criterion(number, label, cap_seconds):
    """Time a criterion body and print exactly one PASS/FAIL line."""
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        assert elapsed < cap_seconds, (
            f"criterion {number} runtime {elapsed:.1f}s exceeds {cap_seconds:g}s"
        )
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        print(
            f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} "
            f"({elapsed:.1f}s / cap {cap_seconds:g}s)"
        )


def test_criterion_1_truncated_gaussian_closed_forms():
    with criterion(1, "truncated-Gaussian closed forms (D=2)", 5.0):
        m, fam, closed = example23(2.0)
        assert fam.delta_E == pytest.approx(oc.DELTA_E_D2, abs=1e-12)
        assert closed.deficit == pytest.approx(oc.DEFICIT_D2, abs=1e-12)

        numeric = deficit(m, 0.5).deficit
        assert abs(numeric - closed.deficit) <= 1e-8

        expected = {1.0: oc.LP1_D2, 2.0: oc.LP2_D2, 4.0: oc.LP4_D2}
        for p, frozen in expected.items():
            assert closed.lp(p) == pytest.approx(frozen, abs=1e-12)
            assert abs(lp_distance(m, p) - closed.lp(p)) <= 1e-8


def test_criterion_2_gaussian_self_test():
    with criterion(2, "gaussian equality case vanishes", 10.0):
        m = gaussian_measure()
        for theta in (0.1, 0.5, 0.9):
            assert abs(deficit(m, theta).deficit) <= 1e-10
        for p in (1.0, 2.0, 4.0):
            assert lp_distance(m, p) <= 1e-10
        assert w1_to_gaussian(m) <= 1e-10
        assert w2_to_gaussian(m) <= 1e-10
        assert abs(relative_entropy(m)) <= 1e-10
        for theta in (0.1, 0.5, 0.9):
            res = brute_force_minimizer(m, theta)
            assert abs(res.perimeter - gaussian_profile(theta)) <= 1e-6
            assert res.is_half_line


def test_criterion_3_lp_exponent_is_one_over_p():
    with criterion(3, "lp_distance scales like delta^(1/p)", 60.0):
        fam = Example23SweepFamily()
        for p in (1.0, 2.0, 4.0):
            res = sweep(fam, 0.5, Metric(kind="lp", p=p), DEFAULT_DELTA_GRID)
            assert not res.skipped
            assert abs(res.fitted_exponent - 1.0 / p) <= 0.05, (
                f"p={p}: fitted {res.fitted_exponent}"
            )


def test_criterion_4_w2_exponent_and_transport_chain():
    with criterion(4, "w2 scales like sqrt(delta); Talagrand holds pointwise", 120.0):
        fam = Example23SweepFamily()
        res = sweep(fam, 0.5, Metric(kind="w2"), DEFAULT_DELTA_GRID)
        assert not res.skipped
        assert res.fitted_exponent >= 0.45

        for d, _ in res.points:
            m = fam.at_deficit([d], 0.5).realized[0]
            tal = talagrand_check(m)
            assert tal.passed, f"Talagrand fails at delta={d}"
            assert w1_to_gaussian(m) <= w2_to_gaussian(m) + 1e-10


def test_criterion_5_half_line_minimizers():
    with criterion(5, "perturbed measures respect the profile via half-lines", 120.0):
        thetas = tuple(round(0.1 * k, 1) for k in range(1, 10))
        for seed in range(10):
            m = PerturbedSweepFamily.seeded(seed).measure_at(1.0)
            for theta in thetas:
                res = brute_force_minimizer(m, theta)
                assert res.perimeter >= gaussian_profile(theta) - 1e-6, (
                    f"seed={seed} theta={theta}: {res.perimeter}"
                )
                assert res.is_half_line, f"seed={seed} theta={theta}"


def test_criterion_6_gap_bound_constants_are_stable():
    with criterion(6, "potential-gap bounds fit with stable constants", 60.0):
        grid = (1e-3, 1e-4, 1e-5)
        for seed in range(10):
            fam = PerturbedSweepFamily.seeded(seed)
            lower, upper = [], []
            for d in grid:
                m = fam.at_deficit([d], 0.5).realized[0]
                rep = check_gap_bounds(m, 0.5)
                assert not rep.equality_case
                assert math.isfinite(rep.fitted_lower_constant)
                assert math.isfinite(rep.fitted_upper_constant)
                assert rep.fitted_upper_constant >= 0.0
                lower.append(rep.fitted_lower_constant)
                upper.append(rep.fitted_upper_constant)
            # the linear-in-delta lower bound: its fitted constant must not
            # drift across two decades of deficit (all-zero is stable too)
            if max(lower) > 1e-9:
                ratio = max(lower) / min(lower)
                assert ratio <= 2.0, f"seed={seed}: lower constants {lower}"
            assert max(upper) < math.inf


def test_criterion_7_needle_aggregation_suite():
    with criterion(7, "needle ensemble aggregation inequalities", 60.0):
        alpha = 0.9 / 8.7
        for seed, scale in ((0, 1e-2), (1, 1e-3), (2, 1e-4)):
            cfg = EnsembleConfig(
                needle_count=100,
                deficit_scale=scale,
                bad_fraction=min(1.0, scale**alpha),
                seed=seed,
            )
            ens = generate_ensemble(cfg)

            mass = disintegration_check(
                ens, lambda x: np.ones_like(np.asarray(x, dtype=float))
            )
            assert abs(mass.lhs - 1.0) <= 1e-9

            agg = aggregate_l1(ens)
            assert agg.mixture_l1 <= agg.needlewise_sum + 1e-8
            assert all(v <= 2.0 + 1e-12 for v in agg.per_needle_l1)

            delta = 2.0 * scale  # calibration keeps the deficit within this
            rep = classify_good(ens, delta)
            assert rep.aggregate_deficit <= delta
            assert rep.good_mass >= 1.0 - math.sqrt(delta)

        for s, frozen in (
            (0.1, oc.SHIFTED_L1_S01),
            (0.5, oc.SHIFTED_L1_S05),
            (1.0, oc.SHIFTED_L1_S10),
        ):
            value = needle_l1(make_needle(1.0, gaussian_measure().translate(s), 0.5))
            assert abs(value - frozen) <= 1e-9
            assert value <= 2.0 * s / SQRT_2PI


def test_criterion_8_mixture_l1_scaling_rate(tmp_path):
    with criterion(8, "mixture L1 follows the calibrated needle rate", 120.0):
        eps = 0.1
        rate = (1.0 - eps) / (9.0 - 3.0 * eps)
        main(["needles", "--needle-count", "100", "--epsilon", str(eps), "--seed", "0",
              "--out", str(tmp_path)])
        report = json.loads((tmp_path / "needles_report.json").read_text())
        # every grid point has its mixture L1: none was skipped
        assert [row["delta"] for row in report["rows"] if "mixture_l1" in row] == list(DEFAULT_DELTA_GRID)
        assert report["fitted_exponent"] >= rate - 0.05, (
            f"fitted {report['fitted_exponent']} vs rate {rate}"
        )


def test_criterion_9_transport_agrees_with_discrete_oracle():
    with criterion(9, "quantile-coupling W2 matches the discrete oracle", 60.0):
        for seed in range(10):
            m = PerturbedSweepFamily.seeded(seed).measure_at(1.0)
            fast = w2_to_gaussian(m)
            slow = discrete_w2_oracle(m, n_nodes=100_000)
            assert abs(fast - slow) <= 1e-3, f"seed={seed}: {fast} vs {slow}"
