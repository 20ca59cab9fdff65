import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isolab

from isolab import (
    DEFAULT_DELTA_GRID,
    DomainError,
    Example23SweepFamily,
    GaussianSweepFamily,
    Metric,
    PerturbedSweepFamily,
    SweepResult,
    deficit,
    fit_exponent,
    sweep,
    w2_to_gaussian,
)


# -- grids and fitting --------------------------------------------------------


def test_default_grid_shape():
    assert len(DEFAULT_DELTA_GRID) == 9
    assert DEFAULT_DELTA_GRID[0] == pytest.approx(1e-2)
    assert DEFAULT_DELTA_GRID[-1] == pytest.approx(1e-6)
    ratios = [a / b for a, b in zip(DEFAULT_DELTA_GRID, DEFAULT_DELTA_GRID[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


def test_fit_exponent_exact_on_power_law():
    points = [(d, 3.0 * d**0.7) for d in DEFAULT_DELTA_GRID]
    alpha, c, r2 = fit_exponent(points)
    assert alpha == pytest.approx(0.7, abs=1e-12)
    assert c == pytest.approx(math.log(3.0), abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_reversal_invariance():
    points = [(d, 2.0 * d**0.31) for d in DEFAULT_DELTA_GRID]
    a1, _, _ = fit_exponent(points)
    a2, _, _ = fit_exponent(list(reversed(points)))
    assert a1 == pytest.approx(a2, abs=1e-14)


def test_fit_exponent_rescale_invariance():
    points = [(d, d**0.5) for d in DEFAULT_DELTA_GRID]
    scaled = [(d, 17.0 * v) for d, v in points]
    a1, c1, _ = fit_exponent(points)
    a2, c2, _ = fit_exponent(scaled)
    assert a2 == pytest.approx(a1, abs=1e-12)
    assert c2 - c1 == pytest.approx(math.log(17.0), abs=1e-10)


def test_fit_exponent_delta_rescale_keeps_exponent():
    points = [(d, d**1.3) for d in DEFAULT_DELTA_GRID]
    moved = [(5.0 * d, v * 5.0**1.3) for d, v in points]
    a1, _, _ = fit_exponent(points)
    a2, _, _ = fit_exponent(moved)
    assert a2 == pytest.approx(a1, abs=1e-12)


@given(
    alpha=st.floats(min_value=0.05, max_value=2.0),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=40)
def test_fit_exponent_recovers_any_power_law(alpha, c):
    points = [(d, c * d**alpha) for d in DEFAULT_DELTA_GRID]
    got, logc, r2 = fit_exponent(points)
    assert got == pytest.approx(alpha, abs=1e-11)
    assert r2 == pytest.approx(1.0, abs=1e-11)


def test_fit_exponent_needs_three_positive_points():
    # fewer than 3 points above the noise floor: the fit is skipped, all NaN
    for points in ([(1e-2, 1.0), (1e-3, 0.5)],
                   [(1e-2, 0.0), (1e-3, 0.0), (1e-4, 0.0)],
                   [(1e-2, 1e-16), (1e-3, 2e-16), (1e-4, 1.0), (1e-5, 0.5)]):
        assert all(math.isnan(v) for v in fit_exponent(points))
    alpha, _, _ = fit_exponent([(1e-2, 1e-16), (1e-3, 1.0), (1e-4, 0.5), (1e-5, 0.25)])
    assert alpha == pytest.approx(math.log10(2.0), abs=1e-12)  # the floored point is left out


# -- Metric and SweepResult ---------------------------------------------------


def test_metric_parse_and_label():
    m = Metric.parse("lp:2")
    assert m.kind == "lp" and m.p == 2.0
    assert m.label == "lp(p=2)"
    for name in ("w1", "w2", "entropy"):
        assert Metric.parse(name).kind == name


def test_metric_parse_rejects_unknown():
    with pytest.raises(DomainError):
        Metric.parse("hausdorff")
    with pytest.raises(DomainError):  # the needle-mixture L1 is the needles module's
        Metric.parse("mixture_l1")
    with pytest.raises(DomainError):
        Metric.parse("lp:0.2")
    with pytest.raises(DomainError):
        Metric.parse("w2:3")


def test_sweep_result_validation_and_dict():
    good = SweepResult(
        points=((1e-2, 0.1), (1e-3, 0.01)),
        fitted_exponent=math.nan,
        fitted_log_constant=math.nan,
        r_squared=math.nan,
        metric_label="lp(p=1)",
        family_name="example23",
    )
    assert not good.fit_available
    d = good.to_dict()
    assert {"alpha", "c", "r_squared", "points", "skipped_deltas"} <= set(d)
    with pytest.raises(DomainError):
        SweepResult(
            points=((1e-3, 0.1), (1e-2, 0.2)),  # increasing deltas
            fitted_exponent=0.5,
            fitted_log_constant=0.0,
            r_squared=1.0,
        )


# -- families -----------------------------------------------------------------


def test_example23_family_hits_requested_deficit():
    fam = Example23SweepFamily()
    for d in (1e-2, 1e-4):
        (m,), failed = fam.at_deficit([d], 0.5)
        assert failed == {}
        assert deficit(m, 0.5).deficit == pytest.approx(d, rel=1e-6)


def test_gaussian_family_is_degenerate():
    fam = GaussianSweepFamily()
    (m,), failed = fam.at_deficit([1e-3], 0.5)  # delta is ignored: the deficit is 0
    assert failed == {}
    assert abs(deficit(m, 0.5).deficit) <= 1e-12


def test_perturbed_family_seeded_deterministic():
    a = PerturbedSweepFamily.seeded(3)
    b = PerturbedSweepFamily.seeded(3)
    assert a.breakpoints == b.breakpoints
    assert a.unit_slopes == b.unit_slopes
    assert PerturbedSweepFamily.seeded(4).breakpoints != a.breakpoints


def test_perturbed_family_solves_deficit():
    fam = PerturbedSweepFamily.seeded(0)
    (m,), failed = fam.at_deficit([1e-3], 0.5)
    assert failed == {}
    assert deficit(m, 0.5).deficit == pytest.approx(1e-3, rel=5e-2)


# -- sweeps -------------------------------------------------------------------


def test_sweep_lp_orders():
    fam = Example23SweepFamily()
    grid = np.logspace(-2, -5, 7)
    res1 = sweep(fam, 0.5, Metric.parse("lp:1"), grid)
    res2 = sweep(fam, 0.5, Metric.parse("lp:2"), grid)
    assert res1.fitted_exponent == pytest.approx(1.0, abs=0.05)
    assert res2.fitted_exponent == pytest.approx(0.5, abs=0.05)
    assert res1.r_squared > 0.999 and res2.r_squared > 0.999
    assert not res1.skipped and not res2.skipped


def test_sweep_entropy_order_is_linear():
    res = sweep(Example23SweepFamily(), 0.5, Metric.parse("entropy"), np.logspace(-2, -5, 7))
    assert res.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_sweep_dedupes_and_sorts_grid():
    fam = Example23SweepFamily()
    res = sweep(fam, 0.5, Metric.parse("lp:1"), [1e-3, 1e-2, 1e-3, 1e-4])
    assert [d for d, _ in res.points] == [1e-2, 1e-3, 1e-4]


def test_sweep_rejects_bad_grid():
    fam = Example23SweepFamily()
    with pytest.raises(DomainError):
        sweep(fam, 0.5, Metric.parse("lp:1"), [])
    with pytest.raises(DomainError):
        sweep(fam, 0.5, Metric.parse("lp:1"), [1e-2, -1e-3])


def test_sweep_gaussian_family_yields_no_fit():
    res = sweep(GaussianSweepFamily(), 0.5, Metric.parse("lp:2"), [1e-2, 1e-3, 1e-4])
    assert all(v <= 1e-10 for _, v in res.points)  # zero up to quadrature noise
    assert not res.fit_available  # nothing above the noise floor to fit


# -- one root solve per sweep -------------------------------------------------


@pytest.mark.parametrize("family", [Example23SweepFamily(), PerturbedSweepFamily.seeded(3)],
                         ids=["example23", "perturbed"])
def test_sweep_solves_the_whole_grid_in_one_root_solve(family, monkeypatch):
    # every module that binds find_root by value gets a counter
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    for module in (isolab.numerics, isolab.measure1d, isolab.stability, isolab.needles,
                   isolab.rates):
        if hasattr(module, "find_root"):
            monkeypatch.setattr(module, "find_root", counted(module.find_root))
    res = sweep(family, 0.5, Metric.parse("w2"), DEFAULT_DELTA_GRID)
    assert len(res.points) == len(DEFAULT_DELTA_GRID)
    assert len(calls) == 1


def test_example23_sweep_takes_few_root_steps_per_point(monkeypatch):
    # bracketed from the deficit's asymptote, each radius of the default grid
    # is a few root steps away (25 on the bracket [0.05, 9])
    steps = []
    find_root = isolab.stability.find_root

    def counted(*args, **kwargs):
        root, taken = find_root(*args, **{**kwargs, "full_output": True})
        steps.append(taken)
        return root

    monkeypatch.setattr(isolab.stability, "find_root", counted)
    for theta in (0.5, 0.3):
        res = sweep(Example23SweepFamily(), theta, Metric.parse("lp:1"), DEFAULT_DELTA_GRID)
        assert len(res.points) == len(DEFAULT_DELTA_GRID)
    assert len(steps) == 2
    assert all(taken.shape == (len(DEFAULT_DELTA_GRID),) and taken.max() <= 6 for taken in steps)


@pytest.mark.parametrize("grid", [DEFAULT_DELTA_GRID[::4], DEFAULT_DELTA_GRID],
                         ids=["3-point", "9-point"])
@pytest.mark.parametrize("family", [Example23SweepFamily(), PerturbedSweepFamily.seeded(3)],
                         ids=["example23", "perturbed"])
@pytest.mark.parametrize("metric", ["lp:2", "w1", "w2"])
def test_sweep_makes_one_quadrature_at_any_grid_size(metric, family, grid, monkeypatch):
    # every module that binds integrate by value gets a counter
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    for module in (isolab.numerics, isolab.measure1d, isolab.stability, isolab.needles,
                   isolab.rates):
        if hasattr(module, "integrate"):
            monkeypatch.setattr(module, "integrate", counted(module.integrate))
    res = sweep(family, 0.5, Metric.parse(metric), grid)
    assert len(res.points) == len(grid)
    # W_1 is a closed sum of first moments: no quadrature at all
    assert len(calls) == (0 if metric == "w1" else 1)


def test_example23_family_checks_every_point_by_forward_reads(monkeypatch):
    # the family hands over cells: no measure is normalized, and none reads
    # its quantile alone; a point indexed is a measure at its deficit
    quantiles, normalized = [], []
    quantile, normalize = isolab.Measure1D.quantile, isolab.rates.normalize

    def counted_quantile(self, theta):
        quantiles.append(theta)
        return quantile(self, theta)

    def counted_normalize(spec):
        normalized.append(spec)
        return normalize(spec)

    monkeypatch.setattr(isolab.Measure1D, "quantile", counted_quantile)
    monkeypatch.setattr(isolab.rates, "normalize", counted_normalize)
    stack, failed = Example23SweepFamily().at_deficit([1e-2, 1e-3, 1e-4], 0.5)
    assert isinstance(stack, isolab.measure1d.MeasureStack) and len(stack) == 3
    assert failed == {}
    assert quantiles == [] and normalized == []
    assert all(isinstance(m, isolab.Measure1D) for m in stack)
    for d, m in zip([1e-2, 1e-3, 1e-4], stack):
        rep = deficit(m, 0.5)
        assert rep.deficit == pytest.approx(d, rel=5e-2)
        assert abs(rep.shift) <= 1e-15


@pytest.mark.parametrize("family, theta", [(Example23SweepFamily(), 0.5), (Example23SweepFamily(), 0.7),
                                           (PerturbedSweepFamily.seeded(3), 0.5)],
                         ids=["example23-0.5", "example23-0.7", "perturbed-0.5"])
def test_sweep_check_sees_a_fault_of_the_quantile_inversion(family, theta, monkeypatch):
    # the perturbed solver reads its theta-points through _cell_quantile; the
    # check reads the mass below them forward, so it sees the inversion off
    # (off the mode, the fault gives the Gaussian at scale 0 a deficit above
    # the targets, and the perturbed solve raises BracketError instead)
    cell_quantile = isolab.measure1d._cell_quantile
    monkeypatch.setattr(isolab.measure1d, "_cell_quantile", lambda *a: cell_quantile(*a) + 1e-3)
    grid = DEFAULT_DELTA_GRID[::2]
    res = sweep(family, theta, Metric.parse("w2"), grid)
    assert res.points == () and res.skipped == grid
    stack, failed = family.at_deficit(grid, theta)
    assert len(stack) == 0
    assert sorted(failed) == list(range(len(grid)))
    assert all("holds mass" in str(error) for error in failed.values())


def test_perturbed_bracket_doubling_stops_before_the_noise():
    # at seed 3, theta 0.5, deficit_at reads rounding noise past scale 256:
    # -0.399 at 1024, 7.9e13 at 0.25 * 2^32; a target of 1e3 is never
    # bracketed from it, so the point is skipped as unbracketed
    fam = PerturbedSweepFamily.seeded(3)
    stack, failed = fam.at_deficit([1e3], 0.5)
    assert len(stack) == 0
    (point,) = failed.values()
    assert isinstance(point, isolab.BracketError)
    assert "could not bracket deficit 1.000e+03" in str(point)


@pytest.mark.parametrize("seed", [3, 518787, 331872, 11])
@pytest.mark.parametrize("theta", [0.3, 0.7])
def test_perturbed_target_below_rounding_noise_is_skipped(seed, theta):
    # the Gaussian at scale 0 reads a deficit of about +-5.6e-17, so a target
    # of 1e-17 has no bracket; it is skipped, and the rest of the grid kept
    res = sweep(PerturbedSweepFamily.seeded(seed), theta, Metric.parse("w2"), [1e-3, 1e-17])
    assert [d for d, _ in res.points] == [1e-3]
    assert res.skipped == (1e-17,)


@pytest.mark.parametrize("family, unreachable", [(Example23SweepFamily(), 100.0),
                                                 (PerturbedSweepFamily.seeded(3), 1e3)],
                         ids=["example23", "perturbed"])
def test_sweep_skips_only_the_unreachable_point(family, unreachable):
    res = sweep(family, 0.5, Metric.parse("w2"), [unreachable, 1e-3, 1e-4, 1e-5])
    assert res.skipped == (unreachable,)
    assert [d for d, _ in res.points] == [1e-3, 1e-4, 1e-5]
    for d, _ in res.points:
        (m,), failed = family.at_deficit([d], 0.5)
        assert failed == {}
        assert deficit(m, 0.5).deficit == pytest.approx(d, rel=5e-2)


def test_sweep_pairs_the_values_around_a_failed_middle_point(caplog):
    # a family that realizes grid points 0 and 2 and fails point 1: the
    # stack's two rows are paired with points 0 and 2, in grid order
    grid = [1e-2, 1e-3, 1e-4]
    stack, failed = Example23SweepFamily().at_deficit([grid[0], grid[2]], 0.5)
    assert len(stack) == 2 and failed == {}

    class Stub:
        name = "stub"

        def at_deficit(self, deltas, theta):
            assert list(deltas) == grid
            return stack, {1: isolab.BracketError("could not bracket deficit 1.000e-03")}

    with caplog.at_level(logging.WARNING, logger="isolab.rates"):
        res = sweep(Stub(), 0.5, Metric.parse("w2"), grid)
    assert res.points == tuple(zip([grid[0], grid[2]], w2_to_gaussian(stack).tolist()))
    assert res.skipped == (grid[1],)
    assert [r.getMessage() for r in caplog.records] == [
        "skipping delta=1.000e-03 for family stub: could not bracket deficit 1.000e-03"]


@pytest.mark.parametrize("seed", [0, 3, 7, 4242])
def test_stacked_perturbed_deficit_matches_the_measure(seed):
    fam = PerturbedSweepFamily.seeded(seed)
    lams = np.array([0.1, 0.5, 1.0, 3.0])
    for theta in (0.3, 0.5, 0.8):
        got = fam.deficit_at(lams, theta)
        want = [deficit(fam.measure_at(lam), theta).deficit for lam in lams]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
