import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtri

import oracle_constants as oc
from oracle_erf import gaussian_cdf_oracle, log_sqrt_2pi_decimal, piecewise_mass_decimal
from oracle_minimizer import oracle_minimizer
from isolab import measure1d
from isolab.measure1d import MeasureStack, stacked
from isolab import (
    DomainError,
    Interval,
    InvalidPotentialError,
    Measure1D,
    PerturbedSweepFamily,
    PotentialSpec,
    boundary_set,
    brute_force_minimizer,
    check_one_convexity,
    deficit,
    gaussian_measure,
    gaussian_potential,
    gaussian_profile,
    gaussian_quantile,
    normalize,
    perimeter,
    perturbed_gaussian_potential,
    potential_from_config,
    tabulated_potential,
    translate_potential,
    truncated_gaussian_potential,
)

# module-scoped measures: normalization is the expensive part
GAUSSIAN = gaussian_measure()
TRUNCATED_2 = normalize(truncated_gaussian_potential(2.0))
KINKED = normalize(
    perturbed_gaussian_potential((-0.7, 0.4, 1.1), (-0.6, -0.1, 0.3, 0.9))
)


def stack(measures):
    """The measures, which share a cell count, as the rows of one stack."""
    return MeasureStack(*(np.concatenate([getattr(m.cells, name) for m in measures])
                          for name in ("edges", "beta", "log_amp")))


# -- potentials ---------------------------------------------------------------


def test_gaussian_potential_is_normalized_already():
    spec = gaussian_potential()
    assert math.exp(-float(spec.value(0.0))) == pytest.approx(oc.INV_SQRT_2PI, rel=1e-14)


def test_truncated_potential_domain():
    spec = truncated_gaussian_potential(2.0)
    assert spec.domain == Interval(-2.0, 2.0)
    asym = truncated_gaussian_potential(lo=-1.0, hi=3.0)
    assert asym.domain == Interval(-1.0, 3.0)


def test_perturbed_potential_validation():
    with pytest.raises(InvalidPotentialError):
        perturbed_gaussian_potential((0.0,), (1.0,))  # slopes too short
    with pytest.raises(InvalidPotentialError):
        perturbed_gaussian_potential((1.0, 0.0), (0.0, 0.1, 0.2))  # unordered
    with pytest.raises(InvalidPotentialError):
        perturbed_gaussian_potential((0.0,), (0.5, 0.1))  # decreasing slopes


def test_tabulated_rejects_non_one_convex_table():
    xs = np.linspace(-2.0, 2.0, 41)
    with pytest.raises(InvalidPotentialError):
        tabulated_potential(xs, 0.25 * xs**2)  # psi - x^2/2 concave


@pytest.mark.parametrize("drop, accepted", [(5e-10, True), (2e-9, False)])
def test_tabulated_keeps_the_checks_slope_drop_bound(drop, accepted):
    # one rule for tables: a secant slope may drop by at most 1e-9
    xs = np.linspace(-2.0, 2.0, 5)
    values = 0.5 * xs**2 - drop * np.maximum(xs, 0.0)
    if accepted:
        assert check_one_convexity(tabulated_potential(xs, values)).passed
    else:
        with pytest.raises(InvalidPotentialError):
            tabulated_potential(xs, values)


def test_knots_follow_translation():
    spec = perturbed_gaussian_potential((-0.5, 0.8), (-0.2, 0.0, 0.4))
    assert spec.edges[1:-1].tolist() == [-0.5, 0.8]
    moved = translate_potential(spec, 1.25)
    assert moved.edges[1:-1].tolist() == pytest.approx([0.75, 2.05])
    assert gaussian_potential().edges[1:-1].size == 0


_TABLE_XS = [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]
_TABLE_VALUES = [7.5, 1.5, 0.0, 0.625, 4.0, 12.0]  # x^2/2 + |x|


@pytest.mark.parametrize("shift", [None, 0.3, -1.25])
@pytest.mark.parametrize(
    "config, direct",
    [
        ({"family": "gaussian"}, gaussian_potential),
        ({"family": "truncated_gaussian", "D": 1.7}, lambda: truncated_gaussian_potential(1.7)),
        ({"family": "truncated_gaussian", "lo": -0.4, "hi": 2.5},
         lambda: truncated_gaussian_potential(lo=-0.4, hi=2.5)),
        ({"family": "perturbed_gaussian", "breakpoints": [-0.5, 0.8], "slopes": [-0.2, 0.0, 0.4]},
         lambda: perturbed_gaussian_potential((-0.5, 0.8), (-0.2, 0.0, 0.4))),
        ({"family": "perturbed_gaussian", "breakpoints": [-0.5, 0.8], "slopes": [-0.2, 0.0, 0.4],
          "lo": -2.0, "hi": 3.0},
         lambda: perturbed_gaussian_potential((-0.5, 0.8), (-0.2, 0.0, 0.4), Interval(-2.0, 3.0))),
        ({"family": "tabulated_convex", "xs": _TABLE_XS, "values": _TABLE_VALUES},
         lambda: tabulated_potential(_TABLE_XS, _TABLE_VALUES)),
    ],
    ids=["gaussian", "truncated-D", "truncated-lo-hi", "perturbed", "perturbed-lo-hi", "tabulated"],
)
def test_potential_config_round_trip(config, direct, shift):
    # a potential file gives the direct constructor's cells bit for bit
    spec = direct()
    if shift is not None:
        config = {**config, "shift": shift}
        spec = translate_potential(spec, shift)
    back = potential_from_config(config)
    assert back.domain == spec.domain
    for name in ("edges", "slopes", "offsets"):
        np.testing.assert_array_equal(getattr(back, name), getattr(spec, name), strict=True)
    np.testing.assert_array_equal(normalize(back).log_amp, normalize(spec).log_amp, strict=True)


def test_potential_config_errors():
    with pytest.raises(DomainError):
        potential_from_config({"family": "does_not_exist"})
    with pytest.raises(DomainError):
        potential_from_config({"family": "perturbed_gaussian"})  # missing keys
    with pytest.raises(DomainError):
        potential_from_config({"family": "gaussian", "stray": 1})
    # the package's own errors pass through, as they were raised
    with pytest.raises(DomainError, match=r"^truncation radius D=-1\.0 must be positive and finite$"):
        potential_from_config({"family": "truncated_gaussian", "D": -1.0})
    with pytest.raises(InvalidPotentialError, match=r"^slopes must be nondecreasing"):
        potential_from_config({"family": "perturbed_gaussian", "breakpoints": [0.1], "slopes": [1, 0]})


# -- normalized measures ------------------------------------------------------


def test_gaussian_measure_density_and_cdf():
    assert GAUSSIAN.density(0.0) == pytest.approx(oc.INV_SQRT_2PI, rel=1e-12)
    assert GAUSSIAN.cdf(1.0) == pytest.approx(oc.PHI_1, abs=1e-11)
    assert GAUSSIAN.quantile(oc.PHI_1) == pytest.approx(1.0, abs=1e-9)


def test_truncated_cdf_closed_form():
    # F(x) = (Phi(x) - Phi(-2)) * (1 + delta_E) inside (-2, 2)
    for x in (-1.5, -0.3, 0.0, 0.9, 1.8):
        want = (gaussian_cdf_oracle(x) - oc.PHI_MINUS_2) * (1.0 + oc.DELTA_E_D2)
        assert TRUNCATED_2.cdf(x) == pytest.approx(want, abs=1e-9)
    assert TRUNCATED_2.cdf(2.0) == pytest.approx(1.0, abs=1e-11)
    assert TRUNCATED_2.cdf(-2.0) == pytest.approx(0.0, abs=1e-11)


def test_kinked_table_reaches_full_mass():
    # cells aligned with the potential kinks: the top of the cdf table must
    # agree with the normalizer to ~1e-11, or extreme quantiles break
    hi_mass = KINKED.cdf(30.0)
    assert hi_mass == pytest.approx(1.0, abs=1e-10)
    q = KINKED.quantile(1.0 - 1e-7)
    assert KINKED.cdf(q) == pytest.approx(1.0 - 1e-7, abs=1e-11)


@pytest.mark.parametrize("m", [GAUSSIAN, TRUNCATED_2, KINKED], ids=["gaussian", "truncated", "kinked"])
def test_quantile_cdf_round_trip(m):
    for theta in (1e-6, 0.02, 0.31, 0.5, 0.77, 0.999, 1 - 1e-6):
        q = m.quantile(theta)
        assert m.cdf(q) == pytest.approx(theta, abs=2e-11)


@given(theta=st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=40, deadline=None)
def test_kinked_quantile_round_trip_property(theta):
    assert KINKED.cdf(KINKED.quantile(theta)) == pytest.approx(theta, abs=2e-11)


@given(
    a=st.floats(min_value=0.01, max_value=0.99),
    b=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=40, deadline=None)
def test_quantile_monotone_property(a, b):
    lo, hi = sorted((a, b))
    assert KINKED.quantile(lo) <= KINKED.quantile(hi) + 1e-12


def test_quantile_upper_tail_matches_ndtri():
    # counted from the right, the upper tail is as accurate as the lower one
    theta = 1.0 - 1e-12
    assert GAUSSIAN.quantile(theta) == pytest.approx(float(ndtri(theta)), abs=1e-9)
    assert GAUSSIAN.quantile(1e-12) == pytest.approx(float(ndtri(1e-12)), abs=1e-9)


def test_quantile_accepts_arrays():
    thetas = np.array([[1e-6, 0.3], [0.5, 1 - 1e-6]])
    got = KINKED.quantile(thetas)
    assert got.shape == thetas.shape
    want = [[KINKED.quantile(float(t)) for t in row] for row in thetas]
    assert np.array_equal(got, want)


def test_quantile_rejects_bad_theta():
    for bad in (0.0, 1.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            GAUSSIAN.quantile(bad)
    with pytest.raises(DomainError):
        GAUSSIAN.quantile(np.array([0.5, 1.0]))


def test_quantile_in_an_upper_tail_cell_holds_its_mass():
    # at scale 512 the median lies in a cell whose lower edge is so far into
    # its Gaussian's upper tail that Phi there rounds to 1: read from the
    # cell's upper end, the quantile is not pinned to that end
    m = PerturbedSweepFamily.seeded(3).measure_at(512.0)
    assert m.cdf(m.quantile(0.5)) == pytest.approx(0.5, abs=1e-12)


def test_stacked_takes_a_measure_or_a_stack_only():
    assert stacked(KINKED) is KINKED.cells
    cells = stack([GAUSSIAN, GAUSSIAN.translate(1.0)])
    assert stacked(cells) is cells
    for other in ([GAUSSIAN], (GAUSSIAN, GAUSSIAN), cells.edges, None):
        with pytest.raises(DomainError, match="expected a Measure1D or a MeasureStack"):
            stacked(other)


@pytest.mark.parametrize("rows", [1, 9])
@pytest.mark.parametrize("theta", [0.1, 0.5, 0.7])
def test_theta_point_is_the_quantile_and_the_density_there(rows, theta):
    fam = PerturbedSweepFamily.seeded(3)
    measures = [fam.measure_at(lam) for lam in np.linspace(0.01, 3.0, rows)]
    q, density = stack(measures).theta_point(theta)
    for i, m in enumerate(measures):
        alone = stacked(m).theta_point(theta)  # a stack of one: one binary search
        assert (q[i], density[i]) == (m.quantile(theta), alone[1][0])
        assert alone[0][0] == q[i]
        # one density expression: Measure1D.density reads the same cell
        assert density[i] == m.density(q[i])


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.8])
def test_theta_point_is_invert_and_the_density_in_its_cell(theta):
    """``theta_point`` returns the floats of ``invert`` on every row, and
    the density in the cell it inverted in, on stacks of perturbed measures
    as built row by row and as a root step of the perturbed solve builds
    them."""
    scales = np.array([0.0, 0.01, 0.3, 1.0, 2.5, 8.0, 64.0])
    for seed in (3, 5, 11):
        fam = PerturbedSweepFamily.seeded(seed)
        for cells in (stack([fam.measure_at(lam) for lam in scales]), fam._cells_at(scales)):
            n = len(cells)
            q, reads = cells._invert(np.full(n, min(theta, 1.0 - theta)), np.full(n, theta > 0.5), np.arange(n))
            density = np.empty(n)
            with np.errstate(over="ignore"):
                for at, point, (lo, hi, beta, log_amp) in reads:
                    density[at] = np.exp(measure1d._cell_log_density(point, beta, log_amp))
            got = cells.theta_point(theta)
            np.testing.assert_array_equal(got[0], q, strict=True)
            np.testing.assert_array_equal(got[1], density, strict=True)


def test_density_reads_its_row_without_building_masses(monkeypatch):
    # density reads the cell of each point and its log amplitude: on a
    # built measure it forms no cell mass, cumulative mass or inversion end
    m = PerturbedSweepFamily.seeded(3).measure_at(1.0)
    calls = []
    for name in ("gaussian_log_mass", "gaussian_log_cdf"):
        fn = getattr(measure1d, name)
        monkeypatch.setattr(measure1d, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    x = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(m.density(x), np.exp(-m.potential.value(x)), rtol=1e-14)
    assert m.density(0.3) == pytest.approx(math.exp(-m.potential.value(0.3)), rel=1e-14)
    assert calls == []


@pytest.mark.parametrize("s", [0.3, -1.7, 6.92])
def test_translate_keeps_the_log_amplitudes_bit_for_bit(s):
    m = PerturbedSweepFamily.seeded(3).measure_at(1.0)
    moved = m.translate(s)
    np.testing.assert_array_equal(moved.log_amp, m.log_amp, strict=True)
    np.testing.assert_array_equal(moved.potential.edges, m.potential.edges + s, strict=True)


def centered(m, theta):
    """``m`` translated by the centering shift of its deficit report."""
    return m.translate(deficit(m, theta).shift)


def test_centering_twice_keeps_the_log_amplitudes():
    m = PerturbedSweepFamily.seeded(3).measure_at(1.0)
    once = centered(m, 0.3)
    twice = centered(once, 0.3)
    np.testing.assert_array_equal(once.log_amp, m.log_amp, strict=True)
    np.testing.assert_array_equal(twice.log_amp, m.log_amp, strict=True)


def test_translate_moves_quantiles():
    moved = TRUNCATED_2.translate(0.9)
    assert moved.domain == Interval(-1.1, 2.9)
    assert moved.quantile(0.5) == pytest.approx(TRUNCATED_2.quantile(0.5) + 0.9, abs=1e-10)
    assert moved.density(0.9) == pytest.approx(TRUNCATED_2.density(0.0), rel=1e-12)


def test_center_puts_quantile_at_a_theta():
    for theta in (0.2, 0.5, 0.8):
        shift = deficit(KINKED, theta).shift
        a_theta = gaussian_quantile(theta)
        assert centered(KINKED, theta).quantile(theta) == pytest.approx(a_theta, abs=1e-9)
        assert shift == pytest.approx(a_theta - KINKED.quantile(theta), abs=1e-12)


def test_center_undoes_translation_of_gaussian():
    shifted = GAUSSIAN.translate(0.61)
    assert deficit(shifted, 0.5).shift == pytest.approx(-0.61, abs=1e-9)
    assert centered(shifted, 0.5).quantile(0.5) == pytest.approx(0.0, abs=1e-9)


# -- convexity check ----------------------------------------------------------


def test_one_convexity_accepts_the_construction():
    for spec in (gaussian_potential(), truncated_gaussian_potential(1.5), KINKED.potential):
        report = check_one_convexity(spec)
        assert report.passed
        assert report.worst_violation <= 1e-9
        # one cell: no interior edge to check
        assert (report.worst_edge is None) == (spec is not KINKED.potential)


def table_spec(xs, values):
    """The cells :func:`tabulated_potential` would build from the table,
    built without its convexity check: the checker itself must catch it."""
    t = values - 0.5 * xs * xs
    secants = np.diff(t) / np.diff(xs)
    return PotentialSpec(Interval(xs[0], xs[-1]), xs, secants, t[:-1] - secants * xs[:-1])


def test_one_convexity_rejects_quarter_parabola():
    xs = np.linspace(-2.0, 2.0, 41)
    spec = table_spec(xs, 0.25 * xs**2)
    report = check_one_convexity(spec)
    assert not report.passed
    assert report.worst_violation > 1e-3


def test_one_convexity_finds_a_slope_drop_far_from_the_minimum():
    # psi_hat - x^2/2 loses 0.05 of slope at x = 12, 12 away from its minimum
    xs = np.linspace(-20.0, 20.0, 41)
    convex = np.where(xs > 12.0, -0.05 * (xs - 12.0), 0.0)
    spec = table_spec(xs, 0.5 * xs**2 + convex)
    report = check_one_convexity(spec)
    assert not report.passed
    assert report.worst_edge == 12.0
    assert report.worst_violation == pytest.approx(0.05, rel=1e-9)


@pytest.mark.parametrize("jump", [1e-6, -1e-6])
def test_one_convexity_rejects_a_value_jump_without_a_slope_drop(jump):
    spec = PotentialSpec(Interval(-3.0, 3.0), edges=np.array([-3.0, 0.5, 3.0]),
                         slopes=np.array([0.2, 0.2]), offsets=np.array([1.0, 1.0 + jump]))
    report = check_one_convexity(spec)
    assert not report.passed
    assert report.worst_edge == 0.5
    assert report.worst_violation == pytest.approx(1e-6 / (1.0 + 1.1 + jump), rel=1e-9)


# -- profile, perimeters, boundary sets ---------------------------------------


def test_gaussian_profile_values():
    assert gaussian_profile(0.5) == pytest.approx(oc.INV_SQRT_2PI, rel=1e-13)
    assert gaussian_profile(oc.PHI_1) == pytest.approx(oc.PDF_AT_1, rel=1e-10)
    assert gaussian_profile(0.23) == pytest.approx(gaussian_profile(0.77), rel=1e-11)


def test_boundary_set_and_perimeter():
    bset = boundary_set(GAUSSIAN, (Interval(-1.0, 0.0), Interval(0.5, 2.0)))
    assert bset.boundary_points == pytest.approx((-1.0, 0.0, 0.5, 2.0))
    want_mass = (
        0.5 - gaussian_cdf_oracle(-1.0) + gaussian_cdf_oracle(2.0) - gaussian_cdf_oracle(0.5)
    )
    assert bset.total_measure == pytest.approx(want_mass, abs=1e-10)
    want_peri = sum(GAUSSIAN.density(x) for x in (-1.0, 0.0, 0.5, 2.0))
    assert perimeter(GAUSSIAN, bset) == pytest.approx(want_peri, rel=1e-12)


def test_boundary_set_rejects_touching_pieces():
    with pytest.raises(DomainError):
        boundary_set(GAUSSIAN, (Interval(-1.0, 0.0), Interval(0.0, 1.0)))
    with pytest.raises(DomainError):
        boundary_set(TRUNCATED_2, (Interval(3.0, 4.0),))


def test_boundary_set_clips_to_domain():
    bset = boundary_set(TRUNCATED_2, (Interval(-5.0, 0.0),))
    assert bset.boundary_points == pytest.approx((0.0,))
    assert bset.total_measure == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("u", [1e-4, 1e-8, 1e-10, 1e-12])
def test_boundary_set_upper_tail_as_precise_as_lower(u):
    q = GAUSSIAN.quantile(u)
    lower = boundary_set(GAUSSIAN, (Interval(-math.inf, q),)).total_measure
    upper = boundary_set(GAUSSIAN, (Interval(-q, math.inf),)).total_measure
    assert lower == pytest.approx(u, rel=1e-12, abs=0.0)
    assert upper == pytest.approx(u, rel=1e-12, abs=0.0)
    # cut at quantile(1 - u), the upper half-line holds 1 - (1 - u), which
    # is exact in floating point and differs from u by up to 5e-5 at 1e-12
    above = boundary_set(GAUSSIAN, (Interval(GAUSSIAN.quantile(1.0 - u), math.inf),))
    assert above.total_measure == pytest.approx(1.0 - (1.0 - u), rel=1e-12, abs=0.0)


# -- brute-force minimizer ----------------------------------------------------


def test_minimizer_gaussian_half_line_wins():
    for theta, want in ((0.5, oc.INV_SQRT_2PI), (oc.PHI_1, oc.PDF_AT_1)):
        res = brute_force_minimizer(GAUSSIAN, theta)
        assert res.is_half_line
        assert res.perimeter == pytest.approx(want, abs=1e-9)
        assert res.candidates_checked > 1000


def test_minimizer_truncated_half_line_value():
    res = brute_force_minimizer(TRUNCATED_2, 0.5)
    assert res.is_half_line
    assert res.perimeter == pytest.approx(oc.HALF_LINE_PERIMETER_D2, abs=1e-9)


def test_minimizer_result_reports_a_theta_mass():
    res = brute_force_minimizer(KINKED, 0.3)
    assert res.boundary_set.total_measure == pytest.approx(0.3, abs=1e-8)
    assert res.perimeter >= gaussian_profile(0.3) - 1e-6  # Bakry-Ledoux


def test_minimizer_theta_validation():
    with pytest.raises(DomainError):
        brute_force_minimizer(GAUSSIAN, 1.2)


def _mode_spec(mu, c):
    """``min_j (x - mu_j)^2/2 + c_j``: one Gaussian bump per mode, cut where
    the next takes over; not 1-convex, so other sets can beat half-lines."""
    mu = np.asarray(mu, dtype=float)
    offsets = 0.5 * mu**2 + np.asarray(c, dtype=float)
    edges = np.concatenate([[-math.inf], np.diff(offsets) / np.diff(mu), [math.inf]])
    return PotentialSpec(Interval(-math.inf, math.inf), edges, -mu, offsets)


def _isoperimetry_measures():
    xs = np.linspace(-6.0, 6.0, 61)
    convex = 0.3 * np.logaddexp(xs - 0.4, 0.4 - xs) - 0.1 * xs
    return [GAUSSIAN, TRUNCATED_2, normalize(truncated_gaussian_potential(1.3)),
            normalize(truncated_gaussian_potential(3.2)),
            *(PerturbedSweepFamily.seeded(k).measure_at(1.0) for k in (7, 4242, 91817)),
            normalize(tabulated_potential(xs, 0.5 * xs * xs + convex))]


def _layout(res):
    """Which family a minimizer's winner belongs to, read off its pieces."""
    lo, hi = res.boundary_set.pieces[0].lo, res.boundary_set.pieces[-1].hi
    if len(res.boundary_set.pieces) == 1:
        return "half-line" if res.is_half_line else "interval"
    return {(True, True): "complement", (True, False): "half-line+interval",
            (False, True): "interval+half-line"}.get((math.isinf(lo), math.isinf(hi)), "two intervals")


def test_minimizer_matches_oracle_on_isoperimetry_measures():
    thetas = [0.01, *(round(0.1 * k, 1) for k in range(1, 10)), 0.999]
    for m in _isoperimetry_measures():
        for theta in thetas:
            assert brute_force_minimizer(m, theta) == oracle_minimizer(m, theta), (m.potential, theta)


@pytest.mark.parametrize("mu, c", [((-2.0, 2.0), (0.0, 0.0)), ((-3.0, 0.0, 3.0), (0.0, 0.5, 0.0)),
                                   ((-4.0, 0.5, 5.0), (0.3, 0.0, 0.8))])
def test_minimizer_matches_oracle_on_bimodal_and_trimodal(mu, c):
    m = normalize(_mode_spec(mu, c))
    for theta in np.linspace(0.05, 0.95, 19):
        assert brute_force_minimizer(m, theta) == oracle_minimizer(m, theta), theta


def test_minimizer_matches_oracle_where_other_sets_win():
    """At masses that sum one or two whole bumps, the winner sits in the
    valleys: intervals, complements and half-line + interval layouts."""
    layouts = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 6))
        mu = np.cumsum(rng.uniform(4.0, 7.0, k))
        m = normalize(_mode_spec(mu - mu.mean(), rng.uniform(-1.0, 1.0, k)))
        bumps = np.diff(np.concatenate([[0.0], m.cdf_many(m.potential.edges[1:-1]), [1.0]]))
        picks = itertools.chain(itertools.combinations(range(k), 1), itertools.combinations(range(k), 2))
        thetas = {float(bumps[list(pick)].sum()) for pick in picks}
        won = set()
        for theta in sorted(t for t in thetas if 0.02 < t < 0.98):
            res = brute_force_minimizer(m, theta)
            assert res == oracle_minimizer(m, theta), (seed, theta)
            won.add(_layout(res))
        assert won - {"half-line"}, seed
        layouts |= won
    assert {"interval", "complement", "half-line+interval", "interval+half-line"} <= layouts


def test_minimizer_reads_the_profile_in_three_array_calls(monkeypatch):
    """No candidate is read on its own: a search inverts masses in at most
    three array calls of ``MeasureStack._invert`` on a fresh measure (the
    span, the bounds, the candidates left) and in two once the measure holds
    its span, whatever the grid size, and the bounds leave out most of the
    masses that the search over every candidate reads (33,608 on these
    cases)."""
    cases = ((GAUSSIAN, 0.3), (TRUNCATED_2, 0.999), (KINKED, 0.01), (GAUSSIAN, 1.5e-9),
             (KINKED, 1.0 - 5e-7), (TRUNCATED_2, 1.0 - 1.5e-9))
    wants = [oracle_minimizer(m, theta) for m, theta in cases]
    invert = MeasureStack._invert
    calls = []

    def counted(self, tail, upper, row):
        calls.append(tail.size if tail.ndim else None)
        return invert(self, tail, upper, row)

    monkeypatch.setattr(MeasureStack, "_invert", counted)
    # near 0 and 1 the single-interval, complement and interval + right
    # half-line families run out of room and drop out of the count
    masses = 0
    for (m, theta), want in zip(cases, wants):
        fresh = Measure1D(m.cells)  # a measure that has not read its span
        calls.clear()
        res = brute_force_minimizer(fresh, theta)
        assert None not in calls and len(calls) <= 3, (theta, calls)
        assert res == want  # candidates_checked included
        masses += sum(calls)
        calls.clear()
        assert brute_force_minimizer(fresh, theta) == want
        assert None not in calls and len(calls) <= 2, (theta, calls)
    assert masses <= 0.6 * 33_608, masses
    # nine theta on one fresh measure: the span once, then two reads a search
    fresh = Measure1D(GAUSSIAN.cells)
    calls.clear()
    for theta in np.linspace(0.1, 0.9, 9):
        brute_force_minimizer(fresh, theta)
    assert len(calls) == 1 + 2 * 9, calls


def _valley_cases(seed):
    """A measure of 3 to 5 far-apart bumps, and the masses of one or two
    whole bumps, at which sets ending in the valleys can win."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 6))
    mu = np.cumsum(rng.uniform(4.0, 7.0, k))
    m = normalize(_mode_spec(mu - mu.mean(), rng.uniform(-1.0, 1.0, k)))
    bumps = np.diff(np.concatenate([[0.0], m.cdf_many(m.potential.edges[1:-1]), [1.0]]))
    picks = itertools.chain(itertools.combinations(range(k), 1), itertools.combinations(range(k), 2))
    return [(m, t) for t in sorted({float(bumps[list(pick)].sum()) for pick in picks}) if 0.02 < t < 0.98]


# psi_hat jumps up by 2 at x = 0.5: the density drops by e^-2 across that edge
_JUMP_DOWN = normalize(PotentialSpec(Interval(-math.inf, math.inf), np.array([-math.inf, 0.5, math.inf]),
                                     np.zeros(2), np.array([0.0, 2.0])))


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_minimizer_measures_its_half_line_as_boundary_set_does(theta):
    """A winning half-line is measured by the rule of ``boundary_set``,
    field for field: below the median an upper half-line's measure is
    ``sf(q) - sf(hi)``, above it ``cdf(hi) - cdf(q)``, and on seed 153468
    ``cdf(hi)`` is not exactly 1."""
    measures = (GAUSSIAN, TRUNCATED_2, *(PerturbedSweepFamily.seeded(k).measure_at(1.0) for k in (91817, 153468)),
                _isoperimetry_measures()[-1], _JUMP_DOWN)
    uppers = 0
    for m in measures:
        res = brute_force_minimizer(m, theta)
        if res.is_half_line:
            assert res.boundary_set == boundary_set(m, res.boundary_set.pieces), (m.potential, theta)
            uppers += res.boundary_set.pieces[0].lo > m.domain.lo
    assert uppers or theta == 0.5  # at 1/2 only lower half-lines win here


def test_minimizer_block_bounds_hold(monkeypatch):
    """Each single-interval and complement candidate's perimeter, with every
    candidate's profile read, is at least the bound of its block, on 1-convex
    measures, on multimodal ones and across a downward jump of the density;
    and some blocks are skipped on each kind."""
    pair_floor = measure1d._pair_floor
    seen = []

    def spy(tu, j_ends, edge_mass, edge_density):
        bound = pair_floor(tu, j_ends, edge_mass, edge_density)
        seen.append((tu, bound))
        return bound

    monkeypatch.setattr(measure1d, "_pair_floor", spy)
    thetas = [round(0.1 * k, 1) for k in range(1, 10)]
    kinds = {
        "isoperimetry": [(m, t) for m in _isoperimetry_measures() for t in thetas],
        "modes": [(normalize(_mode_spec(mu, c)), t) for mu, c in (((-2.0, 2.0), (0.0, 0.0)),
                                                                  ((-4.0, 0.5, 5.0), (0.3, 0.0, 0.8)))
                  for t in thetas] + [case for seed in range(4) for case in _valley_cases(seed)],
        "jump": [(_JUMP_DOWN, t) for t in thetas],
    }
    for kind, cases in kinds.items():
        skipped = 0
        for m, theta in cases:
            seen.clear()
            brute_force_minimizer(m, theta)
            bar = min(m.density(m.quantile(np.array([theta, 1.0 - theta])))) / (1.0 - measure1d._BOUND_SLACK)
            for tu, bound in seen:
                J = m.density(m.quantile(tu.ravel())).reshape(tu.shape)
                assert np.all(J[0] + J[1] >= bound), (kind, theta)
                skipped += int(np.count_nonzero(bound > bar))
        assert skipped, kind


def test_minimizer_without_edge_bounds_is_caught(monkeypatch):
    """A bound that forgets the cell edges misses the valleys, where the
    profile dips between two block ends, and skips the winning interval."""
    pair_floor = measure1d._pair_floor
    monkeypatch.setattr(measure1d, "_pair_floor", lambda tu, j_ends, edge_mass, edge_density:
                        pair_floor(tu, j_ends, edge_mass[:0], edge_density[:0]))
    assert any(brute_force_minimizer(m, theta) != oracle_minimizer(m, theta) for m, theta in _valley_cases(0))


# -- closed forms against the decimal piecewise-mass oracle --------------------

_INF = Decimal("Infinity")
_LOG_SQRT_2PI = log_sqrt_2pi_decimal()


def _perturbed_cells(breakpoints, slopes):
    """Cells of x^2/2 + log sqrt(2 pi) + the continuous piecewise-linear
    perturbation that vanishes at the first breakpoint."""
    b = [Decimal(t) for t in breakpoints]
    s = [Decimal(t) for t in slopes]
    edges = [-_INF] + b + [_INF]
    cells, anchor, value = [], b[0], Decimal(0)
    for i, slope in enumerate(s):
        if i >= 2:
            value += s[i - 1] * (b[i - 1] - b[i - 2])
            anchor = b[i - 1]
        cells.append((edges[i], edges[i + 1], slope, _LOG_SQRT_2PI + value - slope * anchor))
    return cells


def _tabulated_cells(xs, values):
    """Cells of x^2/2 + the linear interpolant of values - xs^2/2."""
    x = [Decimal(t) for t in xs]
    t = [Decimal(v) - u * u / 2 for u, v in zip(x, values)]
    cells = []
    for i in range(len(x) - 1):
        slope = (t[i + 1] - t[i]) / (x[i + 1] - x[i])
        cells.append((x[i], x[i + 1], slope, t[i] - slope * x[i]))
    return cells


_KINK_ARGS = ((-0.7, 0.4, 1.1), (-0.6, -0.1, 0.3, 0.9))
_TAB_XS = np.linspace(-3.0, 3.0, 13)
_TAB_VALUES = 0.5 * _TAB_XS**2 + 0.4 * np.logaddexp(_TAB_XS - 0.3, 0.3 - _TAB_XS)

# (measure, oracle cells, translation the measure applies to them)
ORACLE_CASES = {
    "kinked": (KINKED, _perturbed_cells(*_KINK_ARGS), 0.0),
    "kinked+0.37": (KINKED.translate(0.37), _perturbed_cells(*_KINK_ARGS), 0.37),
    "truncated(-1,3)": (
        normalize(truncated_gaussian_potential(lo=-1.0, hi=3.0)),
        [(Decimal(-1), Decimal(3), Decimal(0), _LOG_SQRT_2PI)],
        0.0,
    ),
    "tabulated": (
        normalize(tabulated_potential(_TAB_XS, _TAB_VALUES)),
        _tabulated_cells(_TAB_XS, _TAB_VALUES),
        0.0,
    ),
}


def _oracle_masses(cells, shift, x):
    """(total, below x, above x) of the oracle cells moved by shift."""
    u = Decimal(x) - Decimal(shift)
    return (
        piecewise_mass_decimal(cells),
        piecewise_mass_decimal(cells, hi=u),
        piecewise_mass_decimal(cells, lo=u),
    )


def _probe_points(m):
    lo = max(m.domain.lo, -6.0 + m.quantile(0.5))
    hi = min(m.domain.hi, 8.0 + m.quantile(0.5))
    return [*np.linspace(lo, hi, 11)[1:-1], *m.potential.edges[1:-1]]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_normalizer_matches_decimal_oracle(case):
    # each cell's log amplitude is log sqrt(2 pi) + beta^2/2 - gamma - log Z
    # (a translate keeps the untranslated cells')
    m, cells, _ = ORACLE_CASES[case]
    log_z = piecewise_mass_decimal(cells).ln()
    want = [float(_LOG_SQRT_2PI + beta * beta / 2 - gamma - log_z) for _, _, beta, gamma in cells]
    np.testing.assert_allclose(m.log_amp, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_cdf_and_sf_match_decimal_oracle(case):
    m, cells, shift = ORACLE_CASES[case]
    for x in _probe_points(m):
        total, below, above = _oracle_masses(cells, shift, x)
        assert m.cdf(x) == pytest.approx(float(below / total), abs=1e-14)
        assert m.sf(x) == pytest.approx(float(above / total), abs=1e-14)


@pytest.mark.parametrize("case", ["kinked", "kinked+0.37"])
def test_sf_upper_tail_relative_accuracy(case):
    m, cells, shift = ORACLE_CASES[case]
    for x in np.linspace(3.0, 8.0, 6):
        total, _, above = _oracle_masses(cells, shift, x)
        assert m.sf(x) == pytest.approx(float(above / total), rel=1e-10)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_quantile_round_trip_against_decimal_oracle(case):
    m, cells, shift = ORACLE_CASES[case]
    for theta in (1e-6, 0.02, 0.31, 0.5, 0.77, 0.999, 1 - 1e-6):
        total, below, _ = _oracle_masses(cells, shift, m.quantile(theta))
        assert float(below / total) == pytest.approx(theta, abs=2e-11)
