import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isolab
import oracle_constants as oc
from oracle_entropy import relative_entropy_decimal, relative_entropy_quadrature
from oracle_l1 import l1_quadrature
from oracle_erf import lp_translated_gaussian_decimal, truncated_deficit_decimal, truncation_excess_decimal
from oracle_ot import discrete_w2_oracle
from isolab.measure1d import MeasureStack
from isolab.numerics import TAIL_CUTOFF, gaussian_cdf
from isolab.stability import solve_truncation_for_deficit, truncated_deficit
from isolab import (
    DEFAULT_DELTA_GRID,
    DomainError,
    Example23SweepFamily,
    check_gap_bounds,
    deficit,
    example23,
    gaussian_measure,
    gaussian_quantile,
    lp_distance,
    normalize,
    perturbed_gaussian_potential,
    PerturbedSweepFamily,
    relative_entropy,
    tabulated_potential,
    truncated_gaussian_potential,
    w1_dual_bound,
    w1_to_gaussian,
    w2_to_gaussian,
)

GAUSSIAN = gaussian_measure()
TRUNCATED_2 = normalize(truncated_gaussian_potential(2.0))
KINKED = normalize(perturbed_gaussian_potential((-0.4, 0.9), (-0.5, 0.0, 0.7)))


def stack(measures):
    """The measures, which share a cell count, as the rows of one stack."""
    return MeasureStack(*(np.concatenate([getattr(m.cells, name) for m in measures])
                          for name in ("edges", "beta", "log_amp")))


def quantile_centered(m, theta):
    """``m`` translated so that its ``theta``-quantile, read by
    ``Measure1D.quantile`` rather than the theta-point read of
    :func:`deficit`, sits at ``a_theta``."""
    return m.translate(gaussian_quantile(theta) - m.quantile(theta))


# -- deficit ------------------------------------------------------------------


def test_deficit_truncated_matches_oracle():
    rep = deficit(TRUNCATED_2, 0.5)
    assert rep.deficit == pytest.approx(oc.DEFICIT_D2, abs=1e-10)
    assert rep.a_theta == 0.0
    assert rep.shift == pytest.approx(0.0, abs=1e-10)
    assert rep.perimeter_at_a == pytest.approx(oc.HALF_LINE_PERIMETER_D2, abs=1e-10)
    assert rep.profile_at_theta == pytest.approx(oc.INV_SQRT_2PI, rel=1e-13)


def test_deficit_gaussian_vanishes():
    for theta in (0.1, 0.5, 0.9):
        assert abs(deficit(GAUSSIAN, theta).deficit) <= 1e-12


def test_deficit_centers_internally():
    moved = TRUNCATED_2.translate(-1.3)
    rep = deficit(moved, 0.5)
    assert rep.deficit == pytest.approx(oc.DEFICIT_D2, abs=1e-10)
    assert rep.shift == pytest.approx(1.3, abs=1e-9)


def test_deficit_nonnegative_on_kinked():
    for theta in (0.15, 0.5, 0.85):
        assert deficit(KINKED, theta).deficit >= -1e-9


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_deficit_of_a_sequence_is_the_measures_own_reads(theta):
    # the stacked read gives each measure's deficit and shift as the
    # measure's own quantile and density give them
    ms = [PerturbedSweepFamily.seeded(seed).measure_at(lam) for seed, lam in ((3, 0.5), (5, 1.0), (7, 2.0))]
    rep = deficit(stack(ms), theta)
    assert isinstance(rep.deficit, np.ndarray) and rep.deficit.shape == (3,)
    for i, m in enumerate(ms):
        q = m.quantile(theta)
        assert rep.shift[i] == pytest.approx(gaussian_quantile(theta) - q, rel=1e-13, abs=1e-15)
        assert rep.perimeter_at_a[i] == pytest.approx(m.density(q), rel=1e-13)
        assert rep.deficit[i] == deficit(m, theta).deficit
    with pytest.raises(DomainError):
        deficit(stack(ms), 1.0)


@given(
    b=st.floats(min_value=-1.0, max_value=1.0),
    step=st.floats(min_value=0.05, max_value=1.5),
    tilt=st.floats(min_value=-0.5, max_value=0.5),
    theta=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=15, deadline=None)
def test_deficit_nonnegative_property(b, step, tilt, theta):
    # arbitrary one-kink 1-convex perturbation: deficit must stay >= 0
    m = normalize(perturbed_gaussian_potential((b,), (tilt, tilt + step)))
    assert deficit(m, theta).deficit >= -1e-9


def test_slope_gap_smooth_cases():
    assert check_gap_bounds(GAUSSIAN, 0.3).slope_gap == pytest.approx(0.0, abs=1e-9)
    assert check_gap_bounds(TRUNCATED_2, 0.5).slope_gap == pytest.approx(0.0, abs=1e-9)


# -- example 2.3 closed forms -------------------------------------------------


def test_example23_constants():
    m, family = example23(2.0)
    assert family.D == 2.0
    assert family.delta_E == pytest.approx(oc.DELTA_E_D2, rel=1e-11)
    assert family.deficit == pytest.approx(oc.DEFICIT_D2, rel=1e-11)
    assert family.lp(1) == pytest.approx(oc.LP1_D2, rel=1e-11)
    assert family.lp(2) == pytest.approx(oc.LP2_D2, rel=1e-11)
    assert family.lp(4) == pytest.approx(oc.LP4_D2, rel=1e-11)
    with pytest.raises(DomainError):
        family.lp(0.5)


def test_example23_closed_vs_numeric_routes():
    m, family = example23(2.0)
    assert deficit(m, 0.5).deficit == pytest.approx(family.deficit, abs=1e-8)
    for p in (1, 2, 4):
        assert lp_distance(m, p) == pytest.approx(family.lp(p), abs=1e-8)
    assert relative_entropy(m) == pytest.approx(math.log1p(family.delta_E), abs=1e-9)


def test_example23_rejects_bad_width():
    with pytest.raises(DomainError):
        example23(0.0)


# -- L^p and entropy ----------------------------------------------------------


def test_lp_distance_values():
    assert lp_distance(TRUNCATED_2, 1) == pytest.approx(oc.LP1_D2, abs=1e-9)
    assert lp_distance(TRUNCATED_2, 2) == pytest.approx(oc.LP2_D2, abs=1e-9)
    assert lp_distance(TRUNCATED_2, 4) == pytest.approx(oc.LP4_D2, abs=1e-9)


def test_lp_distance_nondecreasing_in_p():
    values = [lp_distance(KINKED, p) for p in (1.0, 2.0, 4.0, 8.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("s, p", [(3.0, 8), (3.0, 16), (3.0, 64), (0.37, 2), (-1.5, 4)])
def test_lp_distance_matches_binomial_oracle(s, p):
    # at s = 3 the integrand |ratio - 1|^p reaches e^924 near x = 40 for
    # p = 8, and the integral itself is about e^18144 for p = 64, with its
    # peak at x = 192
    want = float(lp_translated_gaussian_decimal(s, p))
    assert lp_distance(GAUSSIAN.translate(s), p) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "measure, p, before",
    [
        # values of the |expm1(g)|^p * phi integrand this log-space form replaced
        (GAUSSIAN.translate(3.0), 2, 90.01157663087234),
        (GAUSSIAN.translate(3.0), 4, 729416.3698463265),
        (TRUNCATED_2, 2, 0.21833283369993706),
        (TRUNCATED_2, 4, 0.46186519813979016),
        (GAUSSIAN.translate(0.37), 2, 0.38303194571666704),
        (GAUSSIAN.translate(0.37), 4, 0.5915716149662333),
    ],
)
def test_lp_distance_low_p_unchanged_by_log_space_form(measure, p, before):
    assert lp_distance(measure, p) == pytest.approx(before, rel=1e-14)


def test_lp_distance_validation():
    with pytest.raises(DomainError):
        lp_distance(GAUSSIAN, 0.5)
    with pytest.raises(DomainError):
        lp_distance(GAUSSIAN, 65.0)
    with pytest.raises(DomainError):
        lp_distance(GAUSSIAN, math.nan)


def test_entropy_values():
    assert relative_entropy(TRUNCATED_2) == pytest.approx(oc.ENTROPY_D2, abs=1e-9)
    assert relative_entropy(GAUSSIAN) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_shifted_gaussian_is_half_s_squared():
    for s in (0.3, 1.0, -1.3, 2.0):
        got = relative_entropy(GAUSSIAN.translate(s))
        assert got == pytest.approx(s * s / 2.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("D", [1.0, 1.5, 2.0, 2.5])
def test_entropy_of_example23_is_log1p_delta_e(D):
    m, family = example23(D)
    assert relative_entropy(m) == pytest.approx(math.log1p(family.delta_E), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("D", [2.0, 4.0, 6.0, 7.5])
def test_example23_delta_e_and_deficit_match_the_decimal_oracle(D):
    # formed as 1/gamma(I) - 1, delta_E cancelled as D grew: it missed the
    # oracle by 1.4e-12 at D = 4, 5.4e-8 at D = 6 and 1.4e-3 at D = 7.5
    _, family = example23(D)
    want = truncation_excess_decimal(D)
    assert family.delta_E == pytest.approx(float(want), rel=1e-13, abs=0.0)
    assert family.deficit == pytest.approx(float(truncated_deficit_decimal(D, 0.5)), rel=1e-13, abs=0.0)


def _entropy_measures():
    xs = np.linspace(-6.0, 6.0, 61)
    convex = 0.3 * np.logaddexp(xs - 0.4, 0.4 - xs) - 0.1 * xs
    return [GAUSSIAN, TRUNCATED_2, KINKED, KINKED.translate(-0.7),
            normalize(truncated_gaussian_potential(lo=-0.5, hi=3.0)),
            normalize(tabulated_potential(xs, 0.5 * xs * xs + convex)),
            *(PerturbedSweepFamily.seeded(k).measure_at(lam) for k in (0, 3, 7)
              for lam in (1e-3, 1.0, 3.0))]


def test_entropy_matches_the_quadrature_oracle():
    for m in _entropy_measures():
        assert relative_entropy(m) == pytest.approx(relative_entropy_quadrature(m), abs=1e-10)


def _sweep_measures(family, theta=0.5):
    """The stack of ``family`` realized on the default grid, every point
    found."""
    stack, failed = family.at_deficit(DEFAULT_DELTA_GRID, theta)
    assert len(stack) == len(DEFAULT_DELTA_GRID) and failed == {}
    return stack


@pytest.mark.parametrize("seed", [3, 518787, 331872])
@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_stacked_entropy_matches_the_decimal_sum_over_its_cells(seed, theta):
    # the sweep's own cells, read as they are: at delta = 1e-6 the entropy
    # is 4e-12 to 1e-10, and rebuilding each row as a Measure1D moves it by
    # up to 1e-5 of itself
    cells = _sweep_measures(PerturbedSweepFamily.seeded(seed), theta)
    want = [float(relative_entropy_decimal(*row)) for row in zip(cells.edges, cells.beta, cells.log_amp)]
    np.testing.assert_allclose(relative_entropy(cells), want, rtol=1e-9, atol=0.0)


def _l1_stacks():
    xs = np.linspace(-6.0, 6.0, 61)
    convex = 0.3 * np.logaddexp(xs - 0.4, 0.4 - xs) - 0.1 * xs
    return {
        "example23": _sweep_measures(Example23SweepFamily()),
        **{f"perturbed:{k}": _sweep_measures(PerturbedSweepFamily.seeded(k), 0.3) for k in (3, 518787, 331872)},
        "tabulated": normalize(tabulated_potential(xs, 0.5 * xs * xs + convex)).cells,
        "translates": stack([GAUSSIAN.translate(s) for s in (-2.5, 0.3, 6.922046728373387, 45.0)]),
    }


@pytest.mark.parametrize("name", sorted(_l1_stacks()))
def test_l1_closed_form_matches_the_quadrature_oracle(name):
    cells = _l1_stacks()[name]
    want = [l1_quadrature(*row) for row in zip(cells.edges, cells.beta, cells.log_amp)]
    np.testing.assert_allclose(lp_distance(cells, 1.0), want, rtol=1e-10, atol=0.0)


# -- transport distances ------------------------------------------------------


def test_transport_gaussian_fixed_point():
    assert w1_to_gaussian(GAUSSIAN) <= 1e-10
    assert w2_to_gaussian(GAUSSIAN) <= 1e-10


def test_transport_shifted_gaussian_equals_shift():
    for s in (0.25, 1.0):
        m = GAUSSIAN.translate(s)
        assert w1_to_gaussian(m) == pytest.approx(s, abs=1e-8)
        assert w2_to_gaussian(m) == pytest.approx(s, abs=1e-8)


def test_transport_map_upper_tail_as_precise_as_lower():
    # F^{-1}(Phi(s)) = s + 0.3 for the translate, read as the quantile
    # coupling reads it: the lesser tail Phi(-|s|) inverted from its end.
    # Inverting 1 - Phi(s) from the left would lose 5.8e-6 at s = 7
    s = np.arange(-7.0, 8.0)
    got = GAUSSIAN.translate(0.3).cells.invert(gaussian_cdf(-np.abs(s)), s > 0.0,
                                               np.zeros(s.size, dtype=int))
    np.testing.assert_allclose(got - s - 0.3, 0.0, rtol=0.0, atol=1e-12)


def test_talagrand_equality_for_shifted_gaussian():
    # W_2^2 = s^2 = 2 * Ent: the extremal case of the inequality
    m = GAUSSIAN.translate(0.8)
    lhs, rhs = w2_to_gaussian(m) ** 2, 2.0 * relative_entropy(m)
    assert lhs <= rhs + 1e-8
    assert lhs == pytest.approx(rhs, abs=1e-8)
    assert rhs == pytest.approx(0.64, abs=1e-12)


@pytest.mark.parametrize("D", [1.5, 2.0, 3.0])
def test_transport_chain_on_truncations(D):
    m = normalize(truncated_gaussian_potential(D))
    w1 = w1_to_gaussian(m)
    w2 = w2_to_gaussian(m)
    assert 0.0 < w1 <= w2 + 1e-10
    assert w2**2 <= 2.0 * relative_entropy(m) + 1e-8


# -- distances on stacks: one quadrature, one row per measure ----------------


@pytest.mark.parametrize("family", [Example23SweepFamily(), PerturbedSweepFamily.seeded(123456)],
                         ids=["example23", "perturbed"])
def test_distances_on_a_sequence_equal_the_per_measure_calls(family):
    ms = _sweep_measures(family)
    for distance in (lambda m: lp_distance(m, 1.0), lambda m: lp_distance(m, 4.0),
                     w1_to_gaussian, w2_to_gaussian):
        rows = distance(ms)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(ms),)
        alone = [distance(m) for m in ms]
        assert all(isinstance(v, float) for v in alone)
        np.testing.assert_allclose(rows, alone, rtol=1e-13, atol=0.0)


def test_distances_reject_a_list_of_measures():
    # measures are read together as the rows of one MeasureStack; a list is
    # no input, whether its measures share a cell count or not
    readers = (lambda m: deficit(m, 0.5), lambda m: lp_distance(m, 1.0), lambda m: lp_distance(m, 2.0),
               relative_entropy, w1_to_gaussian, w2_to_gaussian)
    for ms in ([GAUSSIAN, KINKED], [TRUNCATED_2, KINKED], [GAUSSIAN, GAUSSIAN.translate(0.3)], [KINKED]):
        for read in readers:
            with pytest.raises(DomainError, match="expected a Measure1D or a MeasureStack, got list"):
                read(ms)


def _w1_cdf_form(m):
    """``int |F_m - Phi| dx`` by QUADPACK, the upper half through the upper
    tails ``sf``, split at the interior cell edges, at 0 and at the zeros of
    ``F_m - Phi`` that brentq refines from a grid of pitch 1e-3 on (-10, 10),
    where ``|F_m - Phi|`` has its kinks."""
    from scipy import integrate as quadpack, optimize, special

    def gap(x):  # the sign of F_m - Phi, each half read from its own tail
        return m.cdf(x) - special.ndtr(x) if x < 0.0 else special.ndtr(-x) - m.sf(x)

    xs = np.linspace(-10.0, 10.0, 20001)
    g = np.where(xs < 0.0, m.cdf_many(xs) - special.ndtr(xs), special.ndtr(-xs) - m.sf(xs))
    zeros = [optimize.brentq(gap, xs[k], xs[k + 1], xtol=1e-15)
             for k in np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0.0)[0]]

    def halves(lo_half):
        cut = [k for k in [*m.potential.edges[1:-1], *zeros] if (k < 0.0) == lo_half]
        ends = [-np.inf, *sorted(cut), 0.0] if lo_half else [0.0, *sorted(cut), np.inf]
        f = ((lambda x: abs(m.cdf(x) - special.ndtr(x))) if lo_half
             else (lambda x: abs(m.sf(x) - special.ndtr(-x))))
        return sum(quadpack.quad(f, a, b, epsabs=1e-17, epsrel=1e-12, limit=400)[0]
                   for a, b in zip(ends, ends[1:]))

    return halves(True) + halves(False)


@pytest.mark.parametrize("family, theta, rtol", [(Example23SweepFamily(), 0.5, 1e-10),
                                                 (PerturbedSweepFamily.seeded(123456), 0.5, 1e-9),
                                                 (Example23SweepFamily(), 0.3, 1e-10)],
                         ids=["example23", "perturbed", "example23-theta0.3"])
def test_w1_meets_its_tolerance_against_the_cdf_form(family, theta, rtol):
    # F_m crosses Phi at s = 0 on both families at theta = 0.5, and at
    # -0.524 on example23 at theta = 0.3.  A quadrature of the quantile
    # coupling clipped to [1e-12, 1 - 1e-12] missed the example23 oracle by
    # 4.8e-7 at delta = 1e-6; a quadrature without the crossing as a
    # breakpoint missed the perturbed one by about 1e-7
    ms = _sweep_measures(family, theta)
    got = w1_to_gaussian(ms)
    want = np.array([_w1_cdf_form(m) for m in ms])
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def test_w1_dual_bound_dominates():
    for m, theta in ((TRUNCATED_2, 0.5), (KINKED, 0.3)):
        assert w1_to_gaussian(quantile_centered(m, theta)) <= w1_dual_bound(m, theta) + 1e-8


def test_w1_dual_bound_reads_no_quantile(monkeypatch):
    # the shift of the deficit report centers the measure: no quantile read
    cases = ((TRUNCATED_2, 0.5), (KINKED, 0.3), (KINKED, 0.8))
    want = [float(_w1_dual_bound_quadpack(m, theta)) for m, theta in cases]
    reads = []
    quantile = isolab.Measure1D.quantile
    monkeypatch.setattr(isolab.Measure1D, "quantile", lambda self, t: reads.append(t) or quantile(self, t))
    got = [w1_dual_bound(m, theta) for m, theta in cases]
    assert reads == []
    assert got == pytest.approx(want, rel=1e-10)


def test_w1_dual_bound_tails_in_closed_form():
    # the value both tails gave as half-line quadratures
    m = normalize(truncated_gaussian_potential(lo=-1.0, hi=3.0))
    assert w1_dual_bound(m, 0.5) == pytest.approx(0.31666076178447455, abs=1e-12)


def _w1_dual_bound_quadpack(m, theta):
    """The dual bound ``int |x - a_theta| |f - phi| dx`` of ``m`` centered at
    ``theta`` by QUADPACK, split at the cell edges, at ``a_theta`` and where
    ``log f - log phi``, linear on each cell, is 0; ``f`` is 0 off the domain."""
    from scipy import integrate as quadpack

    c = quantile_centered(m, theta)
    a = gaussian_quantile(theta)
    edges, beta, log_amp = c.cells.edges[0], c.cells.beta[0], c.cells.log_amp[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = (log_amp - 0.5 * beta**2) / beta
    zero = zero[(zero > edges[:-1]) & (zero < edges[1:])]
    cut = sorted({-np.inf, *edges.tolist(), a, *zero.tolist(), np.inf})

    def integrand(x):
        return abs(x - a) * abs(c.density(x) - math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))

    return sum(quadpack.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
               for lo, hi in zip(cut, cut[1:]))


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
def test_w1_dual_bound_matches_its_quadrature(theta):
    # the quadrature the closed moment sum replaced, as an oracle
    measures = [TRUNCATED_2, KINKED, normalize(truncated_gaussian_potential(lo=-1.0, hi=3.0)),
                *(PerturbedSweepFamily.seeded(seed).measure_at(1.0) for seed in (3, 331872))]
    for m in measures:
        assert w1_dual_bound(m, theta) == pytest.approx(_w1_dual_bound_quadpack(m, theta), rel=1e-10)


def test_w2_against_discrete_transport_oracle():
    got = w2_to_gaussian(TRUNCATED_2)
    oracle = discrete_w2_oracle(TRUNCATED_2, n_nodes=50_000)
    assert got == pytest.approx(oracle, abs=1e-3)


# -- gap bounds ---------------------------------------------------------------


def test_gap_bounds_gaussian_equality_case():
    rep = check_gap_bounds(GAUSSIAN, 0.5)
    assert rep.equality_case
    assert rep.fitted_lower_constant == 0.0
    assert rep.fitted_upper_constant == 0.0


def test_gap_bounds_truncated():
    rep = check_gap_bounds(TRUNCATED_2, 0.5)
    assert not rep.equality_case
    assert rep.deficit == pytest.approx(oc.DEFICIT_D2, abs=1e-9)
    assert rep.fitted_lower_constant >= 0.0
    assert rep.fitted_upper_constant >= 0.0
    assert math.isfinite(rep.fitted_upper_constant)
    assert rep.window.lo < 0.0 < rep.window.hi
    assert set(rep.to_dict()) == {f.name for f in dataclasses.fields(rep)} == {
        "theta", "deficit", "slope_gap", "window", "fitted_lower_constant", "fitted_upper_constant",
        "equality_case"}


def test_gap_bounds_read_the_deficit_report_bit_for_bit():
    # one theta-point read per measure: the gap bounds' delta is the very
    # number deficit() reports
    measures = [normalize(truncated_gaussian_potential(D)) for D in (1.0, 1.5, 2.0, 3.0)]
    measures += [PerturbedSweepFamily.seeded(seed).measure_at(1.0) for seed in range(8)]
    for m in measures:
        for theta in np.linspace(0.1, 0.9, 9):
            assert check_gap_bounds(m, theta).deficit == deficit(m, theta).deficit


def test_gap_constants_are_extrema_over_range_ends_and_edges():
    # a_theta = 0 sits on a cell 0.001 wide, where g is least: a sample grid
    # coarser than the cell misses it
    m = normalize(perturbed_gaussian_potential((0.0, 0.001), (-0.5, 0.0, 0.5)))
    rep = check_gap_bounds(m, 0.5)
    centered = quantile_centered(m, 0.5)
    a_theta = gaussian_quantile(0.5)
    lo = max(min(rep.window.lo, centered.quantile(1e-12)), -TAIL_CUTOFF)
    hi = min(max(rep.window.hi, centered.quantile(1.0 - 1e-12)), TAIL_CUTOFF)

    def brute_gap(lo, hi):
        edges = centered.potential.edges
        xs = np.concatenate([np.linspace(lo, hi, 100_001), edges[(edges > lo) & (edges < hi)]])
        gap = centered.potential.value(xs) - (0.5 * xs * xs + math.log(math.sqrt(2.0 * math.pi)))
        return gap - rep.slope_gap * (xs - a_theta)

    lower = -np.min(brute_gap(lo, hi)) / rep.deficit
    upper = np.max(brute_gap(rep.window.lo, rep.window.hi)) / math.sqrt(rep.deficit)
    assert rep.fitted_lower_constant == pytest.approx(lower, rel=1e-12)
    assert rep.fitted_upper_constant == pytest.approx(upper, rel=1e-12)
    # g is convex here, so the least valid lower constant is -g(a_theta)/delta
    g_at_a = float(centered.potential.value(a_theta)) - (0.5 * a_theta**2
                                                          + math.log(math.sqrt(2.0 * math.pi)))
    assert rep.fitted_lower_constant == pytest.approx(-g_at_a / rep.deficit, rel=1e-12)
    assert rep.fitted_lower_constant == pytest.approx(2.0851925, abs=1e-7)


def test_default_gap_window_widens_as_deficit_shrinks():
    a = gaussian_quantile(0.3)
    halves, lengths = [], []
    for D in (2.0, 4.0):
        m = normalize(truncated_gaussian_potential(D))
        rep, shift = check_gap_bounds(m, 0.3), deficit(m, 0.3).shift
        # a_theta +- sqrt(2 ln(1/delta)), cut to the centered domain
        half = math.sqrt(2.0 * math.log(1.0 / rep.deficit))
        assert rep.window.lo == pytest.approx(max(a - half, -D + shift), rel=1e-12)
        assert rep.window.hi == pytest.approx(min(a + half, D + shift), rel=1e-12)
        halves.append(half)
        lengths.append(rep.window.hi - rep.window.lo)
    assert halves[1] > halves[0] and lengths[1] > lengths[0]
    # on the whole line nothing is cut
    rep = check_gap_bounds(KINKED, 0.3)
    half = math.sqrt(2.0 * math.log(1.0 / rep.deficit))
    assert (rep.window.lo, rep.window.hi) == pytest.approx((a - half, a + half), rel=1e-12)


# Radii of oracle_erf.truncation_radius_decimal, a 100-digit bisection of the
# truncated deficit written from its definition (test_oracles checks them)
TRUNCATION_TARGETS = (1e-2, 3e-3, 1e-4, 2.5e-6, 1e-7, 0.1)
ORACLE_RADII = {
    0.5: (2.249930953171708, 2.6754114724635016, 3.661645968196817,
          4.517191211891909, 5.157205417769592, 1.2803445540126508),
    0.3: (2.2959887219181025, 2.7168524329379076, 3.693812921461904,
          4.543836632414442, 5.180780886808199, 1.3271697194860257),
}


@pytest.mark.parametrize("theta", sorted(ORACLE_RADII))
def test_solve_truncation_for_deficit_on_arrays(theta):
    radii = solve_truncation_for_deficit(np.array(TRUNCATION_TARGETS), theta)
    np.testing.assert_allclose(radii, ORACLE_RADII[theta], rtol=0.0, atol=1e-12)
    for target, want in zip(TRUNCATION_TARGETS, ORACLE_RADII[theta]):
        assert solve_truncation_for_deficit(target, theta) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 0.3, 0.8])
def test_truncated_deficit_matches_the_decimal_oracle(theta):
    # the deficit is no difference of rounded numbers: before, it missed
    # this oracle by up to 1.7e-10 at D = 5.2 and 7.6e-8 at D = 6
    radii = np.array([0.05, 0.5, 1.0, 2.0, 2.9, 3.5, 4.4, 5.2, 6.0])
    got = truncated_deficit(radii, theta)
    want = np.array([float(truncated_deficit_decimal(D, theta)) for D in radii])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert [truncated_deficit(D, theta) for D in radii] == got.tolist()

