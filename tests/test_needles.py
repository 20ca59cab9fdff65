import math
import tracemalloc
import warnings
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import isolab
import oracle_constants as oc
from oracle_erf import gaussian_cdf_oracle
from oracle_l1 import l1_quadrature
from oracle_mixture_l1 import mixture_l1_quadrature
from isolab import (
    ConfigError,
    DomainError,
    EnsembleConfig,
    NeedleEnsemble,
    aggregate_l1,
    check_one_convexity,
    classify_good,
    disintegration_check,
    gaussian_cdf,
    gaussian_measure,
    gaussian_pdf,
    generate_ensemble,
    make_needle,
    mixture_density,
    needle_l1,
    normalize,
    perturbed_gaussian_potential,
    theorem31_experiment,
    truncated_gaussian_potential,
)
from isolab.needles import rate_exponent
from isolab.numerics import LOG_SQRT_2PI
from isolab.stability import solve_truncation_for_deficit

GAUSSIAN = gaussian_measure()
SQRT_2PI = math.sqrt(2.0 * math.pi)
KINKED = normalize(perturbed_gaussian_potential((-0.4, 0.9), (-0.5, 0.0, 0.7)))
INF = math.inf


def ensemble(weights, measures, theta: float = 0.5) -> NeedleEnsemble:
    """The ensemble of one-cell measures, built from their cell arrays."""
    assert all(m.potential.slopes.size == 1 for m in measures)
    lo, hi, beta = np.array([(m.domain.lo, m.domain.hi, m.potential.slopes[0]) for m in measures]).T
    return NeedleEnsemble(np.asarray(weights, dtype=float), lo, hi, beta, theta=theta, epsilon=0.1)


def gaussian_pair(s: float, theta: float = 0.5) -> NeedleEnsemble:
    return ensemble([0.5, 0.5], [GAUSSIAN.translate(-s), GAUSSIAN.translate(s)], theta)


def single_needle(m, theta: float = 0.5) -> NeedleEnsemble:
    return ensemble([1.0], [m], theta)


def mixture_density_oracle(weights, measures, x: np.ndarray) -> np.ndarray:
    """rho by its definition: one Measure1D.density per needle, summed."""
    return sum(w * np.asarray(m.density(x), dtype=float) for w, m in zip(weights, measures))


def generated_measures(ens: NeedleEnsemble) -> list:
    """The measures of a generated ensemble's needles, built by the potential
    constructors: gamma on (-D, D), and gamma translated by -beta."""
    measures = []
    for lo, hi, beta in zip(ens.lo, ens.hi, ens.beta):
        if math.isfinite(hi):
            assert lo == -hi and beta == 0.0
            measures.append(normalize(truncated_gaussian_potential(float(hi))))
        else:
            measures.append(GAUSSIAN.translate(-float(beta)))
    return measures


_RIGHT = normalize(truncated_gaussian_potential(lo=-1.0, hi=math.inf))
_LEFT = normalize(truncated_gaussian_potential(lo=-math.inf, hi=1.5))
SHARED_SLOPE_MEASURES = [
    normalize(truncated_gaussian_potential(0.7)),
    normalize(truncated_gaussian_potential(2.0)),
    normalize(truncated_gaussian_potential(lo=-0.4, hi=math.inf)),
    GAUSSIAN,
    GAUSSIAN.translate(2.0),
    GAUSSIAN.translate(2.0),
    GAUSSIAN.translate(2.0),
    _RIGHT.translate(0.5),
    _LEFT.translate(0.5),
    normalize(truncated_gaussian_potential(lo=-1.0, hi=3.0)).translate(-0.8),
]
SHARED_SLOPE_WEIGHTS = np.arange(1.0, len(SHARED_SLOPE_MEASURES) + 1.0)
SHARED_SLOPE_WEIGHTS /= SHARED_SLOPE_WEIGHTS.sum()
SHARED_SLOPE_WEIGHTS[-1] = 1.0 - SHARED_SLOPE_WEIGHTS[:-1].sum()


def shared_slope_ensemble(theta: float = 0.5) -> NeedleEnsemble:
    """Needles whose slopes repeat: symmetric and one-sided truncations of
    the Gaussian (slope 0), three copies of one translate, two one-sided
    truncations translated alike, and one needle with a slope of its own."""
    return ensemble(SHARED_SLOPE_WEIGHTS, SHARED_SLOPE_MEASURES, theta)


# -- construction invariants --------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        NeedleEnsemble(np.array([0.5, 0.3]), np.full(2, -INF), np.full(2, INF), np.zeros(2),
                       theta=0.5, epsilon=0.1)


@pytest.mark.parametrize(
    "weights, lo, hi, beta",
    [
        ([], [], [], []),  # no needle
        ([1.5, -0.5], [-INF, -INF], [INF, INF], [0.0, 0.0]),  # a negative weight
        ([0.5, 0.5], [-1.0, 2.0], [1.0, 2.0], [0.0, 0.0]),  # an empty needle
        ([0.5, 0.5], [-INF, -INF], [INF, INF], [0.0, math.nan]),  # no slope
    ],
    ids=["empty", "negative-weight", "empty-interval", "nan-slope"],
)
def test_ensemble_arrays_are_validated(weights, lo, hi, beta):
    with pytest.raises(DomainError):
        NeedleEnsemble(*map(np.array, (weights, lo, hi, beta)), theta=0.5, epsilon=0.1)


def test_needle_quantiles_precomputed():
    nd = make_needle(1.0, GAUSSIAN, 0.3)
    assert gaussian_cdf(nd.r_minus) == pytest.approx(0.3, abs=1e-10)
    assert gaussian_cdf(nd.r_plus) == pytest.approx(0.7, abs=1e-10)


def test_scaling_exponent_arithmetic():
    assert rate_exponent(0.1) == pytest.approx(0.9 / 8.7, rel=1e-15)


# -- mixture density and disintegration ---------------------------------------


def test_mixture_density_of_symmetric_pair():
    for s in (0.5, 1.5):
        ens = gaussian_pair(s)
        want = math.exp(-0.5 * s * s) / SQRT_2PI
        assert mixture_density(ens, 0.0) == pytest.approx(want, rel=1e-12)


def test_mixture_density_vectorized():
    ens = gaussian_pair(1.0)
    xs = np.array([-1.0, 0.0, 1.0])
    vals = mixture_density(ens, xs)
    assert vals.shape == (3,)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)  # symmetry


def _generated(**config):
    ens = generate_ensemble(EnsembleConfig(**config))
    return ens, generated_measures(ens)


def _translates(*clusters, extra=()):
    """Full-line translates of the Gaussian, one per slope in ``clusters``
    (arrays of beta), plus the one-cell measures ``extra``, with seeded
    weights."""
    measures = [GAUSSIAN.translate(-float(b)) for c in clusters for b in c] + list(extra)
    weights = np.random.default_rng(len(measures)).uniform(0.5, 1.5, len(measures))
    weights /= weights.sum()
    return ensemble(weights, measures), measures


# Each maker gives an ensemble, the measures its needles were built from, and
# the number of its clusters of translates that mixture_density expands.
ORACLE_ENSEMBLES = {
    "generated-60": lambda: (*_generated(
        needle_count=60, deficit_scale=1e-3, bad_fraction=0.3, seed=5), 0),
    "generated-300": lambda: (*_generated(
        needle_count=300, deficit_scale=1e-5, bad_fraction=0.05, seed=2), 1),
    # 200 translates by 6 * U[1, 1.25] and 800 truncations
    "generated-1000": lambda: (*_generated(
        needle_count=1000, deficit_scale=1e-3, bad_fraction=1e-3 ** (0.9 / 8.7), seed=3), 1),
    "gaussian-pair": lambda: (
        gaussian_pair(0.5), [GAUSSIAN.translate(-0.5), GAUSSIAN.translate(0.5)], 0),
    "shared-slopes": lambda: (shared_slope_ensemble(), SHARED_SLOPE_MEASURES, 0),
    # one cluster exactly 1.5 wide (-3 + 1.5 is exact), one 1.0 wide
    "two-clusters": lambda: (*_translates(np.linspace(-3.0, -1.5, 40),
                                          np.linspace(1.0, 2.0, 30)), 2),
    # a cluster is expanded only when it holds more needles than the
    # expansion has terms, 26
    "cluster-of-26": lambda: (*_translates(np.linspace(-0.5, 0.9, 26)), 0),
    "cluster-of-27": lambda: (*_translates(np.linspace(-0.5, 0.9, 27)), 1),
    # a windowed translate inside a cluster's range stays on the direct path
    "windowed-translate": lambda: (*_translates(np.linspace(-1.0, 0.2, 30), extra=[
        normalize(truncated_gaussian_potential(lo=-2.0, hi=2.5)).translate(0.55)]), 1),
}


@pytest.mark.parametrize("make", ORACLE_ENSEMBLES.values(), ids=ORACLE_ENSEMBLES.keys())
def test_mixture_density_matches_needle_by_needle_sum(make):
    # the oracle sums the measures that the needles were built from
    ens, measures, expanded = make()
    assert len(ens._mixture_terms[1]) == expanded
    ends = np.concatenate([ens.lo, ens.hi])
    ends = ends[np.isfinite(ends)]
    xs = np.concatenate([np.linspace(-12.0, 16.0, 4001), ends, np.nextafter(ends, math.inf)])
    got = mixture_density(ens, xs)
    want = mixture_density_oracle(ens.weights, measures, xs)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    # the density is 0 at every needle endpoint, as Measure1D.density is
    assert mixture_density(ens, float(xs[100])) == pytest.approx(got[100], abs=1e-15)
    # far out it is exactly 0, with no floating-point warning; NaN stays NaN
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        far = mixture_density(ens, np.array([1e3, -1e3, 1e200, -1e200, math.inf, -math.inf,
                                             math.nan]))
    assert far[:6].tolist() == [0.0] * 6 and math.isnan(far[6])


def test_hermite_tail_bound():
    # Cramer's inequality |He_n(y)| exp(-y^2/4) <= 1.0865 sqrt(n!) bounds the
    # last kept term, at |t| <= 0.75, by this multiple of sum_q c_q
    n = isolab.needles._HERMITE_TERMS - 1
    t = isolab.needles._CLUSTER_WIDTH / 2.0
    assert (n, t) == (25, 0.75)
    assert 1.0865 * t**n / math.sqrt(math.factorial(n)) <= 2.5e-16


def test_truncated_hermite_series_is_caught(monkeypatch):
    # with 12 terms the expansion drops modes the oracle and the needlewise
    # side of the disintegration check both see; the mass cannot show it,
    # since every He_n with n >= 1 integrates to 0 against phi, so the check
    # uses cos(3.5 y), whose transform weights mode n by 3.5^n e^{-3.5^2/2}
    monkeypatch.setattr(isolab.needles, "_HERMITE_TERMS", 12)
    ens, measures, _ = ORACLE_ENSEMBLES["generated-1000"]()
    assert len(ens._mixture_terms[1]) == 1
    xs = np.linspace(-12.0, 16.0, 4001)
    err = np.abs(mixture_density(ens, xs) - mixture_density_oracle(ens.weights, measures, xs))
    assert np.max(err) > 1e-14
    full = np.isinf(ens.lo)
    centre = 0.5 * (ens.beta[full].min() + ens.beta[full].max())
    rep = disintegration_check(ens, lambda x: np.cos(3.5 * (x + centre)))
    assert abs(rep.lhs - rep.rhs) > 1e-9


def test_generated_quantiles_match_measure_quantiles():
    # both halves of the quantile reader, theta > 1/2 read from the right
    # end, on generated needles and on one-sided truncations and translates;
    # the half-line perimeter is the density read with r_minus
    for theta in (0.05, 0.3, 0.5, 0.7, 0.95):
        ens = generate_ensemble(EnsembleConfig(
            needle_count=50, theta=theta, deficit_scale=1e-2, bad_fraction=0.2, seed=8))
        inputs = ((ens, generated_measures(ens)),
                  (shared_slope_ensemble(theta), SHARED_SLOPE_MEASURES))
        for ens, measures in inputs:
            assert not ens.perimeter.flags.writeable
            # bit for bit the cell's own density, in either frame
            cell = np.exp(ens.log_amp - LOG_SQRT_2PI - 0.5 * (ens.r_minus + ens.beta) ** 2)
            assert ens.perimeter.tolist() == cell.tolist()
            for nd, m, perimeter in zip(ens.needles, measures, ens.perimeter):
                assert perimeter == pytest.approx(nd.measure.density(nd.r_minus), rel=1e-14)
                for measure in (nd.measure, m):
                    assert nd.r_minus == pytest.approx(measure.quantile(theta), abs=1e-12)
                    assert nd.r_plus == pytest.approx(measure.quantile(1.0 - theta), abs=1e-12)


def test_needles_must_be_one_cell():
    with pytest.raises(DomainError):
        make_needle(1.0, KINKED, 0.5)


def test_disintegration_identity_for_moments():
    ens = generate_ensemble(
        EnsembleConfig(needle_count=20, deficit_scale=1e-3, bad_fraction=0.1, seed=3)
    )
    for h in (lambda x: np.ones_like(x), lambda x: x, lambda x: x * x):
        rep = disintegration_check(ens, h)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-8)


def test_mixture_mass_is_one():
    ens = generate_ensemble(EnsembleConfig(needle_count=50, deficit_scale=1e-2, seed=1))
    rep = disintegration_check(ens, lambda x: np.ones_like(x))
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)


# -- shifted-Gaussian L1 ------------------------------------------------------


def translated_gaussian_l1(s: float) -> float:
    """``|| gamma(. - s) - gamma ||_{L^1(dx)}``: the needle L^1 of the
    Gaussian translated by ``s``."""
    return needle_l1(make_needle(1.0, GAUSSIAN.translate(s), 0.5))


def test_shifted_gaussian_l1_frozen_values():
    assert translated_gaussian_l1(0.1) == pytest.approx(oc.SHIFTED_L1_S01, abs=1e-15)
    assert translated_gaussian_l1(0.5) == pytest.approx(oc.SHIFTED_L1_S05, abs=1e-15)
    assert translated_gaussian_l1(1.0) == pytest.approx(oc.SHIFTED_L1_S10, abs=1e-15)
    assert translated_gaussian_l1(0.0) == 0.0


@given(s=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
# shifts whose densities part beyond the tail cutoff of 40
@example(s=35.0)
@example(s=-45.0)
@example(s=80.0)
def test_shifted_gaussian_l1_closed_form_and_bound(s):
    got = translated_gaussian_l1(s)
    closed = 4.0 * gaussian_cdf(abs(s) / 2.0) - 2.0
    assert got == pytest.approx(closed, abs=1e-14)
    assert got <= 2.0 * abs(s) / SQRT_2PI + 1e-12


def test_shifted_gaussian_l1_rejects_infinite():
    with pytest.raises(DomainError):
        translated_gaussian_l1(math.inf)


# -- needle and aggregate L1 --------------------------------------------------


def test_needle_l1_gaussian_is_zero():
    assert needle_l1(make_needle(1.0, GAUSSIAN, 0.5)) <= 1e-10


def test_needle_l1_truncated_value():
    # definition-faithful value 2*delta_E/(1+delta_E): the off-domain
    # convention already carries the tail mass, nothing is added on top
    nd = make_needle(1.0, normalize(truncated_gaussian_potential(2.0)), 0.5)
    assert needle_l1(nd) == pytest.approx(oc.NEEDLE_L1_D2, abs=1e-9)


@pytest.mark.parametrize(
    "s", [6.575603216677612, 6.730512905988127, 6.922046728373387, 0.3]
)
def test_needle_l1_translated_gaussian_closed_form(s):
    # bad needles of generated ensembles, where a quadrature that missed the
    # kink of |ratio - 1| at s/2 was off by up to 1.25e-6, and a small shift
    nd = make_needle(1.0, GAUSSIAN.translate(s), 0.5)
    assert needle_l1(nd) == pytest.approx(4.0 * gaussian_cdf_oracle(s / 2.0) - 2.0, abs=1e-10)


@pytest.mark.parametrize(
    "measure",
    [
        normalize(truncated_gaussian_potential(0.5)),
        normalize(truncated_gaussian_potential(2.0)),
        normalize(truncated_gaussian_potential(6.0)),
        GAUSSIAN.translate(0.3),
        GAUSSIAN.translate(-0.3),
        GAUSSIAN.translate(6.922046728373387),
        normalize(truncated_gaussian_potential(lo=-1.0, hi=3.0)).translate(0.8),
        normalize(truncated_gaussian_potential(lo=-0.5, hi=math.inf)).translate(-1.2),
    ],
    ids=["D=0.5", "D=2", "D=6", "s=0.3", "s=-0.3", "s=6.922", "truncated-translate",
         "one-sided-translate"],
)
def test_needle_l1_closed_form_matches_quadrature(measure):
    assert needle_l1(make_needle(1.0, measure, 0.5)) == pytest.approx(
        l1_quadrature(measure.potential.edges, measure.potential.slopes, measure.log_amp), abs=1e-10
    )


@pytest.mark.parametrize("D", [0.5, 2.0, 6.0])
def test_needle_l1_of_truncation_is_four_phi_minus_d(D):
    nd = make_needle(1.0, normalize(truncated_gaussian_potential(D)), 0.5)
    assert needle_l1(nd) == pytest.approx(4.0 * gaussian_cdf_oracle(-D), rel=1e-14, abs=1e-16)


def test_needle_l1_trivial_bound():
    for shift in (0.5, 4.0, 8.0):
        nd = make_needle(1.0, GAUSSIAN.translate(shift), 0.5)
        assert needle_l1(nd) <= 2.0 + 1e-12


def test_aggregate_l1_single_needle_collapses_to_equality():
    ens = single_needle(normalize(truncated_gaussian_potential(2.0)))
    rep = aggregate_l1(ens)
    assert rep.mixture_l1 == pytest.approx(rep.needlewise_sum, abs=1e-8)
    assert rep.mixture_l1 == pytest.approx(oc.NEEDLE_L1_D2, abs=1e-8)


def test_aggregate_l1_cancellation_is_strict():
    rep = aggregate_l1(gaussian_pair(0.5))
    assert rep.needlewise_sum == pytest.approx(oc.SHIFTED_L1_S05, abs=1e-8)
    assert rep.mixture_l1 < rep.needlewise_sum - 0.01


def test_aggregate_l1_all_gaussian_is_zero():
    ens = ensemble([0.25] * 4, [GAUSSIAN] * 4)
    rep = aggregate_l1(ens)
    assert rep.mixture_l1 <= 1e-10 and rep.needlewise_sum <= 1e-10


# -- classification -----------------------------------------------------------


def test_classify_good_all_gaussian():
    rep = classify_good(single_needle(GAUSSIAN), 1e-4)
    assert rep.good_mass == 1.0
    assert abs(rep.aggregate_deficit) <= 1e-10


def test_classify_good_markov_bound():
    for delta in (1e-2, 1e-3, 1e-4):
        ens = generate_ensemble(
            EnsembleConfig(needle_count=40, deficit_scale=delta, bad_fraction=0.05, seed=9)
        )
        rep = classify_good(ens, delta)
        if rep.aggregate_deficit <= delta:
            assert rep.good_mass >= 1.0 - math.sqrt(delta) - 1e-12


def test_classify_centered_all_gaussian():
    assert theorem31_experiment(single_needle(GAUSSIAN), 1e-4).centered_mass == 1.0


def test_classify_centered_vacuous_threshold():
    # far-shifted needles still count once the threshold swallows the line
    ens = gaussian_pair(2.0)
    with pytest.warns(RuntimeWarning, match="preconditions not met"):
        strict = theorem31_experiment(ens, 1e-4, c_threshold=1.0)
    vacuous = theorem31_experiment(ens, 1e-4, c_threshold=1e6)
    assert strict.centered_mass == 0.0
    assert vacuous.centered_mass == 1.0


def test_classify_validation():
    ens = single_needle(GAUSSIAN)
    with pytest.raises(DomainError):
        classify_good(ens, -1.0)
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            theorem31_experiment(ens, 1e-3, c_threshold=c)


@pytest.mark.parametrize("s", range(50, 2001, 50))
def test_far_apart_bumps_are_both_integrated(s):
    # the pieces start at the ends of the union of the needles' supports, so
    # no Kronrod pass can step over a bump on a long empty stretch
    ens = NeedleEnsemble([0.5, 0.5], [-INF, -INF], [INF, INF], [0.0, -float(s)], 0.5, 0.1)
    assert aggregate_l1(ens).mixture_l1 == pytest.approx(1.0, abs=1e-8)
    assert disintegration_check(ens, np.ones_like).lhs == pytest.approx(1.0, abs=1e-8)


def test_far_translated_needle_is_integrated_beyond_the_tail_cutoff():
    # half the mass sits around x = 45, past the tail cutoff of 40: the
    # mixture integrals run over the needles' own finite range
    ens = NeedleEnsemble([0.5, 0.5], [-INF, -INF], [INF, INF], [0.0, -45.0], 0.5, 0.1)
    rep = disintegration_check(ens, np.ones_like)
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    assert aggregate_l1(ens).mixture_l1 == pytest.approx(1.0, abs=1e-8)


# -- the mixture L1 in closed form --------------------------------------------


def random_ensemble(rng) -> NeedleEnsemble:
    """2 to 6 needles with slopes in (-3, 3), of either sign, each end finite
    with probability 0.8."""
    q = int(rng.integers(2, 7))
    beta = rng.uniform(-3.0, 3.0, q)
    lo = rng.uniform(-2.0, 0.5, q)
    hi = lo + rng.uniform(0.5, 3.0, q)
    lo[rng.random(q) < 0.2] = -INF
    hi[rng.random(q) < 0.2] = INF
    weights = rng.uniform(0.2, 1.0, q)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return NeedleEnsemble(weights, lo, hi, beta, 0.5, 0.1)


def test_mixture_l1_matches_the_quadrature_on_random_ensembles(monkeypatch):
    # a piece with two zeros is split at the minimum of rho/phi, a root of
    # a first find_root call, which then ends two brackets of the second
    calls = []
    find_root = isolab.needles.find_root

    def recorded(f, bracket, **kwargs):
        calls.append((bracket, find_root(f, bracket, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(isolab.needles, "find_root", recorded)
    two_zero_pieces = 0
    # on seeds 21 and 2027 a zero lies within 0.001 of a needle end
    for seed in (5, 21, 2027):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            ens = random_ensemble(rng)
            calls.clear()
            got = aggregate_l1(ens).mixture_l1
            if len(calls) == 2:
                two_zero_pieces += np.count_nonzero(np.isin(calls[1][0][1], calls[0][1]))
            assert got == pytest.approx(mixture_l1_quadrature(ens), rel=0.0, abs=1e-12), seed
    assert two_zero_pieces >= 1


def l1_split_at_zeros(ens: NeedleEnsemble) -> Tuple[float, list]:
    """``int |rho - phi| dx`` over (-40, 40) by QUADPACK, split at the needle
    ends and at the zeros of ``rho - phi`` that brentq refines from a grid of
    pitch 1e-4 on each piece between them; and those zeros.  Beyond 40 both
    densities are below 1e-290 for these slopes."""

    def diff(x):
        return mixture_density(ens, x) - gaussian_pdf(x)

    ends = np.concatenate([ens.lo, ens.hi, [-40.0, 40.0]])
    ends = np.unique(ends[np.isfinite(ends)])
    zeros = []
    for a, b in zip(ends, ends[1:]):
        xs = np.linspace(np.nextafter(a, b), np.nextafter(b, a), int((b - a) / 1e-4) + 2)
        f = diff(xs)
        zeros += [brentq(diff, xs[k], xs[k + 1], xtol=1e-15)
                  for k in np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)[0]]
    cuts = np.sort(np.concatenate([ends, zeros]))
    return sum(quad(lambda x: abs(diff(x)), a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(cuts, cuts[1:])), zeros


# b and w put the minimum of rho/phi = w K(b) e^{-bx} + (1 - w) K(-b) e^{bx}
# on (-0.5, 1.5), K(b) = e^{-b^2/2} / gamma(-0.5 + b, 1.5 + b), at x = 0.5
# and 1e-5 below 1
CLOSE_ZEROS = NeedleEnsemble([0.6126690922288273, 0.3873309077711727], [-0.5, -0.5], [1.5, 1.5],
                             [1.8430633238568503, -1.8430633238568503], 0.5, 0.1)


def test_mixture_l1_sees_two_zeros_closer_than_the_old_probe_step():
    want, zeros = l1_split_at_zeros(CLOSE_ZEROS)
    assert len(zeros) == 2 and 0.0 < zeros[0] < 0.5 < zeros[1] < 1.0  # one piece
    assert zeros[1] - zeros[0] < 0.01
    got = aggregate_l1(CLOSE_ZEROS).mixture_l1
    assert got == pytest.approx(want, rel=0.0, abs=1e-12)


def test_mixture_l1_sees_a_zero_next_to_a_needle_end():
    # rho - phi jumps across 0 at the end 0.9041 and crosses back at 0.9048:
    # a 0.01 probe sees neither, and a quadrature without that kink was
    # 1.6e-7 off
    ens = NeedleEnsemble([0.5746, 0.1088, 0.0858, 0.1176, 0.1132], [-INF, -INF, -1.647, -INF, -INF],
                         [INF, 1.2807, -0.4498, 0.9041, 1.3836],
                         [0.0, -2.7104, -1.8107, 0.8177, 1.7331], 0.5, 0.1)
    want, zeros = l1_split_at_zeros(ens)
    assert any(0.9041 < z < 0.905 for z in zeros)
    assert aggregate_l1(ens).mixture_l1 == pytest.approx(want, rel=0.0, abs=1e-12)


# -- the decomposition experiment ---------------------------------------------


def test_experiment_all_gaussian_is_clean():
    ens = ensemble([0.2] * 5, [GAUSSIAN] * 5)
    for delta in (1e-2, 1e-5):
        rep = theorem31_experiment(ens, delta)
        assert rep.mixture_l1 <= 1e-10
        assert rep.good_mass == 1.0 and rep.centered_mass == 1.0
        assert rep.bad_mass == 0.0
        assert rep.markov_applies and rep.bad_mass_within_rate


def test_experiment_decomposition_bound_on_generator():
    delta = 1e-3
    ens = generate_ensemble(
        EnsembleConfig(
            needle_count=60,
            deficit_scale=delta,
            bad_fraction=min(1.0, delta ** (0.9 / 8.7)),
            seed=5,
        )
    )
    rep = theorem31_experiment(ens, delta)
    assert rep.mixture_l1 <= rep.decomposition_bound + 1e-8
    assert rep.decomposition_bound == pytest.approx(
        rep.good_contribution + 2.0 * rep.bad_mass, rel=1e-12
    )
    assert rep.markov_applies
    assert rep.bad_mass_within_rate
    d = rep.to_dict()
    assert {"delta", "mixture_l1", "good_mass", "centered_mass", "rate_bound_exponent"} <= set(d)


def test_experiment_warns_on_precondition_miss():
    # a ensemble that is all bad mass cannot satisfy bad <= delta^alpha
    ens = generate_ensemble(
        EnsembleConfig(needle_count=10, deficit_scale=1e-3, bad_fraction=1.0, seed=2)
    )
    with pytest.warns(RuntimeWarning):
        rep = theorem31_experiment(ens, 1e-3)
    assert not rep.bad_mass_within_rate
    assert rep.mixture_l1 <= 2.0 + 1e-9  # trivial bound survives regardless


def test_experiment_warns_once_of_an_aggregate_deficit_above_delta():
    # one symmetric truncation of deficit 1e-3 at delta = 1e-4: good (1e-3 <
    # sqrt(delta)) and centered, so only the aggregate deficit is off, and
    # classify_good alone warns of it
    D = solve_truncation_for_deficit(1e-3, 0.5)
    ens = single_needle(normalize(truncated_gaussian_potential(D)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = theorem31_experiment(ens, 1e-4)
    assert not rep.markov_applies and rep.bad_mass_within_rate and rep.bad_mass == 0.0
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "Markov assertion skipped" in str(caught[0].message)


# -- the synthetic generator --------------------------------------------------


def test_generator_deterministic():
    cfg = EnsembleConfig(needle_count=30, deficit_scale=1e-3, bad_fraction=0.2, seed=11)
    a = generate_ensemble(cfg)
    b = generate_ensemble(cfg)
    assert tuple(a.weights) == tuple(b.weights)
    assert aggregate_l1(a).mixture_l1 == aggregate_l1(b).mixture_l1
    assert [n.r_minus for n in a.needles] == [n.r_minus for n in b.needles]


def test_generator_seed_changes_draw():
    cfg = EnsembleConfig(needle_count=30, deficit_scale=1e-3, bad_fraction=0.2, seed=11)
    other = EnsembleConfig(needle_count=30, deficit_scale=1e-3, bad_fraction=0.2, seed=12)
    assert [n.r_minus for n in generate_ensemble(cfg).needles] != [
        n.r_minus for n in generate_ensemble(other).needles
    ]


def test_generator_needles_are_one_convex():
    ens = generate_ensemble(
        EnsembleConfig(needle_count=8, deficit_scale=1e-2, bad_fraction=0.3, seed=4)
    )
    for nd in ens.needles:
        assert check_one_convexity(nd.measure.potential).passed


def test_generator_hits_deficit_scale():
    for scale in (1e-2, 1e-4):
        ens = generate_ensemble(
            EnsembleConfig(needle_count=30, deficit_scale=scale, bad_fraction=0.0, seed=7)
        )
        agg = classify_good(ens, scale).aggregate_deficit
        assert 0.5 * scale <= agg <= 1.5 * scale


def test_ensemble_config_round_trip_and_validation():
    cfg = EnsembleConfig(needle_count=12, theta=0.4, epsilon=0.2, deficit_scale=1e-3, seed=3)
    assert EnsembleConfig(**cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        EnsembleConfig(needle_count=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(needle_count=5, bad_fraction=1.5)
    for bad in (math.inf, math.nan):  # were OverflowError and ValueError from int()
        with pytest.raises(ConfigError):
            EnsembleConfig(needle_count=bad)
        with pytest.raises(ConfigError):
            EnsembleConfig(needle_count=5, seed=bad)
    with pytest.raises(TypeError):
        EnsembleConfig(needle_count=5, stray_key=1)


# -- work that does not grow with the needle count ----------------------------


def test_needle_experiment_makes_the_same_calls_at_any_needle_count(monkeypatch):
    # every module that binds integrate or find_root by value gets a counter
    counts = {"integrate": 0, "find_root": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (isolab.numerics, isolab.measure1d, isolab.stability, isolab.needles):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    seen = []
    for q in (100, 1000):
        counts.update(integrate=0, find_root=0)
        config = EnsembleConfig(
            needle_count=q, deficit_scale=1e-3, bad_fraction=1e-3 ** (0.9 / 8.7), seed=3
        )
        ens = generate_ensemble(config)
        disintegration_check(ens, np.ones_like)
        theorem31_experiment(ens, 1e-3)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    # the two sides of disintegration_check; the mixture L1 is a closed form
    assert seen[0]["integrate"] == 2 and seen[0]["find_root"] <= 2


def test_needle_experiment_at_ten_thousand_needles():
    # 2000 translates in one cluster: one Hermite expansion, not 2000 terms
    ens = generate_ensemble(EnsembleConfig(
        needle_count=10_000, deficit_scale=1e-3, bad_fraction=1e-3 ** (0.9 / 8.7), seed=3))
    rep = disintegration_check(ens, np.ones_like)
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)
    result = theorem31_experiment(ens, 1e-3)
    assert result.mixture_l1 <= result.needlewise_sum + 1e-8


# -- the per-needle records, made on demand -----------------------------------


@pytest.mark.parametrize("count, delta", [(100, 1e-2), (1000, 1e-3)])
def test_needle_records_match_the_ensemble_arrays(count, delta):
    # the records that per-needle callers read (weight, domain, quantiles,
    # needle_l1) are the ensemble's own numbers
    ens = generate_ensemble(EnsembleConfig(
        needle_count=count, deficit_scale=delta, bad_fraction=delta ** (0.9 / 8.7), seed=3))
    per_needle = aggregate_l1(ens).per_needle_l1
    assert len(ens.needles) == count
    for q, nd in enumerate(ens.needles):
        assert (nd.weight, nd.measure.domain.lo, nd.measure.domain.hi, nd.r_minus, nd.r_plus) == (
            ens.weights[q], ens.lo[q], ens.hi[q], ens.r_minus[q], ens.r_plus[q])
        assert needle_l1(nd) == pytest.approx(per_needle[q], rel=0.0, abs=1e-15)
        again = make_needle(nd.weight, nd.measure, ens.theta)
        assert again.r_minus == pytest.approx(nd.r_minus, rel=0.0, abs=1e-12)
        assert again.r_plus == pytest.approx(nd.r_plus, rel=0.0, abs=1e-12)


def test_generation_builds_no_per_needle_objects(monkeypatch):
    counts = {"Measure1D": 0, "PotentialSpec": 0, "normalize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls in (isolab.measure1d.Measure1D, isolab.measure1d.PotentialSpec):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for module in (isolab.measure1d, isolab.stability, isolab.needles):
        if hasattr(module, "normalize"):
            monkeypatch.setattr(module, "normalize", counted("normalize", module.normalize))
    ens = generate_ensemble(EnsembleConfig(
        needle_count=1000, deficit_scale=1e-3, bad_fraction=1e-3 ** (0.9 / 8.7), seed=3))
    assert counts == {"Measure1D": 0, "PotentialSpec": 0, "normalize": 0}
    # the records come on first use, one measure per needle, each a view of
    # its row of ens.cells: no potential is made and nothing is normalized
    assert len(ens.needles) == 1000 and ens.needles is ens.needles
    assert counts == {"Measure1D": 1000, "PotentialSpec": 0, "normalize": 0}


def test_ensemble_cells_hold_no_cache_of_its_theta_point_reads():
    # the two theta_point reads of __post_init__ leave cumulative masses,
    # flat cells, inversion ends and a mirror on the stack they read; the
    # ensemble keeps a stack of its cell arrays alone, so that what it holds
    # grows by the few columns a needle and no more
    ens = generate_ensemble(EnsembleConfig(needle_count=50, deficit_scale=1e-3, bad_fraction=0.1, seed=1))
    assert set(vars(ens.cells)) == {"edges", "beta", "log_amp"}


def test_needle_records_and_their_l1_reads_hold_little_memory():
    # each record's measure is a view of its row of ens.cells, and
    # needle_l1 reads it without caching anything on it: what the reads
    # keep is about the list of their values
    ens = generate_ensemble(EnsembleConfig(
        needle_count=1000, deficit_scale=1e-3, bad_fraction=1e-3 ** (0.9 / 8.7), seed=3))
    tracemalloc.start()
    try:
        records = ens.needles
        after_records = tracemalloc.get_traced_memory()[0]
        values = [needle_l1(nd) for nd in records]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(values) == 1000
    assert held - after_records <= 0.1e6
    assert held <= 1.0e6


def test_theorem31_experiment_forms_the_aggregate_deficit_once(monkeypatch):
    calls = []
    aggregate = isolab.needles._aggregate_deficit
    monkeypatch.setattr(isolab.needles, "_aggregate_deficit", lambda ens: calls.append(1) or aggregate(ens))
    ens = generate_ensemble(EnsembleConfig(needle_count=20, deficit_scale=1e-3, bad_fraction=0.1, seed=1))
    rep = theorem31_experiment(ens, 1e-3)
    assert len(calls) == 1
    assert rep.good_mass >= 0.0
