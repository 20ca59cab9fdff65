import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_constants as oc
from oracle_erf import gaussian_cdf_oracle
from isolab import (
    ConfigError,
    DomainError,
    EnsembleConfig,
    NeedleEnsemble,
    aggregate_l1,
    check_one_convexity,
    classify_centered,
    classify_good,
    disintegration_check,
    gaussian_cdf,
    gaussian_measure,
    generate_ensemble,
    make_needle,
    mixture_density,
    needle_l1,
    normalize,
    shifted_gaussian_l1,
    theorem31_experiment,
    truncated_gaussian_potential,
)

GAUSSIAN = gaussian_measure()
SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pair(s: float, theta: float = 0.5) -> NeedleEnsemble:
    return NeedleEnsemble(
        needles=(
            make_needle(0.5, GAUSSIAN.translate(-s), theta),
            make_needle(0.5, GAUSSIAN.translate(s), theta),
        ),
        theta=theta,
        epsilon=0.1,
    )


def single_needle(m, theta: float = 0.5) -> NeedleEnsemble:
    return NeedleEnsemble(needles=(make_needle(1.0, m, theta),), theta=theta, epsilon=0.1)


# -- construction invariants --------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        NeedleEnsemble(
            needles=(make_needle(0.5, GAUSSIAN, 0.5), make_needle(0.3, GAUSSIAN, 0.5)),
            theta=0.5,
            epsilon=0.1,
        )


def test_needle_quantiles_precomputed():
    nd = make_needle(1.0, GAUSSIAN, 0.3)
    assert gaussian_cdf(nd.r_minus) == pytest.approx(0.3, abs=1e-10)
    assert gaussian_cdf(nd.r_plus) == pytest.approx(0.7, abs=1e-10)


def test_scaling_exponent_arithmetic():
    ens = single_needle(GAUSSIAN)
    assert ens.scaling_exponent == pytest.approx(0.9 / 8.7, rel=1e-15)


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


def test_shifted_gaussian_l1_frozen_values():
    assert shifted_gaussian_l1(0.1) == pytest.approx(oc.SHIFTED_L1_S01, abs=1e-9)
    assert shifted_gaussian_l1(0.5) == pytest.approx(oc.SHIFTED_L1_S05, abs=1e-9)
    assert shifted_gaussian_l1(1.0) == pytest.approx(oc.SHIFTED_L1_S10, abs=1e-9)
    assert shifted_gaussian_l1(0.0) == 0.0


@given(s=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_shifted_gaussian_l1_closed_form_and_bound(s):
    got = shifted_gaussian_l1(s)
    closed = 4.0 * gaussian_cdf(abs(s) / 2.0) - 2.0
    assert got == pytest.approx(closed, abs=1e-9)
    assert got <= 2.0 * abs(s) / SQRT_2PI + 1e-12


def test_shifted_gaussian_l1_rejects_infinite():
    with pytest.raises(DomainError):
        shifted_gaussian_l1(math.inf)


# -- needle and aggregate L1 --------------------------------------------------


def test_needle_l1_gaussian_is_zero():
    assert needle_l1(make_needle(1.0, GAUSSIAN, 0.5)) <= 1e-10


def test_needle_l1_truncated_value():
    # definition-faithful value 2*delta_E/(1+delta_E): the off-domain
    # convention already carries the tail mass, nothing is added on top
    nd = make_needle(1.0, normalize(truncated_gaussian_potential(2.0)), 0.5)
    assert needle_l1(nd) == pytest.approx(oc.NEEDLE_L1_D2, abs=1e-9)


@pytest.mark.parametrize(
    "s", [6.575603216677612, 6.730512905988127, 6.922046728373387]
)
def test_needle_l1_translated_gaussian_closed_form(s):
    # bad needles of generated ensembles; |ratio - 1| has its kink at s/2,
    # which the quadrature must be told about to meet its tolerance
    nd = make_needle(1.0, GAUSSIAN.translate(s), 0.5)
    assert needle_l1(nd) == pytest.approx(4.0 * gaussian_cdf_oracle(s / 2.0) - 2.0, abs=1e-10)


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
    ens = NeedleEnsemble(
        needles=tuple(make_needle(0.25, GAUSSIAN, 0.5) for _ in range(4)),
        theta=0.5,
        epsilon=0.1,
    )
    rep = aggregate_l1(ens)
    assert rep.mixture_l1 <= 1e-10 and rep.needlewise_sum <= 1e-10


# -- classification -----------------------------------------------------------


def test_classify_good_all_gaussian():
    rep = classify_good(single_needle(GAUSSIAN), 1e-4)
    assert rep.good_mass == 1.0
    assert rep.centered_mass is None
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
    rep = classify_centered(single_needle(GAUSSIAN), 1e-4)
    assert rep.centered_mass == 1.0
    assert rep.good_mass is None


def test_classify_centered_vacuous_threshold():
    # far-shifted needles still count once the threshold swallows the line
    ens = gaussian_pair(2.0)
    strict = classify_centered(ens, 1e-4, c_threshold=1.0)
    vacuous = classify_centered(ens, 1e-4, c_threshold=1e6)
    assert strict.centered_mass == 0.0
    assert vacuous.centered_mass == 1.0


def test_classify_validation():
    ens = single_needle(GAUSSIAN)
    with pytest.raises(DomainError):
        classify_good(ens, -1.0)
    with pytest.raises(DomainError):
        classify_centered(ens, 1e-3, c_threshold=0.0)


# -- the decomposition experiment ---------------------------------------------


def test_experiment_all_gaussian_is_clean():
    ens = NeedleEnsemble(
        needles=tuple(make_needle(0.2, GAUSSIAN, 0.5) for _ in range(5)),
        theta=0.5,
        epsilon=0.1,
    )
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
        assert check_one_convexity(nd.measure.potential, grid_points=128).passed


def test_generator_hits_deficit_scale():
    for scale in (1e-2, 1e-4):
        ens = generate_ensemble(
            EnsembleConfig(needle_count=30, deficit_scale=scale, bad_fraction=0.0, seed=7)
        )
        agg = classify_good(ens, scale).aggregate_deficit
        assert 0.5 * scale <= agg <= 1.5 * scale


def test_ensemble_config_round_trip_and_validation():
    cfg = EnsembleConfig(needle_count=12, theta=0.4, epsilon=0.2, deficit_scale=1e-3, seed=3)
    assert EnsembleConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        EnsembleConfig(needle_count=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(needle_count=5, bad_fraction=1.5)
    with pytest.raises((ConfigError, TypeError)):
        EnsembleConfig.from_dict({"needle_count": 5, "stray_key": 1})
