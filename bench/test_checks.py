"""The benchmark's checks catch corrupted outputs.

Each test runs a small version of a workload's round, first as is (every op
passes), then with one public isolab function patched to return a
corrupted output, and shows that exactly the affected op is counted as
failed.  Run with ``python3 -m pytest bench -q`` from the repository root.
"""
import dataclasses
import math

import numpy as np
import pytest

import checks
import isolab
import workloads
from tracer import TARGETS, Tracer


def run_round(workload) -> workloads.Round:
    rnd = workloads.Round()
    workload.run_round(rnd)
    return rnd


def failed(rnd: workloads.Round):
    """Problems of the failed ops, leaving out the op of a known fault."""
    return {r.name: r.problems for r in rnd.ops if r.problems and not r.known_fault}


# -- transport ----------------------------------------------------------------


def transport(tmp_path, metrics, families=("example23",)):
    wl = workloads.Transport(0, tmp_path)
    wl.families = families
    wl.METRICS = metrics
    return wl


def test_transport_passes_on_real_output(tmp_path):
    rnd = run_round(transport(tmp_path, ("lp:1", "lp:2", "w1", "w2", "entropy")))
    assert len(rnd.ops) == 5
    assert failed(rnd) == {}


def test_w2_off_by_ten_tolerances_fails(tmp_path, monkeypatch):
    original = isolab.rates.w2_to_gaussian

    def corrupted(m):
        w2 = original(m)
        return math.sqrt(w2 * w2 + 10.0 * checks.coupling_tol(w2 * w2))

    monkeypatch.setattr(isolab.rates, "w2_to_gaussian", corrupted)
    rnd = run_round(transport(tmp_path, ("w2",)))
    bad = failed(rnd)
    assert list(bad) == ["example23 w2"]
    assert "vs independent" in bad["example23 w2"][0]


def test_exponent_outside_band_fails(tmp_path, monkeypatch):
    original = isolab.rates.sweep

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, fitted_exponent=0.5 + 1.2 * checks.EXPONENT_BAND)

    monkeypatch.setattr(isolab.rates, "sweep", corrupted)
    rnd = run_round(transport(tmp_path, ("lp:1", "lp:2")))
    bad = failed(rnd)
    assert list(bad) == ["example23 lp:1", "example23 lp:2"]
    assert all("exponent" in p for problems in bad.values() for p in problems)


def test_talagrand_violation_fails(tmp_path, monkeypatch):
    # a perturbed family has no closed forms: only the cross-metric check sees it
    original = isolab.rates.relative_entropy
    monkeypatch.setattr(isolab.rates, "relative_entropy", lambda m: 0.1 * original(m))
    rnd = run_round(transport(tmp_path, ("w2", "entropy"), families=("perturbed:1",)))
    bad = failed(rnd)
    assert set(bad) == {"perturbed:1 w2", "perturbed:1 entropy"}
    assert all("2 entropy" in p for problems in bad.values() for p in problems)


def test_skipped_grid_point_fails():
    summary = {"points": [[d, 1e-3] for d in checks.DELTA_GRID[:-1]],
               "skipped_deltas": [checks.DELTA_GRID[-1]], "alpha": 1.0}
    problems = checks.check_sweep("perturbed:1", "w1", 1, summary)
    assert any("skipped" in p for p in problems)
    assert any("exit status" in p for p in problems)


def test_family_inequalities():
    values = {"w1": [1e-3, 2e-3], "w2": [2e-3, 1e-3], "entropy": [1.0, 1.0],
              "lp:1": [0.1, 0.1], "lp:2": [0.2, 0.05]}
    problems = checks.check_family(values)
    assert set(problems) == {"w1", "w2", "lp:1", "lp:2"}


# -- needles ------------------------------------------------------------------


def needles(tmp_path, count=20, delta=1e-3, seed=5):
    wl = workloads.Needles(0, tmp_path)
    alpha = (1.0 - workloads.EPSILON) / (9.0 - 3.0 * workloads.EPSILON)
    wl.configs = [(delta, isolab.EnsembleConfig(
        needle_count=count, deficit_scale=delta, bad_fraction=delta**alpha, seed=seed))]
    return wl


def test_needles_pass_on_real_output(tmp_path):
    rnd = run_round(needles(tmp_path))
    assert len(rnd.ops) == 2
    assert failed(rnd) == {}


def test_lp_distance_fault_fails_its_op_every_round(tmp_path):
    wl = needles(tmp_path)
    wl.configs = []
    for _ in range(2):
        (record,) = run_round(wl).ops
        assert record.known_fault
        assert len(record.problems) == 1 and "vs closed form" in record.problems[0]


@pytest.mark.parametrize("index, message", [
    (0, "needle 0 (truncated"),  # off its closed form
    (19, "needlewise sum"),  # a translated needle: off the report's needlewise sum
])
def test_needle_l1_off_by_1e_6_fails(tmp_path, monkeypatch, index, message):
    original = isolab.needle_l1
    calls = []

    def corrupted(needle):
        calls.append(needle)
        value = original(needle)
        return value + 1e-6 if len(calls) == index + 1 else value

    monkeypatch.setattr(isolab, "needle_l1", corrupted)
    rnd = run_round(needles(tmp_path))
    problems = failed(rnd)["Q=20 delta=0.001 seed=5"]
    assert any(p.startswith(message) for p in problems)


def test_mixture_l1_and_mass_off_fail(tmp_path, monkeypatch):
    original = isolab.theorem31_experiment
    monkeypatch.setattr(isolab, "theorem31_experiment", lambda ens, delta: dataclasses.replace(
        original(ens, delta), mixture_l1=original(ens, delta).mixture_l1 - 1e-7))
    original_mass = isolab.disintegration_check
    monkeypatch.setattr(isolab, "disintegration_check", lambda ens, h: dataclasses.replace(
        original_mass(ens, h), lhs=1.0 + 1e-8))
    problems = failed(run_round(needles(tmp_path)))["Q=20 delta=0.001 seed=5"]
    assert any("independent quadrature" in p for p in problems)
    assert any("mixture mass" in p for p in problems)


def test_markov_bound_violation_fails():
    view = (1.0, -math.inf, math.inf, 0.0, 0.0)  # one Gaussian needle
    report = {"mixture_l1": 0.0, "needlewise_sum": 0.0, "decomposition_bound": 0.0,
              "good_mass": 0.5}
    problems = checks.check_needle_op(1e-4, 0.5, [view], (1.0, 1.0), report, [0.0])
    assert problems and problems[0].startswith("Markov bound")


# -- isoperimetry -------------------------------------------------------------


def isoperimetry(tmp_path, keep=1):
    wl = workloads.Isoperimetry(0, tmp_path)
    wl.measures = wl.measures[:keep]  # the Gaussian, then truncated ones
    return wl


def test_isoperimetry_passes_on_real_output(tmp_path):
    rnd = run_round(isoperimetry(tmp_path, keep=2))
    assert len(rnd.ops) == 2 * 12 + 1
    assert failed(rnd) == {}


def _interval_of_mass(m, theta):
    """An interior interval of mass theta: a competitor that is no half-line."""
    a = 0.5 * (1.0 - theta)
    bset = isolab.boundary_set(m, [isolab.Interval(m.quantile(a), m.quantile(a + theta))])
    return bset, isolab.perimeter(m, bset)


@pytest.mark.parametrize("claim", [False, True])
def test_minimizer_not_a_half_line_fails(tmp_path, monkeypatch, claim):
    original = isolab.brute_force_minimizer

    def corrupted(m, theta):
        res = original(m, theta)
        if theta != 0.3:
            return res
        bset, peri = _interval_of_mass(m, theta)
        return isolab.MinimizerResult(bset, peri, claim, res.candidates_checked)

    monkeypatch.setattr(isolab, "brute_force_minimizer", corrupted)
    bad = failed(run_round(isoperimetry(tmp_path)))
    assert list(bad) == ["gaussian minimizer theta=0.3"]
    assert any("not a half-line" in p for p in bad["gaussian minimizer theta=0.3"])


def test_minimizer_below_profile_and_off_mass_fail():
    problems = checks.check_minimizer(0.3, (-math.inf, math.inf), 0.3, True,
                                      [(-math.inf, -0.5)], 0.3 + 1e-8)
    assert len(problems) == 2


def test_deficit_off_its_closed_form_fails(tmp_path, monkeypatch):
    original = isolab.deficit
    monkeypatch.setattr(isolab, "deficit", lambda m, theta: dataclasses.replace(
        original(m, theta), deficit=original(m, theta).deficit + 1e-7))
    bad = failed(run_round(isoperimetry(tmp_path, keep=2)))  # the Gaussian, a truncated one
    assert [name.split()[1] for name in bad] == ["deficit", "deficit"]
    assert all("closed form" in p for problems in bad.values() for p in problems)


def test_convexity_and_rejection_fail(tmp_path, monkeypatch):
    original = isolab.check_one_convexity
    monkeypatch.setattr(isolab, "check_one_convexity", lambda spec: dataclasses.replace(
        original(spec), passed=False))
    monkeypatch.setattr(isolab, "tabulated_potential", lambda xs, values: None)
    bad = failed(run_round(isoperimetry(tmp_path)))
    assert set(bad) == {"gaussian check_one_convexity", "tabulated x^2/4 rejected"}


def test_gap_bounds_closed_form():
    theta, delta = 0.3, 0.02
    report = {"fitted_lower_constant": math.log1p(delta / checks.gaussian_profile(theta)) / delta,
              "fitted_upper_constant": 0.0, "deficit": delta, "equality_case": False}
    assert checks.check_gap_bounds(theta, report, radius=2.0) == []
    report["fitted_lower_constant"] *= 1.001
    assert checks.check_gap_bounds(theta, report, radius=2.0)


# -- tracer -------------------------------------------------------------------


def test_tracer_wraps_by_value_imports_and_reports_absent(monkeypatch):
    import tracer as tracer_module

    missing = ("numerics.removed", "isolab.numerics", "removed_kernel", "span", None, None)
    monkeypatch.setattr(tracer_module, "TARGETS", TARGETS + (missing,))
    original = isolab.numerics.integrate
    t = Tracer()
    t.install()
    try:
        assert isolab.stability.integrate is not original
        assert isolab.integrate is isolab.stability.integrate
        t.record("bench.op", lambda: isolab.lp_distance(isolab.gaussian_measure(), 2.0))
    finally:
        t.uninstall()
    assert isolab.stability.integrate is original and isolab.integrate is original
    assert t.absent == ["numerics.removed"]
    values = t.metrics()
    assert values["numerics.integrate.calls"] == 2  # normalize, lp_distance
    assert values["numerics.integrate.evals"] > 0
    assert values["bench.op.s"] >= values["stability.lp_distance.s"] > 0.0
    assert np.isclose(values["bench.op.s"], sum(
        values[f"{n}.self_s"] for n in t.names))
