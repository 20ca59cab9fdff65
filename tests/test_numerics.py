import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import oracle_constants as oc
from oracle_erf import gaussian_cdf_decimal, gaussian_cdf_oracle
from isolab import (
    BracketError,
    DomainError,
    Interval,
    QuadratureError,
    REAL_LINE,
    find_root,
    gaussian_cdf,
    gaussian_pdf,
    gaussian_quantile,
    gaussian_sf,
    integrate,
)
import isolab


# -- the Gaussian cdf against the independent decimal oracle ------------------


ORACLE_POINTS = [-6.0, -3.0, -1.0, -0.5, -0.1, 0.0, 0.25, 1.0, 2.0, 4.5, 6.0]
NDTRI_THETAS = [1 - 1e-12, 1 - 1e-10, 1e-12, 0.97]


@pytest.mark.parametrize("x", ORACLE_POINTS)
def test_cdf_matches_decimal_oracle(x):
    want = gaussian_cdf_oracle(x)
    assert gaussian_cdf(x) == pytest.approx(want, abs=1e-16, rel=1e-13)
    upper = float(1 - gaussian_cdf_decimal(x))
    assert gaussian_sf(x) == pytest.approx(upper, abs=1e-16, rel=1e-13)


def test_cdf_frozen_anchors():
    assert gaussian_cdf(1.0) == pytest.approx(oc.PHI_1, abs=1e-16)
    assert gaussian_cdf(0.5) == pytest.approx(oc.PHI_HALF, abs=1e-16)
    assert gaussian_cdf(-2.0) == pytest.approx(oc.PHI_MINUS_2, abs=1e-16)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_cdf_symmetry(x):
    assert gaussian_cdf(x) + gaussian_cdf(-x) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-8.0, max_value=7.9), st.floats(min_value=1e-3, max_value=0.1))
@example(x=7.75, h=2**-9)
def test_cdf_monotone(x, h):
    # Phi near 1 (and 1 - Phi near 1) can rise by less than half an ulp of 1
    # over a step h, so strictness is asserted on the tail that is stored
    # with full relative precision: Phi below 0, gaussian_sf above it.
    assert gaussian_cdf(x + h) >= gaussian_cdf(x)
    assert gaussian_sf(x + h) <= gaussian_sf(x)
    if x < 0.0:
        assert gaussian_cdf(x + h) > gaussian_cdf(x)
    else:
        assert gaussian_sf(x + h) < gaussian_sf(x)


def test_pdf_values():
    assert gaussian_pdf(0.0) == pytest.approx(oc.INV_SQRT_2PI, abs=1e-16)
    assert gaussian_pdf(1.0) == pytest.approx(oc.PDF_AT_1, abs=1e-16)
    assert gaussian_pdf(-3.0) == gaussian_pdf(3.0)


# -- quantile -----------------------------------------------------------------


@pytest.mark.parametrize("theta", [1e-9, 1e-4, 0.1, 0.5, 0.69, 0.9, 1 - 1e-9])
def test_quantile_round_trip(theta):
    assert gaussian_cdf(gaussian_quantile(theta)) == pytest.approx(theta, abs=1e-14, rel=1e-12)


def test_quantile_anchors():
    assert gaussian_quantile(0.5) == 0.0
    assert gaussian_quantile(oc.PHI_1) == pytest.approx(1.0, abs=1e-13)
    assert gaussian_quantile(oc.PHI_MINUS_2) == pytest.approx(-2.0, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60)
def test_quantile_inverts_cdf(theta):
    assert gaussian_cdf(gaussian_quantile(theta)) == pytest.approx(theta, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("theta", NDTRI_THETAS)
def test_quantile_equals_ndtri_in_both_tails(theta):
    assert gaussian_quantile(theta) == ndtri(theta)


def test_quantile_rejects_degenerate():
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(DomainError):
            gaussian_quantile(bad)


# -- one path per Gaussian function --------------------------------------------


@pytest.mark.parametrize(
    "fn, points",
    [
        (gaussian_cdf, ORACLE_POINTS + [-30.0, 30.0]),
        (gaussian_sf, ORACLE_POINTS + [-30.0, 30.0]),
        (gaussian_quantile, NDTRI_THETAS),
    ],
    ids=["cdf", "sf", "quantile"],
)
def test_float_and_array_calls_agree_bit_for_bit(fn, points):
    values = fn(np.array(points))
    assert isinstance(values, np.ndarray) and values.shape == (len(points),)
    for x, v in zip(points, values):
        got = fn(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == v.tobytes()
    assert type(fn(np.float64(points[0]))) is float


@pytest.mark.parametrize("x", ORACLE_POINTS + [-30.0, 30.0, -math.inf, math.inf])
def test_sf_is_cdf_at_minus_x(x):
    assert gaussian_sf(x) == gaussian_cdf(-x)


def test_array_calls_reject_invalid_elements():
    with pytest.raises(DomainError):
        gaussian_cdf(np.array([0.0, math.nan, 1.0]))
    with pytest.raises(DomainError):
        gaussian_sf(np.array([[0.0], [math.nan]]))
    for bad in (0.0, 1.0, math.nan, 1.5):
        with pytest.raises(DomainError):
            gaussian_quantile(np.array([0.3, bad, 0.7]))
    assert gaussian_quantile(np.array([])).shape == (0,)


def test_only_numerics_imports_scipy():
    # how Phi and Phi^{-1} are computed is decided in one module
    importers = set()
    for path in Path(isolab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == {"numerics.py"}


def _callers(name):
    """Each ``(module, function)`` of the package that calls ``name``."""
    callers = set()

    def visit(node, module, function=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
            callers.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in Path(isolab.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.name)
    return callers


def test_quadrature_paths_are_named():
    # each function that calls integrate, by module: a new quadrature path
    # shows up as a change of this list
    assert _callers("integrate") == {
        ("stability.py", "lp_distance"), ("stability.py", "_quantile_coupling"),
        ("needles.py", "disintegration_check"), ("cli.py", "integrate_check"),
    }


def test_one_function_inverts_a_cell():
    # every quantile, theta-point and transport map reads its point through
    # one cell inversion: one function picks each cell's inversion end, and
    # one inverts a mass in its cell
    assert _callers("_inversion_end") == {("measure1d.py", "_ends")}
    assert _callers("_cell_quantile") == {("measure1d.py", "_below")}


def test_no_module_imports_a_private_name_of_another():
    # a module's underscore names are its own: what another module needs is
    # public, so moving code between modules cannot hide a private coupling
    imports = []
    for path in Path(isolab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("isolab")):
                imports += [(path.name, node.module, a.name) for a in node.names if a.name.startswith("_")]
    assert imports == []


def test_rates_imports_only_the_measure_layers():
    # rates sweeps measure families: it reads measures, their distances and
    # numerics, and nothing of the needle ensembles
    imported = []
    for node in ast.walk(ast.parse((Path(isolab.__file__).parent / "rates.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            prefix = ".".join(filter(None, ["isolab" if node.level else None, node.module]))
            imported += [f"{prefix}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    layers = {(name.split(".") + [""])[1] for name in imported if name.split(".")[0] == "isolab"}
    assert layers == {"measure1d", "stability", "numerics", "errors"}


def test_a_module_reads_only_the_underscore_attributes_it_defines():
    # a private attribute is its module's own: a stack's cumulative masses,
    # flat cells, inversion ends and mirror are read in measure1d only, and
    # other modules read cells through the stack's cdf, knot_cdf, invert and
    # theta_point
    reads = []
    for path in Path(isolab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        reads += [(path.name, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_") and not node.attr.endswith("__")
                  and node.attr not in defined]
    assert reads == []


def test_every_public_name_is_read_outside_the_package_init():
    # no API that nothing calls: each name of isolab.__all__ is loaded in a
    # module of the package or in the benchmark, as a bare name or as an
    # attribute of isolab or one of its modules
    package = Path(isolab.__file__).parent
    modules = {"isolab", *(path.stem for path in package.glob("*.py"))}
    paths = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    paths += sorted((Path(__file__).parent.parent / "bench").glob("*.py"))
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                loaded.add(node.attr)
    assert sorted(set(isolab.__all__) - loaded) == []


def test_every_public_default_is_passed_by_some_call():
    # no option that nothing sets: each parameter with a default, of each
    # function of isolab.__all__, is passed by keyword or by position by a
    # call in a module of the package (its __init__ aside) or in the benchmark
    package = Path(isolab.__file__).parent
    paths = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    paths += sorted((Path(__file__).parent.parent / "bench").glob("*.py"))
    calls = [node for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]

    def callee(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    unset = []
    for name in isolab.__all__:
        function = getattr(isolab, name)
        if not inspect.isfunction(function):
            continue
        mine = [call for call in calls if callee(call) == name]
        for i, param in enumerate(inspect.signature(function).parameters.values()):
            if param.default is param.empty:
                continue
            by_keyword = any(k.arg == param.name for call in mine for k in call.keywords)
            by_position = param.kind is not param.KEYWORD_ONLY and any(len(call.args) > i for call in mine)
            if not (by_keyword or by_position):
                unset.append(f"{name}({param.name})")
    assert unset == []


# -- integrate ----------------------------------------------------------------


def test_integrate_gaussian_mass():
    assert integrate(gaussian_pdf, REAL_LINE) == pytest.approx(1.0, abs=1e-12)


def test_integrate_polynomial_exact():
    assert integrate(lambda x: 3 * x * x, Interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-13)


def test_integrate_kink_with_points():
    value = integrate(lambda x: abs(x - 0.3), Interval(0.0, 1.0), points=(0.3,))
    assert value == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-14)


def test_integrate_passes_arrays():
    seen = []

    def f(x):
        seen.append(x)
        return gaussian_pdf(x)

    integrate(f, REAL_LINE)
    assert seen and all(isinstance(x, np.ndarray) and x.ndim == 1 for x in seen)
    assert all(x.size % 15 == 0 for x in seen)


def test_integrate_kink_by_bisection():
    # no points: the piece holding the kink is bisected until it meets 1e-12
    value = integrate(lambda x: np.abs(x - 0.3), Interval(0.0, 1.0))
    assert value == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-12)


def test_integrate_empty_after_truncation():
    # the infinite end is cut at the tail cutoff of 40, below the finite one
    assert integrate(gaussian_pdf, Interval(41.0, math.inf)) == 0.0


def test_integrate_keeps_finite_ends():
    # a finite range beyond the tail cutoff is integrated as given
    value = integrate(lambda x: gaussian_pdf(x - 45.0), Interval(35.0, 55.0))
    assert value == pytest.approx(1.0 - 2.0 * gaussian_cdf(-10.0), abs=1e-12)


def test_integrate_reports_failure():
    # oscillation far beyond what 200 subdivisions can resolve
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.cos(1e5 * x), Interval(0.0, 1.0))


# -- rows: many integrals in the same passes ----------------------------------


def _row_integrand(x, row):
    # each row its own kinked, shifted Gaussian-damped profile
    centre = np.array([0.0, 1.5, -2.0, 0.3, 0.0])[row]
    return np.abs(x - centre) * gaussian_pdf(x - 0.5 * centre)


ROW_DOMAINS = (np.array([-math.inf, -1.0, -3.0, 41.0, 0.0]),
               np.array([math.inf, 4.0, 2.5, math.inf, 1e-3]))
# one row of breakpoints per row, NaN-padded; row 3 lies beyond the tail
# cutoff, so it is cut away entirely and integrates to 0
ROW_POINTS = np.array([[0.0, np.nan, np.nan], [1.5, 7.0, np.nan], [-2.0, -1.0, 1.0],
                       [50.0, np.nan, np.nan], [np.nan, np.nan, np.nan]])


def test_integrate_rows_equal_one_interval_call_per_row():
    got = integrate(_row_integrand, ROW_DOMAINS, points=ROW_POINTS)
    assert isinstance(got, np.ndarray) and got.shape == (5,)
    for r, (lo, hi) in enumerate(zip(*ROW_DOMAINS)):
        alone = integrate(lambda x: _row_integrand(x, np.full(x.shape, r)), Interval(lo, hi),
                          points=ROW_POINTS[r])
        assert isinstance(alone, float)
        assert got[r] == pytest.approx(alone, rel=1e-13, abs=0.0)
    assert got[3] == 0.0
    # the first row is E|X| of the standard normal
    assert got[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)


def test_integrate_rows_share_the_passes():
    passes = []

    def counted(x, row):
        passes.append(x.size)
        return _row_integrand(x, row)

    integrate(counted, ROW_DOMAINS, points=ROW_POINTS)
    per_row = []
    for r, (lo, hi) in enumerate(zip(*ROW_DOMAINS)):
        calls = []
        integrate(lambda x: calls.append(x.size) or _row_integrand(x, np.full(x.shape, r)),
                  Interval(lo, hi), points=ROW_POINTS[r])
        per_row.append(calls)
    # as many passes as the slowest row, each on every row's open pieces
    assert len(passes) == max(len(c) for c in per_row)
    assert sum(passes) == sum(sum(c) for c in per_row)


def test_integrate_row_failure_raises_for_the_whole_call():
    lo, hi = np.array([0.0, 0.0, -1.0]), np.array([1.0, 1.0, 1.0])

    def oscillating(x, row):
        return np.where(row == 1, np.cos(1e5 * x), gaussian_pdf(x))

    with pytest.raises(QuadratureError, match="after 200 bisections"):
        integrate(oscillating, (lo, hi))

    def infinite(x, row):
        return np.where(row == 2, np.inf, gaussian_pdf(x))

    with np.errstate(invalid="ignore"), pytest.raises(
            QuadratureError, match=r"over \(-1.0, 1.0\) failed: non-finite"):
        integrate(infinite, (lo, hi))


def test_import_leaves_out_scipy_integrate():
    # neither QUADPACK nor Brent: the kernel and the root solver are isolab's
    src = str(Path(isolab.__file__).resolve().parents[1])
    code = (
        "import sys, isolab; "
        "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"


def test_settings_validation():
    with pytest.raises(DomainError):
        integrate(gaussian_pdf, REAL_LINE, abs_tol=-1.0)
    with pytest.raises(DomainError):
        integrate(gaussian_pdf, REAL_LINE, rel_tol=0.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)


# -- find_root ----------------------------------------------------------------


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, (0.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_no_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, (-1.0, 1.0))


def test_find_root_needs_bounded_bracket():
    with pytest.raises(DomainError):
        find_root(lambda x: x, (-math.inf, math.inf))


@given(st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=40)
def test_find_root_linear(c):
    root = find_root(lambda x: x - c, (-11.0, 11.0))
    assert root == pytest.approx(c, abs=1e-12)


def test_find_root_on_arrays():
    c = np.array([2.0, 3.0, 0.5, 10.0])
    roots = find_root(lambda x: x * x - c, (np.zeros(4), np.full(4, 4.0)))
    assert roots.shape == (4,)
    assert roots[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    np.testing.assert_allclose(roots, np.sqrt(c), rtol=0.0, atol=1e-12)


def test_find_root_reports_steps_per_element():
    # a bracket of width 4 needs 45 bisections to reach 1e-13; the
    # interpolation steps need far fewer, and an exact end needs none
    c = np.array([2.0, 3.0, 0.0])
    roots, steps = find_root(
        lambda x: x * x - c, (np.zeros(3), np.full(3, 4.0)), full_output=True
    )
    assert steps.shape == (3,) and steps.dtype.kind == "i"
    assert steps[2] == 0 and roots[2] == 0.0
    assert 0 < steps[0] <= 15 and 0 < steps[1] <= 15
    root, n = find_root(lambda x: x * x - 2.0, (0.0, 2.0), full_output=True)
    assert isinstance(root, float) and 0 < n <= 15


def test_find_root_array_element_without_sign_change():
    c = np.array([2.0, -1.0, 3.0])  # x^2 + 1 has no root on (0, 4)
    with pytest.raises(BracketError, match="element"):
        find_root(lambda x: x * x - c, (np.zeros(3), np.full(3, 4.0)))


def test_find_root_array_needs_bounded_brackets():
    with pytest.raises(DomainError):
        find_root(lambda x: x, (np.array([-1.0, -math.inf]), np.array([1.0, 1.0])))
