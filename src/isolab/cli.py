"""Console entry point binding the library together.

Subcommands::

    verify      one measure: deficit, gap bounds, L^p/W_1/W_2/entropy, Talagrand
    sweep       deficit sweep of one metric over a parametric family + fit
    needles     per-deficit needle-ensemble aggregation experiments
    example23   closed-form truncated-Gaussian reproduction (default D = 2)
    selftest    deterministic battery of closed-form and invariant checks

Configuration comes from an optional JSON file (``--config``) overridden by
flags (flags win).  Machine-readable reports are written to ``--out`` (JSON
with stable key order, CSV with a fixed header row, two-column plot data);
a human-readable table goes to stdout.  Every command is deterministic
given (config, seed) -- outputs are byte-identical across runs.

Exit status: 0 when all hard invariants/checks pass, 1 on invariant or
check failures (partial reports are still written), 2 on configuration
errors.  Quadrature warnings alone never change the exit status; only
check outcomes do.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import measure1d, needles, numerics, rates, stability
from .errors import ConfigError, DomainError, FitError, InvalidPotentialError, IsolabError
from .measure1d import Measure1D, gaussian_measure, normalize, potential_from_config
from .numerics import SQRT_2PI, Interval, QuadratureSettings
from .rates import DEFAULT_DELTA_GRID, Metric

__all__ = ["RunConfig", "main"]

_COMMANDS = ("verify", "sweep", "needles", "example23", "selftest")
_ENSEMBLE_KEYS = ("needle_count", "deficit_scale", "bad_fraction")
_CHECK_TOL = 1e-8  # closed-form / inequality slack used by CLI checks


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; round-trips through ``to_dict``.

    ``measure`` selects a measure (``gaussian``, ``truncated:D``, a JSON
    potential file) or, for ``sweep``, a family (``example23``,
    ``perturbed[:seed]``, ``needles``, ``gaussian``).  ``ensemble`` holds
    generator overrides (keys ``needle_count``, ``deficit_scale``,
    ``bad_fraction``).  ``tol_abs``/``tol_rel`` feed the quadrature
    settings; ``alpha_min``/``alpha_max`` are the optional sweep acceptance
    band.  Unknown keys are rejected by :meth:`from_dict`.
    """

    command: str
    measure: str = "gaussian"
    ensemble: Optional[Mapping[str, float]] = None
    theta: float = 0.5
    p_list: Tuple[float, ...] = (1.0, 2.0)
    epsilon: float = 0.1
    delta_grid: Tuple[float, ...] = DEFAULT_DELTA_GRID
    metric: str = "lp:2"
    c_threshold: float = 1.0
    alpha_min: Optional[float] = None
    alpha_max: Optional[float] = None
    output_dir: str = "out"
    seed: int = 0
    tol_abs: float = 1e-12
    tol_rel: float = 1e-10

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError(f"theta out of range: {self.theta!r} (need 0 < theta < 1)")
        if not self.p_list:
            raise ConfigError("p list is empty")
        for p in self.p_list:
            if not (1.0 <= p <= 64.0):
                raise ConfigError(f"p out of range: {p!r} (need 1 <= p <= 64)")
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon out of range: {self.epsilon!r}")
        if not self.delta_grid:
            raise ConfigError("delta grid is empty")
        for d in self.delta_grid:
            if not (0.0 < d and math.isfinite(d)):
                raise ConfigError(f"delta grid entry out of range: {d!r}")
        try:
            Metric.parse(self.metric)
        except (DomainError, ValueError) as exc:
            raise ConfigError(f"bad metric {self.metric!r}: {exc}") from exc
        if not (self.c_threshold > 0.0):
            raise ConfigError(f"c_threshold out of range: {self.c_threshold!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (self.tol_abs > 0.0 and self.tol_rel >= 0.0):
            raise ConfigError("tolerances out of range")
        if self.ensemble is not None:
            extra = set(self.ensemble) - set(_ENSEMBLE_KEYS)
            if extra:
                raise ConfigError(f"unknown ensemble keys: {sorted(extra)}")

    @property
    def quadrature_settings(self) -> QuadratureSettings:
        return QuadratureSettings(abs_tol=self.tol_abs, rel_tol=self.tol_rel)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["p_list"] = sorted(float(p) for p in self.p_list)
        d["delta_grid"] = [float(x) for x in self.delta_grid]
        d["ensemble"] = dict(self.ensemble) if self.ensemble is not None else None
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - names
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        kwargs = dict(data)
        if "p_list" in kwargs and kwargs["p_list"] is not None:
            kwargs["p_list"] = tuple(sorted(float(p) for p in kwargs["p_list"]))
        if "delta_grid" in kwargs and kwargs["delta_grid"] is not None:
            kwargs["delta_grid"] = tuple(float(x) for x in kwargs["delta_grid"])
        if "ensemble" in kwargs and kwargs["ensemble"] is not None:
            if not isinstance(kwargs["ensemble"], Mapping):
                raise ConfigError("ensemble spec must be an object")
            kwargs["ensemble"] = dict(kwargs["ensemble"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


# -- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE", help="JSON config file; flags override it")
    p.add_argument("--measure", default=None, help="gaussian | truncated:D | potential JSON file (sweep: family name)")
    p.add_argument("--theta", type=float, default=None, help="mass split in (0,1)")
    p.add_argument("--p", action="append", default=None, metavar="P[,P..]", help="L^p orders (repeatable / comma list)")
    p.add_argument("--epsilon", type=float, default=None, help="needle-rate parameter in (0,1)")
    p.add_argument("--delta-grid", default=None, metavar="D1,D2,..", help="deficit grid (comma list)")
    p.add_argument("--seed", type=int, default=None, help="generator seed")
    p.add_argument("--out", default=None, metavar="DIR", help="output directory for reports")
    p.add_argument("--tol-abs", type=float, default=None, help="absolute quadrature tolerance")
    p.add_argument("--tol-rel", type=float, default=None, help="relative quadrature tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isolab",
        description="Numerical checks of Gaussian isoperimetric stability on 1-convex measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one measure end to end")
    _add_common(v)

    s = sub.add_parser("sweep", help="deficit sweep of one metric over a family")
    _add_common(s)
    s.add_argument("--metric", default=None, help="lp:P | w1 | w2 | entropy | mixture_l1")
    s.add_argument("--alpha-min", type=float, default=None, help="acceptance band: fitted exponent lower bound")
    s.add_argument("--alpha-max", type=float, default=None, help="acceptance band: fitted exponent upper bound")

    n = sub.add_parser("needles", help="needle-ensemble aggregation experiments")
    _add_common(n)
    n.add_argument("--needle-count", type=int, default=None, help="needles per ensemble")
    n.add_argument("--c-threshold", type=float, default=None, help="centered-classification constant")
    n.add_argument("--deficit-scale", type=float, default=None, help="pin generator deficit scale (default: the grid delta)")
    n.add_argument("--bad-fraction", type=float, default=None, help="pin generator bad fraction (default: delta^alpha)")

    e = sub.add_parser("example23", help="truncated-Gaussian closed-form reproduction")
    _add_common(e)

    t = sub.add_parser("selftest", help="run the built-in check battery")
    t.add_argument("--out", default=None, metavar="DIR", help="output directory for the report")
    t.add_argument("--seed", type=int, default=None, help="generator seed")
    t.add_argument("--inject-fault", default=None, metavar="NAME", help="corrupt one routine (testing the battery itself)")

    return parser


def _parse_float_list(chunks: Sequence[str]) -> Tuple[float, ...]:
    out = []
    for chunk in chunks:
        for piece in str(chunk).split(","):
            piece = piece.strip()
            if piece:
                out.append(float(piece))
    if not out:
        raise ConfigError("empty numeric list")
    return tuple(out)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {"command": args.command}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        raw = Path(config_path).read_text()
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path}: top level must be an object")
        if loaded.get("command", args.command) != args.command:
            raise ConfigError(
                f"config file command {loaded['command']!r} does not match {args.command!r}"
            )
        data.update(loaded)
        data["command"] = args.command

    def override(key: str, value: object) -> None:
        if value is not None:
            data[key] = value

    override("measure", getattr(args, "measure", None))
    override("theta", getattr(args, "theta", None))
    override("epsilon", getattr(args, "epsilon", None))
    override("seed", getattr(args, "seed", None))
    override("output_dir", getattr(args, "out", None))
    override("tol_abs", getattr(args, "tol_abs", None))
    override("tol_rel", getattr(args, "tol_rel", None))
    override("metric", getattr(args, "metric", None))
    override("alpha_min", getattr(args, "alpha_min", None))
    override("alpha_max", getattr(args, "alpha_max", None))
    override("c_threshold", getattr(args, "c_threshold", None))
    if getattr(args, "p", None) is not None:
        data["p_list"] = list(_parse_float_list(args.p))
    if getattr(args, "delta_grid", None) is not None:
        data["delta_grid"] = list(_parse_float_list([args.delta_grid]))

    ensemble = dict(data.get("ensemble") or {})
    for key, attr in (
        ("needle_count", "needle_count"),
        ("deficit_scale", "deficit_scale"),
        ("bad_fraction", "bad_fraction"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            ensemble[key] = value
    if ensemble:
        data["ensemble"] = ensemble

    if args.command == "example23" and "measure" not in data:
        data["measure"] = "truncated:2"
    return RunConfig.from_dict(data)


# -- output helpers -----------------------------------------------------------


def _json_text(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=True) + "\n"


def _write(output_dir: str, name: str, text: str) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _g(x: float) -> str:
    return f"{x:.17g}"


def _print_checks(checks: Mapping[str, bool]) -> bool:
    ok = True
    for name in checks:
        passed = bool(checks[name])
        ok = ok and passed
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    return ok


# -- measure / family construction --------------------------------------------


def _build_measure(cfg: RunConfig) -> Measure1D:
    text = cfg.measure.strip()
    if text == "gaussian":
        return gaussian_measure()
    if text.startswith("truncated:"):
        D = float(text.partition(":")[2])
        return normalize(
            measure1d.truncated_gaussian_potential(D), cfg.quadrature_settings
        )
    if text == "perturbed" or text.startswith("perturbed:"):
        seed = int(text.partition(":")[2]) if ":" in text else cfg.seed
        family = rates.PerturbedSweepFamily.seeded(seed)
        return family.measure_at(1.0)
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"measure spec {text!r}: not a keyword and no such file")
    try:
        loaded = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"potential file {text}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"potential file {text}: top level must be an object")
    try:
        return normalize(potential_from_config(loaded), cfg.quadrature_settings)
    except IsolabError as exc:
        raise ConfigError(f"potential file {text}: {exc}") from exc


def _build_family(cfg: RunConfig):
    text = cfg.measure.strip()
    if text in ("example23", "truncated", "truncated_gaussian"):
        return rates.Example23SweepFamily()
    if text == "gaussian":
        return rates.GaussianSweepFamily()
    if text == "perturbed" or text.startswith("perturbed:"):
        seed = int(text.partition(":")[2]) if ":" in text else cfg.seed
        return rates.PerturbedSweepFamily.seeded(seed)
    if text == "needles":
        count = int((cfg.ensemble or {}).get("needle_count", 100))
        return rates.NeedleSweepFamily(
            needle_count=count, epsilon=cfg.epsilon, seed=cfg.seed
        )
    raise ConfigError(
        f"unknown sweep family {text!r} "
        "(expected example23 | gaussian | perturbed[:seed] | needles)"
    )


# -- verify -------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    m = _build_measure(cfg)
    checks: dict = {}
    report: dict = {"command": "verify", "measure": cfg.measure, "theta": cfg.theta}
    try:
        conv = measure1d.check_one_convexity(m.potential)
        checks["one_convex"] = bool(conv.passed)
        report["one_convex"] = {
            "passed": conv.passed,
            "worst_violation": conv.worst_violation,
        }

        drep = stability.deficit(m, cfg.theta)
        report.update(drep.to_dict())
        checks["deficit_nonnegative"] = drep.deficit >= -1e-9

        gap = stability.check_gap_bounds(m, cfg.theta)
        report["gap"] = gap.to_dict()

        centered, _ = stability.center(m, cfg.theta)
        lp_rows = []
        monotone = True
        previous = None
        for p in cfg.p_list:
            value = stability.lp_distance(centered, p)
            lp_rows.append({"p": p, "lp": value})
            if previous is not None and value < previous - _CHECK_TOL:
                monotone = False
            previous = value
        report["lp"] = lp_rows
        checks["lp_nondecreasing_in_p"] = monotone

        w1 = stability.w1_to_gaussian(centered)
        w2 = stability.w2_to_gaussian(centered)
        entropy = stability.relative_entropy(centered)
        tal = stability.talagrand_check(centered)
        dual = stability.w1_dual_bound(m, cfg.theta)
        report["w1"] = w1
        report["w2"] = w2
        report["entropy"] = entropy
        report["talagrand"] = tal.to_dict()
        report["talagrand_pass"] = tal.passed
        report["w1_dual_bound"] = dual
        checks["talagrand"] = bool(tal.passed)
        checks["w1_le_w2"] = w1 <= w2 + _CHECK_TOL
        checks["w1_le_dual_bound"] = w1 <= dual + _CHECK_TOL
    except IsolabError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        checks["completed"] = False

    passed = all(bool(v) for v in checks.values())
    report["checks"] = {k: bool(v) for k, v in checks.items()}
    report["passed"] = passed
    _write(cfg.output_dir, "verify_report.json", _json_text(report))

    print(f"verify: measure={cfg.measure} theta={cfg.theta:g}")
    if "deficit" in report:
        print(f"  a_theta  = {report['a_theta']:.12g}")
        print(f"  shift    = {report['shift']:.12g}")
        print(f"  deficit  = {report['deficit']:.12g}")
        for row in report.get("lp", []):
            print(f"  lp(p={row['p']:g}) = {row['lp']:.12g}")
        for key in ("w1", "w2", "entropy"):
            if key in report:
                print(f"  {key:8s} = {report[key]:.12g}")
    if "error" in report:
        print(f"  error: {report['error']}")
    _print_checks(report["checks"])
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# -- example23 ----------------------------------------------------------------


def cmd_example23(cfg: RunConfig) -> int:
    text = cfg.measure.strip()
    if text.startswith("truncated:"):
        D = float(text.partition(":")[2])
    else:
        raise ConfigError(
            f"example23 needs a truncated:D measure spec, got {text!r}"
        )
    m, fam, closed = stability.example23(D)
    tol = max(cfg.tol_abs, _CHECK_TOL)

    checks: dict = {}
    report: dict = {
        "command": "example23",
        "D": fam.D,
        "delta_E": fam.delta_E,
        "theta": 0.5,
    }

    numeric_deficit = stability.deficit(m, 0.5).deficit
    report["deficit"] = {
        "closed": closed.deficit,
        "numeric": numeric_deficit,
        "error": abs(numeric_deficit - closed.deficit),
    }
    checks["deficit_matches"] = report["deficit"]["error"] <= tol

    lp_rows = []
    for p in cfg.p_list:
        numeric = stability.lp_distance(m, p)
        exact = closed.lp(p)
        lp_rows.append(
            {"p": p, "closed": exact, "numeric": numeric, "error": abs(numeric - exact)}
        )
        checks[f"lp_matches_p{p:g}"] = abs(numeric - exact) <= tol
    report["lp"] = lp_rows

    entropy_closed = math.log1p(fam.delta_E)
    entropy_numeric = stability.relative_entropy(m)
    report["entropy"] = {
        "closed": entropy_closed,
        "numeric": entropy_numeric,
        "error": abs(entropy_numeric - entropy_closed),
    }
    checks["entropy_matches"] = report["entropy"]["error"] <= tol

    xs = np.linspace(-D + 1e-9, D - 1e-9, 101)
    closed_cdf = (
        np.array([numerics.gaussian_cdf(x) - numerics.gaussian_cdf(-D) for x in xs])
        * (1.0 + fam.delta_E)
    )
    numeric_cdf = np.array([m.cdf(float(x)) for x in xs])
    cdf_err = float(np.max(np.abs(numeric_cdf - np.clip(closed_cdf, 0.0, 1.0))))
    report["cdf_max_error"] = cdf_err
    checks["cdf_matches"] = cdf_err <= tol

    passed = all(bool(v) for v in checks.values())
    report["checks"] = {k: bool(v) for k, v in checks.items()}
    report["passed"] = passed
    _write(cfg.output_dir, "example23_report.json", _json_text(report))

    print(f"example23: D={D:g} delta_E={fam.delta_E:.12g}")
    print(f"  deficit closed={closed.deficit:.12g} numeric={numeric_deficit:.12g}")
    for row in lp_rows:
        print(
            f"  lp(p={row['p']:g}) closed={row['closed']:.12g} "
            f"numeric={row['numeric']:.12g}"
        )
    print(
        f"  entropy closed={entropy_closed:.12g} numeric={entropy_numeric:.12g}"
    )
    _print_checks(report["checks"])
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# -- sweep --------------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> int:
    family = _build_family(cfg)
    metric = Metric.parse(cfg.metric)
    result = rates.sweep(family, cfg.theta, metric, cfg.delta_grid)

    csv_lines = ["delta,value"]
    for d, v in result.points:
        csv_lines.append(f"{_g(d)},{_g(v)}")
    _write(cfg.output_dir, "sweep.csv", "\n".join(csv_lines) + "\n")

    plot_lines = ["# log10_delta log10_value"]
    for d, v in result.points:
        if v > 0.0:
            plot_lines.append(f"{math.log10(d):.12g} {math.log10(v):.12g}")
    _write(cfg.output_dir, "sweep_plot.dat", "\n".join(plot_lines) + "\n")

    checks: dict = {}
    if cfg.alpha_min is not None or cfg.alpha_max is not None:
        if result.fit_available:
            in_band = True
            if cfg.alpha_min is not None:
                in_band = in_band and result.fitted_exponent >= cfg.alpha_min
            if cfg.alpha_max is not None:
                in_band = in_band and result.fitted_exponent <= cfg.alpha_max
            checks["exponent_in_band"] = in_band
        else:
            checks["exponent_in_band"] = False
    checks["no_points_skipped"] = not result.skipped

    passed = all(bool(v) for v in checks.values())
    summary = result.to_dict()
    summary["command"] = "sweep"
    summary["theta"] = cfg.theta
    summary["alpha_min"] = cfg.alpha_min
    summary["alpha_max"] = cfg.alpha_max
    summary["checks"] = {k: bool(v) for k, v in checks.items()}
    summary["passed"] = passed
    _write(cfg.output_dir, "sweep_summary.json", _json_text(summary))

    print(f"sweep: family={family.name} metric={metric.label} theta={cfg.theta:g}")
    print("  delta        value")
    for d, v in result.points:
        print(f"  {d:<12.6g} {v:.10g}")
    if result.fit_available:
        print(
            f"  alpha = {result.fitted_exponent:.6g}  "
            f"c = {result.fitted_log_constant:.6g}  "
            f"r^2 = {result.r_squared:.8g}"
        )
    else:
        print("  fit skipped (fewer than 3 positive points)")
    _print_checks(summary["checks"])
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# -- needles ------------------------------------------------------------------


def cmd_needles(cfg: RunConfig) -> int:
    spec = dict(cfg.ensemble or {})
    needle_count = int(spec.get("needle_count", 100))
    pinned_scale = spec.get("deficit_scale")
    pinned_bad = spec.get("bad_fraction")
    alpha = (1.0 - cfg.epsilon) / (9.0 - 3.0 * cfg.epsilon)

    grid = sorted({float(d) for d in cfg.delta_grid}, reverse=True)
    rows = []
    row_reports = []
    checks: dict = {}
    all_ok = True
    for d in grid:
        scale = float(pinned_scale) if pinned_scale is not None else d
        bad = float(pinned_bad) if pinned_bad is not None else min(1.0, d**alpha)
        config = needles.EnsembleConfig(
            needle_count=needle_count,
            theta=cfg.theta,
            epsilon=cfg.epsilon,
            deficit_scale=scale,
            bad_fraction=bad,
            seed=cfg.seed,
        )
        row: dict = {"delta": d, "deficit_scale": scale, "bad_fraction": bad}
        try:
            ens = needles.generate_ensemble(config)
            mass = needles.disintegration_check(
                ens, lambda x: np.ones_like(np.asarray(x, dtype=float))
            )
            row["mass_total"] = mass.lhs
            mass_ok = abs(mass.lhs - 1.0) <= 1e-9
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep = needles.theorem31_experiment(ens, d, cfg.c_threshold)
            row.update(rep.to_dict())
            row["warnings"] = sorted(str(w.message) for w in caught)
            row["mass_ok"] = mass_ok
            row["fully_bad"] = rep.bad_mass >= 1.0 - 1e-12
            row_ok = mass_ok
        except IsolabError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
            row_ok = False
        row["ok"] = row_ok
        all_ok = all_ok and row_ok
        row_reports.append(row)
        if "mixture_l1" in row:
            rows.append((d, cfg.epsilon, row["mixture_l1"], row["good_mass"], row["centered_mass"]))

    fit_points = [(d, l1) for d, _, l1, _, _ in rows if l1 > 0.0]
    if len(fit_points) >= 3:
        fitted, _, _ = rates.fit_exponent(fit_points)
    else:
        fitted = math.nan

    csv_lines = ["delta,epsilon,mixture_l1,good_mass,centered_mass,fitted_exponent"]
    for d, eps, l1, gm, cm in rows:
        csv_lines.append(
            f"{_g(d)},{_g(eps)},{_g(l1)},{_g(gm)},{_g(cm)},{_g(fitted)}"
        )
    _write(cfg.output_dir, "needles.csv", "\n".join(csv_lines) + "\n")

    checks["all_rows_ok"] = all_ok
    if pinned_scale is None and pinned_bad is None:
        if len(rows) >= 2:
            values = [l1 for _, _, l1, _, _ in rows]  # descending delta order
            checks["mixture_l1_nonincreasing"] = all(
                b <= a + 1e-12 for a, b in zip(values, values[1:])
            )
        if not math.isnan(fitted):
            checks["exponent_ge_rate_minus_0.05"] = fitted >= alpha - 0.05

    fully_bad = bool(row_reports) and all(
        r.get("fully_bad", False) for r in row_reports
    )
    passed = all(bool(v) for v in checks.values())
    report = {
        "command": "needles",
        "needle_count": needle_count,
        "theta": cfg.theta,
        "epsilon": cfg.epsilon,
        "c_threshold": cfg.c_threshold,
        "seed": cfg.seed,
        "rate_exponent": alpha,
        "fitted_exponent": fitted,
        "fully_bad_ensemble": fully_bad,
        "rows": row_reports,
        "checks": {k: bool(v) for k, v in checks.items()},
        "passed": passed,
    }
    _write(cfg.output_dir, "needles_report.json", _json_text(report))

    print(
        f"needles: count={needle_count} epsilon={cfg.epsilon:g} "
        f"theta={cfg.theta:g} seed={cfg.seed}"
    )
    print("  delta        mixture_l1    good_mass   centered_mass")
    for d, _, l1, gm, cm in rows:
        print(f"  {d:<12.6g} {l1:<13.8g} {gm:<11.8g} {cm:.8g}")
    if math.isnan(fitted):
        print("  exponent fit skipped")
    else:
        print(f"  fitted exponent = {fitted:.6g} (rate = {alpha:.6g})")
    if fully_bad:
        print("  fully-bad ensemble (bad mass = 1 at every delta)")
    _print_checks(report["checks"])
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# -- selftest -----------------------------------------------------------------

_PHI_1 = 0.8413447460685429  # Phi(1)
_PHI_HALF = 0.6914624612740131  # Phi(1/2)


def _selftest_battery() -> Sequence[Tuple[str, Callable[[], Optional[str]]]]:
    """(name, check) pairs; a check returns None on pass, a detail on fail.

    Reference values route through ``numerics.gaussian_cdf`` *by module
    attribute* so that fault injection is visible to the battery.
    """

    def cdf_check() -> Optional[str]:
        v = numerics.gaussian_cdf(1.0)
        if abs(v - _PHI_1) > 1e-12:
            return f"Phi(1) = {v!r}, expected {_PHI_1!r}"
        s = numerics.gaussian_cdf(-1.0) + numerics.gaussian_cdf(1.0)
        if abs(s - 1.0) > 1e-13:
            return f"Phi(-1) + Phi(1) = {s!r}, expected 1"
        return None

    def quantile_check() -> Optional[str]:
        for t in (0.05, 0.5, 0.97):
            x = numerics.gaussian_quantile(t)
            back = numerics.gaussian_cdf(x)
            if abs(back - t) > 1e-12:
                return f"Phi(quantile({t})) = {back!r}"
        return None

    def integrate_check() -> Optional[str]:
        total = numerics.integrate(
            numerics.gaussian_pdf, numerics.REAL_LINE, numerics.DEFAULT_SETTINGS
        )
        if abs(total - 1.0) > 1e-12:
            return f"int phi = {total!r}"
        return None

    def root_check() -> Optional[str]:
        r = numerics.find_root(lambda x: x * x - 2.0, Interval(0.0, 2.0))
        if abs(r - math.sqrt(2.0)) > 1e-12:
            return f"root = {r!r}"
        c = np.array([2.0, 3.0, 5.0])
        rs, steps = numerics.find_root(
            lambda x: x * x - c, (np.zeros(3), np.full(3, 3.0)), full_output=True
        )
        if np.max(np.abs(rs - np.sqrt(c))) > 1e-12:
            return f"roots of x^2 - {c.tolist()} = {rs.tolist()!r}"
        if np.max(steps) > 15:  # bisection needs 45 steps from a width of 3
            return f"{steps.tolist()} steps to the roots of x^2 - {c.tolist()}"
        return None

    def normalize_check() -> Optional[str]:
        m = normalize(measure1d.truncated_gaussian_potential(2.0))
        expected = math.log(
            numerics.gaussian_cdf(2.0) - numerics.gaussian_cdf(-2.0)
        )
        if abs(m.log_normalizer - expected) > 1e-10:
            return f"log Z = {m.log_normalizer!r}, expected {expected!r}"
        return None

    def measure_quantile_check() -> Optional[str]:
        m = gaussian_measure()
        q = m.quantile(_PHI_1)
        if abs(q - 1.0) > 1e-9:
            return f"quantile(Phi(1)) = {q!r}"
        return None

    def convexity_check() -> Optional[str]:
        good = measure1d.check_one_convexity(
            measure1d.perturbed_gaussian_potential((0.0,), (-0.25, 0.25))
        )
        if not good.passed:
            return f"perturbed potential flagged, worst={good.worst_violation!r}"
        xs = np.linspace(-3.0, 3.0, 41)
        try:
            measure1d.tabulated_potential(xs, 0.25 * xs**2)
            return "quarter-parabola (not 1-convex) was accepted"
        except InvalidPotentialError:
            return None

    def minimizer_check() -> Optional[str]:
        res = measure1d.brute_force_minimizer(gaussian_measure(), 0.5)
        target = 1.0 / SQRT_2PI
        if abs(res.perimeter - target) > 1e-6:
            return f"min perimeter = {res.perimeter!r}, expected {target!r}"
        if not res.is_half_line:
            return "gaussian minimizer is not a half-line"
        return None

    def deficit_check() -> Optional[str]:
        d0 = stability.deficit(gaussian_measure(), 0.5).deficit
        if abs(d0) > 1e-12:
            return f"gaussian deficit = {d0!r}"
        m, fam, closed = stability.example23(2.0)
        d = stability.deficit(m, 0.5).deficit
        if abs(d - closed.deficit) > 1e-10:
            return f"truncated deficit = {d!r}, closed {closed.deficit!r}"
        return None

    def lp_check() -> Optional[str]:
        z = stability.lp_distance(gaussian_measure(), 2.0)
        if abs(z) > 1e-12:
            return f"gaussian lp(2) = {z!r}"
        m, _, closed = stability.example23(2.0)
        v = stability.lp_distance(m, 2.0)
        if abs(v - closed.lp(2.0)) > 1e-8:
            return f"truncated lp(2) = {v!r}, closed {closed.lp(2.0)!r}"
        return None

    def talagrand_selfcheck() -> Optional[str]:
        m, _, _ = stability.example23(1.5)
        rep = stability.talagrand_check(m)
        if not rep.passed:
            return f"W2^2 = {rep.lhs!r} > 2 Ent = {rep.rhs!r}"
        return None

    def shifted_l1_check() -> Optional[str]:
        s = 0.5
        v = needles.shifted_gaussian_l1(s)
        exact = 4.0 * numerics.gaussian_cdf(s / 2.0) - 2.0
        if abs(v - exact) > 1e-9:
            return f"l1 = {v!r}, closed {exact!r}"
        if v > 2.0 * s / SQRT_2PI + 1e-12:
            return f"l1 = {v!r} exceeds linear bound"
        return None

    def ensemble_check() -> Optional[str]:
        cfg = needles.EnsembleConfig(
            needle_count=10, deficit_scale=1e-3, bad_fraction=0.2, seed=7
        )
        ens = needles.generate_ensemble(cfg)
        mass = needles.disintegration_check(
            ens, lambda x: np.ones_like(np.asarray(x, dtype=float))
        )
        if abs(mass.lhs - 1.0) > 1e-9:
            return f"mixture mass = {mass.lhs!r}"
        return None

    def fit_check() -> Optional[str]:
        deltas = np.logspace(-2, -6, 9)
        points = [(float(d), float(3.0 * d**0.7)) for d in deltas]
        alpha, c, r2 = rates.fit_exponent(points)
        if abs(alpha - 0.7) > 1e-12 or abs(c - math.log(3.0)) > 1e-10:
            return f"alpha = {alpha!r}, c = {c!r}"
        if abs(r2 - 1.0) > 1e-12:
            return f"r^2 = {r2!r}"
        return None

    return (
        ("numerics.gaussian_cdf", cdf_check),
        ("numerics.gaussian_quantile", quantile_check),
        ("numerics.integrate", integrate_check),
        ("numerics.find_root", root_check),
        ("measure1d.normalize", normalize_check),
        ("measure1d.quantile", measure_quantile_check),
        ("measure1d.check_one_convexity", convexity_check),
        ("measure1d.brute_force_minimizer", minimizer_check),
        ("stability.deficit", deficit_check),
        ("stability.lp_distance", lp_check),
        ("stability.talagrand_check", talagrand_selfcheck),
        ("needles.shifted_gaussian_l1", shifted_l1_check),
        ("needles.generate_ensemble", ensemble_check),
        ("rates.fit_exponent", fit_check),
    )


# fault name -> (module, attribute, corrupted version of the original); each
# is a small bias that some check of the battery must catch
_FAULTS = {
    # every closed-form comparison routed through the module attribute
    "gaussian_cdf": (numerics, "gaussian_cdf", lambda f: lambda x: f(x) + 1e-3),
    # every cell mass of a measure, hence its normalizer, scaled by e^{1e-3}
    "measure_cdf": (measure1d, "gaussian_log_mass", lambda f: lambda a, b: f(a, b) + 1e-3),
    # every quadrature routed through the module attribute, scaled by 1 + 1e-6
    "integrate": (numerics, "integrate", lambda f: lambda *a, **k: f(*a, **k) * (1.0 + 1e-6)),
    # every root solve routed through the module attribute: the function is
    # shifted right by 1e-6, and with it every root
    "find_root": (numerics, "find_root",
                  lambda f: lambda g, *a, **k: f(lambda x: g(x - 1e-6), *a, **k)),
}


def cmd_selftest(cfg: RunConfig, inject_fault: Optional[str]) -> int:
    if inject_fault is not None and inject_fault not in _FAULTS:
        raise ConfigError(
            f"unknown fault {inject_fault!r} (supported: {', '.join(_FAULTS)})"
        )

    patch = _FAULTS.get(inject_fault)
    if patch is not None:
        module, attribute, corrupt = patch
        original = getattr(module, attribute)
        setattr(module, attribute, corrupt(original))
    results = []
    try:
        for name, check in _selftest_battery():
            try:
                detail = check()
            except Exception as exc:  # noqa: BLE001 -- battery must not abort
                detail = f"{type(exc).__name__}: {exc}"
            results.append((name, detail))
    finally:
        if patch is not None:
            setattr(module, attribute, original)

    for name, detail in results:
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
    failed = [name for name, detail in results if detail is not None]
    passed = not failed
    print(f"selftest: {len(results) - len(failed)}/{len(results)} passed")

    report = {
        "command": "selftest",
        "injected_fault": inject_fault,
        "results": [
            {"name": name, "passed": detail is None, "detail": detail}
            for name, detail in results
        ],
        "passed": passed,
    }
    _write(cfg.output_dir, "selftest_report.json", _json_text(report))
    return 0 if passed else 1


# -- entry point --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "needles":
            return cmd_needles(cfg)
        if args.command == "example23":
            return cmd_example23(cfg)
        return cmd_selftest(cfg, getattr(args, "inject_fault", None))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
