"""Console entry point binding the library together.

Subcommands::

    verify      one measure: deficit, gap bounds, L^p/W_1/W_2/entropy, Talagrand
    sweep       deficit sweep of one metric over a measure family + fit
    needles     per-deficit needle-ensemble aggregation experiments
    example23   closed-form truncated-Gaussian reproduction (default D = 2)
    selftest    deterministic battery of closed-form and invariant checks

Configuration comes from an optional JSON file (``--config``) updated with
the flags given (flags win): every option's ``dest`` is the
:class:`RunConfig` field that it sets, and options left off the command line
are absent.  Each subcommand reads the fields of its own options and no
other, and takes no other flag or config key.  Every command
ends in :func:`_emit`, which writes its JSON report (stable key order) to
``--out`` and prints its table, a ``[PASS]``/``[FAIL]`` line per check and
the verdict; ``sweep`` and ``needles`` also write a CSV with a fixed header
row.  Every command is deterministic given (config, seed) -- outputs are
byte-identical across runs.

Exit status: 0 when all hard invariants/checks pass, 1 on invariant or
check failures (partial reports are still written), 2 on configuration
errors.  Quadrature warnings alone never change the exit status; only
check outcomes do.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import measure1d, needles, numerics, rates, stability
from .errors import ConfigError, DomainError, InvalidPotentialError, IsolabError
from .measure1d import Measure1D, gaussian_measure, normalize, potential_from_config
from .numerics import SQRT_2PI
from .rates import DEFAULT_DELTA_GRID, Metric

__all__ = ["RunConfig", "main"]

_CHECK_TOL = 1e-8  # closed-form / inequality slack used by CLI checks


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation.

    ``measure`` selects a measure (``gaussian``, ``truncated:D``,
    ``perturbed[:seed]``, a JSON potential file) or, for ``sweep``, a measure
    family (``example23``, ``perturbed[:seed]``, ``gaussian``).
    ``needle_count`` is the ``needles`` ensemble size, and
    ``deficit_scale``/``bad_fraction`` pin its generator (None: the grid
    delta and ``delta^alpha``); ``alpha_min``/``alpha_max`` are the optional
    sweep acceptance band.  Construction checks every field's type and
    range, and that every number is finite, since a config file may hold any
    JSON value (``NaN`` and ``Infinity`` among them), and then normalizes
    once: every number field becomes a float (``needle_count`` an int),
    ``p_list`` a sorted tuple and ``delta_grid`` a tuple.  Unknown keys are
    rejected by :meth:`from_dict`; which fields a subcommand reads is
    :func:`config_from_args`' concern.
    """

    command: str
    measure: str = "gaussian"
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
    needle_count: int = 100
    deficit_scale: Optional[float] = None
    bad_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("command", "measure", "metric", "output_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string, got {getattr(self, name)!r}")
        optional = ("alpha_min", "alpha_max", "deficit_scale", "bad_fraction")
        for name in ("theta", "epsilon", "c_threshold", *optional):
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if not _is_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("p_list", "delta_grid"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
                raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")
        object.__setattr__(self, "p_list", tuple(sorted(float(p) for p in self.p_list)))
        object.__setattr__(self, "delta_grid", tuple(float(d) for d in self.delta_grid))
        if not (_is_number(self.needle_count) and self.needle_count >= 1
                and float(self.needle_count).is_integer()):
            raise ConfigError(f"needle_count must be an integer >= 1, got {self.needle_count!r}")
        object.__setattr__(self, "needle_count", int(self.needle_count))
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
            if not 0.0 < d:
                raise ConfigError(f"delta grid entry out of range: {d!r}")
        try:
            Metric.parse(self.metric)
        except (DomainError, ValueError) as exc:
            raise ConfigError(f"bad metric {self.metric!r}: {exc}") from exc
        if not (self.c_threshold > 0.0):
            raise ConfigError(f"c_threshold out of range: {self.c_threshold!r}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunConfig":
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _is_number(value: object) -> bool:
    """Whether ``value`` is an int or a float, not a bool, and a finite
    float once converted."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the largest float
        return False


# -- argument parsing ---------------------------------------------------------


# every option; its dest, given or argparse's from the flag, is the RunConfig
# field it sets (but for --config and --inject-fault)
_OPTIONS = {
    "--config": dict(metavar="FILE", help="JSON config file; flags override it"),
    "--measure": dict(help="gaussian | truncated:D | perturbed[:seed] | potential JSON file "
                           "(sweep: example23 | gaussian | perturbed[:seed])"),
    "--theta": dict(type=float, help="mass split in (0,1)"),
    "--p": dict(dest="p_list", action="append", metavar="P[,P..]", help="L^p orders (repeatable / comma list)"),
    "--epsilon": dict(type=float, help="needle-rate parameter in (0,1)"),
    "--delta-grid": dict(metavar="D1,D2,..", help="deficit grid (comma list)"),
    "--seed": dict(type=int, help="generator seed"),
    "--metric": dict(help="lp:P | w1 | w2 | entropy"),
    "--alpha-min": dict(type=float, help="acceptance band: fitted exponent lower bound"),
    "--alpha-max": dict(type=float, help="acceptance band: fitted exponent upper bound"),
    "--needle-count": dict(type=int, help="needles per ensemble"),
    "--c-threshold": dict(type=float, help="centered-classification constant"),
    "--deficit-scale": dict(type=float, help="pin generator deficit scale (default: the grid delta)"),
    "--bad-fraction": dict(type=float, help="pin generator bad fraction (default: delta^alpha)"),
    "--inject-fault": dict(metavar="NAME", help="corrupt one routine (testing the battery itself)"),
    "--out": dict(dest="output_dir", metavar="DIR", help="output directory for reports"),
}

# subcommand -> (help, its options): the one list of what each command reads
_SUBCOMMANDS = {
    "verify": ("verify one measure end to end", "--config --measure --theta --p --seed --out"),
    "sweep": ("deficit sweep of one metric over a measure family",
              "--config --measure --theta --delta-grid --seed --metric --alpha-min --alpha-max --out"),
    "needles": ("needle-ensemble aggregation experiments", "--config --theta --epsilon --delta-grid "
                "--seed --needle-count --c-threshold --deficit-scale --bad-fraction --out"),
    "example23": ("truncated-Gaussian closed-form reproduction", "--config --measure --p --out"),
    "selftest": ("run the built-in check battery", "--inject-fault --out"),
}


def _reads(command: str) -> frozenset:
    """The :class:`RunConfig` fields that ``command`` reads, the dests of its
    options."""
    flags = _SUBCOMMANDS[command][1].split()
    return frozenset(_OPTIONS[f].get("dest", f[2:].replace("-", "_")) for f in flags) - {"config", "inject_fault"}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on first use."""
    parser = argparse.ArgumentParser(
        prog="isolab",
        description="Numerical checks of Gaussian isoperimetric stability on 1-convex measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def _number(text: str, kind: Callable[[str], float] = float) -> float:
    """``kind(text)``; a malformed number is a configuration error."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"not a valid {kind.__name__}: {text!r}") from None


def _floats(text: str) -> Tuple[float, ...]:
    """The numbers of a comma list; empty pieces are skipped."""
    out = tuple(_number(piece) for piece in text.split(",") if piece.strip())
    if not out:
        raise ConfigError("empty numeric list")
    return out


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file ``path`` (a config or potential file)."""
    try:
        loaded = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"{what} {path}: top level must be an object")
    return loaded


def config_from_args(flags: Mapping[str, object]) -> RunConfig:
    """The ``--config`` file's keys updated with the parsed ``flags``.

    The file may hold ``command``, which must name the subcommand, and the
    fields the subcommand reads (:func:`_reads`); any other key is a
    ``ConfigError``, so a report never states a setting its command ignored.
    """
    flags = dict(flags)
    command = flags["command"]
    path = flags.pop("config", None)
    data = _read_object(path, "config file") if path is not None else {}
    if data.get("command", command) != command:
        raise ConfigError(f"config file command {data['command']!r} does not match {command!r}")
    reads = _reads(command)
    extra = sorted(set(data) - reads - {"command"})
    if extra:
        raise ConfigError(f"unknown config keys: {extra} ({command} reads {', '.join(sorted(reads))})")
    if "p_list" in flags:  # --p repeats, and each takes a comma list
        flags["p_list"] = _floats(",".join(flags["p_list"]))
    if "delta_grid" in flags:
        flags["delta_grid"] = _floats(flags["delta_grid"])
    data.update(flags)
    if command == "example23":
        data.setdefault("measure", "truncated:2")
    return RunConfig.from_dict(data)


# -- output -------------------------------------------------------------------


def _write(cfg: RunConfig, name: str, *lines: str) -> None:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text("\n".join(lines) + "\n")


def _g(x: float) -> str:
    return f"{x:.17g}"


def _emit(cfg: RunConfig, name: str, report: dict,
          checks: Optional[Mapping[str, object]], lines: Sequence[str]) -> int:
    """Write ``report`` to ``--out`` as ``name``, print ``lines`` and return
    the exit code.  With ``checks`` the report gains them and ``passed``, and
    a ``[PASS]``/``[FAIL]`` line per check and the verdict follow ``lines``;
    without them (``selftest``) the report holds ``passed`` already.
    """
    lines = list(lines)
    if checks is not None:
        report["checks"] = {key: bool(ok) for key, ok in checks.items()}
        report["passed"] = all(report["checks"].values())
        lines += [f"  [{'PASS' if ok else 'FAIL'}] {key}" for key, ok in report["checks"].items()]
        lines.append("PASS" if report["passed"] else "FAIL")
    _write(cfg, name, json.dumps(report, sort_keys=True, indent=2, allow_nan=True))
    print("\n".join(lines))
    return 0 if report["passed"] else 1


# -- measure / family construction --------------------------------------------


def _perturbed_family(text: str, cfg: RunConfig) -> Optional[rates.PerturbedSweepFamily]:
    """The family of a ``perturbed[:seed]`` spec (seed ``cfg.seed`` when
    none is given), or None for any other spec."""
    if text != "perturbed" and not text.startswith("perturbed:"):
        return None
    seed = _number(text.partition(":")[2], int) if ":" in text else cfg.seed
    if seed < 0:
        raise ConfigError(f"measure spec {text!r}: the seed must be nonnegative")
    return rates.PerturbedSweepFamily.seeded(seed)


def _radius(text: str) -> float:
    """The ``D`` of a ``truncated:D`` spec, positive and finite."""
    D = _number(text.partition(":")[2])
    if not (math.isfinite(D) and D > 0.0):
        raise ConfigError(f"measure spec {text!r}: the radius must be positive and finite")
    return D


def _build_measure(cfg: RunConfig) -> Measure1D:
    text = cfg.measure.strip()
    if text == "gaussian":
        return gaussian_measure()
    if text.startswith("truncated:"):
        return normalize(measure1d.truncated_gaussian_potential(_radius(text)))
    family = _perturbed_family(text, cfg)
    if family is not None:
        return family.measure_at(1.0)
    if not Path(text).exists():
        raise ConfigError(f"measure spec {text!r}: not a keyword and no such file")
    loaded = _read_object(text, "potential file")
    try:
        return normalize(potential_from_config(loaded))
    except IsolabError as exc:
        raise ConfigError(f"potential file {text}: {exc}") from exc


def _build_family(cfg: RunConfig):
    text = cfg.measure.strip()
    if text == "example23":
        return rates.Example23SweepFamily()
    if text == "gaussian":
        return rates.GaussianSweepFamily()
    family = _perturbed_family(text, cfg)
    if family is None:
        raise ConfigError(f"unknown sweep family {text!r} (expected example23 | gaussian | perturbed[:seed])")
    return family


# -- verify -------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    m = _build_measure(cfg)
    checks: dict = {}
    report: dict = {"command": "verify", "measure": cfg.measure, "theta": cfg.theta}
    try:
        conv = measure1d.check_one_convexity(m.potential)
        checks["one_convex"] = bool(conv.passed)
        report["one_convex"] = {"passed": conv.passed, "worst_violation": conv.worst_violation}

        drep = stability.deficit(m, cfg.theta)
        report.update(drep.to_dict())
        checks["deficit_nonnegative"] = drep.deficit >= -1e-9

        report["gap"] = stability.check_gap_bounds(m, cfg.theta).to_dict()

        centered = m.translate(drep.shift)
        lp = [stability.lp_distance(centered, p) for p in cfg.p_list]
        report["lp"] = [{"p": p, "lp": value} for p, value in zip(cfg.p_list, lp)]
        # a NaN never counts as a drop
        checks["lp_nondecreasing_in_p"] = not any(b < a - _CHECK_TOL for a, b in zip(lp, lp[1:]))

        # each number is reported as soon as it is computed, so a failure
        # keeps the ones before it
        report["w1"] = w1 = stability.w1_to_gaussian(centered)
        report["w2"] = w2 = stability.w2_to_gaussian(centered)
        report["entropy"] = entropy = stability.relative_entropy(centered)
        # Talagrand's inequality W_2^2 <= 2 Ent, a theorem for 1-convex measures
        lhs, rhs = w2**2, 2.0 * entropy
        talagrand = lhs <= rhs + _CHECK_TOL
        report.update(talagrand={"lhs": lhs, "rhs": rhs, "talagrand_pass": talagrand}, talagrand_pass=talagrand)
        checks["talagrand"] = talagrand
        checks["w1_le_w2"] = w1 <= w2 + _CHECK_TOL
        report["w1_dual_bound"] = dual = stability.w1_dual_bound(m, cfg.theta)
        checks["w1_le_dual_bound"] = w1 <= dual + _CHECK_TOL
    except IsolabError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        checks["completed"] = False

    lines = [f"verify: measure={cfg.measure} theta={cfg.theta:g}"]
    lines += [f"  {key:8s} = {report[key]:.12g}" for key in ("a_theta", "shift", "deficit") if key in report]
    lines += [f"  lp(p={row['p']:g}) = {row['lp']:.12g}" for row in report.get("lp", [])]
    lines += [f"  {key:8s} = {report[key]:.12g}" for key in ("w1", "w2", "entropy") if key in report]
    if "error" in report:
        lines.append(f"  error: {report['error']}")
    return _emit(cfg, "verify_report.json", report, checks, lines)


# -- example23 ----------------------------------------------------------------


def cmd_example23(cfg: RunConfig) -> int:
    text = cfg.measure.strip()
    if not text.startswith("truncated:"):
        raise ConfigError(f"example23 needs a truncated:D measure spec, got {text!r}")
    D = _radius(text)
    m, fam = stability.example23(D)

    def compare(exact: float, numeric: float) -> dict:
        return {"closed": exact, "numeric": numeric, "error": abs(numeric - exact)}

    report: dict = {"command": "example23", "D": fam.D, "delta_E": fam.delta_E, "theta": 0.5}
    report["deficit"] = compare(fam.deficit, stability.deficit(m, 0.5).deficit)
    report["lp"] = [{"p": p, **compare(fam.lp(p), stability.lp_distance(m, p))} for p in cfg.p_list]
    report["entropy"] = compare(math.log1p(fam.delta_E), stability.relative_entropy(m))

    xs = np.linspace(-D + 1e-9, D - 1e-9, 101)
    lower = numerics.gaussian_cdf(-D)
    closed_cdf = (numerics.gaussian_cdf(xs) - lower) * (1.0 + fam.delta_E)
    numeric_cdf = m.cdf_many(xs)
    report["cdf_max_error"] = float(np.max(np.abs(numeric_cdf - np.clip(closed_cdf, 0.0, 1.0))))

    checks = {"deficit_matches": report["deficit"]["error"] <= _CHECK_TOL}
    checks.update((f"lp_matches_p{row['p']:g}", row["error"] <= _CHECK_TOL) for row in report["lp"])
    checks["entropy_matches"] = report["entropy"]["error"] <= _CHECK_TOL
    checks["cdf_matches"] = report["cdf_max_error"] <= _CHECK_TOL

    rows = [("deficit", report["deficit"]), *((f"lp(p={row['p']:g})", row) for row in report["lp"]),
            ("entropy", report["entropy"])]
    lines = [f"example23: D={D:g} delta_E={fam.delta_E:.12g}"]
    lines += [f"  {label} closed={row['closed']:.12g} numeric={row['numeric']:.12g}" for label, row in rows]
    return _emit(cfg, "example23_report.json", report, checks, lines)


# -- sweep --------------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> int:
    family = _build_family(cfg)
    metric = Metric.parse(cfg.metric)
    result = rates.sweep(family, cfg.theta, metric, cfg.delta_grid)

    _write(cfg, "sweep.csv", "delta,value", *(f"{_g(d)},{_g(v)}" for d, v in result.points))
    _write(cfg, "sweep_plot.dat", "# log10_delta log10_value",
           *(f"{math.log10(d):.12g} {math.log10(v):.12g}" for d, v in result.points if v > 0.0))

    checks: dict = {}
    if cfg.alpha_min is not None or cfg.alpha_max is not None:
        alpha = result.fitted_exponent
        checks["exponent_in_band"] = (
            result.fit_available
            and (cfg.alpha_min is None or alpha >= cfg.alpha_min)
            and (cfg.alpha_max is None or alpha <= cfg.alpha_max)
        )
    checks["no_points_skipped"] = not result.skipped

    summary = {**result.to_dict(), "command": "sweep", "theta": cfg.theta,
               "alpha_min": cfg.alpha_min, "alpha_max": cfg.alpha_max}
    lines = [f"sweep: family={family.name} metric={metric.label} theta={cfg.theta:g}",
             "  delta        value"]
    lines += [f"  {d:<12.6g} {v:.10g}" for d, v in result.points]
    if result.fit_available:
        lines.append(
            f"  alpha = {result.fitted_exponent:.6g}  "
            f"c = {result.fitted_log_constant:.6g}  "
            f"r^2 = {result.r_squared:.8g}"
        )
    else:
        lines.append("  fit skipped (fewer than 3 positive points)")
    return _emit(cfg, "sweep_summary.json", summary, checks, lines)


# -- needles ------------------------------------------------------------------


def cmd_needles(cfg: RunConfig) -> int:
    alpha = needles.rate_exponent(cfg.epsilon)

    rows = []
    for d in sorted(set(cfg.delta_grid), reverse=True):
        scale = cfg.deficit_scale if cfg.deficit_scale is not None else d
        bad = cfg.bad_fraction if cfg.bad_fraction is not None else min(1.0, d**alpha)
        config = needles.EnsembleConfig(  # a bad config is a ConfigError, exit 2
            needle_count=cfg.needle_count, theta=cfg.theta, epsilon=cfg.epsilon,
            deficit_scale=scale, bad_fraction=bad, seed=cfg.seed,
        )
        row: dict = {"delta": d, "deficit_scale": scale, "bad_fraction": bad}
        try:
            ens = needles.generate_ensemble(config)
            row["mass_total"] = needles.disintegration_check(
                ens, lambda x: np.ones_like(np.asarray(x, dtype=float))
            ).lhs
            # every Hermite term n >= 1 of the mixture integrates to 0 against
            # h = 1; cos(3.5 (x + c)), c the centre of the full-line needles'
            # slopes, weights term n by 3.5^n e^{-3.5^2/2}
            beta = ens.beta[np.isinf(ens.lo) & np.isinf(ens.hi)]
            centre = 0.5 * (beta.min() + beta.max()) if beta.size else 0.0
            wave = needles.disintegration_check(ens, lambda x: np.cos(3.5 * (x + centre)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep = needles.theorem31_experiment(ens, d, cfg.c_threshold)
            row.update(rep.to_dict())
            row["warnings"] = sorted(str(w.message) for w in caught)
            row["mass_ok"] = abs(row["mass_total"] - 1.0) <= 1e-9
            row["wave_ok"] = abs(wave.lhs - wave.rhs) <= 1e-10
            row["fully_bad"] = rep.bad_mass >= 1.0 - 1e-12
        except IsolabError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["ok"] = "error" not in row and row["mass_ok"] and row["wave_ok"]
        rows.append(row)

    done = [row for row in rows if "mixture_l1" in row]  # descending delta order
    fitted = rates.fit_exponent([(row["delta"], row["mixture_l1"]) for row in done])[0]
    columns = ("delta", "epsilon", "mixture_l1", "good_mass", "centered_mass")
    _write(cfg, "needles.csv", ",".join(columns) + ",fitted_exponent",
           *(",".join(_g(x) for x in (*(row[c] for c in columns), fitted)) for row in done))

    checks = {"all_rows_ok": all(row["ok"] for row in rows)}
    if cfg.deficit_scale is None and cfg.bad_fraction is None:
        values = [row["mixture_l1"] for row in done]
        if len(values) >= 2:
            checks["mixture_l1_nonincreasing"] = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        if not math.isnan(fitted):
            checks["exponent_ge_rate_minus_0.05"] = fitted >= alpha - 0.05

    fully_bad = bool(rows) and all(row.get("fully_bad", False) for row in rows)
    report = dict(command="needles", needle_count=cfg.needle_count, theta=cfg.theta, epsilon=cfg.epsilon,
                  c_threshold=cfg.c_threshold, seed=cfg.seed, rate_exponent=alpha,
                  fitted_exponent=fitted, fully_bad_ensemble=fully_bad, rows=rows)
    lines = [f"needles: count={cfg.needle_count} epsilon={cfg.epsilon:g} theta={cfg.theta:g} seed={cfg.seed}",
             "  delta        mixture_l1    good_mass   centered_mass"]
    lines += [f"  {row['delta']:<12.6g} {row['mixture_l1']:<13.8g} {row['good_mass']:<11.8g} "
              f"{row['centered_mass']:.8g}" for row in done]
    if math.isnan(fitted):
        lines.append("  exponent fit skipped")
    else:
        lines.append(f"  fitted exponent = {fitted:.6g} (rate = {alpha:.6g})")
    if fully_bad:
        lines.append("  fully-bad ensemble (bad mass = 1 at every delta)")
    return _emit(cfg, "needles_report.json", report, checks, lines)


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
        total = numerics.integrate(numerics.gaussian_pdf, numerics.REAL_LINE)
        if abs(total - 1.0) > 1e-12:
            return f"int phi = {total!r}"
        return None

    def root_check() -> Optional[str]:
        r = numerics.find_root(lambda x: x * x - 2.0, (0.0, 2.0))
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
        # the one cell's density is phi / Z on (-2, 2): log_amp = -log Z
        log_z = -float(normalize(measure1d.truncated_gaussian_potential(2.0)).log_amp[0])
        expected = math.log(numerics.gaussian_cdf(2.0) - numerics.gaussian_cdf(-2.0))
        if abs(log_z - expected) > 1e-10:
            return f"log Z = {log_z!r}, expected {expected!r}"
        return None

    def measure_quantile_check() -> Optional[str]:
        m = gaussian_measure()
        q = m.quantile(_PHI_1)
        if abs(q - 1.0) > 1e-9:
            return f"quantile(Phi(1)) = {q!r}"
        return None

    def convexity_check() -> Optional[str]:
        spec = measure1d.perturbed_gaussian_potential((0.0,), (-0.25, 0.25))
        good = measure1d.check_one_convexity(spec)
        if not good.passed:
            return f"perturbed potential flagged, worst={good.worst_violation!r}"
        xs = np.linspace(-3.0, 3.0, 41)
        try:
            measure1d.tabulated_potential(xs, 0.25 * xs**2)
            return "quarter-parabola (not 1-convex) was accepted"
        except InvalidPotentialError:
            pass
        # the slope drops by 0.5 at 0 once the cells' slopes are swapped
        if measure1d.check_one_convexity(dataclasses.replace(spec, slopes=spec.slopes[::-1])).passed:
            return "swapped slopes (not 1-convex) passed check_one_convexity"
        return None

    def minimizer_check() -> Optional[str]:
        # the Gaussian's half-line below 0, and on (-3, 1), where the profile
        # is lower on the left, the half-line above q(0.2)
        for m, theta, upper in ((gaussian_measure(), 0.5, False),
                                (normalize(measure1d.truncated_gaussian_potential(lo=-3.0, hi=1.0)), 0.8, True)):
            res = measure1d.brute_force_minimizer(m, theta)
            lo, hi = numerics.gaussian_cdf(m.domain.lo), numerics.gaussian_cdf(m.domain.hi)
            cut = numerics.gaussian_quantile(hi - theta * (hi - lo) if upper else lo + theta * (hi - lo))
            target, bset = float(numerics.gaussian_pdf(cut)) / (hi - lo), res.boundary_set
            if not res.is_half_line or abs(res.perimeter - target) > 1e-6:
                return f"theta={theta}: perimeter {res.perimeter!r} of {bset}, expected {target!r} of a half-line"
            points = np.array(bset.boundary_points)
            if abs(bset.total_measure - theta) > 1e-12 or points.shape != (1,) or abs(points[0] - cut) > 1e-12:
                return f"theta={theta}: {bset}, expected mass {theta} cut at {cut!r}"
        return None

    def deficit_check() -> Optional[str]:
        d0 = stability.deficit(gaussian_measure(), 0.5).deficit
        if abs(d0) > 1e-12:
            return f"gaussian deficit = {d0!r}"
        m, fam = stability.example23(2.0)
        d = stability.deficit(m, 0.5).deficit
        if abs(d - fam.deficit) > 1e-10:
            return f"truncated deficit = {d!r}, closed {fam.deficit!r}"
        return None

    def lp_check() -> Optional[str]:
        z = stability.lp_distance(gaussian_measure(), 2.0)
        if abs(z) > 1e-12:
            return f"gaussian lp(2) = {z!r}"
        m, fam = stability.example23(2.0)
        v = stability.lp_distance(m, 2.0)
        if abs(v - fam.lp(2.0)) > 1e-8:
            return f"truncated lp(2) = {v!r}, closed {fam.lp(2.0)!r}"
        return None

    def talagrand_selfcheck() -> Optional[str]:
        def sides(m: Measure1D) -> Tuple[float, float]:  # W_2^2 <= 2 Ent
            return stability.w2_to_gaussian(m) ** 2, 2.0 * stability.relative_entropy(m)

        lhs, rhs = sides(stability.example23(1.5)[0])
        if not lhs <= rhs + _CHECK_TOL:
            return f"W2^2 = {lhs!r} > 2 Ent = {rhs!r}"
        # the equality case: for the Gaussian translated by s both sides
        # are s^2, so no slack hides a small fault
        lhs, rhs = sides(gaussian_measure().translate(0.3))
        if abs(lhs - 0.09) > 1e-8 or abs(rhs - 0.09) > 1e-8:
            return f"translate(0.3): W2^2 = {lhs!r}, 2 Ent = {rhs!r}, expected 0.09"
        return None

    def needle_l1_check() -> Optional[str]:
        s = 0.5
        v = needles.needle_l1(needles.make_needle(1.0, gaussian_measure().translate(s), 0.5))
        exact = 4.0 * numerics.gaussian_cdf(s / 2.0) - 2.0
        if abs(v - exact) > 1e-9:
            return f"l1 = {v!r}, closed {exact!r}"
        if v > 2.0 * s / SQRT_2PI + 1e-12:
            return f"l1 = {v!r} exceeds linear bound"
        return None

    def ensemble_check() -> Optional[str]:
        # 150 needles hold 30 translates, which form one Hermite-expanded
        # cluster; only an h that is not constant sees its terms n >= 1,
        # which integrate to 0 against phi
        cfg = needles.EnsembleConfig(
            needle_count=150, deficit_scale=1e-3, bad_fraction=0.2, seed=7
        )
        ens = needles.generate_ensemble(cfg)
        mass = needles.disintegration_check(
            ens, lambda x: np.ones_like(np.asarray(x, dtype=float))
        )
        if abs(mass.lhs - 1.0) > 1e-9:
            return f"mixture mass = {mass.lhs!r}"
        wave = needles.disintegration_check(ens, lambda x: np.cos(3.5 * (x - 6.75)))
        if abs(wave.lhs - wave.rhs) > 1e-10:
            return f"int cos(3.5 (x - 6.75)) rho = {wave.lhs!r}, needlewise {wave.rhs!r}"
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
        ("stability.talagrand", talagrand_selfcheck),
        ("needles.needle_l1", needle_l1_check),
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
    # every perturbed potential built through the module attribute: psi_hat
    # jumps up by 1e-3 at the first breakpoint
    "convexity": (measure1d, "perturbed_gaussian_potential",
                  lambda f: lambda *a, **k: _raise_right_of_first_breakpoint(f(*a, **k))),
    # every W_2 quantile-coupling integral, scaled by 1 + 1e-6
    "coupling": (stability, "_quantile_coupling",
                 lambda f: lambda *a: f(*a) * (1.0 + 1e-6)),
    # every power-law fit: the slope scaled by 1 + 1e-9
    "fit_slope": (rates, "fit_exponent",
                  lambda f: lambda points: (lambda a, c, r2: (a * (1.0 + 1e-9), c, r2))(*f(points))),
}


def _raise_right_of_first_breakpoint(spec: measure1d.PotentialSpec) -> measure1d.PotentialSpec:
    first = spec.edges[1]
    return dataclasses.replace(spec, offsets=spec.offsets + 1e-3 * (spec.edges[:-1] >= first))


def cmd_selftest(cfg: RunConfig, inject_fault: Optional[str] = None) -> int:
    if inject_fault is not None and inject_fault not in _FAULTS:
        raise ConfigError(f"unknown fault {inject_fault!r} (supported: {', '.join(_FAULTS)})")

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

    lines = [f"PASS {name}" if detail is None else f"FAIL {name}: {detail}" for name, detail in results]
    failed = sum(detail is not None for _, detail in results)
    lines.append(f"selftest: {len(results) - failed}/{len(results)} passed")
    report = {"command": "selftest", "injected_fault": inject_fault, "passed": not failed,
              "results": [{"name": name, "passed": detail is None, "detail": detail}
                          for name, detail in results]}
    return _emit(cfg, "selftest_report.json", report, None, lines)


# -- entry point --------------------------------------------------------------

_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "needles": cmd_needles,
    "example23": cmd_example23,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    # --inject-fault is the one flag that is not configuration
    extra = {"inject_fault": flags.pop("inject_fault")} if "inject_fault" in flags else {}
    try:
        try:
            cfg = config_from_args(flags)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return _COMMANDS[cfg.command](cfg, **extra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
