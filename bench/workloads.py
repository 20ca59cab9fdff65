"""The benchmark's workloads: inputs made from a seed, the ops, their checks.

A workload is built once from ``--seed`` (that is the set-up), then runs
whole *rounds*.  A round performs every op of the workload once, on objects
built afresh, so every round does the same work.  Each op is timed alone;
outputs are collected and checked outside the timed calls.

isolab is reached only through ``isolab.<name>`` for names in
``isolab.__all__`` and through ``isolab.cli.main``, looked up at call time
so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
import isolab
import isolab.cli
from tracer import OP_SPAN, PREP_SPAN

THETAS = tuple(k / 10.0 for k in range(1, 10))
EPSILON = 0.1  # EnsembleConfig's default needle-rate parameter


@dataclass
class OpRecord:
    name: str
    seconds: float
    problems: List[str] = field(default_factory=list)
    known_fault: bool = False  # fails every time on a fault named in CHANGES.md
    start: float = 0.0  # perf_counter at the start and the end of the op
    end: float = 0.0


class Round:
    """Times the ops of one round and collects their problems.

    With a ``SpeedSampler`` running, the time the sampler takes during an op
    or a preparation is left out of its seconds.
    """

    def __init__(self, tracer=None, sampler=None) -> None:
        self.ops: List[OpRecord] = []
        self.preps: List[Tuple[float, float, float]] = []  # (seconds, start, end)
        self._tracer = tracer
        self._sampler = sampler

    def _call(self, span: str, fn: Callable):
        return self._tracer.record(span, fn) if self._tracer is not None else fn()

    def _timed(self, span: str, fn: Callable):
        """(value or None, exception or None, seconds, start, end) of fn()."""
        spent0 = self._sampler.spent if self._sampler is not None else 0.0
        value, error = None, None
        t0 = time.perf_counter()
        try:
            value = self._call(span, fn)
        except Exception as exc:  # noqa: BLE001 -- a failed op must not end the run
            error = exc
        t1 = time.perf_counter()
        spent = (self._sampler.spent if self._sampler is not None else 0.0) - spent0
        return value, error, t1 - t0 - spent, t0, t1

    def prep(self, fn: Callable):
        """Timed per-round preparation that is not an op (counts in run_s)."""
        value, error, seconds, t0, t1 = self._timed(PREP_SPAN, fn)
        self.preps.append((seconds, t0, t1))
        if error is not None:
            raise error
        return value

    def op(self, name: str, fn: Callable, known_fault: bool = False) -> Tuple[OpRecord, object]:
        """Time one op; an exception is recorded as the op's problem."""
        out, error, seconds, t0, t1 = self._timed(OP_SPAN, fn)
        problems = [] if error is None else [f"{type(error).__name__}: {error}"]
        record = OpRecord(name, seconds, problems, known_fault, t0, t1)
        self.ops.append(record)
        return record, out

    @property
    def run_s(self) -> float:
        return sum(p[0] for p in self.preps) + sum(r.seconds for r in self.ops)

    def scaled_run_s(self, sampler) -> float:
        """run_s with every op and preparation at the sampler's reference speed."""
        spans = self.preps + [(r.seconds, r.start, r.end) for r in self.ops]
        return sum(sampler.scaled(*span) for span in spans)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed & 0xFFFFFFFFFFFFFFFF])


# -- transport ----------------------------------------------------------------


class Transport:
    """`isolab sweep` of six metrics over example23 and two perturbed families."""

    METRICS = ("lp:1", "lp:2", "lp:4", "w1", "w2", "entropy")

    def __init__(self, seed: int, out_dir: Path) -> None:
        ks = _rng(seed, 1).choice(1_000_000, size=2, replace=False)
        self.families = ("example23",) + tuple(f"perturbed:{int(k)}" for k in ks)
        self.out_dir = out_dir

    def describe(self) -> Dict[str, object]:
        return {"families": list(self.families), "metrics": list(self.METRICS)}

    def run_round(self, rnd: Round) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.out_dir))
        try:
            by_family: Dict[str, Dict[str, Tuple[OpRecord, List[float]]]] = {}
            with open(os.devnull, "w") as sink:
                for fam in self.families:
                    for metric in self.METRICS:
                        out = tmp / f"{fam.replace(':', '-')}-{metric.replace(':', '-')}"
                        argv = ["sweep", "--measure", fam, "--metric", metric, "--out", str(out)]

                        def call(argv=argv):
                            with contextlib.redirect_stdout(sink):
                                return isolab.cli.main(argv)

                        record, status = rnd.op(f"{fam} {metric}", call)
                        summary = None
                        path = out / "sweep_summary.json"
                        if path.is_file():
                            summary = json.loads(path.read_text())
                        if not record.problems:
                            record.problems += checks.check_sweep(fam, metric, status, summary)
                        values = [float(v) for _, v in (summary or {}).get("points", [])]
                        by_family.setdefault(fam, {})[metric] = (record, values)
            for fam, entries in by_family.items():
                complete = {m: v for m, (r, v) in entries.items()
                            if not r.problems and len(v) == len(checks.DELTA_GRID)}
                for metric, problems in checks.check_family(complete).items():
                    entries[metric][0].problems += problems
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


# -- needles ------------------------------------------------------------------


class Needles:
    """Needle experiments: generate_ensemble, disintegration_check (h = 1),
    theorem31_experiment, at about 100 and about 1000 needles."""

    # Two ensembles share one (Q, delta), one before and one after the long
    # Q = 1000 op, so that the median op is the mean of two like ops.
    PLAN = ((100, 1e-2), (100, 1e-4), (1000, 1e-3), (100, 1e-4), (100, 1e-6))
    THETA = 0.5
    # A bad needle on which lp_distance misses 4 Phi(s/2) - 2 by 1.25e-6: the
    # fault shows on some ensembles only, so it is checked here, every round.
    FAULT_SHIFT = 6.922046728373387

    def __init__(self, seed: int, out_dir: Path) -> None:
        alpha = (1.0 - EPSILON) / (9.0 - 3.0 * EPSILON)
        seeds = _rng(seed, 2).choice(2**31, size=len(self.PLAN), replace=False)
        self.configs = [
            (delta, isolab.EnsembleConfig(
                needle_count=count, theta=self.THETA, epsilon=EPSILON,
                deficit_scale=delta, bad_fraction=delta**alpha, seed=int(s)))
            for (count, delta), s in zip(self.PLAN, seeds)
        ]

    def describe(self) -> Dict[str, object]:
        return {"ensembles": [c.to_dict() for _, c in self.configs]}

    def run_round(self, rnd: Round) -> None:
        for delta, config in self.configs:

            def experiment(config=config, delta=delta):
                ens = isolab.generate_ensemble(config)
                mass = isolab.disintegration_check(ens, np.ones_like)
                return ens, mass, isolab.theorem31_experiment(ens, delta)

            record, out = rnd.op(
                f"Q={config.needle_count} delta={delta:g} seed={config.seed}", experiment)
            if record.problems:
                continue
            ens, mass, report = out
            views = [(nd.weight, nd.measure.domain.lo, nd.measure.domain.hi,
                      nd.r_minus, nd.r_plus) for nd in ens.needles]
            per_needle = [isolab.needle_l1(nd) for nd in ens.needles]
            record.problems += checks.check_needle_op(
                delta, self.THETA, views, (mass.lhs, mass.rhs), report.to_dict(), per_needle)

        def translated_needle():
            measure = isolab.gaussian_measure().translate(self.FAULT_SHIFT)
            return isolab.needle_l1(isolab.make_needle(1.0, measure, self.THETA))

        record, l1 = rnd.op(f"needle_l1 of gamma translated by {self.FAULT_SHIFT!r}",
                            translated_needle, known_fault=True)
        if not record.problems:
            record.problems += checks.check_translated_needle(self.FAULT_SHIFT, l1)


# -- isoperimetry -------------------------------------------------------------


@dataclass
class _MeasureInput:
    label: str
    build: Callable  # () -> Measure1D, called afresh every round
    radius: Optional[float]  # D of gamma on (-D, D), inf for gamma, else None
    theta: float  # theta of the deficit and gap-bound ops


class Isoperimetry:
    """brute_force_minimizer at theta = 0.1..0.9, plus one convexity check,
    deficit and gap-bound fit, on each of eight measures."""

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = _rng(seed, 3)
        radii = 1.0 + 2.5 * (np.arange(3) + rng.uniform(size=3)) / 3.0  # one per third of [1, 3.5]
        family_seeds = rng.choice(1_000_000, size=3, replace=False)
        xs = np.linspace(-6.0, 6.0, 61)
        a, b, c = rng.uniform(0.1, 0.5), rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)
        # convex part a*log(2 cosh(x - b)) + c*x on top of x^2/2
        convex = a * np.logaddexp(xs - b, b - xs) + c * xs
        tabulated = isolab.tabulated_potential(xs, 0.5 * xs * xs + convex)
        thetas = rng.uniform(0.2, 0.8, size=8)

        inputs = [("gaussian", isolab.gaussian_measure, math.inf)]
        for D in radii:
            spec = isolab.truncated_gaussian_potential(float(D))
            inputs.append((f"truncated:{D:.6f}", lambda spec=spec: isolab.normalize(spec), float(D)))
        for k in family_seeds:
            fam = isolab.PerturbedSweepFamily.seeded(int(k))
            inputs.append((f"perturbed:{int(k)}", lambda fam=fam: fam.measure_at(1.0), None))
        inputs.append((f"tabulated:a={a:.4f},b={b:.4f},c={c:.4f}",
                       lambda: isolab.normalize(tabulated), None))
        self.measures = [_MeasureInput(label, build, radius, float(t))
                         for (label, build, radius), t in zip(inputs, thetas)]
        self.rejected_xs = np.linspace(-3.0, 3.0, 41)

    def describe(self) -> Dict[str, object]:
        return {"measures": [(m.label, m.theta) for m in self.measures],
                "thetas": list(THETAS)}

    def run_round(self, rnd: Round) -> None:
        for inp in self.measures:
            m = rnd.prep(inp.build)
            dom = (m.domain.lo, m.domain.hi)
            record, conv = rnd.op(f"{inp.label} check_one_convexity",
                                  lambda: isolab.check_one_convexity(m.potential))
            if not record.problems and not conv.passed:
                record.problems.append(f"1-convex measure rejected: {conv!r}")
            record, rep = rnd.op(f"{inp.label} deficit", lambda: isolab.deficit(m, inp.theta))
            if not record.problems:
                record.problems += checks.check_deficit(inp.theta, rep.deficit, inp.radius)
            record, gap = rnd.op(f"{inp.label} check_gap_bounds",
                                 lambda: isolab.check_gap_bounds(m, inp.theta))
            if not record.problems:
                record.problems += checks.check_gap_bounds(inp.theta, gap.to_dict(), inp.radius)
            for theta in THETAS:
                record, res = rnd.op(f"{inp.label} minimizer theta={theta:g}",
                                     lambda: isolab.brute_force_minimizer(m, theta))
                if record.problems:
                    continue
                bset = res.boundary_set
                record.problems += checks.check_minimizer(
                    theta, dom, res.perimeter, res.is_half_line,
                    [(p.lo, p.hi) for p in bset.pieces], bset.total_measure, inp.radius)

        def reject():
            try:
                isolab.tabulated_potential(self.rejected_xs, 0.25 * self.rejected_xs**2)
            except isolab.InvalidPotentialError:
                return True
            return False

        record, rejected = rnd.op("tabulated x^2/4 rejected", reject)
        if not record.problems and not rejected:
            record.problems.append("tabulated_potential accepted x^2/4, which is not 1-convex")


WORKLOADS = {"transport": Transport, "needles": Needles, "isoperimetry": Isoperimetry}
