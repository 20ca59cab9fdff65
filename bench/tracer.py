"""Per-layer tracing for the benchmark: spans and counts around isolab calls.

The tracer wraps public functions of the modules under ``src/isolab`` from
the outside, by replacing module and class attributes while a traced round
runs; isolab itself is not changed.  A function that several modules import
by value (``from .numerics import integrate``) is replaced at every module
that binds it.

* A *span* records name, start, end and parent span.  Spans are kept in
  compact arrays in memory and written out when the run ends.  A span's
  self time is its duration minus the time covered by its child spans.
* A *count* target only counts calls (and, through a hook, work items such
  as evaluated points).  The hottest scalar kernels are count targets.

A target that a later refactor removed is reported in ``absent`` and its
metrics read 0; nothing raises.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

SPAN = "span"
COUNT = "count"


def _first_arg_counter(key: str):
    """Hook that wraps the callable first argument so its calls are counted."""

    def hook(tracer: "Tracer", args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
        if not args:
            return args, kwargs
        fn = args[0]
        counts = tracer.counts

        def counted(*a, **k):
            counts[key] += 1
            return fn(*a, **k)

        return (counted,) + tuple(args[1:]), kwargs

    return hook


def _points_counter(key: str, position: int):
    """Hook that counts the number of points in the array argument."""

    def hook(tracer: "Tracer", args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
        if len(args) > position:
            tracer.counts[key] += int(np.size(args[position]))
        return args, kwargs

    return hook


def _candidates(tracer: "Tracer", result) -> None:
    tracer.counts["measure1d.brute_force_minimizer.candidates"] += int(
        getattr(result, "candidates_checked", 0)
    )


# (layer name, module, attribute, kind, argument hook, result hook).  The
# attribute ``Class.method`` wraps a method; ``*.method`` wraps that method on
# every class of the module that defines it.
TARGETS = (
    ("numerics.integrate", "isolab.numerics", "integrate", SPAN,
     _first_arg_counter("numerics.integrate.evals"), None),
    ("numerics.find_root", "isolab.numerics", "find_root", COUNT,
     _first_arg_counter("numerics.find_root.evals"), None),
    ("numerics.gaussian_cdf", "isolab.numerics", "gaussian_cdf", COUNT, None, None),
    ("numerics.gaussian_quantile", "isolab.numerics", "gaussian_quantile", COUNT, None, None),
    ("measure1d.normalize", "isolab.measure1d", "normalize", SPAN, None, None),
    ("measure1d.quantile", "isolab.measure1d", "Measure1D.quantile", SPAN, None, None),
    ("measure1d.cdf_many", "isolab.measure1d", "Measure1D.cdf_many", SPAN,
     _points_counter("measure1d.cdf_many.points", 0), None),
    ("measure1d.density", "isolab.measure1d", "Measure1D.density", COUNT,
     _points_counter("measure1d.density.points", 0), None),
    ("measure1d.check_one_convexity", "isolab.measure1d", "check_one_convexity", SPAN, None, None),
    ("measure1d.brute_force_minimizer", "isolab.measure1d", "brute_force_minimizer", SPAN,
     None, _candidates),
    ("stability.lp_distance", "isolab.stability", "lp_distance", SPAN, None, None),
    ("stability.w2_to_gaussian", "isolab.stability", "w2_to_gaussian", SPAN, None, None),
    ("stability.w1_to_gaussian", "isolab.stability", "w1_to_gaussian", SPAN, None, None),
    ("stability.relative_entropy", "isolab.stability", "relative_entropy", SPAN, None, None),
    ("stability.deficit", "isolab.stability", "deficit", SPAN, None, None),
    ("stability.check_gap_bounds", "isolab.stability", "check_gap_bounds", SPAN, None, None),
    ("needles.generate_ensemble", "isolab.needles", "generate_ensemble", SPAN, None, None),
    ("needles.disintegration_check", "isolab.needles", "disintegration_check", SPAN, None, None),
    ("needles.aggregate_l1", "isolab.needles", "aggregate_l1", SPAN, None, None),
    ("needles.needle_l1", "isolab.needles", "needle_l1", SPAN, None, None),
    ("needles.mixture_density", "isolab.needles", "mixture_density", COUNT,
     _points_counter("needles.mixture_density.points", 1), None),
    ("needles.theorem31_experiment", "isolab.needles", "theorem31_experiment", SPAN, None, None),
    ("rates.sweep", "isolab.rates", "sweep", SPAN, None, None),
    ("rates.at_deficit", "isolab.rates", "*.at_deficit", SPAN, None, None),
    ("cli.main", "isolab.cli", "main", SPAN, None, None),
)

# Root spans around each benchmark op and each per-round preparation step;
# wrappers record only inside them.
OP_SPAN = "bench.op"
PREP_SPAN = "bench.prep"


class Tracer:
    """Spans and counts of one traced round; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.enabled = False
        self.reset()

    # -- span store -----------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counts; installed wrappers stay."""
        self.counts.clear()
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[list] = []  # [span index, name id, child seconds]
        self._depth: Dict[int, int] = defaultdict(int)
        self.inclusive: Dict[int, float] = defaultdict(float)
        self.self_time: Dict[int, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def run_span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [index, nid, 0.0]
        stack.append(frame)
        self._depth[nid] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.span_start[index] = t0
            self.span_end[index] = t1
            stack.pop()
            self._depth[nid] -= 1
            elapsed = t1 - t0
            self.self_time[nid] += elapsed - frame[2]
            if self._depth[nid] == 0:  # outermost span of this name
                self.inclusive[nid] += elapsed
            if stack:
                stack[-1][2] += elapsed

    def record(self, name: str, fn: Callable):
        """Call ``fn`` in a root span, with the wrappers recording."""
        self.enabled = True
        try:
            return self.run_span(name, fn)
        finally:
            self.enabled = False

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, kind: str, fn: Callable, arg_hook, result_hook,
              method: bool) -> Callable:
        counts = self.counts
        calls_key = layer + ".calls"
        run_span = self.run_span
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts[calls_key] += 1
            if arg_hook is not None:
                if method:
                    rest, kwargs = arg_hook(tracer, args[1:], kwargs)
                    args = (args[0],) + tuple(rest)
                else:
                    args, kwargs = arg_hook(tracer, args, kwargs)
            if kind == SPAN:
                result = run_span(layer, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if result_hook is not None:
                result_hook(tracer, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Replace every target at each module or class that binds it."""
        self.uninstall()
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "isolab" or name.startswith("isolab."))]
        for layer, module_name, attr, kind, arg_hook, result_hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(layer)
                continue
            if "." in attr:
                owner_name, _, method_name = attr.partition(".")
                if owner_name == "*":
                    owners = [c for c in vars(module).values()
                              if isinstance(c, type) and c.__module__ == module.__name__
                              and method_name in vars(c)]
                else:
                    owner = getattr(module, owner_name, None)
                    owners = [owner] if isinstance(owner, type) and method_name in vars(owner) else []
                if not owners:
                    self.absent.append(layer)
                for owner in owners:
                    original = vars(owner)[method_name]
                    self._replace(owner, method_name, original,
                                  self._wrap(layer, kind, original, arg_hook, result_hook, True))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, kind, original, arg_hook, result_hook, False)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)

    def _replace(self, owner: object, name: str, original: object, wrapper: object) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Counts and times of the spans recorded since the last reset."""
        out: Dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[name + ".s"] = self.inclusive.get(nid, 0.0)
            out[name + ".self_s"] = self.self_time.get(nid, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.span_name, dtype=np.int64),
            parent=np.array(self.span_parent, dtype=np.int64),
            start=np.array(self.span_start, dtype=float),
            end=np.array(self.span_end, dtype=float),
        )
