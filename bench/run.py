#!/usr/bin/env python3
"""isolab benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout (no install step)::

    python3 bench/run.py --workload transport --seed 1 --seconds 36 --trace 0

Workloads: transport, needles, isoperimetry (see bench/README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (setup_s, run_s, op_p50_s, peak_rss_mb); with
``--trace 1`` the per-layer ones.

Every measurement runs in a fresh interpreter (bench/worker.py) with one
thread, ``ISO_LAB_THREADS`` unset and ``src`` on ``PYTHONPATH``.  Outputs,
per-run results and trace files go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("transport", "needles", "isoperimetry")
SETUP_REPEATS = 4
IMPORT_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ISO_LAB_THREADS", None)
    # bytecode caches are written once, by the first, untimed set-up
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    # subprocess.run kills the child and waits for it on a timeout
    return subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def _worker_cmd(args, *extra) -> list:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(OUT), *extra]


def _setup_seconds(args, deadline: float) -> float:
    """Median wall time of a fresh interpreter that imports isolab and builds
    the inputs; a first, untimed run writes the bytecode caches."""
    cmd = _worker_cmd(args, "--setup-only")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = _run(cmd, deadline)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def _import_figures(deadline: float):
    """(seconds of `import isolab` by -X importtime, modules loaded)."""
    code = "import sys, isolab; print(len(sys.modules))"
    seconds, modules = [], None
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", code], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr}")
        modules = int(proc.stdout.split()[-1])
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "isolab":
                seconds.append(int(fields[1]) * 1e-6)
    return statistics.median(seconds), modules


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one isolab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "isolab" / "__init__.py").is_file():
        print(f"error: no isolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            layer_names = _per_layer_names()
            import_s, import_modules = _import_figures(deadline)
        else:
            setup_s = _setup_seconds(args, deadline)
        proc = _run(_worker_cmd(args, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)), deadline)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])
    for problem in raw["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        layers = dict(raw["layers"])
        layers["cli.self_s"] = layers.get("cli.main.self_s", 0.0)
        layers["import.isolab_s"] = import_s
        layers["import.modules"] = import_modules
        layers["trace.overhead_s"] = raw["tracing_overhead_s"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in layer_names}
        if raw["absent"]:
            print(f"absent layers (reported as 0): {', '.join(raw['absent'])}")
    else:
        values = {"setup_s": setup_s, "run_s": raw["run_s"], "op_p50_s": raw["op_p50_s"],
                  "peak_rss_mb": raw["maxrss_kb"] / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, inputs=raw["inputs"],
                  **{k: raw[k] for k in ("rounds", "wall_run_s", "wall_op_p50_s",
                                         "kernel_s", "samples")})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
