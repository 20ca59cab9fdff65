"""Run one workload in this process and print its raw figures as JSON.

Started by run.py in a fresh interpreter with one thread.  With
``--setup-only`` it stops once ``import isolab`` is done and the inputs are
built, which is what run.py times as set-up.  Otherwise it runs whole
rounds for ``--seconds``: at least one, and another only while it is
expected to end within them.  While the rounds run, ``speed.SpeedSampler``
samples the machine's speed, and ``run_s`` and ``op_p50_s`` are reported at
its reference speed.  With ``--trace 1`` it alternates
untraced and traced rounds: the traced ones give the per-layer figures, the
difference of the two medians is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import workloads  # imports isolab
from speed import SpeedSampler
from tracer import Tracer

# No round is started that is expected to end after this much time, so that
# a run ends well inside its 180 s.
ROUND_BUDGET_S = 120.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for outputs and traces")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_only:
        return 0

    # theorem31_experiment warns when an experiment's preconditions fail;
    # the checks judge the outputs themselves.
    warnings.simplefilter("ignore", RuntimeWarning)
    tracer = Tracer() if args.trace else None
    sampler = SpeedSampler()
    plain_rounds, traced_s = [], []
    layer_rounds = []
    attempted = failed = unexpected = 0
    problems = []

    def run_one(traced: bool) -> None:
        nonlocal attempted, failed, unexpected
        if traced:
            tracer.reset()
            tracer.install()
            rnd = workloads.Round(tracer, sampler)
        else:
            rnd = workloads.Round(sampler=sampler)
        try:
            workload.run_round(rnd)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rounds.append(tracer.metrics())
            traced_s.append(rnd.run_s)
            if len(layer_rounds) == 1:
                tracer.write(str(out_dir / f"trace-{args.workload}-seed{args.seed}.npz"))
        else:
            plain_rounds.append(rnd)
        attempted += len(rnd.ops)
        for record in rnd.ops:
            if record.problems:
                failed += 1
                unexpected += not record.known_fault
                known = "known fault, " if record.known_fault else ""
                problems.append(f"{known}{record.name}: {'; '.join(record.problems)}")

    # One step is one round, or with tracing an untraced and a traced round.
    start = time.perf_counter()
    steps = 0
    sampler.start()
    try:
        while True:
            run_one(False)
            if tracer is not None:
                run_one(True)
            steps += 1
            elapsed = time.perf_counter() - start
            # the next step starts only if, at the mean step time so far, it
            # ends within --seconds, so every run measures about as long
            if elapsed * (steps + 1) / steps > min(args.seconds, ROUND_BUDGET_S):
                break
    finally:
        sampler.stop()

    plain_s = [rnd.run_s for rnd in plain_rounds]
    result = {
        # a known fault fails every round; correct speaks of the other ops
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(plain_s) + len(traced_s),
        # at the sampler's reference speed (speed.py), then as wall time
        "run_s": statistics.median(rnd.scaled_run_s(sampler) for rnd in plain_rounds),
        "op_p50_s": statistics.median(sampler.scaled(r.seconds, r.start, r.end)
                                      for rnd in plain_rounds for r in rnd.ops),
        "wall_run_s": statistics.median(plain_s),
        "wall_op_p50_s": statistics.median(r.seconds for rnd in plain_rounds for r in rnd.ops),
        "kernel_s": statistics.median(sampler.times),
        "samples": len(sampler.times),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "inputs": workload.describe(),
        "problems": problems[:50],
    }
    if tracer is not None:
        result["traced_run_s"] = statistics.median(traced_s)
        result["tracing_overhead_s"] = result["traced_run_s"] - statistics.median(plain_s)
        result["absent"] = tracer.absent
        result["layers"] = _merge_rounds(layer_rounds)
    print(json.dumps(result))
    return 0


def _merge_rounds(rounds):
    """Counts of the first traced round (every round does the same work) and
    median times over the traced rounds."""
    names = sorted(set().union(*rounds))
    merged = {}
    for name in names:
        values = [r.get(name, 0) for r in rounds]
        if name.endswith("_s") or name.endswith(".s"):
            merged[name] = statistics.median(values)
        else:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
    return merged


if __name__ == "__main__":
    sys.exit(main())
