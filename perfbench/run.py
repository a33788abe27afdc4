"""Run one workload of the rDRP benchmark; print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign_rdrp --seed 0 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics: the set-up is built
``Sizes.setups`` times, once before the timed phase and the rest spread
over it (``setup_s`` is the median), the timed phase runs untraced, and
every timing is scaled to a fixed host speed (see ``hostspeed.py``).
``--trace 1`` prints the per-layer metrics: one traced set-up, then the
timed phase once untraced and once with every layer's public entry
points wrapped (see ``layers.py``); both must decide identically.
The last line of standard output is the result object; the line before
it records the environment.  The exit code is 0 when every correctness
check passed, 1 when one failed and 2 when the repository's source tree
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import statistics
import sys
from pathlib import Path

# pinned before numpy loads: one BLAS thread (never more than nproc)
# keeps every workload on one core
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": BLAS_THREADS,
        "python": host.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def untraced(workload, seconds: float) -> tuple[dict, object]:
    import workloads
    from hostspeed import HostSpeed

    speed = HostSpeed()
    try:
        timing = workloads.Timing(workload, extra=workload.sizes.setups - 1, speed=speed)
        outcome = workload.run(timing.setup(), seconds, timing)
    finally:
        speed.close()
    outcome.host_factor = statistics.median(speed.factors)
    return {"setup_s": statistics.median(timing.seconds), **outcome.metrics}, outcome


def traced(workload, names) -> tuple[dict, object]:
    import layers
    import workloads
    from spans import Tracer

    targets = layers.targets()
    tracer = Tracer()
    timing = workloads.Timing(workload, extra=0)
    with tracer.installed(targets):
        state = timing.setup()
    setup_stats = dict(tracer.stats)
    plain = workload.run(state, 0.0, timing)
    tracer.reset()
    with tracer.installed(targets):
        outcome = workload.run(state, 0.0, timing)
    # serving counts are 0 on a workload that runs no serving code
    metrics = {name: 0.0 for name in names if name.startswith("serving.")}
    metrics.update(layers.per_layer_metrics(setup_stats, tracer.stats, outcome.timed_s))
    metrics.update(outcome.counts)
    metrics["serving.engine.flush_ms_p99"] = layers.flush_ms_p99(tracer.durations["serving.engine"])
    metrics["nn.network.mc_rows"] = tracer.rows[layers.NN_FORWARD]
    metrics["trace_overhead"] = outcome.timed_s / max(plain.timed_s, 1e-12)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    outcome.errors = plain.errors + outcome.errors
    if plain.fingerprint != outcome.fingerprint:
        outcome.errors.append(
            f"traced run decided differently: {outcome.fingerprint} != {plain.fingerprint}"
        )
    return metrics, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads(SPEC.read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES["full"], args.seed)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, outcome = traced(workload, units)
    else:
        metrics, outcome = untraced(workload, args.seconds)
    correct = not outcome.errors and outcome.failed == 0 and set(metrics) == set(units)
    for error in outcome.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed), "workload": args.workload, "trace": args.trace,
                      "host_factor": outcome.host_factor}))
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
