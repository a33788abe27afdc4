"""Measure how steady the benchmark's end-to-end metrics are across seeds.

One call makes one *set*: ``run.py --trace 0`` once for each of seeds
0-9 on every workload, one run at a time.  For each metric it reports
the set's median and spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound from ``BENCHMARK.json``.
The set is appended to the output file, which then also holds, for every
later set, how far each median lies from the first set's, as a share of
the first set's median, next to the bound.  From the repository root::

    python3 perfbench/steadiness.py perfbench/steadiness.json
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    wall = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    head = json.loads(lines[-2])
    return {"env": head["env"], "host_factor": head["host_factor"], "wall_s": wall, **json.loads(lines[-1])}


def median_shifts(sets: list[dict], bounds: dict[str, float]) -> list[dict]:
    """``|median_k - median_0| / median_0`` for every later set ``k``."""
    first = sets[0]["workloads"]
    shifts = []
    for k, later in enumerate(sets[1:], start=1):
        for workload, entry in later["workloads"].items():
            for name, bound in bounds.items():
                base = first[workload]["summary"][name]["median"]
                shift = abs(entry["summary"][name]["median"] - base) / base
                shifts.append({"set": k, "workload": workload, "metric": name,
                               "shift": shift, "bound": bound, "within": shift <= bound})
    return shifts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="JSON file the set is appended to")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = json.loads(args.output.read_text()) if args.output.exists() else {"sets": []}
    new = {"run_seconds": spec["run_seconds"], "nproc": os.cpu_count(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "correct": result["correct"], "wall_s": result["wall_s"],
                         "host_factor": result["host_factor"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed} ({result['wall_s']:.1f} s, host x{result['host_factor']:.3f}): " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "third_of_bound": bound / 3}
            print(f"  {workload} {name:22s} median={summary[name]['median']:.5g} "
                  f"spread={summary[name]['spread']:.4f} (bound/3={bound / 3:.4f})", file=sys.stderr)
        env = {k: v for k, v in result["env"].items() if k != "seed"}
        new["workloads"][workload] = {"env": env, "summary": summary, "runs": runs}
    report["sets"].append(new)
    report["median_shifts"] = median_shifts(report["sets"], bounds)
    for s in report["median_shifts"]:
        if s["set"] == len(report["sets"]) - 1:
            print(f"  set {s['set']} vs 0: {s['workload']} {s['metric']:22s} shift={s['shift']:.4f} "
                  f"(bound={s['bound']})", file=sys.stderr)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
