"""Cross-policy cohort replay with common random numbers.

Compares three allocation policies on *identical* simulated traffic:
every day, one cohort is generated, one partition splits it into
model + control arms, and one per-user cost/reward uniform tensor
realises the outcomes for every policy set.  Deltas between policies
are therefore paired — a user realises the same cost and reward under
every policy that treats them — so far fewer days separate good from
bad policies than with independent A/B runs, and the whole comparison
costs about one run's cohort generation instead of three.

Run:
    python examples/policy_replay.py [--days 5] [--cohort 6000] [--parallel]
"""

from __future__ import annotations

import argparse

import numpy as np

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=5)
    parser.add_argument("--cohort", type=int, default=6000, help="daily users")
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="generate chunked cohorts on a worker pool (bit-identical output)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # a 'semi-oracle' scoring direction: project features onto the true
    # ROI of a probe sample (stands in for a trained DRP/rDRP scorer)
    probe = repro.criteo_uplift_v2(4000, random_state=args.seed + 5)
    weights = np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    policy_sets = {
        "semi-oracle": {"model": lambda x: x @ weights},
        "anti-oracle": {"model": lambda x: -(x @ weights)},
        "constant": {"model": lambda x: np.ones(x.shape[0])},
    }

    print(f"== Replaying {args.days} days x {args.cohort} users through 3 policy sets ==")
    # --parallel: one process pool, owned here, serves every day's
    # cohort generation; the replay only borrows it
    backend = repro.ProcessBackend() if args.parallel else None
    replay = repro.PolicyReplay(
        repro.Platform(dataset="criteo", random_state=args.seed),
        policy_sets,
        budget_fraction=0.3,
        random_state=args.seed,
        backend=backend,
    )
    try:
        result = replay.run(n_days=args.days, cohort_size=args.cohort)
    finally:
        if backend is not None:
            backend.shutdown()

    print("\nper-day uplift vs the shared random control (%):")
    for name in result.set_names:
        series = result.results[name].uplift_vs_random["model"]
        days = "  ".join(f"{u:+6.2f}" for u in series)
        print(f"  {name:>12s}: {days}")

    print("\npaired deltas (same users, same outcome draws):")
    for other in ("anti-oracle", "constant"):
        deltas = result.uplift_delta("semi-oracle", other, "model")
        print(
            f"  semi-oracle - {other:>11s}: mean {np.mean(deltas):+6.2f}  "
            f"sd {np.std(deltas):5.2f}"
        )

    mean = result.mean_uplift()
    best = max(mean, key=lambda name: mean[name]["model"])
    print(f"\nbest set on paired evidence: {best!r} ({mean[best]['model']:+.2f}% mean uplift)")


if __name__ == "__main__":
    main()
