"""Online A/B-test substrate (§V-C).

The paper validates rDRP with five-day online A/B tests on a
short-video platform's incentivized-advertising traffic.  That
platform is simulated here: daily user cohorts, random assignment of
each cohort across policy arms, budget-constrained incentive
allocation (Algorithm 1 semantics: rank by the arm's predicted ROI,
spend down the budget), and stochastic realised outcomes from the
ground-truth effects.  The reported metric matches Fig. 6:
incremental revenue percentage of each model arm over the random
control arm, per day.

Budget boundary: realised spend obeys the C-BTAP constraint strictly —
the draw whose cost would make cumulative spend reach or cross an
arm's budget is never made, so ``spend <= budget`` always (strictly
below any positive budget) and a zero budget treats nobody.

Scale: the whole day path is batched (one permutation partitions the
arms, one Bernoulli draw realises them via
:meth:`Platform.realize_arms`) and cohorts larger than the platform's
``chunk_size`` are generated chunk-by-chunk (peak memory ~2x the
cohort), so ``ABTest.run(n_days, cohort_size=1_000_000)`` runs in
seconds without materialising multi-``n`` oversample pools.  Chunked
generation optionally fans out across an
:class:`~repro.runtime.ExecutionBackend`: ``backend=`` on
:class:`Platform`, :class:`ABTest`, and :class:`PolicyReplay` is the
one way to say where it runs.  A caller-owned pool is shared by every
day of a run and never shut down by the harness; the output is
bit-identical to the serial draw.

Cross-policy comparison: :class:`PolicyReplay` scores several policy
sets against *identical* traffic — one cohort, one arm partition, and
one pre-drawn per-user cost/reward uniform tensor per day (common
random numbers) — so cross-set uplift deltas are paired and their
variance collapses, at roughly the generation cost of a single run.
"""

from repro.ab.experiment import ABTest, ABTestResult, DayResult, plan_day
from repro.ab.platform import Platform
from repro.ab.replay import PolicyReplay, PolicyReplayResult

__all__ = [
    "ABTest",
    "ABTestResult",
    "DayResult",
    "Platform",
    "PolicyReplay",
    "PolicyReplayResult",
    "plan_day",
]
