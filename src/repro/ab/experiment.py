"""The N-arm A/B test harness (Fig. 6 protocol).

Each day's cohort is randomly partitioned across the arms (DRP, rDRP,
Random Control in the paper — any mapping of name → scoring policy
here).  Every cohort user lands in exactly one arm (a non-divisible
cohort spreads its remainder over the first arms).  Every arm receives
the same per-user reward budget; arms differ only in the ordering they
treat users in.  The reported series is each model arm's *per-user*
incremental revenue percentage over the random control arm, per day —
exactly the quantity plotted in Fig. 6 (identical to the raw revenue
ratio when arm sizes are equal, and unbiased by the one-user size
difference a remainder introduces).

The day loop is fully batched: arms are partitioned by one
permutation, scored on feature slices, and realised together through
:meth:`Platform.realize_arms` (one Bernoulli draw for all arms, a
searchsorted spend-down per arm) — no per-arm cohort copies.  Combined
with the platform's chunked cohort generation this makes
``run(n_days, cohort_size=1_000_000)`` practical; realised spend obeys
the strict budget boundary (``spend <= budget`` always).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ab.platform import Platform
from repro.runtime import ExecutionBackend
from repro.utils.rng import as_generator

__all__ = ["ABTest", "ABTestResult", "DayResult", "RANDOM_ARM", "plan_day"]

RANDOM_ARM = "random"

# A policy maps cohort features (n, d) to ranking scores (n,)
Policy = Callable[[np.ndarray], np.ndarray]


def check_cohort_size(cohort_size: int, n_arms: int) -> None:
    """Every arm needs a usable group; tiny cohorts are a caller bug."""
    if cohort_size // n_arms < 10:
        raise ValueError(
            f"cohort_size {cohort_size} too small for {n_arms} arms; need >= {10 * n_arms}"
        )


def check_budget_fraction(budget_fraction: float) -> float:
    """Shared budget contract for ABTest and PolicyReplay."""
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(f"budget_fraction must be in (0, 1], got {budget_fraction}")
    return float(budget_fraction)


def plan_day(
    cohort,
    policies: dict[str, Policy],
    budget_fraction: float,
    rng: np.random.Generator,
) -> tuple[list[str], list[np.ndarray], list[float], list[int]]:
    """Partition a cohort across arms and build each arm's order/budget.

    The one place that owns the split semantics shared by
    :meth:`ABTest.run_day` and :class:`~repro.ab.replay.PolicyReplay`:
    a single permutation partitions the cohort (``array_split`` spreads
    a non-divisible cohort's remainder over the leading arms, so every
    user lands in exactly one arm), each model policy scores only its
    own arm's feature slice, the control arm gets a random order, and
    every arm's budget is ``budget_fraction`` of its group's expected
    full-treatment incremental cost.

    Returns
    -------
    (arms, orders, budgets, sizes)
        Arm names (control last), per-arm cohort-index treatment
        orders, per-arm budgets, and per-arm group sizes.
    """
    arms = list(policies) + [RANDOM_ARM]
    n_arms = len(arms)
    check_cohort_size(cohort.n, n_arms)
    # array_split spreads the remainder over the leading parts, so
    # every cohort index lands in exactly one arm
    groups = np.array_split(rng.permutation(cohort.n), n_arms)
    sizes = [int(g.shape[0]) for g in groups]

    orders: list[np.ndarray] = []
    budgets: list[float] = []
    for arm, idx in zip(arms, groups):
        budgets.append(budget_fraction * float(np.sum(cohort.tau_c[idx])))
        if arm == RANDOM_ARM:
            orders.append(rng.permutation(idx))
        else:
            scores = np.asarray(policies[arm](cohort.x[idx]), dtype=float).ravel()
            if scores.shape[0] != idx.shape[0]:
                raise ValueError(
                    f"Policy {arm!r} returned {scores.shape[0]} scores "
                    f"for {idx.shape[0]} users"
                )
            orders.append(idx[np.argsort(-scores, kind="stable")])
    return arms, orders, budgets, sizes


def build_day_result(
    day: int, arms: list[str], sizes: list[int], outcomes: list[dict]
) -> "DayResult":
    """Assemble per-arm outcome dicts into a :class:`DayResult`."""
    return DayResult(
        day=day,
        revenue={arm: outcomes[a]["revenue"] for a, arm in enumerate(arms)},
        incremental_revenue={
            arm: outcomes[a]["incremental_revenue"] for a, arm in enumerate(arms)
        },
        spend={arm: outcomes[a]["spend"] for a, arm in enumerate(arms)},
        n_treated={arm: outcomes[a]["n_treated"] for a, arm in enumerate(arms)},
        n_users={arm: int(sizes[a]) for a, arm in enumerate(arms)},
    )


@dataclass
class DayResult:
    """Per-day realised outcomes per arm.

    ``n_users`` records each arm's group size; a non-divisible cohort
    makes the groups differ by one, and the per-user normalisation in
    :attr:`ABTestResult.uplift_vs_random` relies on these sizes to keep
    the comparison unbiased.  (Empty only for legacy records.)
    """

    day: int
    revenue: dict[str, float]
    incremental_revenue: dict[str, float]
    spend: dict[str, float]
    n_treated: dict[str, int]
    n_users: dict[str, int] = field(default_factory=dict)


@dataclass
class ABTestResult:
    """Full A/B test record.

    ``uplift_vs_random[arm]`` is the Fig.-6 series: the arm's *per-user*
    revenue increase over the random arm, in percent, for each day.
    With equal arm sizes this is exactly the raw revenue ratio the paper
    plots; per-user normalisation keeps it unbiased when a remainder
    user makes group sizes differ by one.
    """

    days: list[DayResult] = field(default_factory=list)

    @property
    def arm_names(self) -> list[str]:
        return sorted(self.days[0].revenue) if self.days else []

    @property
    def uplift_vs_random(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for day in self.days:
            def per_user(arm: str) -> float:
                return day.revenue[arm] / max(day.n_users.get(arm, 1), 1)

            random_revenue = per_user(RANDOM_ARM)
            for arm in day.revenue:
                if arm == RANDOM_ARM:
                    continue
                pct = (per_user(arm) / max(random_revenue, 1e-9) - 1.0) * 100.0
                out.setdefault(arm, []).append(pct)
        return out

    def mean_uplift(self) -> dict[str, float]:
        """Across-day mean of the Fig.-6 series per arm."""
        return {arm: float(np.mean(series)) for arm, series in self.uplift_vs_random.items()}


class ABTest:
    """Run a multi-day, multi-arm budgeted allocation experiment.

    Parameters
    ----------
    platform:
        The simulated traffic source.
    policies:
        Mapping from arm name to scoring policy.  A ``"random"`` arm is
        always added as the control.
    budget_fraction:
        Per-arm budget as a fraction of the arm cohort's *expected*
        incremental cost if everyone were treated (so each arm can
        afford roughly this fraction of its users).
    random_state:
        Seed/generator for the daily partition and the random arm.
    backend:
        A shared :class:`~repro.runtime.ExecutionBackend` for cohort
        generation (bit-identical cohorts, less wall time — generation
        dominates million-user days).  ``None`` (default) inherits the
        platform's backend.  Never shut down by the test — one pool can
        serve many experiments.
    """

    def __init__(
        self,
        platform: Platform,
        policies: dict[str, Policy],
        budget_fraction: float = 0.3,
        random_state: int | np.random.Generator | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if not policies:
            raise ValueError("At least one model policy is required")
        if RANDOM_ARM in policies:
            raise ValueError(f"{RANDOM_ARM!r} is reserved for the control arm")
        self.platform = platform
        self.policies = dict(policies)
        self.budget_fraction = check_budget_fraction(budget_fraction)
        self.backend = backend
        self._rng = as_generator(random_state)

    def run(self, n_days: int = 5, cohort_size: int = 3000) -> ABTestResult:
        """Execute the experiment (five days in the paper's setups).

        Cohort generation for *all* days shares one execution backend:
        the one passed at construction, else the platform's.
        """
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {n_days}")
        check_cohort_size(cohort_size, len(self.policies) + 1)
        result = ABTestResult()
        for day in range(1, n_days + 1):
            cohort = self.platform.daily_cohort(cohort_size, day, backend=self.backend)
            result.days.append(self.run_day(cohort, day))
        return result

    def run_day(self, cohort, day: int) -> DayResult:
        """Evaluate one day's cohort across every arm (the batched path).

        Partition, score, and realise in array ops: :func:`plan_day`
        splits the cohort and builds each arm's treatment order and
        budget, then all arms realise together through one
        :meth:`Platform.realize_arms` call.  Useful directly when
        replaying a fixed cohort against several policy sets — see
        :class:`~repro.ab.replay.PolicyReplay` for the paired
        (common-random-numbers) version of that comparison.
        """
        arms, orders, budgets, sizes = plan_day(
            cohort, self.policies, self.budget_fraction, self._rng
        )
        outcomes = self.platform.realize_arms(cohort, orders, budgets)
        return build_day_result(day, arms, sizes, outcomes)
