"""Replay platform traffic through the online serving stack.

:class:`TrafficReplay` is the end-to-end harness tying the subsystem
together: a :class:`~repro.ab.platform.Platform` cohort arrives in a
random order, every arrival is scored through the
:class:`~repro.serving.engine.ScoringEngine`'s micro-batching path, and
the :class:`~repro.serving.pacing.BudgetPacer` decides treat/skip as
scores become available.  Arrivals move in runs between the events
that could change a later decision (a flush, a ramp step, a retrainer
trigger, a gate), and each run is submitted, scored and decided as a
block — byte-for-byte what deciding them one by one gives (see
``docs/SERVING.md``, "Decision loop").  The result reports throughput,
the spend trajectory against the pacing curve, and — the number that
matters — incremental revenue relative to the *offline greedy oracle*:
Algorithm 1 run on the same scores with the whole day visible at once.
An online policy can at best match the oracle; the replay quantifies
the price of streaming.

Two runtime-layer features thread through the replay:

* **Simulated time** — when the engine carries a
  :class:`~repro.runtime.ManualClock` and ``interarrival_s`` is set,
  every arrival lands that gap after the one before it, so
  deadline-driven flushing (``max_latency_ms``) runs under exact,
  deterministic time and the engine's ``latencies`` record the true
  submit→score waits.
* **Multi-day campaigns** — :meth:`TrafficReplay.replay_days` chains
  days through a :class:`~repro.serving.pacing.MultiDayPacer`, so day
  *d*'s under-spend tilts day *d+1*'s pacing, and returns the
  campaign-level accounting alongside each day's
  :class:`ReplayResult`.
* **Challenger lifecycle** — given an :class:`~repro.serving.promotion
  .AutoPromoter`, every decided arrival's realised outcome is
  attributed to the registry version whose score drove the decision
  (:meth:`ScoringEngine.version_of`) and fed to the promoter, and the
  promoter's ramp deadlines fire at the first arrival past them under
  the replay's clock.  A multi-day campaign then runs
  the full promote-or-kill lifecycle end-to-end: ramp, significance
  verdict, post-promotion hold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.ab.platform import Platform
from repro.core.allocation import greedy_allocation
from repro.obs import NULL_REGISTRY, HistogramSnapshot
from repro.runtime import ManualClock
from repro.serving.engine import ScoringEngine
from repro.serving.pacing import BudgetPacer, MultiDayPacer
from repro.serving.promotion import AutoPromoter
from repro.serving.registry import observe_in_runs
from repro.serving.retraining import Retrainer
from repro.utils.rng import as_generator

__all__ = ["MultiDayReplayResult", "TrafficReplay", "ReplayResult"]


@dataclass
class ReplayResult:
    """Outcome of one replayed day.

    ``spend_trajectory[i]`` is cumulative spend after the i-th decision
    — plotted against ``budget * curve(i / n_events)`` it shows how
    tightly the pacer tracked its target.  ``oracle_*`` fields hold the
    offline greedy solution on identical scores; ``revenue_ratio`` is
    online / oracle incremental revenue (1.0 = no price of streaming).
    ``engine_stats``, ``latencies``, ``latency_hist`` and
    ``metrics_delta`` cover *this replay only* (an engine reused across
    days reports per-day deltas, not cumulative counters).

    ``latencies`` is the raw per-request log, which the engine caps at
    ``latency_log_size`` entries: once eviction starts, the array holds
    only the newest requests and ``latencies_dropped`` counts this
    replay's evicted entries.  Quantiles therefore come from
    ``latency_hist`` — the engine's log-bucket sketch delta, which saw
    every request of the replay.
    """

    n_events: int
    n_treated: int
    budget: float
    spend: float
    incremental_revenue: float
    oracle_n_treated: int
    oracle_spend: float
    oracle_revenue: float
    elapsed_seconds: float
    events_per_second: float
    spend_trajectory: np.ndarray
    treated: np.ndarray
    engine_stats: dict = field(default_factory=dict)
    pacing_history: list = field(default_factory=list)
    latencies: np.ndarray | None = None
    latencies_dropped: int = 0
    latency_hist: HistogramSnapshot | None = None
    metrics_delta: dict | None = None

    @property
    def revenue_ratio(self) -> float:
        """Online incremental revenue as a fraction of the oracle's."""
        return self.incremental_revenue / max(self.oracle_revenue, 1e-12)

    def latency_quantile(self, q: float) -> float:
        """Submit→score latency quantile in clock seconds (needs a
        clocked engine; see :class:`~repro.serving.engine.ScoringEngine`).

        Served from :attr:`latency_hist` (~1% relative error, sees every
        request) so the answer stays unbiased even when the engine's
        ``latency_log_size`` cap evicted part of :attr:`latencies`.
        """
        if self.latency_hist is None or self.latency_hist.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return self.latency_hist.quantile(q)

    def summary(self) -> dict:
        """Headline numbers for logs and examples."""
        return {
            "n_events": self.n_events,
            "n_treated": self.n_treated,
            "spend": round(self.spend, 2),
            "budget": round(self.budget, 2),
            "incremental_revenue": round(self.incremental_revenue, 2),
            "oracle_revenue": round(self.oracle_revenue, 2),
            "revenue_ratio": round(self.revenue_ratio, 4),
            "events_per_second": round(self.events_per_second, 1),
            "latencies_dropped": self.latencies_dropped,
        }


@dataclass
class MultiDayReplayResult:
    """A multi-day campaign replayed with cross-day budget carryover.

    ``days[d]`` is an ordinary per-day :class:`ReplayResult` whose
    ``budget`` already includes the carry rolled in from day ``d``'s
    predecessors; ``ledger`` mirrors
    :attr:`~repro.serving.pacing.MultiDayPacer.ledger` — one
    ``(base_budget, day_budget, spent, carry_out)`` row per day.
    """

    days: list[ReplayResult] = field(default_factory=list)
    ledger: list = field(default_factory=list)

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def total_base_budget(self) -> float:
        """The campaign plan: sum of per-day base allowances."""
        return float(sum(base for base, _b, _s, _c in self.ledger))

    @property
    def total_spend(self) -> float:
        """Realised campaign spend (``<= total_base_budget`` always)."""
        return float(sum(day.spend for day in self.days))

    @property
    def total_incremental_revenue(self) -> float:
        return float(sum(day.incremental_revenue for day in self.days))

    @property
    def carryovers(self) -> list[float]:
        """Residual rolled out of each day into the next."""
        return [carry for _base, _b, _s, carry in self.ledger]

    def summary(self) -> dict:
        return {
            "n_days": self.n_days,
            "total_spend": round(self.total_spend, 2),
            "total_base_budget": round(self.total_base_budget, 2),
            "total_incremental_revenue": round(self.total_incremental_revenue, 2),
            "carryovers": [round(c, 2) for c in self.carryovers],
        }


class TrafficReplay:
    """Stream platform cohorts through the engine + pacer.

    Parameters
    ----------
    platform:
        The simulated traffic source.
    engine:
        A configured :class:`ScoringEngine` (its registry's champion —
        and challenger, if staged — serve the scores).  Give it a
        :class:`~repro.runtime.ManualClock` and ``max_latency_ms`` to
        exercise deadline flushing under simulated time.
    feedback:
        When True, realised outcomes of decided users are fed back to
        the pacer (:meth:`BudgetPacer.observe_outcome`), enabling its
        ``roi*`` profitability floor.
    interarrival_s:
        Simulated gap between consecutive arrivals.  Requires the
        engine's clock to be a :class:`~repro.runtime.ManualClock`;
        each arrival is submitted this gap after the one before it.
    promoter:
        An :class:`~repro.serving.promotion.AutoPromoter` operating the
        engine's registry.  Every decided arrival's realised outcome is
        attributed to the version that scored it and recorded via
        :meth:`AutoPromoter.observe`; the promoter is polled at every
        arrival its poll could act at, so its ramp schedule runs on the
        replay's (possibly simulated) time.  Outcome realisation shares
        the feedback draws, so adding a promoter does not perturb the
        pacer's ``roi*`` stream.
    retrainer:
        A :class:`~repro.serving.retraining.Retrainer` closing the
        loop: every decided arrival's feature row and realised outcome
        are buffered via :meth:`Retrainer.observe`, and the retrainer
        is polled at every arrival its poll could act at, so its
        periodic trigger and fit collection run on the replay's clock.
        Refits stage themselves into the engine's registry, where the
        ``promoter`` (if any) ramps them.
    paired_outcomes:
        When True, the per-user outcome uniforms are drawn as one
        cohort-indexed block up front instead of sequentially per
        decision.  User ``i`` then realises the same ``(y_r, y_c)``
        draws whatever order decisions happen in — the common-random-
        numbers hook that makes two replays with identically-seeded
        platforms *paired* even when their policies admit different
        users (the same coupling
        :meth:`~repro.ab.platform.Platform.realize_arms` uses).
        Default False preserves the bit-identical legacy sequential
        stream.
    random_state:
        Seed/generator for realising feedback/promotion outcomes.
    """

    def __init__(
        self,
        platform: Platform,
        engine: ScoringEngine,
        feedback: bool = False,
        interarrival_s: float | None = None,
        promoter: AutoPromoter | None = None,
        retrainer: Retrainer | None = None,
        paired_outcomes: bool = False,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if interarrival_s is not None:
            if not interarrival_s >= 0:
                raise ValueError(f"interarrival_s must be >= 0, got {interarrival_s}")
            if not isinstance(engine.clock, ManualClock):
                raise ValueError(
                    "interarrival_s needs an engine with a ManualClock "
                    "(simulated time cannot advance a system clock)"
                )
        if promoter is not None and promoter.registry is not engine.registry:
            raise ValueError(
                "promoter must operate the engine's registry — attributing "
                "outcomes across two registries would corrupt both ledgers"
            )
        if (
            promoter is not None
            and interarrival_s is not None
            and promoter.clock is not engine.clock
        ):
            raise ValueError(
                "promoter must share the engine's ManualClock when replaying "
                "on simulated time — on its own clock the ramp schedule "
                "would silently run on wall time instead"
            )
        if retrainer is not None and retrainer.registry is not engine.registry:
            raise ValueError(
                "retrainer must stage into the engine's registry — refits "
                "registered elsewhere would never serve traffic"
            )
        if (
            retrainer is not None
            and interarrival_s is not None
            and retrainer.clock is not engine.clock
        ):
            raise ValueError(
                "retrainer must share the engine's ManualClock when replaying "
                "on simulated time — on its own clock the periodic trigger "
                "would silently run on wall time instead"
            )
        self.platform = platform
        self.engine = engine
        self.feedback = bool(feedback)
        self.interarrival_s = interarrival_s
        self.promoter = promoter
        self.retrainer = retrainer
        self.paired_outcomes = bool(paired_outcomes)
        self._rng = as_generator(random_state)

    def replay_day(
        self,
        n_users: int,
        day: int = 1,
        budget: float | None = None,
        budget_fraction: float = 0.3,
        pacer: BudgetPacer | None = None,
        pacer_params: dict | None = None,
    ) -> ReplayResult:
        """Stream one day's cohort and return the full accounting.

        Parameters
        ----------
        n_users:
            Cohort size (the day's traffic volume).
        day:
            1-based day index (drives the platform's day-of-week wobble).
        budget:
            Absolute budget; defaults to ``budget_fraction`` of the
            cohort's full-treatment expected cost (the A/B convention).
        pacer:
            Pre-built pacer (its own budget wins); by default a
            :class:`BudgetPacer` is constructed from ``pacer_params``.
        """
        cohort = self.platform.daily_cohort(n_users, day)
        if budget is None:
            budget = budget_fraction * float(np.sum(cohort.tau_c))
        if pacer is None:
            pacer = BudgetPacer(budget, n_users, **(pacer_params or {}))
        else:
            budget = pacer.budget
        return self._stream_cohort(cohort, pacer, budget)

    def replay_days(
        self,
        n_days: int,
        n_users: int,
        budget_fraction: float = 0.3,
        daily_budget: float | None = None,
        pacer_params: dict | None = None,
        carryover: float = 1.0,
        carryover_mode: str = "spread",
        plan_budgets: bool = False,
    ) -> MultiDayReplayResult:
        """Stream a multi-day campaign with cross-day budget carryover.

        Each day's *base* allowance is ``daily_budget`` (or
        ``budget_fraction`` of that day's full-treatment expected
        cost); a :class:`~repro.serving.pacing.MultiDayPacer` rolls
        every day's residual into the next day's pacing, so the
        campaign spend converges on the cumulative plan while each
        day's pacer keeps its single-day invariants.

        ``plan_budgets=True`` switches days 2+ to *day-ahead planning*
        (:meth:`~repro.serving.pacing.MultiDayPacer.plan_next_day`):
        day ``d+1``'s base budget is ``budget_fraction`` of day ``d``'s
        observed offered cost, its horizon is day ``d``'s arrival
        count, and its pacing curve is day ``d``'s empirical demand
        shape — no oracle cohort sums, which is how a live system must
        budget.  Day 1 (no history yet) keeps the oracle sizing.
        """
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {n_days}")
        multi = MultiDayPacer(
            daily_budget=daily_budget,
            horizon=n_users,
            carryover=carryover,
            carryover_mode=carryover_mode,
            pacer_params=pacer_params,
        )
        result = MultiDayReplayResult()
        for day in range(1, n_days + 1):
            cohort = self.platform.daily_cohort(n_users, day)
            if plan_budgets and day > 1:
                plan = multi.plan_next_day(budget_fraction)
                pacer = multi.start_day(
                    plan.base_budget, plan.horizon, plan.target_curve
                )
            else:
                if daily_budget is None:
                    base = budget_fraction * float(np.sum(cohort.tau_c))
                else:
                    base = float(daily_budget)
                pacer = multi.start_day(base_budget=base)
            result.days.append(self._stream_cohort(cohort, pacer, pacer.budget))
            multi.end_day()
        result.ledger = list(multi.ledger)
        return result

    def _stream_cohort(self, cohort, pacer: BudgetPacer, budget: float) -> ReplayResult:
        """The shared streaming core: score every arrival, pace every spend.

        Used by :meth:`replay_day` (one pacer, one day) and
        :meth:`replay_days` (each day's pacer handed in by the
        :class:`MultiDayPacer`); the cohort already carries its
        day-of-week effects, so no day index is needed here.

        Arrivals move in runs (see :class:`_Stream`).  A run's first
        arrival takes the per-arrival steps one by one — stop the clock
        at a flush deadline inside the gap and decide what it scored,
        move the clock to the arrival, poll the promoter and the
        retrainer — and the run is every later arrival at which none
        of those steps would act.  The run goes to the engine as one
        stamped :meth:`~repro.serving.engine.ScoringEngine.submit_batch`;
        then every request ready at the head of the queue is decided as
        a block.
        """
        stream = _Stream(self, cohort, pacer)
        engine, promoter, retrainer = self.engine, self.promoter, self.retrainer
        clock = engine.clock if self.interarrival_s is not None else None
        order = stream.order
        # real wall time on purpose: replay *measures* achieved host
        # throughput; the simulated timeline stays on the injected clock
        start = time.perf_counter()  # repro: allow[RPR001]
        i = 0
        while i < cohort.n:
            if clock is not None:
                # a flush deadline inside this inter-arrival gap must
                # fire *at* the deadline, not when the next arrival
                # happens to look — stop the clock there and poll, so
                # the latency bound is exact for any gap size
                target = clock.now() + self.interarrival_s
                due = engine.next_deadline()
                if due is not None and due < target:
                    clock.advance(max(0.0, due - clock.now()))
                    engine.poll()
                    stream.decide_ready()
                clock.advance(max(0.0, target - clock.now()))
            if promoter is not None:
                # ramp deadlines fire at arrival granularity: the first
                # arrival after a step boundary sees the widened split
                promoter.poll()
            if retrainer is not None:
                # periodic refit triggers + async fit collection run at
                # the same arrival granularity
                retrainer.poll()
            # the flush deadline the arrival's submit would fire first
            engine.poll()
            count, stamps = stream.run(i, clock)
            stream.queue(engine.submit_batch(cohort.x[order[i : i + count]], stamps=stamps))
            i += count
            stream.decide_ready()
        engine.flush()
        engine.join()
        stream.decide_ready()
        if promoter is not None:
            promoter.poll()  # day's end: fire any boundary that landed on it
        if retrainer is not None:
            retrainer.poll()
        elapsed = time.perf_counter() - start  # repro: allow[RPR001]

        if stream.waiting or stream.n_decided != cohort.n:
            raise RuntimeError(
                f"replay decided {stream.n_decided}/{cohort.n} arrivals "
                f"({len(stream.waiting)} still waiting) — the engine lost requests"
            )
        scores, treated = stream.scores, stream.treated
        oracle = greedy_allocation(
            scores, cohort.tau_c, budget, rewards=cohort.tau_r
        )
        latencies = (
            np.asarray(
                self.engine.latencies[
                    max(0, stream.latency_start - self.engine.latencies_dropped):
                ],
                dtype=float,
            )
            if self.engine.clock is not None
            else None
        )
        # entries this replay recorded that the size cap already evicted
        dropped = max(0, self.engine.latencies_dropped - stream.latency_start)
        latency_hist = (
            self.engine.latency_hist.snapshot().delta(stream.hist_before)
            if self.engine.clock is not None
            else None
        )
        metrics_delta = (
            self.engine.metrics.snapshot().delta(stream.metrics_before).to_dict()
            if stream.metrics_before is not None
            else None
        )
        return ReplayResult(
            n_events=cohort.n,
            n_treated=int(np.sum(treated)),
            budget=float(budget),
            spend=float(pacer.spent),
            incremental_revenue=float(np.sum(cohort.tau_r[treated])),
            oracle_n_treated=oracle.n_selected,
            oracle_spend=oracle.total_cost,
            oracle_revenue=oracle.total_reward,
            elapsed_seconds=elapsed,
            events_per_second=cohort.n / max(elapsed, 1e-12),
            spend_trajectory=stream.trajectory,
            treated=treated,
            engine_stats={
                k: v - stream.stats_before.get(k, 0) for k, v in self.engine.stats.items()
            },
            pacing_history=list(pacer.history),
            latencies=latencies,
            latencies_dropped=dropped,
            latency_hist=latency_hist,
            metrics_delta=metrics_delta,
        )


class _Stream:
    """One cohort's state in the block decision loop.

    The arrivals' order, the waiting queue (the request ids submitted
    and not yet decided, in arrival order) and the per-arrival results.
    :meth:`run` sizes the next run of arrivals; :meth:`decide_ready`
    decides the requests ready at the head of the queue as a block:
    the pacer's admissions (split where it refreshes, each slice's
    outcomes fed back before the next), the outcome draws, and the
    attribution to the promoter and the retrainer (split at every
    observation that may act, which goes through their scalar
    ``observe``).
    """

    def __init__(self, replay: TrafficReplay, cohort, pacer: BudgetPacer) -> None:
        engine = replay.engine
        self.replay = replay
        self.cohort = cohort
        self.pacer = pacer
        self.scores = np.full(cohort.n, np.nan)
        self.treated = np.zeros(cohort.n, dtype=bool)
        self.trajectory = np.zeros(cohort.n)
        self.n_decided = 0
        self.waiting = range(0)
        # absolute index into the engine's (possibly size-capped) log
        self.latency_start = engine.latencies_dropped + len(engine.latencies)
        self.stats_before = dict(engine.stats)  # engines may serve many days
        self.hist_before = engine.latency_hist.snapshot()
        self.metrics_before = (
            engine.metrics.snapshot() if engine.metrics is not NULL_REGISTRY else None
        )
        self.realise = (
            replay.feedback or replay.promoter is not None or replay.retrainer is not None
        )
        # paired mode: one cohort-indexed uniform block, so user i's
        # draws are independent of decision order (CRN across replays)
        self.uniforms = replay._rng.random((cohort.n, 2)) if replay.paired_outcomes else None
        self.order = replay.platform.arrival_order(cohort)

    def run(self, i: int, clock: ManualClock | None) -> tuple[int, np.ndarray | None]:
        """Size the run starting at arrival ``i``, whose per-arrival
        steps were just taken: ``(count, stamps)``, ``stamps`` being
        the run's arrival times (``None`` without a simulated clock).

        The run stops where one arrival's steps could act or its
        decisions could change a later arrival's routing: at the
        arrival that could fill the engine's batch, before an arrival
        at which a flush deadline, ramp step or retrainer timer could
        fall due, and — when nothing is pending, so the waiting
        requests and cache hits are decided on arrival — within the
        observations the promoter and the retrainer take without
        acting.
        """
        replay, engine = self.replay, self.replay.engine
        observers = [c for c in (replay.promoter, replay.retrainer) if c is not None]
        count = min(self.cohort.n - i, max(1, engine.batch_size - engine.n_pending))
        if observers and not engine.n_pending:
            quiet = min(c.quiet_observations() for c in observers)
            count = max(1, min(count, quiet + 1 - len(self.waiting)))
        stamps = None
        if clock is not None:
            stamps = _arrival_times(clock.now(), replay.interarrival_s, count)
        count = engine.room(count, stamps)
        for component in observers:
            later = stamps[1:count] if stamps is not None else np.full(count - 1, component.clock.now())
            count = 1 + min(count - 1, component.quiet_polls(later))
        return count, None if stamps is None else stamps[:count]

    def queue(self, rids: range) -> None:
        """Append a run's request ids to the waiting queue."""
        if not self.waiting:
            self.waiting = rids
        elif rids.start == self.waiting.stop:
            self.waiting = range(self.waiting.start, rids.stop)
        else:
            raise RuntimeError("the engine issued request ids out of order")

    def decide_ready(self) -> None:
        """Decide every request ready at the head of the queue."""
        if not self.waiting:
            return
        versions, scores = self.replay.engine.take_ready(self.waiting)
        if scores.size:
            self.waiting = self.waiting[scores.size :]
            self._decide(versions, scores)

    def _decide(self, versions: np.ndarray, scores: np.ndarray) -> None:
        replay, pacer, cohort = self.replay, self.pacer, self.cohort
        lo = self.n_decided
        k = scores.size
        idx = self.order[lo : lo + k]
        self.scores[idx] = scores
        costs = cohort.tau_c[idx]
        if self.realise:
            # realised Bernoulli incremental outcomes, one draw pair per
            # decision in decision order; skipped users realise none,
            # mirroring Platform.realize_arm
            draw = self.uniforms[idx] if self.uniforms is not None else replay._rng.random((k, 2))
            revenue = (draw[:, 0] < cohort.tau_r[idx]).astype(float)
            cost = (draw[:, 1] < costs).astype(float)
        admitted = np.empty(k, dtype=bool)
        j = 0
        while j < k:
            admit, spent = pacer.offer_block(scores[j:], costs[j:])
            m = admit.size
            admitted[j : j + m] = admit
            self.trajectory[lo + j : lo + j + m] = spent
            if replay.feedback:
                rows = slice(j, j + m)
                pacer.observe_outcome_block(admit, revenue[rows] * admit, cost[rows] * admit)
            j += m
        self.treated[idx] = admitted
        self.n_decided += k
        if replay.promoter is not None or replay.retrainer is not None:
            self._attribute(versions, idx, admitted, revenue * admitted, cost * admitted)

    def _attribute(self, versions, idx, admitted, y_r, y_c) -> None:
        """Feed the decided outcomes to the promoter (credited to the
        version whose score decided) and the retrainer, in order."""
        promoter, retrainer = self.replay.promoter, self.replay.retrainer
        observers = []
        if promoter is not None:
            observers.append(promoter.block_observer(versions, admitted, y_r, y_c))
        if retrainer is not None:
            observers.append(retrainer.block_observer(self.cohort.x[idx], admitted, y_r, y_c))
        observe_in_runs(idx.size, observers)


def _arrival_times(now: float, gap: float, n: int) -> np.ndarray:
    """The clock readings of ``n`` arrivals from ``now`` (the first's),
    with the float operations one ``advance`` per arrival makes:
    ``now += max(0.0, (now + gap) - now)``.

    Once ``now >= gap`` that step is exactly ``now + gap`` (the
    difference of two floats within a factor two is exact), so the
    readings are the running sums of ``gap``; before that, each is
    stepped as the scalar loop steps it.
    """
    times = np.empty(n)
    times[0] = now
    k = 1
    while k < n and now < gap:
        now += max(0.0, (now + gap) - now)
        times[k] = now
        k += 1
    if k < n:
        times[k:] = gap
        np.cumsum(times[k - 1 :], out=times[k - 1 :])
    return times
