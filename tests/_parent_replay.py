"""The traffic replay's decision loop as it was before the block loop.

A verbatim copy of ``TrafficReplay._stream_cohort`` from before arrivals
moved in runs: one ``clock.advance``, ``promoter.poll``,
``retrainer.poll``, ``engine.submit`` and ``engine.poll`` per arrival,
then one ``take``, ``pacer.offer`` and outcome attribution per decided
request.  :func:`install` patches it back into ``TrafficReplay``
(through a pytest ``monkeypatch``), so a test can replay the same
campaign on both loops and compare every result and every piece of
state they leave behind.  It is a test reference, not a second code
path.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.core.allocation import greedy_allocation
from repro.obs import NULL_REGISTRY
from repro.serving.pacing import BudgetPacer
from repro.serving.simulator import ReplayResult


def _stream_cohort(self, cohort, pacer: BudgetPacer, budget: float) -> ReplayResult:
    """The shared streaming core: score every arrival, pace every spend.

    Used by :meth:`replay_day` (one pacer, one day) and
    :meth:`replay_days` (each day's pacer handed in by the
    :class:`MultiDayPacer`); the cohort already carries its
    day-of-week effects, so no day index is needed here.
    """
    scores = np.full(cohort.n, np.nan)
    treated = np.zeros(cohort.n, dtype=bool)
    trajectory = np.zeros(cohort.n)
    n_decided = 0
    # absolute index into the engine's (possibly size-capped) log
    latency_start = self.engine.latencies_dropped + len(self.engine.latencies)
    stats_before = dict(self.engine.stats)  # engines may serve many days
    hist_before = self.engine.latency_hist.snapshot()
    instrumented = self.engine.metrics is not NULL_REGISTRY
    metrics_before = self.engine.metrics.snapshot() if instrumented else None
    waiting: deque[tuple[int, int]] = deque()  # (request_id, cohort index)
    realise = (
        self.feedback or self.promoter is not None or self.retrainer is not None
    )
    # paired mode: one cohort-indexed uniform block, so user i's
    # draws are independent of decision order (CRN across replays)
    uniforms = self._rng.random((cohort.n, 2)) if self.paired_outcomes else None

    def drain(force: bool = False) -> None:
        nonlocal n_decided
        if force:
            self.engine.flush()
            self.engine.join()
        while waiting and self.engine.has_result(waiting[0][0]):
            rid, i = waiting.popleft()
            # which version's score drives this decision (read
            # before take() releases the attribution)
            vid = self.engine.version_of(rid) if self.promoter is not None else None
            score = self.engine.take(rid)
            scores[i] = score
            admit = pacer.offer(score, float(cohort.tau_c[i]))
            treated[i] = admit
            trajectory[n_decided] = pacer.spent
            n_decided += 1
            if realise:
                # realised Bernoulli incremental outcomes: skipped
                # users realise none, mirroring Platform.realize_arm
                draw = uniforms[i] if uniforms is not None else self._rng.random(2)
                y_r = float(draw[0] < cohort.tau_r[i]) if admit else 0.0
                y_c = float(draw[1] < cohort.tau_c[i]) if admit else 0.0
                if self.feedback:
                    pacer.observe_outcome(int(admit), y_r, y_c)
                if self.promoter is not None:
                    self.promoter.observe(vid, bool(admit), y_r, y_c)
                if self.retrainer is not None:
                    self.retrainer.observe(cohort.x[i], bool(admit), y_r, y_c)

    clock = self.engine.clock if self.interarrival_s is not None else None
    # real wall time on purpose: replay *measures* achieved host
    # throughput; the simulated timeline stays on the injected clock
    start = time.perf_counter()  # repro: allow[RPR001]
    for i, x_row in self.platform.iter_events(cohort):
        if clock is not None:
            # a flush deadline inside this inter-arrival gap must
            # fire *at* the deadline, not when the next arrival
            # happens to look — stop the clock there and poll, so
            # the latency bound is exact for any gap size
            target = clock.now() + self.interarrival_s
            due = self.engine.next_deadline()
            if due is not None and due < target:
                clock.advance(max(0.0, due - clock.now()))
                self.engine.poll()
                drain()
            clock.advance(max(0.0, target - clock.now()))
        if self.promoter is not None:
            # ramp deadlines fire at arrival granularity: the first
            # arrival after a step boundary sees the widened split
            self.promoter.poll()
        if self.retrainer is not None:
            # periodic refit triggers + async fit collection run at
            # the same arrival granularity
            self.retrainer.poll()
        waiting.append((self.engine.submit(x_row), i))
        self.engine.poll()
        drain()
    drain(force=True)
    if self.promoter is not None:
        self.promoter.poll()  # day's end: fire any boundary that landed on it
    if self.retrainer is not None:
        self.retrainer.poll()
    elapsed = time.perf_counter() - start  # repro: allow[RPR001]

    if waiting or n_decided != cohort.n:
        raise RuntimeError(
            f"replay decided {n_decided}/{cohort.n} arrivals "
            f"({len(waiting)} still waiting) — the engine lost requests"
        )
    oracle = greedy_allocation(
        scores, cohort.tau_c, budget, rewards=cohort.tau_r
    )
    latencies = (
        np.asarray(
            self.engine.latencies[
                max(0, latency_start - self.engine.latencies_dropped):
            ],
            dtype=float,
        )
        if self.engine.clock is not None
        else None
    )
    # entries this replay recorded that the size cap already evicted
    dropped = max(0, self.engine.latencies_dropped - latency_start)
    latency_hist = (
        self.engine.latency_hist.snapshot().delta(hist_before)
        if self.engine.clock is not None
        else None
    )
    metrics_delta = (
        self.engine.metrics.snapshot().delta(metrics_before).to_dict()
        if instrumented
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
        spend_trajectory=trajectory,
        treated=treated,
        engine_stats={
            k: v - stats_before.get(k, 0) for k, v in self.engine.stats.items()
        },
        pacing_history=list(pacer.history),
        latencies=latencies,
        latencies_dropped=dropped,
        latency_hist=latency_hist,
        metrics_delta=metrics_delta,
    )


def install(monkeypatch) -> None:
    """Put the per-row loop back in place for the monkeypatch's scope."""
    from repro.serving.simulator import TrafficReplay

    monkeypatch.setattr(TrafficReplay, "_stream_cohort", _stream_cohort)
