"""Streaming budget pacing: admit users online without exhausting B early.

Offline, Algorithm 1 sees the whole day at once — it sorts by ROI and
spends down the budget.  Online, users arrive one at a time and a
naive "treat while budget remains" policy exhausts B in the first hour
on mediocre users.  :class:`BudgetPacer` solves the streaming version
of C-BTAP with an *adaptive admission threshold*:

1. every arrival's ``(score, cost)`` lands in a sliding window — a
   live sample of the day's traffic distribution, held as float64
   columns that a refresh reads in place (see :class:`_Window`);
2. the pacer periodically derives the per-event spend rate that keeps
   cumulative spend on a target pacing curve (uniform by default), and
3. locates, with the same bisection primitive as Algorithm 2
   (:func:`repro.core.roi_star.bisect_monotone`), the score threshold
   whose expected admitted cost over the window matches that rate.

When realised outcomes are fed back via :meth:`observe_outcome`, the
pacer additionally computes the break-even ``roi*`` of recent traffic
with Algorithm 2 (:func:`repro.core.roi_star.binary_search_roi_star`,
fed the outcome window's pooled uplifts, taken once per refresh) and
uses it as a profitability floor under the pacing threshold — the
paper's "treat only when ROI clears roi*" rule, applied to the live
stream.

Two invariants hold by construction: cumulative spend never exceeds
the budget, and never exceeds the pacing curve by more than
``curve_slack`` of the budget.

Days chain through :class:`MultiDayPacer`: each day is a plain
:class:`BudgetPacer` (both invariants intact), and the day's realised
under/over-spend rolls into the next day's budget — and, in ``"early"``
mode, tilts its pacing curve — so a multi-day campaign converges on
its cumulative plan instead of leaking every day's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from repro.core.drp import _pooled_uplifts
from repro.core.roi_star import _roi_star_of_uplifts, bisect_monotone
from repro.obs import NULL_REGISTRY, MetricsRegistry

__all__ = ["BudgetPacer", "DayPlan", "EmpiricalCurve", "MultiDayPacer"]


class EmpiricalCurve:
    """Monotone piecewise-linear spend curve fitted to observed demand.

    Built from a completed day's ``(n_seen, offered_cost)`` trace: the
    fraction of the day's total *offered* cost that had arrived by each
    fraction of its arrivals.  Used as the next day's ``target_curve``
    so the pacer releases budget when demand historically showed up
    instead of uniformly.  Plain object (not a closure) so planned
    pacers stay picklable.
    """

    def __init__(self, progress: np.ndarray, fraction: np.ndarray) -> None:
        progress = np.asarray(progress, dtype=float)
        fraction = np.asarray(fraction, dtype=float)
        if progress.shape != fraction.shape or progress.ndim != 1 or progress.size < 2:
            raise ValueError("progress and fraction must be equal-length 1-d, size >= 2")
        if progress[0] != 0.0 or progress[-1] != 1.0 or fraction[-1] != 1.0:
            raise ValueError("curve must span progress [0, 1] and end at fraction 1")
        if np.any(np.diff(progress) < 0) or np.any(np.diff(fraction) < 0):
            raise ValueError("curve knots must be non-decreasing")
        self.progress = progress
        self.fraction = fraction

    @classmethod
    def from_trace(
        cls, trace: list[tuple[int, float]], n_total: int, offered_total: float
    ) -> "EmpiricalCurve":
        """Build from a :attr:`BudgetPacer.offered_trace` of a finished day."""
        if n_total <= 0 or offered_total <= 0 or len(trace) < 1:
            raise ValueError("need a non-empty day (arrivals and offered cost > 0)")
        xs = [0.0] + [min(1.0, n / n_total) for n, _ in trace] + [1.0]
        ys = [0.0] + [min(1.0, c / offered_total) for _, c in trace] + [1.0]
        return cls(np.maximum.accumulate(xs), np.maximum.accumulate(ys))

    def __call__(self, progress: float) -> float:
        return float(np.interp(progress, self.progress, self.fraction))


@dataclass(frozen=True)
class DayPlan:
    """Day-ahead plan: the next day's pacer sizing, derived from the
    last observed day by :meth:`MultiDayPacer.plan_next_day`."""

    base_budget: float
    horizon: int
    target_curve: EmpiricalCurve | None = None


def _uniform_curve(progress: float) -> float:
    """Default pacing target: spend linearly across the day."""
    return progress


class _Window:
    """The newest ``size`` rows of ``k`` float64 columns, oldest first.

    The columns are twice the window long.  Rows are written at
    :meth:`slot` until the columns fill; then the newest ``size`` rows
    are copied to the front, so the live window is always one
    contiguous slice (amortised O(1) per row) and numpy reductions over
    it see the rows in arrival order.  Single rows are written through
    memoryviews of the columns (``views``), whose item writes cost
    about a third of numpy's.  Memoryviews do not pickle, so pickling
    drops them and unpickling rebuilds them.
    """

    def __init__(self, k: int, size: int) -> None:
        self.size = size
        self.stop = 0
        self.columns = np.zeros((k, 2 * size))
        self._bind()

    def _bind(self) -> None:
        self.views = tuple(map(memoryview, self.columns))

    def __len__(self) -> int:
        return min(self.stop, self.size)

    def slot(self) -> int:
        """Claim the next row's index (compacting full columns first)."""
        i = self.stop
        if i == 2 * self.size:
            self.columns[:, : self.size] = self.columns[:, self.size :]
            i = self.size
        self.stop = i + 1
        return i

    def write_block(self, *values: np.ndarray) -> None:
        """Append rows (one array per column), compacting exactly where
        row-by-row :meth:`slot` claims would."""
        n = len(values[0])
        pos = 0
        while pos < n:
            if self.stop == 2 * self.size:
                self.columns[:, : self.size] = self.columns[:, self.size :]
                self.stop = self.size
            take = min(n - pos, 2 * self.size - self.stop)
            for column, value in zip(self.columns, values):
                column[self.stop : self.stop + take] = value[pos : pos + take]
            self.stop += take
            pos += take

    def live(self) -> np.ndarray:
        """The window as a ``(k, len(self))`` view, oldest row first."""
        return self.columns[:, max(0, self.stop - self.size) : self.stop]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["views"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()


class BudgetPacer:
    """Admit streaming users under a budget that must last the horizon.

    Parameters
    ----------
    budget:
        Total (expected-cost) budget B for the horizon.
    horizon:
        Expected number of arrivals; progress along the pacing curve is
        ``n_seen / horizon`` (capped at 1 — extra traffic spends
        whatever remains).
    window:
        Sliding-window length for the traffic sample and for the
        outcome feedback.  Both windows are float64 columns
        (``(score, cost)`` and ``(t, y_r, y_c)``) that each refresh
        reads in place.
    refresh_every:
        Re-derive the threshold every this many arrivals.
    lookahead:
        Events ahead used to convert the curve into a spend rate;
        smaller tracks the curve tighter, larger smooths noise.
    warmup:
        Arrivals before the first threshold fit; during warmup
        admission is purely curve-gated (score-blind), which buys the
        window an unbiased traffic sample.  The arrival that completes
        warmup triggers the fit and is the first to be threshold-gated.
        Capped at a quarter of the horizon so short days still engage
        the threshold.
    target_curve:
        Monotone callable ``progress ∈ [0,1] → fraction of B`` with
        ``curve(1) == 1``; default uniform.
    curve_slack:
        Admissions may run ahead of the curve by at most this fraction
        of B (absorbs cost granularity without losing pacing).
    use_roi_floor:
        Apply the ``roi*`` profitability floor when outcome feedback is
        available (see :meth:`observe_outcome`).
    min_arm_outcomes:
        Treated *and* control outcomes required in the feedback window
        before the floor activates.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to record pacing health
        into: counters ``pacer.offers`` / ``pacer.admits`` /
        ``pacer.refreshes`` / ``pacer.lockouts`` (refreshes that found
        spend ahead of the curve and locked admission out), gauges
        ``pacer.threshold`` / ``pacer.roi_floor`` / ``pacer.spend``
        and ``pacer.spend_vs_curve`` (signed distance of cumulative
        spend from the curve target — the pacing-error signal worth
        alerting on).  ``None`` (default) records nothing.
    """

    def __init__(
        self,
        budget: float,
        horizon: int,
        *,
        window: int = 1024,
        refresh_every: int = 64,
        lookahead: int = 256,
        warmup: int = 128,
        target_curve: Callable[[float], float] | None = None,
        curve_slack: float = 0.05,
        use_roi_floor: bool = True,
        min_arm_outcomes: int = 20,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not budget >= 0:  # rejects NaN too
            raise ValueError(f"budget must be >= 0, got {budget}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not 0.0 <= curve_slack <= 1.0:
            raise ValueError(f"curve_slack must be in [0, 1], got {curve_slack}")
        self.budget = float(budget)
        self.horizon = int(horizon)
        self.window = int(window)
        self.refresh_every = int(refresh_every)
        self.lookahead = int(lookahead)
        self.warmup = min(int(warmup), max(2, horizon // 4))
        self.target_curve = target_curve if target_curve is not None else _uniform_curve
        self.curve_slack = float(curve_slack)
        self.use_roi_floor = bool(use_roi_floor)
        self.min_arm_outcomes = int(min_arm_outcomes)

        self._traffic = _Window(2, self.window)  # rows: score, cost
        self._outcomes = _Window(3, self.window)  # rows: t, y_r, y_c
        self.n_seen = 0
        self.n_admitted = 0
        self.spent = 0.0
        #: cumulative expected cost of *all* offers seen (admitted or
        #: not) — the day's observed demand, which day-ahead planning
        #: sizes the next day's base budget from
        self.offered_cost = 0.0
        #: (n_seen, offered_cost) at each refresh — the within-day
        #: demand shape, which day-ahead planning turns into a curve
        self.offered_trace: list[tuple[int, float]] = []
        self.threshold_ = 0.0
        self.roi_floor_ = 0.0
        self._last_refresh = -(10**9)
        # (n_seen, spent, threshold) at each refresh — the pacing trace
        self.history: list[tuple[int, float, float]] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_offers = self.metrics.counter("pacer.offers")
        self._c_admits = self.metrics.counter("pacer.admits")
        self._c_refreshes = self.metrics.counter("pacer.refreshes")
        self._c_lockouts = self.metrics.counter("pacer.lockouts")
        self._g_threshold = self.metrics.gauge("pacer.threshold")
        self._g_roi_floor = self.metrics.gauge("pacer.roi_floor")
        self._g_spend = self.metrics.gauge("pacer.spend")
        self._g_spend_vs_curve = self.metrics.gauge("pacer.spend_vs_curve")

    # ------------------------------------------------------------------
    # the admission decision
    # ------------------------------------------------------------------
    def offer(self, score: float, cost: float) -> bool:
        """Record one arrival and decide treat (True) / skip (False).

        Raises ``ValueError``, before any state changes, for a
        non-finite score (NaN would poison the window's threshold,
        ``inf`` would pierce a lockout) or a cost that is not finite and
        positive (NaN would poison ``spent`` and with it the budget cap).
        """
        score = float(score)
        cost = float(cost)
        if not math.isfinite(score):
            raise ValueError(f"score must be finite, got {score}")
        if not 0.0 < cost < math.inf:  # rejects NaN too
            raise ValueError(f"cost must be finite and > 0 (Assumption 4), got {cost}")
        self._record(score, cost)
        return self._admit(score, cost, self.n_seen)

    def _record(self, score: float, cost: float) -> None:
        """Count one validated arrival into the window; refresh when due."""
        self.n_seen += 1
        self._c_offers.inc()
        self.offered_cost += cost
        i = self._traffic.slot()
        scores, costs = self._traffic.views
        scores[i] = score
        costs[i] = cost
        if (
            self.n_seen >= self.warmup
            and self.n_seen - self._last_refresh >= self.refresh_every
        ):
            self._refresh()

    def _admit(self, score: float, cost: float, n_seen: int) -> bool:
        """The admission rule for the ``n_seen``-th arrival: the budget
        and curve cap, then the threshold."""
        progress = min(1.0, n_seen / self.horizon)
        curve_cap = self.budget * min(
            1.0, float(self.target_curve(progress)) + self.curve_slack
        )
        cap = min(self.budget, curve_cap)
        if self.spent + cost > cap:
            return False
        # same boundary as the _refresh trigger: the arrival that
        # completes warmup fits the first threshold and is already
        # gated by it (a fresh fit must never be ignored)
        if n_seen >= self.warmup and score < self.threshold_:
            return False
        self.n_admitted += 1
        self.spent += cost
        self._c_admits.inc()
        self._g_spend.set(self.spent)
        return True

    def offer_block(self, scores, costs) -> tuple[np.ndarray, np.ndarray]:
        """Decide the leading arrivals of a block exactly as one
        :meth:`offer` each.

        Returns ``(admitted, spent)`` for the ``k >= 1`` arrivals
        decided: each one's decision and the cumulative spend after it.
        The block stops before the next arrival that would refresh the
        threshold (a refreshing arrival is only ever decided first), so
        the caller can feed the decided arrivals' outcomes back
        (:meth:`observe_outcome_block`) before that refresh reads them
        — the order :meth:`offer` / :meth:`observe_outcome` pairs give.
        Call again with the rest.

        Between refreshes the threshold is fixed, so the decisions are
        one vectorised threshold test plus a running-spend cap check;
        from the first arrival the cap rejects on, the rest go through
        :meth:`offer`'s own rule one by one.  An invalid score or cost
        raises where :meth:`offer` would, after the arrivals before it.
        """
        scores = np.asarray(scores, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if scores.shape != costs.shape or scores.ndim != 1:
            raise ValueError(f"scores {scores.shape} and costs {costs.shape} must be equal 1-d")
        if scores.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0)
        n0 = self.n_seen
        to_refresh = max(self.warmup, self._last_refresh + self.refresh_every) - n0
        k = min(scores.size, self.refresh_every if to_refresh <= 1 else to_refresh - 1)
        scores, costs = scores[:k], costs[:k]
        valid = np.isfinite(scores)
        valid &= costs > 0.0
        valid &= costs < math.inf
        if np.count_nonzero(valid) < k:
            # offer() raises on the first invalid arrival
            admitted = [self.offer(score, cost) for score, cost in zip(scores.tolist(), costs.tolist())]
            return np.array(admitted), np.full(k, self.spent)  # pragma: no cover
        first = 0
        if to_refresh <= 1:
            self._record(float(scores[0]), float(costs[0]))  # refreshes
            first = 1
        if k > first:
            self.n_seen = n0 + k
            self._c_offers.inc(k - first)
            self.offered_cost = reduce(add, costs[first:].tolist(), self.offered_cost)
            self._traffic.write_block(scores[first:], costs[first:])

        # float arrival counts are exact, so n / horizon rounds as the
        # scalar rule's int division does
        n_seen = np.arange(n0 + 1.0, n0 + k + 1.0)
        cap = n_seen / self.horizon
        np.minimum(cap, 1.0, out=cap)  # progress
        if self.target_curve is not _uniform_curve:
            cap = np.array([float(self.target_curve(p)) for p in cap.tolist()])
        cap += self.curve_slack
        # np.fmin is Python's min here: it keeps the bound against NaN
        np.fmin(cap, 1.0, out=cap)
        cap *= self.budget
        np.fmin(cap, self.budget, out=cap)
        admitted = scores < self.threshold_
        np.logical_not(admitted, out=admitted)
        if n0 + 1 < self.warmup:
            admitted |= n_seen < self.warmup
        # running spend if every arrival above the threshold is admitted:
        # spent + cost is the very add the cap test and the admission make
        spent = costs * admitted
        spent[0] += self.spent
        np.cumsum(spent, out=spent)
        capped = spent > cap
        capped &= admitted
        stop = int(capped.argmax()) if np.count_nonzero(capped) else k
        if stop:
            n_admit = int(np.count_nonzero(admitted[:stop]))
            if n_admit:
                self.n_admitted += n_admit
                self.spent = float(spent[stop - 1])
                self._c_admits.inc(n_admit)
                self._g_spend.set(self.spent)
        if stop < k:
            # from the first arrival the cap rejects, offer()'s own rule
            rows = zip(scores[stop:].tolist(), costs[stop:].tolist(), range(n0 + 1 + stop, n0 + k + 1))
            for i, (score, cost, n) in enumerate(rows, start=stop):
                admitted[i] = self._admit(score, cost, n)
                spent[i] = self.spent
        return admitted, spent

    def observe_outcome(self, t: int, y_r: float, y_c: float) -> None:
        """Feed back one realised outcome (treated flag, revenue, cost).

        Outcomes power the ``roi*`` profitability floor; without them
        the pacer paces spend but cannot tell whether spending is
        worthwhile at all.  Raises ``ValueError``, recording nothing,
        unless ``t`` is 0 or 1 and both outcomes are finite.
        """
        if t not in (0, 1):
            raise ValueError(f"t must be 0 or 1, got {t!r}")
        y_r = float(y_r)
        y_c = float(y_c)
        if not (math.isfinite(y_r) and math.isfinite(y_c)):
            raise ValueError(f"outcomes must be finite, got y_r={y_r}, y_c={y_c}")
        i = self._outcomes.slot()
        ts, revenues, costs = self._outcomes.views
        ts[i] = float(t)
        revenues[i] = y_r
        costs[i] = y_c

    def observe_outcome_block(self, t, y_r, y_c) -> None:
        """Feed back a block of realised outcomes, in order: the same
        window as one :meth:`observe_outcome` each (which raises at the
        first invalid one, after the outcomes before it)."""
        t = np.asarray(t)
        y_r = np.asarray(y_r, dtype=float)
        y_c = np.asarray(y_c, dtype=float)
        binary = t.dtype == bool or ((t == 0) | (t == 1)).all()
        if not (binary and np.isfinite(y_r).all() and np.isfinite(y_c).all()):
            # observe_outcome() raises on the first invalid outcome
            for row in zip(t.tolist(), y_r.tolist(), y_c.tolist()):
                self.observe_outcome(*row)
            return  # pragma: no cover
        self._outcomes.write_block(t.astype(float), y_r, y_c)

    def rebudget(self, budget: float) -> None:
        """Reset the budget mid-stream (fleet slice rebalancing).

        The new budget must cover what is already spent — a pacer can
        be given more or less headroom, but never retroactively put
        over budget (that would break the spend invariant without any
        admission having caused it).  Thresholds pick the change up at
        the next refresh; the admission cap uses it immediately.
        """
        budget = float(budget)
        if not budget >= self.spent:
            raise ValueError(
                f"new budget {budget} is below already-realised spend {self.spent}"
            )
        self.budget = budget

    # ------------------------------------------------------------------
    # threshold adaptation
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        self._last_refresh = self.n_seen
        self._c_refreshes.inc()
        scores, costs = self._traffic.live()

        progress = min(1.0, self.n_seen / self.horizon)
        ahead = min(1.0, (self.n_seen + self.lookahead) / self.horizon)
        events_ahead = max(1, int(round((ahead - progress) * self.horizon)))
        target_cum = self.budget * float(self.target_curve(ahead))
        rate = (target_cum - self.spent) / events_ahead

        if rate <= 0.0:
            # ahead of the curve: admit nothing until spend catches up.
            # The lockout must be unconditional — ``max(scores) + 1``
            # only covers the window's range, so a later arrival scoring
            # above it would pierce the lockout and spend while the
            # pacer believes it is admitting nothing
            self.threshold_ = np.inf
            self._c_lockouts.inc()
        else:
            lo = float(np.min(scores)) - 1e-9
            hi = float(np.max(scores)) + 1e-9

            def pace_gap(thr: float) -> float:
                # relative gap (dimensionless so the bisection tolerance is
                # cost-scale independent); > 0 when admitting above ``thr``
                # spends slower than needed
                admitted = float(np.mean(np.where(scores >= thr, costs, 0.0)))
                return 1.0 - admitted / rate

            if pace_gap(lo) >= 0.0:
                self.threshold_ = lo  # even admitting everyone is too slow
            else:
                self.threshold_ = bisect_monotone(pace_gap, lo, hi, eps=1e-3)

        if self.use_roi_floor and len(self._outcomes):
            t, y_r, y_c = self._outcomes.live()
            n1 = int(np.count_nonzero(t))  # observe_outcome keeps t in {0, 1}
            n0 = t.size - n1
            # an empty arm never activates the floor, whatever min_arm_outcomes
            if min(n1, n0) >= max(1, self.min_arm_outcomes):
                # Assumption 4 guard: the bisection needs tau_c > 0 in the
                # window, else the derivative never crosses zero and the
                # floor degenerates to the search endpoint
                tau_r, tau_c = _pooled_uplifts(t, y_r, y_c)
                if tau_c > 0.0:
                    self.roi_floor_ = _roi_star_of_uplifts(tau_r, tau_c)
                    self.threshold_ = max(self.threshold_, self.roi_floor_)
        self.history.append((self.n_seen, self.spent, self.threshold_))
        self.offered_trace.append((self.n_seen, self.offered_cost))
        self._g_threshold.set(self.threshold_)
        self._g_roi_floor.set(self.roi_floor_)
        # signed pacing error: + means spending ahead of the curve
        self._g_spend_vs_curve.set(
            self.spent - self.budget * float(self.target_curve(progress))
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def progress(self) -> float:
        """Fraction of the horizon consumed (capped at 1)."""
        return min(1.0, self.n_seen / self.horizon)

    @property
    def remaining(self) -> float:
        """Budget left to spend."""
        return max(0.0, self.budget - self.spent)

    @property
    def admit_rate(self) -> float:
        """Fraction of arrivals admitted so far."""
        return self.n_admitted / self.n_seen if self.n_seen else 0.0


class MultiDayPacer:
    """Chain :class:`BudgetPacer` days with under/over-spend carryover.

    A single :class:`BudgetPacer` forgets everything at midnight: day
    *d*'s unspent budget evaporates and day *d+1* starts from its flat
    daily allowance.  Over a campaign that wastes real money — the
    strict budget boundary plus threshold conservatism leave every day
    a little short, and the shortfalls compound.  ``MultiDayPacer``
    rolls the residual forward instead: day *d+1*'s pacer is built
    with budget ``base_{d+1} + (budget_d - spent_d)``, so under-spend
    relative to the plan raises the next day's curve and over-spend
    relative to the *base* allowance (possible exactly when an earlier
    day's carry funded it) lowers it.  Telescoping the recursion gives
    the campaign invariant for free::

        sum_d spent_d  =  sum_d base_d - final_carry  <=  total budget

    with equality only when the final day spends to the boundary —
    each day's own invariants (never over budget, never ahead of curve
    + slack) continue to hold unchanged, because each day *is* a plain
    :class:`BudgetPacer`.

    How the carry lands on the next day's curve is ``carryover_mode``:

    * ``"spread"`` (default) — the enlarged budget keeps the base
      curve shape, spreading the carry evenly across the day;
    * ``"early"`` — the curve is tilted to release the carried amount
      at the start of the day (``curve'(p) = (carry + base *
      curve(p)) / (carry + base)``), catching the campaign up to its
      cumulative plan as fast as traffic allows.

    Drive it one day at a time: :meth:`start_day` → stream
    ``offer``/``observe_outcome`` through the returned (or delegated)
    pacer → :meth:`end_day`.  :class:`~repro.serving.simulator
    .TrafficReplay.replay_days` does exactly this.

    Parameters
    ----------
    daily_budget:
        Default per-day base allowance (override per day via
        :meth:`start_day`).
    horizon:
        Default expected arrivals per day (override per day).
    carryover:
        Fraction of each day's residual rolled into the next day
        (``1`` = full carryover, ``0`` = today's amnesiac behaviour).
    carryover_mode:
        ``"spread"`` or ``"early"`` (see above).
    pacer_params:
        Extra keyword arguments for every day's :class:`BudgetPacer`
        (``window``, ``warmup``, ``target_curve``, ...).
    metrics:
        A :class:`~repro.obs.MetricsRegistry` shared by every day's
        pacer (their counters accumulate across the campaign — a
        per-day view is a snapshot delta), plus campaign-level
        ``pacer.days_completed`` and ``pacer.carry``.
    """

    def __init__(
        self,
        daily_budget: float | None = None,
        horizon: int | None = None,
        *,
        carryover: float = 1.0,
        carryover_mode: str = "spread",
        pacer_params: dict | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if daily_budget is not None and not daily_budget >= 0:
            raise ValueError(f"daily_budget must be >= 0, got {daily_budget}")
        if not 0.0 <= carryover <= 1.0:
            raise ValueError(f"carryover must be in [0, 1], got {carryover}")
        if carryover_mode not in ("spread", "early"):
            raise ValueError(
                f"carryover_mode must be 'spread' or 'early', got {carryover_mode!r}"
            )
        self.daily_budget = daily_budget
        self.horizon = horizon
        self.carryover = float(carryover)
        self.carryover_mode = carryover_mode
        self.pacer_params = dict(pacer_params or {})
        self.carry = 0.0
        self.current: BudgetPacer | None = None
        self.days: list[BudgetPacer] = []
        #: per-completed-day accounting: (base_budget, day_budget, spent, carry_out)
        self.ledger: list[tuple[float, float, float, float]] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_days = self.metrics.counter("pacer.days_completed")
        self._g_carry = self.metrics.gauge("pacer.carry")

    # ------------------------------------------------------------------
    # day lifecycle
    # ------------------------------------------------------------------
    def start_day(
        self,
        base_budget: float | None = None,
        horizon: int | None = None,
        target_curve=None,
    ) -> BudgetPacer:
        """Open the next day: a fresh :class:`BudgetPacer` holding
        ``base_budget + carried residual``.

        ``target_curve`` (e.g. a planned :class:`EmpiricalCurve`)
        overrides the default ``pacer_params`` curve for this day only;
        the ``"early"`` carryover tilt still composes on top of it.
        """
        if self.current is not None:
            raise RuntimeError("previous day still open — call end_day() first")
        base = self.daily_budget if base_budget is None else float(base_budget)
        if base is None:
            raise ValueError("no base_budget given and no daily_budget default set")
        if not base >= 0:
            raise ValueError(f"base_budget must be >= 0, got {base}")
        n = self.horizon if horizon is None else int(horizon)
        if n is None:
            raise ValueError("no horizon given and no horizon default set")
        params = dict(self.pacer_params)
        if target_curve is not None:
            params["target_curve"] = target_curve
        budget = base + self.carry
        if self.carryover_mode == "early" and self.carry > 0.0 and budget > 0.0:
            base_curve = params.get("target_curve") or _uniform_curve
            carry, base_b = self.carry, base  # freeze for the closure

            def tilted(progress: float) -> float:
                # release the carried residual up front, then pace the
                # base allowance along its own curve; reaches 1 at p=1
                return (carry + base_b * float(base_curve(progress))) / (carry + base_b)

            params["target_curve"] = tilted
        self._base = base
        # all days share one registry: campaign counters accumulate,
        # per-day views are snapshot deltas
        params.setdefault("metrics", None if self.metrics is NULL_REGISTRY else self.metrics)
        self.current = BudgetPacer(budget, n, **params)
        self.days.append(self.current)
        return self.current

    def end_day(self) -> float:
        """Close the open day and bank its residual; returns the new carry."""
        if self.current is None:
            raise RuntimeError("no open day — call start_day() first")
        residual = self.current.budget - self.current.spent
        carry_out = self.carryover * max(0.0, residual)
        self.ledger.append(
            (self._base, self.current.budget, self.current.spent, carry_out)
        )
        self.carry = carry_out
        self.current = None
        self._c_days.inc()
        self._g_carry.set(carry_out)
        return self.carry

    # ------------------------------------------------------------------
    # day-ahead planning
    # ------------------------------------------------------------------
    def plan_next_day(
        self, budget_fraction: float, *, plan_curve: bool = True
    ) -> DayPlan:
        """Size day *d+1* from day *d*'s observed traffic.

        The seed experiment sizes every day's budget from an oracle
        cohort sum; a live system only sees what arrived.  This uses
        the last completed day's demand instead: the planned base
        budget is ``budget_fraction`` of the total *offered* cost that
        day (what full treatment would have cost), the horizon is that
        day's arrival count, and — when ``plan_curve`` and the day
        refreshed at least once — the target curve is the day's
        empirical within-day demand shape (:class:`EmpiricalCurve`).

        Feed the result to :meth:`start_day`::

            plan = pacer.plan_next_day(0.3)
            pacer.start_day(plan.base_budget, plan.horizon, plan.target_curve)
        """
        if not 0.0 <= budget_fraction:
            raise ValueError(f"budget_fraction must be >= 0, got {budget_fraction}")
        if not self.days or (self.current is not None and len(self.days) == 1):
            raise RuntimeError("no completed day to plan from — finish a day first")
        last = self.days[-1] if self.current is None else self.days[-2]
        if last.n_seen == 0:
            raise RuntimeError("last completed day saw no traffic; cannot plan")
        curve = None
        if plan_curve and last.offered_trace and last.offered_cost > 0:
            curve = EmpiricalCurve.from_trace(
                last.offered_trace, last.n_seen, last.offered_cost
            )
        return DayPlan(
            base_budget=float(budget_fraction) * last.offered_cost,
            horizon=last.n_seen,
            target_curve=curve,
        )

    # ------------------------------------------------------------------
    # in-day delegation (so the pacer can stand in for a BudgetPacer)
    # ------------------------------------------------------------------
    def offer(self, score: float, cost: float) -> bool:
        """Delegate one arrival to the open day's pacer."""
        if self.current is None:
            raise RuntimeError("no open day — call start_day() first")
        return self.current.offer(score, cost)

    def observe_outcome(self, t: int, y_r: float, y_c: float) -> None:
        """Delegate outcome feedback to the open day's pacer."""
        if self.current is None:
            raise RuntimeError("no open day — call start_day() first")
        self.current.observe_outcome(t, y_r, y_c)

    # ------------------------------------------------------------------
    # campaign accounting
    # ------------------------------------------------------------------
    @property
    def n_days_completed(self) -> int:
        return len(self.ledger)

    @property
    def total_base_budget(self) -> float:
        """Sum of completed days' base allowances (the campaign plan)."""
        return float(sum(base for base, _b, _s, _c in self.ledger))

    @property
    def total_spent(self) -> float:
        """Realised spend across completed days.

        Always ``<= total_base_budget`` when ``carryover <= 1``
        (telescoping the carry recursion), strictly below whenever the
        final day left any residual.
        """
        return float(sum(spent for _base, _b, spent, _c in self.ledger))
