"""Streaming retraining: close the loop from outcomes back to models.

Everything upstream of this module reacts to a *given* model: the
engine scores with it, the pacer spends against its scores, the
promoter ramps a challenger somebody staged.  Nobody refreshes the
model — under concept drift the whole stack keeps confidently serving
a scorer whose ranking is wrong, and the only fix is a human noticing.

:class:`Retrainer` closes that loop.  It drains realised outcomes
(the same ``(treated, y_r, y_c)`` stream the promoter's ledgers see,
plus the arrival's features) into a rolling training window, refits a
:class:`~repro.causal.base.TrainableModel` clone when a trigger fires,
and stages the refit as a challenger through
:meth:`~repro.serving.registry.ModelRegistry.register` — from where the
ordinary :class:`~repro.serving.promotion.AutoPromoter` lifecycle takes
over (ramp, significance gate, promote-or-kill, hold).  A refit
therefore never touches live traffic directly: it earns its promotion
through the same gate as any hand-staged model, and a bad refit is
killed by the same gate.

Triggers (any combination; the first to fire wins, then the window
keeps accumulating toward the next):

* **periodic** — ``every_n_days``: a clock-driven
  :class:`~repro.runtime.DeadlineLoop` deadline, resolved against the
  same (possibly simulated) clock the engine runs on;
* **outcome count** — ``every_outcomes``: every N buffered outcomes;
* **drift score** — ``drift_threshold``: the mean standardised shift
  of the rolling window's feature means against a reference frozen at
  the last refit.  Covariate drift is the observable *symptom*; the
  refit is cheap insurance whether the cause turns out to be benign
  (covariate shift) or malignant (concept drift).

Refits run off the serving path: the clone is fitted via
:func:`~repro.causal.base.refit_model` on an
:class:`~repro.runtime.ExecutionBackend` future (fresh forest/meta
fits fan out to workers; warm-startable linear models make the fit
itself cheap), and :meth:`Retrainer.poll` collects the result on a
later tick.  While an experiment is already running the fitted model is
*held*, not staged — registering over a live challenger would archive
it mid-ramp and poison the experiment — and the freshest held fit wins
once the slot frees up.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.causal.base import TrainableModel, refit_model
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.runtime import Clock, DeadlineLoop, ExecutionBackend, SystemClock
from repro.serving.registry import ModelRegistry, observe_in_runs

__all__ = ["RetrainEvent", "Retrainer"]

_TIMER_KEY = "retrain-timer"
_DAY_S = 86_400.0


def _fit_clone(model: TrainableModel, x, t, y_r, y_c) -> TrainableModel:
    """Module-level so a ProcessBackend can pickle the work item."""
    return refit_model(model, x, t, y_r, y_c)


@dataclass(frozen=True)
class RetrainEvent:
    """One entry of the retrainer's audit trail.

    ``kind`` is ``"trigger"`` (a policy fired), ``"fit"`` (a refit
    finished training), ``"stage"`` (a refit was registered as
    challenger; ``version`` holds its registry id) or ``"hold"`` (a
    finished refit found the challenger slot occupied and waits).
    """

    at: float
    kind: str
    reason: str
    n_outcomes: int
    version: int | None = None


class Retrainer:
    """Refit a model template on streamed outcomes and stage the result.

    Parameters
    ----------
    registry:
        The serving registry refits are staged into.  Must be the same
        registry the engine scores from (the simulator validates this).
    template:
        The unfitted-cloneable :class:`TrainableModel` each refit
        clones via :meth:`~repro.causal.base.TrainableModel.clone_unfit`
        (hyperparameters carry over, learned state never does).  When
        ``None``, the registry champion's model is used — it must then
        be a :class:`TrainableModel`.
    clock:
        Time source for the periodic trigger; pass the engine's
        :class:`~repro.runtime.ManualClock` under simulated time.
    window:
        Rolling training-window capacity in outcomes (oldest drop out).
    min_outcomes:
        Outcomes required in the window before any refit may run —
        refitting on a handful of rows stages noise.
    every_n_days:
        Periodic trigger interval in (simulated) days, or ``None``.
    every_outcomes:
        Outcome-count trigger: refit every N observed outcomes, or
        ``None``.
    drift_threshold:
        Drift-score trigger: refit when :meth:`drift_score` reaches
        this value, or ``None``.  The score is the mean per-feature
        ``|mean_window - mean_reference| / std_reference``; the
        reference freezes at construction time's first full window and
        at every refit launch.
    backend:
        :class:`~repro.runtime.ExecutionBackend` the fit runs on;
        ``None`` fits inline (still off the scoring hot path — fits
        happen inside :meth:`poll`/:meth:`observe`, between arrivals).
        The retrainer never shuts a passed backend down.
    name:
        Stem for staged versions (``"<name>-<k>"``).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`: counters
        ``retrainer.outcomes`` / ``retrainer.refits`` /
        ``retrainer.staged``, gauge ``retrainer.window_fill``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        template: TrainableModel | None = None,
        *,
        clock: Clock | None = None,
        window: int = 5_000,
        min_outcomes: int = 500,
        every_n_days: float | None = None,
        every_outcomes: int | None = None,
        drift_threshold: float | None = None,
        backend: ExecutionBackend | None = None,
        name: str = "retrained",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if min_outcomes < 2 or min_outcomes > window:
            raise ValueError(
                f"min_outcomes must be in [2, window={window}], got {min_outcomes}"
            )
        if every_n_days is not None and not every_n_days > 0:
            raise ValueError(f"every_n_days must be > 0, got {every_n_days}")
        if every_outcomes is not None and every_outcomes < 1:
            raise ValueError(f"every_outcomes must be >= 1, got {every_outcomes}")
        if drift_threshold is not None and not drift_threshold > 0:
            raise ValueError(f"drift_threshold must be > 0, got {drift_threshold}")
        if every_n_days is None and every_outcomes is None and drift_threshold is None:
            raise ValueError(
                "no trigger configured — set at least one of every_n_days, "
                "every_outcomes, drift_threshold (or drive refit_now() yourself)"
            )
        if template is not None and not isinstance(template, TrainableModel):
            raise TypeError("template must be a TrainableModel (clone_unfit/fit)")
        self.registry = registry
        self.template = template
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.window = int(window)
        self.min_outcomes = int(min_outcomes)
        self.every_s = None if every_n_days is None else float(every_n_days) * _DAY_S
        self.every_outcomes = None if every_outcomes is None else int(every_outcomes)
        self.drift_threshold = (
            None if drift_threshold is None else float(drift_threshold)
        )
        self.backend = backend
        self.name = name

        self._buffer: deque[tuple[np.ndarray, int, float, float]] = deque(
            maxlen=self.window
        )
        self._loop = DeadlineLoop(self.clock)
        if self.every_s is not None:
            self._loop.schedule_in(_TIMER_KEY, self.every_s, self._on_timer)
        self._since_count_trigger = 0
        self._reference: tuple[np.ndarray, np.ndarray] | None = None  # (mean, std)
        self._fit_future = None
        self._fit_reason: str | None = None
        self._held: TrainableModel | None = None
        self._held_reason: str | None = None
        self._n_staged = 0
        self.n_observed = 0
        self.n_refits = 0
        #: lifecycle audit trail, in order
        self.events: list[RetrainEvent] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._c_outcomes = self.metrics.counter("retrainer.outcomes")
        self._c_refits = self.metrics.counter("retrainer.refits")
        self._c_staged = self.metrics.counter("retrainer.staged")
        self._g_fill = self.metrics.gauge("retrainer.window_fill")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_buffered(self) -> int:
        """Outcomes currently in the rolling window."""
        return len(self._buffer)

    @property
    def n_staged(self) -> int:
        """Refits registered as challengers so far."""
        return self._n_staged

    @property
    def refit_pending(self) -> bool:
        """A fit is in flight or a finished fit awaits the challenger slot."""
        return self._fit_future is not None or self._held is not None

    def next_deadline(self) -> float | None:
        """Clock time of the next periodic trigger, or None."""
        return self._loop.next_deadline()

    def quiet_observations(self) -> float:
        """How many of the next :meth:`observe` calls only buffer: none
        freezes the drift reference, reaches a trigger or drift sample,
        or polls anything into action (``math.inf`` when no trigger
        counts observations)."""
        if not self.quiet_polls([self.clock.now()]):
            return 0
        quiet = math.inf
        if self._reference is None:
            quiet = self.min_outcomes - len(self._buffer) - 1
        if self.every_outcomes is not None:
            quiet = min(quiet, self.every_outcomes - self._since_count_trigger - 1)
        if self.drift_threshold is not None and not self.refit_pending:
            quiet = min(quiet, 63 - self.n_observed % 64)
        return max(0, quiet)

    def quiet_polls(self, times) -> int:
        """How many leading :meth:`poll` calls, made at the non-decreasing
        clock readings ``times``, would do nothing."""
        if self._fit_future is not None or (
            self._held is not None and self.registry.challenger is None
        ):
            return 0
        return self._loop.quiet_count(times)

    def drift_score(self) -> float:
        """Mean standardised shift of window feature means vs the reference.

        0 when no reference is frozen yet or the window is empty.
        """
        if self._reference is None or not self._buffer:
            return 0.0
        ref_mean, ref_std = self._reference
        x = np.stack([row[0] for row in self._buffer])
        return float(np.mean(np.abs(x.mean(axis=0) - ref_mean) / ref_std))

    def _event(self, kind: str, reason: str, version: int | None = None) -> None:
        self.events.append(
            RetrainEvent(
                at=self.clock.now(),
                kind=kind,
                reason=reason,
                n_outcomes=len(self._buffer),
                version=version,
            )
        )

    # ------------------------------------------------------------------
    # the observe → trigger path
    # ------------------------------------------------------------------
    def observe(self, x_row, treated: bool, y_r: float, y_c: float) -> None:
        """Buffer one decided request's features and realised outcome.

        The same attribution stream :meth:`AutoPromoter.observe`
        consumes, with the arrival's feature row alongside — treated
        rows carry their realised incremental revenue/cost, skipped
        rows are the zero-outcome control the uplift refit contrasts
        against.
        """
        x_row = np.asarray(x_row, dtype=float).ravel()
        self._buffer.append((x_row, int(bool(treated)), float(y_r), float(y_c)))
        self.n_observed += 1
        self._since_count_trigger += 1
        self._c_outcomes.inc()
        self._g_fill.set(len(self._buffer))
        if self._reference is None and len(self._buffer) >= self.min_outcomes:
            self._freeze_reference()
        if (
            self.every_outcomes is not None
            and self._since_count_trigger >= self.every_outcomes
        ):
            self._since_count_trigger = 0
            self._trigger("every_outcomes")
        elif self.drift_threshold is not None and not self.refit_pending:
            # drift check only at count-trigger granularity would lag;
            # checking every arrival on a full window is O(window·d) —
            # amortise by sampling every 64 observations
            if self.n_observed % 64 == 0 and self.drift_score() >= self.drift_threshold:
                self._trigger("drift")
        self.poll()

    def observe_block(self, x, treated, y_r, y_c) -> None:
        """Buffer a block of decided requests (one feature row each), in
        order: the same window, triggers, refits and stagings as one
        :meth:`observe` each.  Runs of observations that only buffer are
        appended as blocks; each one that can act goes through
        :meth:`observe` itself."""
        t = np.asarray(treated, dtype=bool)
        observe_in_runs(t.size, [self.block_observer(x, t, y_r, y_c)])

    def block_observer(self, x, treated, y_r, y_c) -> tuple:
        """This retrainer as an :func:`~repro.serving.registry.
        observe_in_runs` observer of a block of decided requests."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(treated, dtype=bool).astype(np.int64)
        y_r = np.asarray(y_r, dtype=float)
        y_c = np.asarray(y_c, dtype=float)

        def record(rows: slice) -> None:
            quiet = rows.stop - rows.start
            self._buffer.extend(zip(x[rows], t[rows].tolist(), y_r[rows].tolist(), y_c[rows].tolist()))
            self.n_observed += quiet
            self._since_count_trigger += quiet
            self._c_outcomes.inc(quiet)
            self._g_fill.set(len(self._buffer))

        def observe(j: int) -> None:
            self.observe(x[j], bool(t[j]), float(y_r[j]), float(y_c[j]))

        return self.quiet_observations, record, observe

    def poll(self) -> int:
        """Advance the retrainer: fire due periodic triggers, collect a
        finished fit, stage a held refit once the challenger slot frees.
        Returns the number of deadline callbacks fired (call it between
        arrivals, like :meth:`AutoPromoter.poll`; :meth:`quiet_polls`
        tells which calls would act)."""
        fired = self._loop.poll()
        self._collect_fit()
        self._stage_if_free()
        return fired

    def refit_now(self, reason: str = "manual") -> bool:
        """Force a refit launch (same window/min-outcome rules).

        Returns True when a fit was actually launched.
        """
        return self._trigger(reason)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_timer(self) -> None:
        # re-arm first: a trigger that declines (window too small) must
        # not silence the periodic policy forever
        self._loop.schedule_in(_TIMER_KEY, self.every_s, self._on_timer)
        self._trigger("every_n_days")

    def _freeze_reference(self) -> None:
        x = np.stack([row[0] for row in self._buffer])
        self._reference = (x.mean(axis=0), np.maximum(x.std(axis=0), 1e-9))

    def _template(self) -> TrainableModel:
        if self.template is not None:
            return self.template
        model = self.registry.champion.model
        if not isinstance(model, TrainableModel):
            raise TypeError(
                "no template given and the champion model is not a "
                "TrainableModel — pass template= explicitly"
            )
        return model

    def _trigger(self, reason: str) -> bool:
        if len(self._buffer) < self.min_outcomes:
            return False
        if self.refit_pending:
            # one refit in flight at a time; the window keeps rolling
            # and the next trigger sees fresher data anyway
            return False
        self._event("trigger", reason)
        x = np.stack([row[0] for row in self._buffer])
        t = np.array([row[1] for row in self._buffer], dtype=np.int64)
        y_r = np.array([row[2] for row in self._buffer])
        y_c = np.array([row[3] for row in self._buffer])
        clone = self._template().clone_unfit()
        self._fit_reason = reason
        self._freeze_reference()  # drift is now measured against this window
        if self.backend is not None:
            self._fit_future = self.backend.submit(_fit_clone, clone, x, t, y_r, y_c)
        else:
            fitted = _fit_clone(clone, x, t, y_r, y_c)
            self._finish_fit(fitted)
        return True

    def _collect_fit(self) -> None:
        if self._fit_future is None or not self._fit_future.done():
            return
        future, self._fit_future = self._fit_future, None
        self._finish_fit(future.result())

    def _finish_fit(self, fitted: TrainableModel) -> None:
        self.n_refits += 1
        self._c_refits.inc()
        reason = self._fit_reason or "manual"
        self._fit_reason = None
        self._event("fit", reason)
        # freshest fit wins a held slot: it saw strictly newer outcomes
        self._held = fitted
        self._held_reason = reason
        self._stage_if_free()
        if self._held is not None:
            self._event("hold", reason)

    def _stage_if_free(self) -> None:
        if self._held is None or self.registry.challenger is not None:
            return
        fitted, self._held = self._held, None
        reason, self._held_reason = self._held_reason or "manual", None
        self._n_staged += 1
        version = self.registry.register(fitted, name=f"{self.name}-{self._n_staged}")
        self._c_staged.inc()
        self._event("stage", reason, version=version)
