"""The benchmark's three workloads: set-up, timed phase and output checks.

Every workload runs through the public ``repro`` API on one thread.  A
workload's ``setup`` builds its inputs and fitted models; ``run`` is the
timed phase and returns an :class:`Outcome` with the end-to-end metrics,
the operation counts, the errors the correctness checks found, the
counts read from the program's results, and a fingerprint of every
decision, so a traced and an untraced run of one seed can be compared.

* ``campaign_rdrp`` — the paper's model on the whole decided-request
  path: a calibrated rDRP champion (MC dropout) and a staged rDRP
  challenger ramped by an ``AutoPromoter``, distinct users, dense
  arrivals so flushes fill ``batch_size``.  Exercises the engine's
  write path (cache misses, batch-full flushes) and MC forward.
* ``campaign_returning`` — the same campaign shape serving the rDRP's
  DRP arm (one deterministic pass) to returning users, whose working
  set fits the engine's 4096-entry cache; sparse arrivals flush on the
  50 ms deadline; a ``Retrainer`` refits once per simulated day and the
  promoter ramps each refit.  Exercises the engine's read path (cache
  hits, deadline flushes) and training inside the serving loop, and
  bypasses MC dropout.
* ``offline_rdrp`` — the data scientist's path: fit, calibrate and
  test-set AUCC of rDRP for the 12 Table I cells, batch scoring of one
  large platform cohort between the cells, then greedy allocation of
  the scores.  No serving code runs.

The amount of timed work follows ``--seconds`` deterministically: a
campaign replays ``round(seconds / rep_seconds)`` campaigns, each on its
own traffic seed, and ``offline_rdrp`` makes ``round(seconds /
pass_seconds)`` passes, where ``rep_seconds`` and ``pass_seconds`` are
nominal durations on a 2-CPU host.  Throughput is the median over
repetitions (passes, chunks), so a burst of noise on the host moves it
little; revenue is averaged over the repetitions' independent traffic.
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.ab.platform import Platform
from repro.core import allocation
from repro.core.drp import DRPModel
from repro.core.rdrp import RobustDRP
from repro.data import settings
from repro.runtime import ManualClock
from repro.serving.engine import ScoringEngine
from repro.serving.policy import GreedyROIPolicy
from repro.serving.promotion import AutoPromoter
from repro.serving.registry import ModelRegistry
from repro.serving.retraining import Retrainer
from repro.serving.simulator import TrafficReplay

# ``allocation``, ``settings`` and this module are called through their
# module attributes, so the tracer's patches there see the benchmark's
# own calls (``repro.metrics`` re-exports ``aucc`` over its module name)
aucc_module = importlib.import_module("repro.metrics.aucc")

# Every run fits the same models on the same data: the Table I
# harness's seed, plus one more corpus for the campaign challenger.
# Early stopping makes training work depend on the data, so data drawn
# from --seed would make set-up and fit times measure different work on
# every seed.  --seed draws the traffic and the scoring cohort.
MODEL_SEED = 0
# criteo-SuNo comes first: offline_rdrp scores its cohort with that model
DATASETS = ("criteo", "meituan", "alibaba")
SETTINGS = ("SuNo", "SuCo", "InNo", "InCo")
BUDGET_FRACTION = 0.3
BATCH_SIZE = 256
CACHE_SIZE = 4096
DEADLINE_MS = 50.0


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  ``full`` is the benchmark; ``tiny`` is for tests."""

    n_sufficient: int = 9000
    hidden: int = 48
    epochs: int = 80
    restarts: int = 2
    mc_samples: int = 20
    setups: int = 9  # set-ups per untraced run; setup_s is their median
    days: int = 2
    rdrp_arrivals: int = 6000  # per day
    rdrp_gap_s: float = 0.0001  # dense: 256 arrivals fill a batch in 25.6 ms
    rdrp_rep_seconds: float = 0.8
    returning_arrivals: int = 6000  # per day
    returning_gap_s: float = 0.002  # sparse: ~25 arrivals per 50 ms deadline
    returning_pool: int = 8  # a day's arrivals come from a cohort 1/8 their size
    returning_rep_seconds: float = 1.2
    retrain_window: int = 5000
    retrain_epochs: int = 10  # fixed: refit work must not depend on the streamed data
    cohort: int = 100_000
    score_chunks: int = 48  # four after each of the 12 cells
    pass_seconds: float = 9.0

    @property
    def model_params(self) -> dict:
        return dict(hidden=self.hidden, epochs=self.epochs, n_restarts=self.restarts)


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        n_sufficient=600,
        hidden=12,
        epochs=3,
        restarts=1,
        mc_samples=3,
        setups=2,
        rdrp_arrivals=600,
        returning_arrivals=800,
        retrain_window=400,
        retrain_epochs=2,
        cohort=2000,
        score_chunks=2,
    ),
}


@dataclass
class Outcome:
    """What one timed phase produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    timed_s: float = 0.0  # wall time of the measured calls
    host_factor: float | None = None  # an untraced run's median host slowness


class FiniteScores(GreedyROIPolicy):
    """The engine's default policy, counting the scores it hands out and
    the non-finite ones among them (a NaN would pass the pacer's
    threshold test and be treated)."""

    def __init__(self) -> None:
        self.rows = 0
        self.nonfinite = 0

    def score_batch(self, model, x):
        scores = super().score_batch(model, x)
        self.rows += scores.shape[0]
        self.nonfinite += int(np.count_nonzero(~np.isfinite(scores)))
        return scores


class ReturningPlatform(Platform):
    """A platform whose users come back.

    Each day's ``n`` arrivals are drawn with replacement from a cohort
    of ``n // pool_ratio`` users, so the same feature rows recur within
    a day and the engine's score cache serves the repeats.
    """

    def __init__(self, *args, pool_ratio: int, draw_seed: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pool_ratio = pool_ratio
        self._draws = np.random.default_rng(draw_seed)

    def daily_cohort(self, n, day, **kwargs):
        pool = super().daily_cohort(max(3, n // self.pool_ratio), day, **kwargs)
        return pool.subset(self._draws.integers(0, pool.n, n))


def fold_waits(latencies_s, cache_hits: int) -> tuple[float, float, int]:
    """Submit-to-score wait quantiles over every decided request.

    The engine logs a wait only for requests the model scored; a cache
    hit is answered at submit, so it enters here as a 0 ms wait.
    Returns ``(p50_ms, p99_ms, samples)``.
    """
    waits = np.concatenate([np.asarray(latencies_s, dtype=float), np.zeros(int(cache_hits))])
    if waits.size == 0:
        raise ValueError("no decided requests")
    p50, p99 = np.quantile(waits, [0.5, 0.99])
    return float(p50) * 1000.0, float(p99) * 1000.0, int(waits.size)


class Timing:
    """Set-up builds and the host-speed factor of one run.

    An untraced run builds the set-up once before the timed phase and
    ``extra`` more times between the timed phase's steps, spread evenly,
    so set-up times sample the whole run rather than its first seconds.
    The state the timed phase uses is the first; every build makes the
    same one.  With a :class:`hostspeed.HostSpeed`, every timed step is
    scaled by the host's slowness measured just before it; without one
    (the traced run) timings are wall time.
    """

    def __init__(self, workload, extra: int, speed=None) -> None:
        self.workload = workload
        self.extra = extra
        self.speed = speed
        self.seconds: list[float] = []  # per set-up, scaled
        self.fits: list[float] = []  # a campaign set-up's fit + calibrate seconds, scaled

    def factor(self) -> float:
        return self.speed.factor() if self.speed else 1.0

    def setup(self):
        factor = self.factor()
        start = time.perf_counter()
        state = self.workload.setup()
        self.seconds.append((time.perf_counter() - start) / factor)
        self.fits.append(getattr(state, "fit_calibrate_s", 0.0) / factor)
        return state

    def before(self, steps: int) -> list[int]:
        """How many extra set-ups to build before each of ``steps`` steps."""
        counts = [0] * steps
        for j in range(1, self.extra + 1):
            counts[min(steps - 1, j * steps // (self.extra + 1))] += 1
        return counts


def repetitions(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _fit_rdrp(sizes: Sizes, data, seed: int) -> tuple[RobustDRP, float]:
    """Fit and calibrate one rDRP; returns it with the seconds taken."""
    start = time.perf_counter()
    model = RobustDRP(random_state=seed, mc_samples=sizes.mc_samples, **sizes.model_params)
    tr, cal = data.train, data.calibration
    model.fit(tr.x, tr.t, tr.y_r, tr.y_c)
    model.calibrate(cal.x, cal.t, cal.y_r, cal.y_c)
    return model, time.perf_counter() - start


def _test_aucc(model, data) -> float:
    te = data.test
    return float(aucc_module.aucc(model.predict_roi(te.x), te.t, te.y_r, te.y_c))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
@dataclass
class CampaignState:
    models: bytes  # pickled fitted models: every campaign starts from a fresh copy
    fit_calibrate_s: float
    aucc: float


class Campaign:
    """Multi-day ``TrafficReplay.replay_days`` campaigns on criteo traffic."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, arrivals: int, gap_s: float, rep_seconds: float) -> None:
        self.sizes = sizes
        self.seed = seed
        self.arrivals = arrivals  # per day
        self.gap_s = gap_s
        self.rep_seconds = rep_seconds

    def run(self, state: CampaignState, seconds: float, timing: Timing) -> Outcome:
        """Replay one campaign per traffic seed drawn from ``seed``."""
        per_rep = self.sizes.days * self.arrivals
        reps = repetitions(seconds, self.rep_seconds)
        before = timing.before(reps)
        rates, errors, done = [], [], []
        failed = 0
        timed = 0.0
        for i, traffic_seed in enumerate(np.random.SeedSequence(self.seed).generate_state(reps)):
            for _ in range(before[i]):
                timing.setup()
            sim = self.build(state, int(traffic_seed))
            factor = timing.factor()
            start = time.perf_counter()
            try:
                result = sim["replay"].replay_days(
                    self.sizes.days, self.arrivals, budget_fraction=BUDGET_FRACTION
                )
            except Exception as exc:  # a raising replay fails its campaign's days
                failed += per_rep
                errors.append(f"replay_days raised {exc!r}")
                continue
            wall = time.perf_counter() - start
            timed += wall
            rates.append(per_rep / wall * factor)
            errors.extend(self.check(result, sim))
            done.append((result, sim))
        attempted = reps * per_rep
        if not done:
            return Outcome({}, attempted, failed, errors, timed_s=timed)
        online = sum(result.total_incremental_revenue for result, _sim in done)
        oracle = sum(day.oracle_revenue for result, _sim in done for day in result.days)
        return Outcome(
            metrics={
                "events_per_s": statistics.median(rates),
                "incremental_revenue": online / len(done),
                "revenue_ratio": online / oracle,
                "fit_calibrate_s": statistics.median(timing.fits),
                "aucc_rdrp": state.aucc,
            },
            attempted=attempted,
            failed=failed,
            errors=errors,
            counts=self.counts(done, state),
            fingerprint=_digest(
                *[day.treated for result, _sim in done for day in result.days],
                np.array([result.total_incremental_revenue for result, _sim in done]),
            ),
            timed_s=timed,
        )

    def check(self, result, sim) -> list[str]:
        """Every arrival decided once, spend within budget, scores finite."""
        errors = []
        engine, policy = sim["engine"], sim["policy"]
        for d, day in enumerate(result.days, start=1):
            stats = day.engine_stats
            if day.n_events != self.arrivals or stats["requests"] != self.arrivals:
                errors.append(
                    f"day {d}: {day.n_events} events, {stats['requests']} requests "
                    f"for {self.arrivals} arrivals"
                )
            if stats["cache_hits"] + stats["rows_scored"] != stats["requests"]:
                errors.append(f"day {d}: {stats} does not resolve every request once")
            if len(day.latencies) != stats["rows_scored"]:
                errors.append(f"day {d}: {len(day.latencies)} waits for {stats['rows_scored']} scored rows")
            if not day.spend <= day.budget:
                errors.append(f"day {d}: spend {day.spend} over budget {day.budget}")
        if not result.total_spend <= result.total_base_budget * (1 + 1e-12):
            errors.append(
                f"campaign spend {result.total_spend} over base budget {result.total_base_budget}"
            )
        if engine.n_pending or engine.n_inflight:
            errors.append("engine still holds requests after the campaign")
        if policy.nonfinite:
            errors.append(f"{policy.nonfinite} non-finite scores of {policy.rows}")
        return errors

    def counts(self, done, state) -> dict[str, float]:
        days = [day for result, _sim in done for day in result.days]

        def total(stat: str) -> int:
            return sum(day.engine_stats[stat] for day in days)

        hits, requests = total("cache_hits"), total("requests")
        p50, p99, n = fold_waits(np.concatenate([day.latencies for day in days]), hits)
        return {
            "serving.engine.rows_per_model_call": total("rows_scored") / max(total("model_calls"), 1),
            "serving.engine.cache_hit_rate": hits / requests,
            "serving.engine.deadline_flush_share": total("flush_deadline") / max(total("flushes"), 1),
            "serving.engine.wait_p50_sim_ms": p50,
            "serving.engine.wait_p99_sim_ms": p99,
            "serving.engine.wait_samples": n,
            "serving.pacing.refreshes": sum(len(day.pacing_history) for day in days),
            "serving.pacing.admit_rate": sum(day.n_treated for day in days) / requests,
            "serving.promotion.events": sum(len(sim["promoter"].events) for _r, sim in done),
            "serving.retraining.refits": sum(
                sim["retrainer"].n_refits for _r, sim in done if "retrainer" in sim
            ),
            "metrics.aucc.below_random_cells": int(state.aucc < 0.5),
        }

    def _serving(self, registry) -> dict:
        """Engine, policy and promoter on one simulated clock."""
        clock = ManualClock()
        policy = FiniteScores()
        engine = ScoringEngine(
            registry,
            policy=policy,
            batch_size=BATCH_SIZE,
            cache_size=CACHE_SIZE,
            max_latency_ms=DEADLINE_MS,
            clock=clock,
            latency_log_size=None,
        )
        promoter = AutoPromoter(
            registry,
            clock=clock,
            ramp=(0.05, 0.25, 0.95),
            step_every_s=self.arrivals * self.gap_s / 2.0,  # two steps a simulated day
            min_decided=200,
            check_every=100,
            hold_decided=2000,
        )
        return {"clock": clock, "engine": engine, "policy": policy, "promoter": promoter}


class CampaignRDRP(Campaign):
    """Champion and staged challenger are both calibrated rDRPs."""

    name = "campaign_rdrp"

    def __init__(self, sizes: Sizes, seed: int) -> None:
        super().__init__(sizes, seed, sizes.rdrp_arrivals, sizes.rdrp_gap_s, sizes.rdrp_rep_seconds)

    def setup(self) -> CampaignState:
        sizes = self.sizes
        fits = []
        for data_seed in (MODEL_SEED, MODEL_SEED + 1):
            data = settings.make_setting("criteo", "SuNo", n_sufficient=sizes.n_sufficient, random_state=data_seed)
            fits.append((*_fit_rdrp(sizes, data, data_seed), data))
        (champion, champion_s, data), (challenger, challenger_s, _other) = fits
        return CampaignState(
            models=pickle.dumps((champion, challenger)),
            fit_calibrate_s=champion_s + challenger_s,
            aucc=_test_aucc(champion, data),
        )

    def build(self, state: CampaignState, traffic_seed: int) -> dict:
        champion, challenger = pickle.loads(state.models)
        registry = ModelRegistry(random_state=traffic_seed)
        registry.register(champion, name="champion", promote=True)
        registry.register(challenger, name="challenger")
        sim = self._serving(registry)
        sim["replay"] = TrafficReplay(
            Platform("criteo", random_state=traffic_seed),
            sim["engine"],
            feedback=True,
            interarrival_s=self.gap_s,
            promoter=sim["promoter"],
            paired_outcomes=True,
            random_state=traffic_seed + 1,
        )
        return sim


class CampaignReturning(Campaign):
    """The rDRP's DRP arm serves returning users; a Retrainer refits it."""

    name = "campaign_returning"

    def __init__(self, sizes: Sizes, seed: int) -> None:
        super().__init__(
            sizes, seed, sizes.returning_arrivals, sizes.returning_gap_s, sizes.returning_rep_seconds
        )

    def setup(self) -> CampaignState:
        sizes = self.sizes
        data = settings.make_setting("criteo", "SuNo", n_sufficient=sizes.n_sufficient, random_state=MODEL_SEED)
        model, fit_s = _fit_rdrp(sizes, data, MODEL_SEED)
        return CampaignState(
            models=pickle.dumps(model.drp), fit_calibrate_s=fit_s, aucc=_test_aucc(model, data)
        )

    def build(self, state: CampaignState, traffic_seed: int) -> dict:
        sizes = self.sizes
        registry = ModelRegistry(random_state=traffic_seed)
        registry.register(pickle.loads(state.models), name="champion", promote=True)
        sim = self._serving(registry)
        sim["retrainer"] = Retrainer(
            registry,
            # a fixed number of epochs, no early stopping, all rows trained
            template=DRPModel(
                patience=None,
                val_fraction=0.0,
                random_state=MODEL_SEED,
                **{**sizes.model_params, "epochs": sizes.retrain_epochs},
            ),
            clock=sim["clock"],
            window=sizes.retrain_window,
            min_outcomes=sizes.retrain_window // 10,
            every_outcomes=self.arrivals,  # one refit per simulated day
        )
        platform = ReturningPlatform(
            "criteo", pool_ratio=sizes.returning_pool, draw_seed=traffic_seed + 2, random_state=traffic_seed
        )
        sim["replay"] = TrafficReplay(
            platform,
            sim["engine"],
            feedback=True,
            interarrival_s=self.gap_s,
            promoter=sim["promoter"],
            retrainer=sim["retrainer"],
            paired_outcomes=True,
            random_state=traffic_seed + 1,
        )
        return sim


# ---------------------------------------------------------------------------
# offline
# ---------------------------------------------------------------------------
@dataclass
class OfflineState:
    cells: list  # SettingData per Table I cell
    cohort: object  # one large platform cohort (RCTDataset)


class OfflineRDRP:
    """Fit, calibrate and AUCC of rDRP on the 12 Table I cells, then score
    and allocate one large platform cohort with the criteo-SuNo model."""

    name = "offline_rdrp"

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed

    def setup(self) -> OfflineState:
        sizes = self.sizes
        cells = [
            settings.make_setting(ds, st, n_sufficient=sizes.n_sufficient, random_state=MODEL_SEED)
            for ds in DATASETS
            for st in SETTINGS
        ]
        cohort = Platform("criteo", random_state=self.seed).daily_cohort(sizes.cohort, day=1)
        return OfflineState(cells=cells, cohort=cohort)

    def run(self, state: OfflineState, seconds: float, timing: Timing) -> Outcome:
        """``round(seconds / pass_seconds)`` identical passes over the 12
        cells and the cohort; every pass must produce the same AUCCs and
        scores.  ``fit_calibrate_s`` sums each cell's median time.

        The first cell is criteo-SuNo; its model scores the cohort a few
        chunks after each cell, so the scoring rate samples the whole run
        rather than one burst per pass.
        """
        passes = repetitions(seconds, self.sizes.pass_seconds)
        cohort = state.cohort
        per_pass = len(state.cells) + cohort.n
        chunks = np.array_split(cohort.x, self.sizes.score_chunks)
        after_cell = np.array_split(np.arange(len(chunks)), len(state.cells))
        before = timing.before(passes * len(state.cells))
        errors: list[str] = []
        failed = 0
        timed = 0.0
        cell_times: list[list[float]] = [[] for _ in state.cells]
        rates: list[float] = []
        prints = []
        first = None
        for n in range(passes):
            auccs, scorer, parts = [], None, []
            for i, cell in enumerate(state.cells):
                for _ in range(before[n * len(state.cells) + i]):
                    timing.setup()
                label = f"{cell.dataset}-{cell.setting}"
                factor = timing.factor()
                start = time.perf_counter()
                try:
                    model, took = _fit_rdrp(self.sizes, cell, MODEL_SEED)
                    score = _test_aucc(model, cell)
                except Exception as exc:  # a raising cell fails alone
                    failed += 1
                    errors.append(f"{label} raised {exc!r}")
                    model = None
                finally:
                    timed += time.perf_counter() - start
                if model is not None:
                    cell_times[i].append(took / factor)
                    if np.isfinite(score):
                        auccs.append(score)
                    else:
                        failed += 1
                        errors.append(f"{label}: AUCC {score}")
                    if i == 0:
                        scorer = model
                if scorer is None:
                    continue
                for j in after_cell[i]:
                    start = time.perf_counter()
                    parts.append(scorer.predict_roi(chunks[j]))
                    took = time.perf_counter() - start
                    timed += took
                    rates.append(chunks[j].shape[0] / took * factor)
            if scorer is None:
                failed += cohort.n
                errors.append("no criteo-SuNo model to score the cohort with")
                continue
            scores = np.concatenate(parts)
            bad = int(np.count_nonzero(~np.isfinite(scores)))
            if bad:
                failed += bad
                errors.append(f"{bad} non-finite cohort scores")
            prints.append(_digest(np.array(auccs), scores))
            if first is None:
                first = (auccs, scores)
        if len(set(prints)) > 1:
            errors.append(f"passes disagree: {prints}")
        attempted = passes * per_pass
        if first is None:
            return Outcome({}, attempted, failed, errors, timed_s=timed)

        auccs, scores = first
        budget = BUDGET_FRACTION * float(np.sum(cohort.tau_c))
        start = time.perf_counter()
        chosen = allocation.greedy_allocation(scores, cohort.tau_c, budget, rewards=cohort.tau_r)
        best = allocation.greedy_allocation(
            cohort.tau_r / cohort.tau_c, cohort.tau_c, budget, rewards=cohort.tau_r
        )
        timed += time.perf_counter() - start
        for name, alloc in (("rDRP", chosen), ("true-ROI", best)):
            if not alloc.total_cost <= budget:
                errors.append(f"{name} allocation spends {alloc.total_cost} over {budget}")
        return Outcome(
            metrics={
                "events_per_s": statistics.median(rates),
                "incremental_revenue": chosen.total_reward,
                "revenue_ratio": chosen.total_reward / best.total_reward,
                "fit_calibrate_s": sum(statistics.median(t) for t in cell_times if t),
                "aucc_rdrp": float(np.mean(auccs)),
            },
            attempted=attempted,
            failed=failed,
            errors=errors,
            counts={"metrics.aucc.below_random_cells": sum(score < 0.5 for score in auccs)},
            fingerprint=_digest(np.array(prints), chosen.selected),
            timed_s=timed,
        )


WORKLOADS = {cls.name: cls for cls in (CampaignRDRP, CampaignReturning, OfflineRDRP)}
