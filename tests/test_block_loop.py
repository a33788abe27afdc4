"""The block decision loop and the block counterparts it runs on.

Every block form is pinned against the scalar calls it stands for: the
same answers and the same state afterwards, with the block boundaries
chosen by Hypothesis so that gates, refreshes and triggers fall inside
blocks.  :class:`~repro.serving.simulator.TrafficReplay`'s block loop is
pinned against the per-row loop it replaced (``_parent_replay``, a
verbatim copy), byte for byte, on campaign-shaped replays.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import _parent_replay
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ab.platform import Platform
from repro.causal.base import TrainableModel
from repro.linear import RidgeRegression
from repro.obs import Histogram, MetricsRegistry
from repro.runtime import DeadlineLoop, ManualClock, ThreadBackend
from repro.serving import (
    AutoPromoter,
    BudgetPacer,
    ModelRegistry,
    Retrainer,
    ScoringEngine,
    ShardedScoringEngine,
    TrafficReplay,
)
from repro.serving import simulator
from repro.serving.registry import OutcomeLedger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class Linear:
    """A deterministic scorer: ``x @ w``."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(x) @ self.w


class NetRidge(TrainableModel):
    """A cheap refit for the retrainer: ridge of the net outcome on the
    features, whatever was treated."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha
        self._ridge = None

    def fit(self, x, y):
        self._ridge = RidgeRegression(alpha=self.alpha).fit(np.asarray(x), np.asarray(y))
        return self

    def predict_roi(self, x):
        return self._ridge.predict(np.atleast_2d(x))


def _chunks(data, n: int, max_size: int = 40) -> list[int]:
    """Block sizes covering ``n`` rows, drawn by Hypothesis."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(data.draw(st.integers(1, max_size)))
    return sizes


# ---------------------------------------------------------------------------
# runtime: the clock and the deadline loop
# ---------------------------------------------------------------------------
class TestClock:
    def test_advance_to_lands_on_the_exact_float(self):
        clock = ManualClock(0.1)
        assert clock.advance_to(0.30000000000000004) == 0.30000000000000004
        with pytest.raises(ValueError, match="back"):
            clock.advance_to(0.2)

    @given(
        due=st.floats(0.0, 2.0),
        times=st.lists(st.floats(0.0, 2.0), max_size=12).map(sorted),
    )
    def test_quiet_count_is_where_poll_first_fires(self, due, times):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired = []
        loop.schedule("k", due, lambda: fired.append(clock.now()))
        quiet = loop.quiet_count(times)
        for i, t in enumerate(times):
            clock.advance_to(t)
            if loop.poll():
                assert i == quiet
                break
        else:
            assert quiet == len(times)

    @given(now=st.floats(0.0, 1e4), gap=st.floats(0.0, 5.0), n=st.integers(1, 60))
    def test_arrival_times_step_like_one_advance_per_arrival(self, now, gap, n):
        clock = ManualClock(now)
        want = [clock.now()]
        for _ in range(n - 1):
            target = clock.now() + gap
            clock.advance(max(0.0, target - clock.now()))
            want.append(clock.now())
        assert simulator._arrival_times(now, gap, n).tolist() == want


# ---------------------------------------------------------------------------
# observability: the latency histogram
# ---------------------------------------------------------------------------
class TestHistogramBlock:
    @given(values=st.lists(st.floats(0.0, 10.0) | st.sampled_from([0.0, 1e-12, 1e-9])))
    def test_record_block_equals_records(self, values):
        one, block = Histogram("h"), Histogram("h")
        for v in values:
            one.record(v)
        block.record_block(values)
        assert block.snapshot() == one.snapshot()

    def test_invalid_value_raises_after_the_values_before_it(self):
        one, block = Histogram("h"), Histogram("h")
        one.record_block([0.5, 2.0])
        with pytest.raises(ValueError):
            block.record_block([0.5, 2.0, -1.0, 3.0])
        assert block.snapshot() == one.snapshot()


# ---------------------------------------------------------------------------
# registry: routing and outcome ledgers
# ---------------------------------------------------------------------------
def _two_arm_registry(split: float, seed: int = 5) -> ModelRegistry:
    registry = ModelRegistry(traffic_split=split, random_state=seed)
    registry.register(Linear([1.0, 0.0]), promote=True)
    registry.register(Linear([0.0, 1.0]))
    return registry


class TestRegistryBlocks:
    @given(
        split=st.sampled_from([0.0, 0.01, 0.4, 1.0]),
        keys=st.lists(st.none() | st.integers(0, 50), max_size=30),
        keyed=st.booleans(),
    )
    def test_route_block_equals_routes(self, split, keys, keyed):
        one, block = _two_arm_registry(split), _two_arm_registry(split)
        n = len(keys)
        want = [one.route(k if keyed else None).version for k in keys]
        got = block.route_block(n, keys if keyed else None)
        assert got.tolist() == want
        assert block._rng.bit_generator.state == one._rng.bit_generator.state

    @given(
        rows=st.lists(
            st.tuples(st.booleans(), st.floats(-3, 3), st.floats(-3, 3), st.sampled_from([1, 2])),
            max_size=40,
        )
    )
    def test_ledger_and_attribution_blocks_equal_records(self, rows):
        ledger, ledger_block = OutcomeLedger(), OutcomeLedger()
        one, block = _two_arm_registry(0.5), _two_arm_registry(0.5)
        for treated, y_r, y_c, version in rows:
            ledger.record(treated, y_r, y_c)
            one.record_outcome(version, treated, y_r, y_c)
        treated, y_r, y_c, versions = (np.array(col) for col in zip(*rows)) if rows else [np.zeros(0)] * 4
        ledger_block.record_block(treated, y_r, y_c)
        block.record_outcome_block(versions, treated, y_r, y_c)
        assert ledger_block == ledger
        assert [v.ledger for v in block.versions()] == [v.ledger for v in one.versions()]

    def test_unknown_version_raises_after_the_rows_before_it(self):
        one, block = _two_arm_registry(0.5), _two_arm_registry(0.5)
        one.record_outcome(1, True, 1.0, 0.5)
        one.record_outcome(2, False, 0.0, 0.0)
        with pytest.raises(KeyError):
            block.record_outcome_block(
                np.array([1, 2, 9, 1]),
                np.array([True, False, True, True]),
                np.array([1.0, 0.0, 3.0, 1.0]),
                np.array([0.5, 0.0, 1.0, 0.5]),
            )
        assert [v.ledger for v in block.versions()] == [v.ledger for v in one.versions()]


# ---------------------------------------------------------------------------
# the pacer
# ---------------------------------------------------------------------------
def _pacer_state(pacer: BudgetPacer) -> tuple:
    return (
        pacer.n_seen,
        pacer.n_admitted,
        pacer.spent,
        pacer.offered_cost,
        pacer.threshold_,
        pacer.roi_floor_,
        pacer._last_refresh,
        tuple(pacer.history),
        tuple(pacer.offered_trace),
        pacer._traffic.stop,
        pacer._traffic.columns.tobytes(),
        pacer._outcomes.stop,
        pacer._outcomes.columns.tobytes(),
        pacer.metrics.snapshot().to_dict() if pacer.metrics is not None else None,
    )


def _sqrt_curve(progress: float) -> float:
    return progress**0.5


def _pace_both(sizes, params, scores, costs, revenue, cost, feedback):
    """Offer every arrival to one pacer per row and to another in blocks
    of the next of ``sizes``; return both pacers and their answers."""
    one = BudgetPacer(**params, metrics=MetricsRegistry())
    block = BudgetPacer(**params, metrics=MetricsRegistry())
    admits, spends = [], []
    for i, (s, c) in enumerate(zip(scores, costs)):
        admit = one.offer(s, c)
        admits.append(admit)
        spends.append(one.spent)
        if feedback:
            one.observe_outcome(int(admit), revenue[i] * admit, cost[i] * admit)
    got_admits, got_spends = [], []
    j = 0
    scores, costs = np.array(scores, dtype=float), np.array(costs, dtype=float)
    while j < len(scores):
        size = next(sizes)
        admit, spent = block.offer_block(scores[j : j + size], costs[j : j + size])
        assert 1 <= admit.size <= size
        if feedback:
            rows = slice(j, j + admit.size)
            block.observe_outcome_block(admit, np.array(revenue[rows]) * admit, np.array(cost[rows]) * admit)
        got_admits += admit.tolist()
        got_spends += spent.tolist()
        j += admit.size
    return one, block, (admits, spends), (got_admits, got_spends)


class TestOfferBlock:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        n=st.integers(1, 160),
        budget=st.floats(0.2, 40.0),
        horizon=st.integers(4, 200),
        window=st.integers(2, 40),
        refresh_every=st.integers(1, 16),
        warmup=st.integers(1, 30),
        lookahead=st.integers(1, 50),
        slack=st.sampled_from([0.0, 0.05, 0.5]),
        curve=st.sampled_from([None, _sqrt_curve]),
        feedback=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_offer_block_equals_offers(
        self, data, n, budget, horizon, window, refresh_every, warmup, lookahead, slack, curve, feedback, seed
    ):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n).round(2).tolist()  # rounding makes ties with the threshold
        costs = rng.uniform(0.05, 2.0, n).tolist()
        revenue = (rng.random(n) < 0.5).astype(float).tolist()
        cost = (rng.random(n) < 0.7).astype(float).tolist()
        params = dict(
            budget=budget, horizon=horizon, window=window, refresh_every=refresh_every, warmup=warmup,
            lookahead=lookahead, curve_slack=slack, target_curve=curve, min_arm_outcomes=2,
        )
        sizes = iter(lambda: data.draw(st.integers(1, 50)), None)
        one, block, want, got = _pace_both(sizes, params, scores, costs, revenue, cost, feedback)
        assert got == want
        assert _pacer_state(block) == _pacer_state(one)

    @pytest.mark.parametrize("max_block", [1, 7, 64, 300])
    def test_warmup_refreshes_lockouts_and_cap_rejects_all_occur(self, max_block):
        # a tight budget, a generous slack and feedback: the stream passes
        # the warmup boundary, refreshes every 5 arrivals, locks out when
        # spend runs ahead of the curve and hits the cap
        rng = np.random.default_rng(3)
        n = 300
        scores = rng.normal(size=n).tolist()
        costs = rng.uniform(0.1, 1.5, n).tolist()
        revenue = (rng.random(n) < 0.6).astype(float).tolist()
        cost = (rng.random(n) < 0.5).astype(float).tolist()
        params = dict(budget=25.0, horizon=n, window=40, refresh_every=5, warmup=12, lookahead=2, curve_slack=0.3, min_arm_outcomes=2)
        sizes = iter(lambda: int(rng.integers(1, max_block + 1)), None)
        one, block, want, got = _pace_both(sizes, params, scores, costs, revenue, cost, True)
        assert got == want
        assert _pacer_state(block) == _pacer_state(one)
        counters = one.metrics.snapshot().to_dict()
        assert counters["pacer.lockouts"]["value"] > 0
        thresholds = {n_seen: thr for n_seen, _spent, thr in one.history}
        threshold, capped = 0.0, 0
        for i, (s, admit) in enumerate(zip(scores, want[0]), start=1):
            threshold = thresholds.get(i, threshold)
            capped += (i >= 12) and s >= threshold and not admit
        assert capped > 0  # admitted by the threshold, refused by the cap

    def test_invalid_arrival_raises_where_offer_would(self):
        one = BudgetPacer(10.0, 50, warmup=2, metrics=MetricsRegistry())
        block = BudgetPacer(10.0, 50, warmup=2, metrics=MetricsRegistry())
        for s, c in [(0.1, 1.0), (0.2, 1.0)]:
            one.offer(s, c)
        scores, costs = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="cost"):
            j = 0
            while j < 4:
                j += block.offer_block(scores[j:], costs[j:])[0].size
        assert _pacer_state(block) == _pacer_state(one)
        with pytest.raises(ValueError, match="t must be"):
            block.observe_outcome_block(np.array([1, 2]), np.zeros(2), np.zeros(2))
        one.observe_outcome(1, 0.0, 0.0)
        assert _pacer_state(block) == _pacer_state(one)


# ---------------------------------------------------------------------------
# the promoter
# ---------------------------------------------------------------------------
def _promoter_state(promoter: AutoPromoter) -> tuple:
    registry = promoter.registry
    return (
        tuple(promoter.events),
        promoter._state,
        promoter._since_check,
        promoter._ramp_idx,
        promoter._watching,
        promoter._baseline,
        promoter._baseline_moments,
        tuple((v.version, v.stage, v.ledger) for v in registry.versions()),
        registry.traffic_split,
        registry.champion.version,
        None if registry.challenger is None else registry.challenger.version,
        promoter.metrics.snapshot().to_dict(),
    )


class TestPromoterObserveBlock:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        n=st.integers(1, 400),
        check_every=st.integers(1, 12),
        min_decided=st.integers(2, 30),
        extra_hold=st.integers(0, 60),
        edge=st.floats(-0.6, 0.6),
        seed=st.integers(0, 2**16),
    )
    def test_observe_block_equals_observes(self, data, n, check_every, min_decided, extra_hold, edge, seed):
        def build():
            clock = ManualClock()
            registry = _two_arm_registry(0.5, seed)
            return AutoPromoter(
                registry, clock=clock, ramp=(0.5,), check_every=check_every, min_decided=min_decided,
                hold_decided=min_decided + extra_hold, metrics=MetricsRegistry(),
            )

        one, block = build(), build()
        one.poll()
        block.poll()
        rng = np.random.default_rng(seed)
        versions = rng.choice([1, 2], n)
        treated = rng.random(n) < 0.6
        y_r = (rng.random(n) < 0.4 + edge * (versions == 2)).astype(float) * treated
        y_c = (rng.random(n) < 0.3).astype(float) * treated
        for row in zip(versions.tolist(), treated.tolist(), y_r.tolist(), y_c.tolist()):
            one.observe(*row)
        j = 0
        for size in _chunks(data, n, 60):
            rows = slice(j, j + size)
            block.observe_block(versions[rows], treated[rows], y_r[rows], y_c[rows])
            j += size
        assert _promoter_state(block) == _promoter_state(one)


class TestWelchScreen:
    """The gate skips the t interval only where no verdict is possible."""

    @staticmethod
    def _ramping(level: float, hold: int):
        registry = _two_arm_registry(0.5)
        promoter = AutoPromoter(registry, clock=ManualClock(), ramp=(0.5,), level=level, min_decided=2, hold_decided=hold)
        promoter.poll()  # opens the ramp
        return promoter

    @settings(max_examples=100, deadline=None)
    @given(
        level=st.sampled_from([0.8, 0.95, 0.99]),
        n_a=st.integers(2, 10**7),
        n_b=st.integers(2, 10**7),
        # zero-variance arms, and variances whose Welch df stays finite
        var_a=st.sampled_from([0.0, 1e-12]) | st.floats(1e-9, 4.0),
        var_b=st.sampled_from([0.0]) | st.floats(1e-9, 4.0),
        reach=st.floats(0.0, 3.0) | st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.05, 1.15]),
        sign=st.sampled_from([-1.0, 1.0]),
        holding=st.booleans(),
        confirming=st.booleans(),
    )
    def test_screened_gate_acts_like_the_full_interval(
        self, level, n_a, n_b, var_a, var_b, reach, sign, holding, confirming
    ):
        # a delta at ``reach`` times the normal-quantile bound, on moments
        # whose Welch df runs from ~1 to ~1e7
        from repro.serving.promotion import _normal_quantile
        from repro.utils.stats import welch_ci_from_moments

        se = math.sqrt(var_a / n_a + var_b / n_b)
        delta = sign * reach * _normal_quantile(1.0 - 0.5 * (1.0 - level)) * se
        watched, baseline = (0.1 + delta, var_a, n_a), (0.1, var_b, n_b)

        def check(screen: bool) -> tuple:
            promoter = self._ramping(level, hold=2 if confirming else 10**9)
            if holding:  # the hold window after a promotion
                promoter._promote(welch_ci_from_moments(*watched, *baseline, level=level))
                for _ in range(2):
                    promoter.registry.record_outcome(promoter.watching, True, 1.0, 0.0)
            promoter._arms = lambda: (watched, baseline)
            if not screen:
                promoter._z_screen = -1.0  # never skips the interval
            promoter._check()
            return tuple(promoter.events), promoter.state

        assert check(screen=True) == check(screen=False)


# ---------------------------------------------------------------------------
# the retrainer
# ---------------------------------------------------------------------------
def _retrainer_state(retrainer: Retrainer) -> tuple:
    ref = retrainer._reference
    return (
        tuple(retrainer.events),
        tuple((x.tobytes(), t, r, c) for x, t, r, c in retrainer._buffer),
        retrainer.n_observed,
        retrainer._since_count_trigger,
        retrainer.n_refits,
        retrainer.n_staged,
        None if ref is None else (ref[0].tobytes(), ref[1].tobytes()),
        retrainer._held is None,
        tuple((v.version, v.name, v.stage) for v in retrainer.registry.versions()),
    )


class TestRetrainerObserveBlock:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        n=st.integers(1, 300),
        window=st.integers(20, 80),
        min_outcomes=st.integers(2, 20),
        every=st.none() | st.integers(1, 90),
        drift=st.none() | st.sampled_from([0.05, 0.3]),
        demote_at=st.none() | st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    def test_observe_block_equals_observes(self, data, n, window, min_outcomes, every, drift, demote_at, seed):
        if every is None and drift is None:
            every = 50

        def build():
            registry = ModelRegistry(random_state=seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(60, 3))
            registry.register(NetRidge().fit(x, x[:, 0]), promote=True)
            return Retrainer(
                registry, template=NetRidge(), clock=ManualClock(), window=window,
                min_outcomes=min_outcomes, every_outcomes=every, drift_threshold=drift,
            )

        one, block = build(), build()
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(n, 3)) + np.linspace(0.0, 2.0, n)[:, None]  # drifting features
        treated = rng.random(n) < 0.5
        y_r = x[:, 0] * treated
        y_c = 0.1 * treated
        split = n if demote_at is None else min(demote_at, n)
        for i in range(n):
            if i == split and one.registry.challenger is not None:
                one.registry.demote()  # frees the slot for a held refit
            one.observe(x[i], bool(treated[i]), float(y_r[i]), float(y_c[i]))
        for lo, hi in ((0, split), (split, n)):
            if lo == split < n and block.registry.challenger is not None:
                block.registry.demote()
            j = lo
            for size in _chunks(data, hi - lo, 50):
                rows = slice(j, min(j + size, hi))
                block.observe_block(x[rows], treated[rows], y_r[rows], y_c[rows])
                j += size
        assert _retrainer_state(block) == _retrainer_state(one)


# ---------------------------------------------------------------------------
# the engine: submit_batch against N stamped submits
# ---------------------------------------------------------------------------
def _engine(batch_size, cache, split, deadline_ms, seed=7):
    clock = ManualClock()
    engine = ScoringEngine(
        _two_arm_registry(split, seed), batch_size=batch_size, cache_size=6 if cache else 0,
        max_latency_ms=deadline_ms, clock=clock, latency_log_size=5,
    )
    return engine, clock


def _engine_state(engine: ScoringEngine) -> tuple:
    table = engine._table
    live = slice(0, table.stop - table.base)
    return (
        engine.stats,
        engine.n_pending,
        engine.next_deadline(),
        tuple(engine.latencies),
        engine.latencies_dropped,
        engine.latency_hist.snapshot(),
        table.base,
        table.stop,
        table.state[live].tobytes(),
        table.version[live].tobytes(),
        table.score[live][table.state[live] == 1].tobytes(),
        list(engine._cache._entries.items()) if engine.cache_size else None,
        tuple((v.version, v.requests, v.cache_hits) for v in engine.registry.versions()),
        engine.registry._rng.bit_generator.state,
        engine.clock.now(),
    )


class TestSubmitBatch:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        batch_size=st.integers(1, 7),
        cache=st.booleans(),
        split=st.sampled_from([0.0, 0.3, 1.0]),
        deadline_ms=st.sampled_from([None, 1e-7, 2.0, 5.0]),
        n=st.integers(0, 40),
        keyed=st.booleans(),
        stamped=st.booleans(),
    )
    def test_submit_batch_equals_stamped_submits(
        self, data, batch_size, cache, split, deadline_ms, n, keyed, stamped
    ):
        rows = np.random.default_rng(1).normal(size=(4, 2))[data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        rows = rows.reshape(n, 2)
        keys = [data.draw(st.none() | st.integers(0, 9)) for _ in range(n)] if keyed else None
        gaps = [data.draw(st.sampled_from([0.0, 0.0005, 0.001, 0.003])) for _ in range(n)]
        one, one_clock = _engine(batch_size, cache, split, deadline_ms)
        block, block_clock = _engine(batch_size, cache, split, deadline_ms)
        for clock in (one_clock, block_clock):
            clock.advance(0.01)
        stamps = one_clock.now() + np.cumsum(gaps) if stamped else None
        want = []
        for i in range(n):
            if stamped:
                one_clock.advance_to(stamps[i])
            want.append(one.submit(rows[i], key=None if keys is None else keys[i]))
        got = block.submit_batch(rows, keys=keys, stamps=stamps)
        assert list(got) == want
        assert _engine_state(block) == _engine_state(one)
        for engine in (one, block):
            engine.flush()
        assert _engine_state(block) == _engine_state(one)
        assert block.take_block(got).tolist() == one.take_block(got).tolist()

    def test_take_ready_takes_the_ready_prefix(self):
        engine, clock = _engine(3, True, 0.0, None)
        rows = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0]])
        first = engine.submit_batch(rows[:2])  # buffered, not scored
        engine.flush()
        versions, scores = engine.take_ready(first)
        assert scores.tolist() == [1.0, 3.0] and versions.tolist() == [1, 1]
        ids = engine.submit_batch(rows[2:])  # a cache hit, then a miss
        versions, scores = engine.take_ready(ids)
        assert scores.tolist() == [1.0]
        assert engine.take_ready(range(ids.start + 1, ids.stop))[1].size == 0

    def test_stamps_need_a_manual_clock_and_order(self):
        engine = ScoringEngine(Linear([1.0]), batch_size=4)
        with pytest.raises(ValueError, match="ManualClock"):
            engine.submit_batch(np.ones((2, 1)), stamps=[0.0, 1.0])
        engine, clock = _engine(4, False, 0.0, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.submit_batch(np.ones((2, 2)), stamps=[1.0, 0.5])


# ---------------------------------------------------------------------------
# the replay: block loop against the per-row loop
# ---------------------------------------------------------------------------
def _capture_scores(monkeypatch) -> list[np.ndarray]:
    """Every day's scores, as the replay hands them to the oracle."""
    seen = []
    real = simulator.greedy_allocation

    def spy(scores, *args, **kwargs):
        seen.append(np.array(scores))
        return real(scores, *args, **kwargs)

    for module in (simulator, _parent_replay):
        monkeypatch.setattr(module, "greedy_allocation", spy)
    return seen


def _metrics(delta: dict | None, clocked: bool) -> dict | None:
    """A day's metrics delta; spans time wall clock without a clock."""
    if delta is None or clocked:
        return delta
    return {name: value for name, value in delta.items() if not name.startswith("span.")}


def _outcome(result, replay, scores) -> tuple:
    days = result.days if hasattr(result, "days") else [result]
    engine = replay.engine
    return (
        [s.tobytes() for s in scores],
        [
            (
                d.n_events, d.n_treated, d.budget, d.spend, d.incremental_revenue, d.oracle_revenue,
                d.treated.tobytes(), d.spend_trajectory.tobytes(), tuple(d.pacing_history),
                None if d.latencies is None else d.latencies.tobytes(), d.latencies_dropped,
                d.latency_hist, tuple(sorted(d.engine_stats.items())),
                _metrics(d.metrics_delta, engine.clock is not None),
            )
            for d in days
        ],
        getattr(result, "ledger", None),
        None if replay.promoter is None else tuple(replay.promoter.events),
        None if replay.retrainer is None else tuple(replay.retrainer.events),
        tuple((v.version, v.stage, v.requests, v.cache_hits, v.ledger) for v in engine.registry.versions()),
        engine.registry.traffic_split,
        engine.registry._rng.bit_generator.state,
        replay._rng.bit_generator.state,
        replay.platform._rng.bit_generator.state,
        None if engine.clock is None else engine.clock.now(),
    )


def _both_loops(monkeypatch, build, run) -> tuple[tuple, tuple]:
    """Run the same replay on the block loop and on the per-row loop."""
    outcomes = []
    for per_row in (False, True):
        with monkeypatch.context() as patch:
            if per_row:
                _parent_replay.install(patch)
            scores = _capture_scores(patch)
            replay = build()
            outcomes.append(_outcome(run(replay), replay, scores))
    return outcomes[0], outcomes[1]


_CAMPAIGNS: dict = {}


def _campaign(shape: str):
    """A tiny campaign workload and its fitted models (fitted once)."""
    if shape in _CAMPAIGNS:
        return _CAMPAIGNS[shape]
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    cls = {"rdrp": workloads.CampaignRDRP, "returning": workloads.CampaignReturning}[shape]
    workload = cls(workloads.SIZES["tiny"], 0)
    _CAMPAIGNS[shape] = workload, workload.setup()
    return _CAMPAIGNS[shape]


@pytest.mark.parametrize("shape", ["rdrp", "returning"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_campaigns_decide_byte_for_byte_like_the_per_row_loop(monkeypatch, shape, seed):
    workload, state = _campaign(shape)
    block, per_row = _both_loops(
        monkeypatch,
        lambda: workload.build(state, seed)["replay"],
        lambda replay: replay.replay_days(workload.sizes.days, workload.arrivals, budget_fraction=0.3),
    )
    assert block == per_row


def _config_replay(cfg: dict, seed: int) -> TrafficReplay:
    clocked = cfg["gap"] is not None
    clock = ManualClock() if clocked else None
    registry = ModelRegistry(traffic_split=cfg["split"], random_state=seed)
    rng = np.random.default_rng(11)
    probe = rng.normal(size=(40, 12))
    champion = NetRidge().fit(probe, probe[:, 0])
    registry.register(champion, promote=True)
    if cfg["challenger"]:
        registry.register(Linear(np.r_[0.4, np.zeros(11)]))
    engine = ScoringEngine(
        registry, batch_size=cfg["batch_size"], cache_size=64 if cfg["cache"] else 0,
        max_latency_ms=cfg["deadline_ms"] if clocked else None, clock=clock,
        metrics=MetricsRegistry(),
    )
    promoter = (
        AutoPromoter(
            registry, clock=clock or ManualClock(), ramp=(0.1, 0.5), step_every_s=0.05, min_decided=10,
            check_every=cfg["check_every"], hold_decided=40,
        )
        if cfg["promoter"]
        else None
    )
    retrainer = (
        Retrainer(registry, template=NetRidge(), clock=clock or ManualClock(), window=120,
                  min_outcomes=30, every_outcomes=cfg["every_outcomes"], drift_threshold=cfg["drift"])
        if cfg["retrainer"]
        else None
    )
    platform = Platform(dataset="criteo", random_state=seed)
    if cfg["returning"]:
        base = platform.daily_cohort
        draws = np.random.default_rng(seed + 2)
        platform.daily_cohort = lambda n, day, **kw: base(max(3, n // 6), day, **kw).subset(draws.integers(0, max(3, n // 6), n))
    return TrafficReplay(
        platform, engine, feedback=cfg["feedback"], interarrival_s=cfg["gap"], promoter=promoter,
        retrainer=retrainer, paired_outcomes=cfg["paired"], random_state=seed + 1,
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    cfg=st.fixed_dictionaries(
        {
            "batch_size": st.sampled_from([1, 3, 16, 64]),
            "gap": st.sampled_from([None, 0.0, 0.0004, 0.002]),
            "deadline_ms": st.sampled_from([1e-7, 1.0, 5.0, 50.0]),
            "cache": st.booleans(),
            "split": st.sampled_from([0.0, 0.2, 0.9]),
            "challenger": st.booleans(),
            "paired": st.booleans(),
            "feedback": st.booleans(),
            "returning": st.booleans(),
            "promoter": st.booleans(),
            "check_every": st.integers(1, 40),
            "retrainer": st.booleans(),
            "every_outcomes": st.sampled_from([None, 37, 150]),
            "drift": st.sampled_from([None, 0.2]),
        }
    ),
    seed=st.integers(0, 1000),
)
def test_block_loop_equals_per_row_loop(monkeypatch, cfg, seed):
    if cfg["every_outcomes"] is None and cfg["drift"] is None:
        cfg["every_outcomes"] = 37
    block, per_row = _both_loops(
        monkeypatch,
        lambda: _config_replay(cfg, seed),
        lambda replay: replay.replay_days(2, 160, budget_fraction=0.3, pacer_params={"warmup": 16, "refresh_every": 8, "min_arm_outcomes": 3}),
    )
    assert block == per_row


def test_thread_backend_decides_every_arrival_once_within_budget():
    registry = ModelRegistry(traffic_split=0.3, random_state=3)
    registry.register(Linear(np.r_[0.4, np.zeros(11)]), promote=True)
    registry.register(Linear(np.r_[0.2, 0.1, np.zeros(10)]))
    clock = ManualClock()
    with ThreadBackend(n_workers=2) as backend:
        engine = ScoringEngine(registry, batch_size=16, cache_size=32, max_latency_ms=2.0, clock=clock, backend=backend)
        promoter = AutoPromoter(registry, clock=clock, ramp=(0.2,), min_decided=10, check_every=7, hold_decided=40)
        replay = TrafficReplay(
            Platform(dataset="criteo", random_state=4), engine, feedback=True, interarrival_s=0.0005,
            promoter=promoter, random_state=5,
        )
        result = replay.replay_days(2, 600, budget_fraction=0.3)
    for day in result.days:
        assert day.n_events == 600
        assert day.engine_stats["requests"] == 600
        assert day.engine_stats["cache_hits"] + day.engine_stats["rows_scored"] == 600
        assert day.spend < day.budget
        assert not np.isnan(day.spend_trajectory).any()
    assert engine.n_pending == 0 and engine.n_inflight == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "gap_s, deadline_ms",
    [
        (0.0005, 2.0),
        # binary fractions: every deadline lands exactly on an arrival, so
        # it fires as that arrival is submitted, with rows left to decide
        (2.0**-11, 1.953125),
    ],
)
def test_a_verdict_on_an_arrival_decided_at_once_reroutes_the_next(monkeypatch, seed, gap_s, deadline_ms):
    # returning users hit the cache and are decided as they arrive
    # while nothing is pending, and a ~2 ms deadline flushes a few rows
    # at a time: each run must end within the observations the promoter
    # takes without acting, so the arrival after a gate that promotes
    # or kills is routed by the new split, as the per-row loop routes it
    def build():
        clock = ManualClock()
        registry = ModelRegistry(traffic_split=0.5, random_state=seed)
        registry.register(Linear(np.zeros(12)), promote=True)
        registry.register(Linear(np.r_[2.0, np.zeros(11)]))
        engine = ScoringEngine(registry, batch_size=64, cache_size=512, max_latency_ms=deadline_ms, clock=clock)
        promoter = AutoPromoter(registry, clock=clock, ramp=(0.5,), min_decided=8, check_every=3, hold_decided=30)
        platform = Platform(dataset="criteo", random_state=seed)
        base, draws = platform.daily_cohort, np.random.default_rng(seed + 2)
        platform.daily_cohort = lambda n, day, **kw: base(20, day, **kw).subset(draws.integers(0, 20, n))
        return TrafficReplay(
            platform, engine, feedback=True, interarrival_s=gap_s, promoter=promoter,
            paired_outcomes=True, random_state=seed + 1,
        )

    block, per_row = _both_loops(monkeypatch, build, lambda replay: replay.replay_days(2, 300, budget_fraction=0.3))
    assert block == per_row
    assert {event.kind for event in block[3]} & {"promote", "kill", "rollback"}


@pytest.mark.parametrize("gap_s", [None, 0.0005])
def test_a_fleet_replay_decides_like_the_per_row_loop(monkeypatch, gap_s):
    # the fleet takes a run one arrival at a time (its room is 1) and
    # stamped rows one submit each: the replay still matches the
    # per-row loop on a clocked fleet as on an unclocked one
    fleets = []

    def build():
        clock = ManualClock() if gap_s is not None else None
        registry = ModelRegistry(traffic_split=0.3, random_state=6)
        registry.register(Linear(np.r_[0.4, np.zeros(11)]), promote=True)
        registry.register(Linear(np.r_[0.2, 0.1, np.zeros(10)]))
        fleet = ShardedScoringEngine(
            registry, n_shards=2, batch_size=8, cache_size=0,
            max_latency_ms=2.0 if clock is not None else None, clock=clock,
        )
        fleets.append(fleet)
        promoter = AutoPromoter(registry, clock=clock or ManualClock(), ramp=(0.3,), min_decided=10,
                                check_every=7, hold_decided=40)
        return TrafficReplay(
            Platform(dataset="criteo", random_state=7), fleet, feedback=True, interarrival_s=gap_s,
            promoter=promoter, random_state=8,
        )

    block, per_row = _both_loops(monkeypatch, build, lambda replay: replay.replay_days(2, 200, budget_fraction=0.3))
    for fleet in fleets:
        fleet.close()
    assert block == per_row
