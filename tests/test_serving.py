"""Tests for the online serving subsystem (``repro.serving``)."""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.ab.platform import Platform
import repro.core.roi_star as roi_star_module
from repro.core.drp import drp_pooled_derivative
from repro.core.roi_star import RoiStarEstimator, binary_search_roi_star, bisect_monotone
from repro.obs import MetricsRegistry
from repro.runtime import ManualClock, SerialBackend, ThreadBackend
from repro.serving.engine import ScoringEngine, _ResultTable
from repro.serving.pacing import BudgetPacer, EmpiricalCurve, MultiDayPacer
from repro.serving.policy import ConformalGatedPolicy
from repro.serving.registry import ModelRegistry
from repro.serving.simulator import TrafficReplay


class LinearROI:
    """Deterministic stub scorer: clipped linear projection of x."""

    def __init__(self, w: np.ndarray, calls: list | None = None) -> None:
        self.w = np.asarray(w, dtype=float)
        self.calls = calls if calls is not None else []

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self.calls.append(x.shape[0])
        return np.clip(x @ self.w, 1e-6, 1.0 - 1e-6)


class IntervalROI(LinearROI):
    """Stub with a conformal-style interval (lower = 0.8 * point)."""

    def predict_interval(self, x):
        point = self.predict_roi(x)
        return 0.8 * point, np.minimum(1.2 * point, 1.0)


@pytest.fixture
def stub_model():
    rng = np.random.default_rng(3)
    return LinearROI(rng.normal(size=12) * 0.05)


@pytest.fixture
def platform():
    return Platform(dataset="criteo", random_state=0)


# ---------------------------------------------------------------------------
# bisect_monotone (the reusable threshold search)
# ---------------------------------------------------------------------------
class TestBisectMonotone:
    def test_finds_root(self):
        root = bisect_monotone(lambda v: v - 0.3, 0.0, 1.0, eps=1e-6)
        assert root == pytest.approx(0.3, abs=1e-5)

    def test_clamps_to_endpoint(self):
        assert bisect_monotone(lambda v: v + 5.0, 0.0, 1.0) < 1e-2
        assert bisect_monotone(lambda v: v - 5.0, 0.0, 1.0) > 1.0 - 1e-2

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="eps"):
            bisect_monotone(lambda v: v, 0.0, 1.0, eps=0.0)
        with pytest.raises(ValueError, match="lo < hi"):
            bisect_monotone(lambda v: v, 1.0, 0.0)


# ---------------------------------------------------------------------------
# ModelRegistry
# ---------------------------------------------------------------------------
class TestModelRegistry:
    def test_first_model_becomes_champion(self, stub_model):
        reg = ModelRegistry()
        v = reg.register(stub_model)
        assert reg.champion.version == v
        assert reg.challenger is None

    def test_second_model_becomes_challenger(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.challenger is not None and reg.challenger.version == v2

    def test_promote_and_rollback(self, stub_model):
        reg = ModelRegistry()
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.promote() == v2
        assert reg.champion.version == v2
        assert reg.challenger is None
        assert reg.rollback() == v1
        assert reg.champion.version == v1

    def test_register_promote_true_supports_rollback(self, stub_model):
        """The emergency-hotfix path records the displaced champion."""
        reg = ModelRegistry()
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)), promote=True)
        assert reg.champion.version == v2
        assert reg.rollback() == v1

    def test_rollback_restores_most_recent_champion(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)  # v1
        v2 = reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion, previous = v1
        reg.register(LinearROI(np.ones(12)), promote=True)  # v3 displaces v2
        assert reg.rollback() == v2  # v2, not the two-generations-old v1

    def test_rollback_without_promote_raises(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        with pytest.raises(RuntimeError, match="roll back"):
            reg.rollback()

    def test_route_requires_champion(self):
        with pytest.raises(RuntimeError, match="champion"):
            ModelRegistry().route()

    def test_keyed_routing_is_deterministic(self, stub_model):
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        picks = {key: reg.route(key).version for key in range(50)}
        again = {key: reg.route(key).version for key in range(50)}
        assert picks == again
        assert len(set(picks.values())) == 2  # both versions see traffic

    def test_traffic_split_zero_disables_challenger(self, stub_model):
        reg = ModelRegistry(traffic_split=0.0, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        versions = {reg.route().version for _ in range(50)}
        assert versions == {reg.champion.version}

    def test_rejects_model_without_predict_roi(self):
        with pytest.raises(TypeError, match="predict_roi"):
            ModelRegistry().register(object())

    def test_invalid_split(self):
        with pytest.raises(ValueError, match="traffic_split"):
            ModelRegistry(traffic_split=1.5)

    # -- lifecycle invariant: a champion transition archives any staged
    # -- challenger unless that challenger is itself being promoted
    def test_hotfix_register_archives_stale_challenger(self, stub_model):
        """Regression: ``register(promote=True)`` used to leave the
        staged challenger silently taking split traffic against a
        brand-new champion it was never compared to."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))  # staged challenger
        v3 = reg.register(LinearROI(np.ones(12)), promote=True)  # hotfix
        assert reg.champion.version == v3
        assert reg.challenger is None
        assert reg.get(v2).stage == "archived"
        # and no keyed traffic leaks to the stale challenger
        assert all(reg.route(k).version == v3 for k in range(100))

    def test_promote_archived_id_archives_stale_challenger(self, stub_model):
        """Regression: ``promote(<archived id>)`` (manual un-rollback)
        with a *different* challenger staged must archive it too."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        v1 = reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion, v1 archived
        v3 = reg.register(LinearROI(np.ones(12)))  # new challenger
        assert reg.promote(v1) == v1  # re-promote the archived v1
        assert reg.champion.version == v1
        assert reg.challenger is None
        assert reg.get(v3).stage == "archived"
        assert all(reg.route(k).version == v1 for k in range(100))

    def test_rollback_archives_stale_challenger(self, stub_model):
        reg = ModelRegistry()
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        reg.promote()  # v2 champion
        v3 = reg.register(LinearROI(np.ones(12)))  # challenger vs v2
        reg.rollback()  # v2's promotion undone -> v3's baseline is gone
        assert reg.challenger is None
        assert reg.get(v3).stage == "archived"

    def test_demote_unstages_challenger(self, stub_model):
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        v1 = reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        assert reg.demote() == v2
        assert reg.challenger is None
        assert reg.get(v2).stage == "archived"
        assert reg.champion.version == v1  # champion untouched
        with pytest.raises(ValueError, match="challenger"):
            reg.demote()
        with pytest.raises(ValueError, match="challenger"):
            reg.demote(v1)  # the champion is not demotable

    def test_small_split_routes_keyed_traffic(self, stub_model):
        """Regression: crc32 % 10_000 bucketing quantised any
        ``traffic_split`` below 1e-4 up to bucket zero's 1e-4, so a
        cautious 1e-5 first ramp step routed ~10x the intended keyed
        traffic.  The 64-bit bucket space resolves it."""
        reg = ModelRegistry(traffic_split=1e-5, random_state=0)
        reg.register(stub_model)
        v2 = reg.register(LinearROI(np.zeros(12)))
        n = 300_000
        hits = sum(reg.route(k).version == v2 for k in range(n))
        # deterministic under the fixed hash; expectation n * 1e-5 = 3.
        # The old bucketing routed ~n * 1e-4 = 30 keys here.
        assert 1 <= hits <= 12

    def test_per_version_accounting_excludes_cache_hits(self, rng):
        """Regression: ``ModelVersion.requests`` used to count cache-hit
        requests the model never scored.  Invariant: ``requests`` =
        rows the model scored, ``cache_hits`` = cache serves,
        ``served`` = their sum = all requests answered."""
        calls: list[int] = []
        model = LinearROI(np.ones(6), calls=calls)
        engine = ScoringEngine(model, batch_size=4, cache_size=64)
        rows = rng.normal(size=(4, 6))
        for row in rows:
            engine.submit(row)  # one batch-full flush: 4 scored rows
        for row in rows[:3]:
            engine.submit(row)  # cache hits
        version = engine.registry.champion
        assert version.requests == 4  # only what the model scored
        assert version.cache_hits == 3
        assert version.served == 7
        assert sum(calls) == 4

    def test_outcome_ledger_moments_match_numpy(self):
        from repro.serving.registry import OutcomeLedger

        gen = np.random.default_rng(0)
        y_r, y_c = gen.random(60), gen.random(60) * 0.5
        tr = gen.random(60) < 0.5
        ledger = OutcomeLedger()
        for t, r, c in zip(tr, y_r, y_c):
            ledger.record(bool(t), float(r), float(c))
        assert ledger.n == 60
        assert ledger.n_treated == int(tr.sum())
        assert ledger.spend == pytest.approx(y_c.sum())
        assert ledger.revenue == pytest.approx(y_r.sum())
        mean, var, n = ledger.moments("net")
        assert n == 60
        assert mean == pytest.approx((y_r - y_c).mean())
        assert var == pytest.approx((y_r - y_c).var(ddof=1))
        mean_r, var_r, _ = ledger.moments("revenue")
        assert mean_r == pytest.approx(y_r.mean())
        assert var_r == pytest.approx(y_r.var(ddof=1))
        with pytest.raises(ValueError, match="metric"):
            ledger.moments("clicks")
        ledger.reset()
        assert ledger.n == 0
        assert ledger.moments("net") == (0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# ScoringEngine
# ---------------------------------------------------------------------------
class TestScoringEngine:
    def test_matches_direct_model_call(self, stub_model, rng):
        x = rng.normal(size=(40, 12))
        engine = ScoringEngine(stub_model, batch_size=8, cache_size=0)
        got = np.array([engine.score(row) for row in x])
        np.testing.assert_allclose(got, stub_model.predict_roi(x), rtol=1e-12)

    def test_microbatching_one_model_call_per_flush(self, rng):
        calls: list[int] = []
        model = LinearROI(np.ones(5), calls=calls)
        engine = ScoringEngine(model, batch_size=16, cache_size=0)
        rows = rng.normal(size=(16, 5))
        ids = [engine.submit(row) for row in rows]
        assert calls == [16]  # one vectorised call at the auto-flush
        assert all(engine.has_result(rid) for rid in ids)

    def test_batch_size_one_is_synchronous(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1, cache_size=0)
        rid = engine.submit(rng.normal(size=12))
        assert engine.has_result(rid)  # flushed immediately
        assert engine.n_pending == 0

    def test_cache_hit_path(self, rng):
        calls: list[int] = []
        model = LinearROI(np.ones(6), calls=calls)
        engine = ScoringEngine(model, batch_size=1, cache_size=64)
        row = rng.normal(size=6)
        first = engine.score(row)
        second = engine.score(row)
        assert first == second
        assert engine.stats["cache_hits"] == 1
        assert sum(calls) == 1  # second request never reached the model
        assert engine.cache_hit_rate == pytest.approx(0.5)

    def test_cache_evicts_lru(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1, cache_size=2)
        rows = rng.normal(size=(3, 12))
        for row in rows:
            engine.score(row)
        engine.score(rows[0])  # evicted by rows[2] -> miss
        assert engine.stats["cache_hits"] == 0

    def test_take_pops_and_unknown_raises(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=1)
        rid = engine.submit(rng.normal(size=12))
        engine.take(rid)
        with pytest.raises(KeyError):
            engine.take(rid)

    def test_routes_through_challenger(self, rng):
        reg = ModelRegistry(traffic_split=1.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))  # champion scores ~0
        reg.register(LinearROI(np.ones(4) * 10))  # challenger saturates
        engine = ScoringEngine(reg, batch_size=1, cache_size=0)
        score = engine.score(np.ones(4))
        assert score == pytest.approx(1.0 - 1e-6)  # served by challenger

    def test_promotion_switches_serving(self, rng):
        reg = ModelRegistry(traffic_split=0.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))
        reg.register(LinearROI(np.ones(4) * 10))
        engine = ScoringEngine(reg, batch_size=1, cache_size=0)
        before = engine.score(np.ones(4))
        reg.promote()
        after = engine.score(np.ones(4))
        assert before == pytest.approx(1e-6)
        assert after == pytest.approx(1.0 - 1e-6)

    def test_conformal_policy_scores_lower_bound(self, rng):
        model = IntervalROI(np.ones(3) * 0.1)
        x = np.abs(rng.normal(size=(5, 3)))
        engine = ScoringEngine(model, policy=ConformalGatedPolicy(), batch_size=1)
        got = np.array([engine.score(row) for row in x])
        np.testing.assert_allclose(got, model.predict_interval(x)[0], rtol=1e-12)

    def test_conformal_policy_fallback_shrinks(self, stub_model, rng):
        x = rng.normal(size=(4, 12))
        policy = ConformalGatedPolicy(fallback_shrink=0.5)
        np.testing.assert_allclose(
            policy.score_batch(stub_model, x),
            0.5 * stub_model.predict_roi(x),
            rtol=1e-12,
        )

    def test_failed_flush_leaves_engine_consistent(self, stub_model, rng):
        """A raising model drops its batch but does not wedge the buffer."""

        class Flaky:
            def __init__(self):
                self.fail_next = True

            def predict_roi(self, x):
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("model backend down")
                return np.zeros(np.atleast_2d(x).shape[0])

        engine = ScoringEngine(Flaky(), batch_size=4, cache_size=0)
        rows = rng.normal(size=(4, 3))
        for row in rows[:3]:
            engine.submit(row)
        with pytest.raises(RuntimeError, match="backend down"):
            engine.submit(rows[3])  # auto-flush hits the failure
        assert engine.n_pending == 0  # failed batch dropped, not retried
        assert engine.score(rows[0]) == 0.0  # engine still serves

    def test_successive_challengers_get_different_user_slices(self, stub_model):
        """The routing hash is salted per challenger version."""
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(stub_model)
        reg.register(LinearROI(np.zeros(12)))  # challenger v2
        in_v2 = {k for k in range(200) if reg.route(k).version == 2}
        reg.promote()
        reg.register(LinearROI(np.ones(12)))  # challenger v3
        in_v3 = {k for k in range(200) if reg.route(k).version == 3}
        assert in_v2 != in_v3  # not the same fixed user slice every time

    def test_invalid_params(self, stub_model):
        with pytest.raises(ValueError, match="batch_size"):
            ScoringEngine(stub_model, batch_size=0)
        with pytest.raises(ValueError, match="cache_size"):
            ScoringEngine(stub_model, cache_size=-1)
        with pytest.raises(ValueError, match="max_latency_ms"):
            ScoringEngine(stub_model, max_latency_ms=0.0)

    def test_serial_pinned_behaviour(self, rng):
        """The pre-runtime engine spec, pinned: on the default serial
        backend, a mixed stream (batch flushes, cache hits, manual
        tail flush) produces exactly the direct model scores and
        exactly these stats — the refactor must be bit-invisible."""
        calls: list[int] = []
        model = LinearROI(np.ones(6) * 0.04, calls=calls)
        engine = ScoringEngine(model, batch_size=4, cache_size=64)
        unique = rng.normal(size=(6, 6))
        stream = np.concatenate([unique, unique[:4]])  # 4 repeats at the tail
        ids = [engine.submit(row) for row in stream]
        engine.flush()
        got = np.array([engine.take(rid) for rid in ids])
        expect = model.predict_roi(np.vstack([unique, unique[:4]]))
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        # rows 0-3 auto-flush (batch_full); rows 4-5 wait; repeats of
        # 0-3 hit the cache; the manual flush scores the remainder
        assert calls[:-1] == [4, 2]  # one vectorised call per flush (+ expect calc)
        assert engine.stats["requests"] == 10
        assert engine.stats["cache_hits"] == 4
        assert engine.stats["cache_misses"] == 6
        assert engine.stats["flushes"] == 2
        assert engine.stats["flush_batch_full"] == 1
        assert engine.stats["flush_manual"] == 1
        assert engine.stats["flush_deadline"] == 0
        assert engine.stats["model_calls"] == 2
        assert engine.stats["rows_scored"] == 6
        assert engine.n_pending == 0 and engine.n_inflight == 0

    def test_failing_batch_leaves_other_versions_pending(self, rng):
        """Pre-runtime exception semantics, pinned: when one version's
        batch raises during a flush, batches of *other* versions must
        stay pending and their models must not have been called."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("version A down")

        calls: list[int] = []
        healthy = LinearROI(np.zeros(4), calls=calls)
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(healthy)  # v1 champion
        reg.register(Boom())  # v2 challenger on half the keys
        key_healthy = next(k for k in range(100) if reg.route(k).version == 1)
        key_boom = next(k for k in range(100) if reg.route(k).version == 2)
        engine = ScoringEngine(reg, batch_size=100, cache_size=0)
        engine.submit(rng.normal(size=4), key=key_healthy)
        engine.submit(rng.normal(size=4), key=key_boom)
        assert engine.n_pending == 2
        with pytest.raises(RuntimeError, match="version A down"):
            engine.flush()
        # exactly one batch was dropped; the other is still pending and
        # its model untouched — same as before the runtime refactor
        assert engine.n_pending == 1
        assert calls == []
        engine.flush()  # the healthy batch scores on the next flush
        assert calls == [1]
        assert engine.n_pending == 0

    def test_latency_log_is_bounded(self, stub_model, rng):
        engine = ScoringEngine(
            stub_model, batch_size=1, cache_size=0,
            clock=ManualClock(), latency_log_size=50,
        )
        for row in rng.normal(size=(200, 12)):
            engine.submit(row)
        assert len(engine.latencies) <= 100  # 2x cap before compaction
        assert engine.latencies_dropped + len(engine.latencies) == 200
        assert len(engine.drain()) == 200
        assert len(engine._table) == 0  # every request resolved and taken

    def test_score_count_mismatch_does_not_leak_stamps(self, rng):
        class WrongShape:
            def predict_roi(self, x):
                return np.zeros(np.atleast_2d(x).shape[0] + 1)

        engine = ScoringEngine(
            WrongShape(), batch_size=2, cache_size=0, clock=ManualClock()
        )
        engine.submit(rng.normal(size=3))
        with pytest.raises(ValueError, match="scores"):
            engine.submit(rng.normal(size=3))  # auto-flush hits the mismatch
        assert len(engine._table) == 0  # dropped batch forgot its requests

    def test_wrong_width_row_leaves_no_pending_slot(self, rng):
        """A row whose width disagrees with its version's buffer raises
        at submit and never holds a result slot, so the result table
        still empties once every accepted request is taken."""
        engine = ScoringEngine(LinearROI(np.zeros(3)), batch_size=4, cache_size=0)
        rid = engine.submit(rng.normal(size=3))
        with pytest.raises(ValueError):
            engine.submit(rng.normal(size=4))
        with pytest.raises(ValueError):
            engine.submit_batch(rng.normal(size=(2, 4)))
        engine.flush()
        engine.take(rid)
        assert len(engine._table) == 0

    def test_version_of_attributes_scored_and_cached_requests(self, rng):
        """Outcome attribution needs the version whose score serves each
        request — including cache hits, whose cached score *is* that
        version's decision."""
        reg = ModelRegistry(traffic_split=1.0, random_state=0)
        reg.register(LinearROI(np.zeros(4)))
        reg.register(LinearROI(np.ones(4)))  # challenger takes everything
        engine = ScoringEngine(reg, batch_size=1, cache_size=16)
        row = rng.normal(size=4)
        rid = engine.submit(row)
        assert engine.version_of(rid) == 2
        engine.take(rid)
        with pytest.raises(KeyError):
            engine.version_of(rid)  # attribution released at take
        rid2 = engine.submit(row)  # cache hit: still version 2's score
        assert engine.version_of(rid2) == 2
        with pytest.raises(KeyError):
            engine.version_of(10_000)  # unknown id

    def test_score_batch_raising_model_scores_no_requests(self, rng):
        """``requests`` counts what the model actually scored — a
        raising model in the offline-parity path scored nothing."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        engine = ScoringEngine(Boom(), batch_size=4, cache_size=0)
        with pytest.raises(RuntimeError, match="down"):
            engine.score_batch(rng.normal(size=(5, 3)))
        assert engine.registry.champion.requests == 0

    def test_version_of_forgotten_for_dropped_batches(self, rng):
        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        engine = ScoringEngine(Boom(), batch_size=2, cache_size=0)
        rid = engine.submit(rng.normal(size=3))
        with pytest.raises(RuntimeError, match="down"):
            engine.submit(rng.normal(size=3))  # auto-flush fails
        with pytest.raises(KeyError):
            engine.version_of(rid)  # dropped with its batch
        assert len(engine._table) == 0

    def test_submit_batch_raising_flush_counts_like_scalar_submits(self, rng):
        """A mid-block flush that raises stops the block where N
        ``submit`` calls would stop: rows after it are never counted,
        and the next id picks up right after the failed batch."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        rows = rng.normal(size=(10, 3))
        batch = ScoringEngine(Boom(), batch_size=4, cache_size=0)
        with pytest.raises(RuntimeError, match="down"):
            batch.submit_batch(rows)
        scalar = ScoringEngine(Boom(), batch_size=4, cache_size=0)
        with pytest.raises(RuntimeError, match="down"):
            for row in rows:
                scalar.submit(row)
        assert batch.stats == scalar.stats
        assert batch.stats["requests"] == batch.stats["cache_misses"] == 4
        assert batch.submit(rows[0]) == scalar.submit(rows[0]) == 4

    def test_explicit_serial_backend_matches_default(self, stub_model, rng):
        x = rng.normal(size=(20, 12))
        default = ScoringEngine(stub_model, batch_size=8, cache_size=0)
        explicit = ScoringEngine(
            stub_model, batch_size=8, cache_size=0, backend=SerialBackend()
        )
        got_d = np.array([default.score(row) for row in x])
        got_e = np.array([explicit.score(row) for row in x])
        np.testing.assert_array_equal(got_d, got_e)
        assert default.stats == explicit.stats


# ---------------------------------------------------------------------------
# deadline-driven flushing (runtime clock integration)
# ---------------------------------------------------------------------------
class TestDeadlineFlush:
    def _engine(self, model, **kwargs):
        clock = ManualClock()
        defaults = dict(batch_size=100, cache_size=0, max_latency_ms=5.0, clock=clock)
        defaults.update(kwargs)
        return ScoringEngine(model, **defaults), clock

    def test_poll_flushes_overdue_batch(self, stub_model, rng):
        engine, clock = self._engine(stub_model)
        rid = engine.submit(rng.normal(size=12))
        assert not engine.has_result(rid)  # batch of 1, far from full
        clock.advance(0.004)
        assert engine.poll() == 0  # 4ms < 5ms deadline
        assert not engine.has_result(rid)
        clock.advance(0.002)
        assert engine.poll() == 1  # 6ms > 5ms: deadline flush fired
        assert engine.has_result(rid)
        assert engine.stats["flush_deadline"] == 1
        assert engine.stats["flush_batch_full"] == 0

    def test_has_result_and_take_fire_overdue_deadlines(self, stub_model, rng):
        """A waiter spinning on has_result()/take() alone must still
        get the max_latency_ms guarantee — every engine entry point
        advances the deadline loop."""
        engine, clock = self._engine(stub_model)
        rid = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        assert engine.has_result(rid)  # fired the flush itself, no poll()
        assert engine.stats["flush_deadline"] == 1
        rid2 = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        assert isinstance(engine.take(rid2), float)  # take() fires it too
        assert engine.stats["flush_deadline"] == 2

    def test_submit_fires_overdue_deadline_first(self, stub_model, rng):
        """A new arrival must not join a batch that is already overdue."""
        engine, clock = self._engine(stub_model)
        r1 = engine.submit(rng.normal(size=12))
        clock.advance(0.006)
        r2 = engine.submit(rng.normal(size=12))  # poll happens at entry
        assert engine.has_result(r1)  # old batch flushed on its deadline
        assert not engine.has_result(r2)  # new batch, fresh 5ms deadline
        assert engine.stats["flush_deadline"] == 1
        clock.advance(0.005)
        engine.poll()
        assert engine.has_result(r2)

    def test_deadline_rearms_per_batch_not_per_request(self, stub_model, rng):
        """The deadline anchors on the *oldest* buffered request."""
        engine, clock = self._engine(stub_model)
        engine.submit(rng.normal(size=12))
        for _ in range(3):  # later arrivals must not push the deadline out
            clock.advance(0.001)
            engine.submit(rng.normal(size=12))
        clock.advance(0.0021)  # 5.1ms after the first request
        assert engine.poll() == 1
        assert engine.stats["rows_scored"] == 4

    def test_batch_full_still_wins_under_deadline(self, stub_model, rng):
        engine, clock = self._engine(stub_model, batch_size=3)
        ids = [engine.submit(row) for row in rng.normal(size=(3, 12))]
        assert all(engine.has_result(rid) for rid in ids)  # full before due
        assert engine.stats["flush_batch_full"] == 1
        assert engine.stats["flush_deadline"] == 0
        clock.advance(1.0)
        assert engine.poll() == 0  # nothing pending, nothing to fire

    def test_latencies_recorded_and_cache_hits_stay_out(self, stub_model, rng):
        """Regression: cache hits used to log 0.0 into ``latencies``,
        silently deflating the scored p95 that the deadline-bound
        claims are measured on.  A cache hit is counted in
        ``cache_hits`` (engine stat and per-version) — never in the
        scored-latency log."""
        engine, clock = self._engine(stub_model, cache_size=32)
        row = rng.normal(size=12)
        engine.submit(row)
        clock.advance(0.006)
        engine.poll()
        engine.submit(row)  # identical row: cache hit — served, not scored
        assert engine.latencies == pytest.approx([0.006])  # no 0.0 entry
        assert engine.stats["cache_hits"] == 1
        assert engine.registry.champion.cache_hits == 1

    # 1.5ms does NOT divide the 5ms deadline: the bound must hold even
    # when no arrival lands exactly on the deadline (the simulator has
    # to stop the clock *at* the deadline, not overshoot to the next
    # arrival)
    @pytest.mark.parametrize("interarrival_s", [0.001, 0.0015])
    def test_simulator_bounds_every_wait_by_the_deadline(self, platform, interarrival_s):
        """ISSUE acceptance: with max_latency_ms set, no request waits
        longer than the deadline under the simulator's manual clock."""
        max_latency_ms = 5.0
        engine = ScoringEngine(
            LinearROI(np.full(12, 0.02)),
            batch_size=64,  # arrival rate never fills this before 5ms
            cache_size=0,
            max_latency_ms=max_latency_ms,
            clock=ManualClock(),
        )
        replay = TrafficReplay(platform, engine, interarrival_s=interarrival_s)
        result = replay.replay_day(400, budget_fraction=0.3)
        assert result.latencies is not None and result.latencies.size == 400
        assert result.latencies.max() <= max_latency_ms / 1000.0 + 1e-9
        # and the deadline path is what served the stream, not batch-full
        assert result.engine_stats["flush_deadline"] > 0
        assert result.engine_stats["flush_batch_full"] == 0
        assert result.spend <= result.budget + 1e-9

    def test_simulator_interarrival_requires_manual_clock(self, platform, stub_model):
        engine = ScoringEngine(stub_model, batch_size=8)
        with pytest.raises(ValueError, match="ManualClock"):
            TrafficReplay(platform, engine, interarrival_s=0.001)

    def test_unknown_flush_reason_rejected_before_counting(self, stub_model, rng):
        engine = ScoringEngine(stub_model, batch_size=8, cache_size=0)
        engine.submit(rng.normal(size=12))
        with pytest.raises(ValueError, match="reason"):
            engine.flush(reason="shutdown")
        assert engine.stats["flushes"] == 0  # counters untouched
        assert engine.flush() == 1  # the request is still flushable

    def test_deadline_rearms_after_a_failing_flush(self, rng):
        """A raising batch must not strand the surviving versions'
        requests without a deadline — the latency bound has to keep
        holding after a partial flush failure."""

        class Boom:
            def predict_roi(self, x):
                raise RuntimeError("down")

        calls: list[int] = []
        healthy = LinearROI(np.zeros(4), calls=calls)
        reg = ModelRegistry(traffic_split=0.5, random_state=0)
        reg.register(healthy)  # v1 champion
        reg.register(Boom())  # v2 challenger on half the keys
        key_healthy = next(k for k in range(100) if reg.route(k).version == 1)
        key_boom = next(k for k in range(100) if reg.route(k).version == 2)
        clock = ManualClock()
        engine = ScoringEngine(
            reg, batch_size=100, cache_size=0, max_latency_ms=5.0, clock=clock
        )
        r_healthy = engine.submit(rng.normal(size=4), key=key_healthy)
        engine.submit(rng.normal(size=4), key=key_boom)
        clock.advance(0.006)  # past the deadline: poll fires the flush
        with pytest.raises(RuntimeError, match="down"):
            engine.poll()
        assert engine.n_pending == 1  # the healthy batch survived
        # the survivor is overdue, so the re-armed deadline fires on the
        # very next poll — no silent loss of the latency guarantee
        assert engine.poll() >= 1
        assert engine.has_result(r_healthy)
        assert calls == [1]

    def test_deadline_loop_handles_non_comparable_tied_keys(self):
        from repro.runtime import DeadlineLoop

        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired = []
        loop.schedule("str-key", 1.0, lambda: fired.append("s"))
        loop.schedule(42, 1.0, lambda: fired.append("i"))  # tied, int vs str
        clock.advance(2.0)
        assert loop.poll() == 2  # would TypeError if keys were compared
        assert sorted(fired) == ["i", "s"]


# ---------------------------------------------------------------------------
# asynchronous flushing on a thread backend
# ---------------------------------------------------------------------------
class TestAsyncFlush:
    class SlowROI(LinearROI):
        """Scorer that takes real wall time, to expose asynchrony."""

        def predict_roi(self, x):
            import time

            time.sleep(0.05)
            return super().predict_roi(x)

    def test_flush_returns_before_scores_land(self, rng):
        model = self.SlowROI(np.ones(6) * 0.02)
        with ThreadBackend(1) as backend:
            engine = ScoringEngine(model, batch_size=4, cache_size=0, backend=backend)
            ids = [engine.submit(row) for row in rng.normal(size=(3, 6))]
            import time

            start = time.perf_counter()
            engine.flush()
            dispatch_time = time.perf_counter() - start
            assert dispatch_time < 0.04  # did not wait for the 50ms model
            assert engine.n_inflight == 1
            engine.join()
            assert engine.n_inflight == 0
            assert all(engine.has_result(rid) for rid in ids)

    def test_thread_backend_scores_match_serial(self, rng):
        w = np.ones(6) * 0.03
        x = rng.normal(size=(40, 6))
        serial = ScoringEngine(LinearROI(w), batch_size=8, cache_size=16)
        got_serial = np.array([serial.score(row) for row in x])
        with ThreadBackend(2) as backend:
            threaded = ScoringEngine(
                LinearROI(w), batch_size=8, cache_size=16, backend=backend
            )
            got_threaded = np.array([threaded.score(row) for row in x])
        np.testing.assert_array_equal(got_serial, got_threaded)
        assert serial.stats == threaded.stats

    def test_async_latency_measured_at_completion_not_reap(self, rng):
        """On an async backend the latency log must stamp when scoring
        *completed*, not whenever the caller got around to reaping —
        else a late join() fabricates huge waits."""
        import time

        model = LinearROI(np.ones(6) * 0.02)
        clock = ManualClock()
        with ThreadBackend(1) as backend:
            engine = ScoringEngine(
                model, batch_size=4, cache_size=0, backend=backend, clock=clock
            )
            engine.submit(rng.normal(size=6))
            engine.flush()  # dispatches at simulated t=0
            time.sleep(0.2)  # let the worker finish (stamps t=0)
            clock.advance(100.0)  # simulated time passes before the reap
            engine.join()
        assert engine.latencies == [0.0]  # not 100.0

    def test_replay_end_to_end_on_thread_backend(self, platform):
        probe = TestTrafficReplay()._probe_weights()
        with ThreadBackend(2) as backend:
            engine = ScoringEngine(
                LinearROI(probe), batch_size=64, cache_size=0, backend=backend
            )
            result = TrafficReplay(platform, engine).replay_day(1500, budget_fraction=0.3)
        assert result.n_events == 1500
        assert result.spend <= result.budget + 1e-9
        assert result.revenue_ratio > 0.0


# ---------------------------------------------------------------------------
# submit_batch: the vectorised ingest path
# ---------------------------------------------------------------------------
class TestSubmitBatch:
    """``submit_batch(X)`` is semantically N ``submit`` calls.

    Pinned as *full* equivalence — scores, stats (including flush
    counters), cache hits, version attribution, and the latency log —
    on both the vectorised fast path (static routing, cache off) and
    the per-row fallback (cache or live challenger).  The scalar
    reference engine batches rows into the same pending blocks at
    flush, so even the score floats are bit-identical.
    """

    W = np.linspace(-0.5, 0.5, 6)

    def _engine(self, split=0.0, **kwargs) -> ScoringEngine:
        registry = ModelRegistry(traffic_split=split, random_state=11)
        registry.register(LinearROI(self.W), promote=True)
        if split > 0.0:
            registry.register(LinearROI(-self.W))
        return ScoringEngine(registry, batch_size=16, **kwargs)

    def _rows(self, n=150):
        return np.random.default_rng(5).normal(size=(n, 6))

    def test_fast_path_matches_per_row_submits(self):
        rows = self._rows()
        batch = self._engine(cache_size=0)
        scalar = self._engine(cache_size=0)
        ids = batch.submit_batch(rows)
        assert isinstance(ids, range) and len(ids) == len(rows)
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        got = batch.take_block(ids)
        expected = np.array([scalar.take(rid) for rid in ref_ids])
        np.testing.assert_array_equal(got, expected)  # bit-identical
        assert batch.stats == scalar.stats  # incl. flushes/batches

    def test_cache_fallback_matches_per_row(self):
        rows = np.tile(self._rows(10), (6, 1))  # repeats → cache traffic
        batch = self._engine(cache_size=64)
        scalar = self._engine(cache_size=64)
        ids = batch.submit_batch(rows)
        assert isinstance(ids, range)  # contiguous ids on the per-row path too
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.take(rid) == scalar.take(ref)
        assert batch.stats == scalar.stats
        assert batch.stats["cache_hits"] > 0

    def test_challenger_routing_fallback_matches(self):
        """A live split forces per-row routing: the RNG draws in the
        same order as N submits, so versions and scores agree."""
        rows = self._rows(80)
        batch = self._engine(split=0.3, cache_size=0)
        scalar = self._engine(split=0.3, cache_size=0)
        ids = batch.submit_batch(rows)
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.version_of(rid) == scalar.version_of(ref)
            assert batch.take(rid) == scalar.take(ref)
        assert batch.stats == scalar.stats

    def test_keys_route_like_scalar_submits(self):
        rows = self._rows(60)
        keys = [f"user-{i % 7}" for i in range(len(rows))]
        batch = self._engine(split=0.5, cache_size=0)
        scalar = self._engine(split=0.5, cache_size=0)
        ids = batch.submit_batch(rows, keys=keys)
        ref_ids = [scalar.submit(row, key=k) for row, k in zip(rows, keys)]
        batch.flush()
        scalar.flush()
        for rid, ref in zip(ids, ref_ids):
            assert batch.version_of(rid) == scalar.version_of(ref)
            assert batch.take(rid) == scalar.take(ref)

    def test_latency_log_identical_under_manual_clock(self):
        rows = self._rows(48)
        clocks = (ManualClock(), ManualClock())
        batch = self._engine(cache_size=0, clock=clocks[0])
        scalar = self._engine(cache_size=0, clock=clocks[1])
        batch.submit_batch(rows)
        for row in rows:
            scalar.submit(row)
        for clock in clocks:
            clock.advance(0.004)
        batch.flush()
        scalar.flush()
        assert batch.latencies == scalar.latencies
        assert batch.latency_hist.snapshot() == scalar.latency_hist.snapshot()

    def test_mixed_scalar_then_block_bookkeeping(self):
        """Interleaving scalar submits with a block exercises the
        mixed-block per-rid path; results must still match per-row."""
        rows = self._rows(40)
        batch = self._engine(cache_size=0)
        scalar = self._engine(cache_size=0)
        pre = [batch.submit(row) for row in rows[:3]]
        ids = batch.submit_batch(rows[3:])
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        got = [batch.take(rid) for rid in pre] + list(batch.take_block(ids))
        expected = [scalar.take(rid) for rid in ref_ids]
        assert got == expected
        assert batch.stats == scalar.stats

    def test_validation_and_empty(self):
        engine = self._engine(cache_size=0)
        with pytest.raises(ValueError, match="2-D"):
            engine.submit_batch(np.zeros(6))
        with pytest.raises(ValueError, match="keys"):
            engine.submit_batch(np.zeros((3, 6)), keys=["a"])
        assert engine.submit_batch(np.empty((0, 6))) == range(0)
        assert engine.stats["requests"] == 0

    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_take_block_is_all_or_nothing(self, cache_size):
        """A ``take_block`` over ids that are not all scored raises
        KeyError for the first unresolved id and pops nothing, so the
        same call after the flush returns every score."""
        rows = self._rows(10)
        batch = ScoringEngine(LinearROI(self.W), batch_size=4, cache_size=cache_size)
        scalar = ScoringEngine(LinearROI(self.W), batch_size=4, cache_size=cache_size)
        ids = batch.submit_batch(rows)
        with pytest.raises(KeyError) as err:
            batch.take_block(ids)  # rows 8 and 9 are still buffered
        assert err.value.args == (8,)
        ref_ids = [scalar.submit(row) for row in rows]
        batch.flush()
        scalar.flush()
        got = batch.take_block(ids)
        np.testing.assert_array_equal(got, [scalar.take(rid) for rid in ref_ids])


# ---------------------------------------------------------------------------
# the engine against a reference: a Hypothesis state machine
# ---------------------------------------------------------------------------
class RowwiseROI:
    """Stub scorer whose score of a row never depends on its batch
    (elementwise arithmetic only), so a batched score is bit-identical
    to the same model scoring the row alone."""

    def __init__(self, slope: float) -> None:
        self.slope = slope

    def predict_roi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.clip(0.5 + self.slope * x[:, 0] - 0.05 * x[:, 1], 0.0, 1.0)


class EngineMachine(RuleBasedStateMachine):
    """Drives one :class:`ScoringEngine` through random interleavings of
    its request API and checks every answer against a reference: the
    set of submitted ids and the registry's models scoring each row
    alone.  Each id must resolve exactly once, to the score of the
    version ``version_of`` names."""

    ROWS = np.random.default_rng(7).normal(size=(5, 3))  # few rows: cache hits

    @initialize(
        threaded=st.booleans(),
        cache=st.booleans(),
        challenger=st.booleans(),
        deadline=st.booleans(),
        batch_size=st.integers(1, 5),
    )
    def build(self, threaded, cache, challenger, deadline, batch_size):
        registry = ModelRegistry(traffic_split=0.4 if challenger else 0.0, random_state=3)
        registry.register(RowwiseROI(0.1), promote=True)
        registry.register(RowwiseROI(-0.2))
        self.clock = ManualClock() if deadline else None
        self.backend = ThreadBackend(n_workers=2) if threaded else SerialBackend()
        self.engine = ScoringEngine(
            registry,
            batch_size=batch_size,
            cache_size=8 if cache else 0,
            max_latency_ms=5.0 if deadline else None,
            clock=self.clock,
            backend=self.backend,
        )
        # a tiny result table, so that short runs compact and grow it
        self.engine._table = _ResultTable(cap=2)
        self.row_of: dict[int, int] = {}  # rid -> row index, every submit
        self.resolved: set[int] = set()

    def teardown(self):
        engine = getattr(self, "engine", None)
        if engine is None:
            return
        try:
            engine.flush()
            engine.join()
            self._check_drained(engine.drain())
            assert engine.n_pending == 0 and engine.n_inflight == 0
            assert self.resolved == set(self.row_of)  # every id resolved once
            assert len(engine._table) == 0
        finally:
            self.backend.shutdown()

    # ---- reference checks -------------------------------------------
    def _outstanding(self) -> list[int]:
        return sorted(set(self.row_of) - self.resolved)

    def _check_resolved(self, rid: int, version: int, score: float) -> None:
        assert rid in self.row_of and rid not in self.resolved
        self.resolved.add(rid)
        model = self.engine.registry.get(version).model
        expected = model.predict_roi(self.ROWS[self.row_of[rid]])[0]
        assert score == expected

    def _check_drained(self, drained) -> None:
        rids = [rid for rid, _version, _score in drained]
        assert rids == sorted(rids)
        for rid, version, score in drained:
            self._check_resolved(rid, version, score)

    # ---- rules ------------------------------------------------------
    @rule(row=st.integers(0, 4), key=st.none() | st.integers(0, 9))
    def submit(self, row, key):
        rid = self.engine.submit(self.ROWS[row], key=key)
        assert rid == len(self.row_of)  # ids are issued contiguously
        self.row_of[rid] = row

    @rule(rows=st.lists(st.integers(0, 4), max_size=7), keyed=st.booleans())
    def submit_batch(self, rows, keyed):
        keys = list(range(len(rows))) if keyed else None
        ids = self.engine.submit_batch(self.ROWS[rows].reshape(len(rows), 3), keys=keys)
        assert ids == range(len(self.row_of), len(self.row_of) + len(rows))
        self.row_of.update(zip(ids, rows))

    @rule()
    def flush(self):
        self.engine.flush()

    @rule()
    def poll(self):
        self.engine.poll()

    @rule(ms=st.sampled_from([1.0, 4.0, 6.0]))
    def advance_clock(self, ms):
        if self.clock is not None:
            self.clock.advance(ms / 1000.0)

    # ids are picked by an index drawn from a wide fixed range, and every
    # rule draws before it looks at the ids: which ids are still
    # outstanding depends on when the thread backend finished a batch,
    # and draws whose bounds or number follow that timing make
    # Hypothesis abort with FlakyStrategyDefinition
    _INDEX = st.integers(0, 2**16)

    @rule(data=st.data())
    def take(self, data):
        index = data.draw(self._INDEX)
        outstanding = self._outstanding()
        if not outstanding:
            return
        rid = outstanding[index % len(outstanding)]
        version = self.engine.version_of(rid)  # valid until taken
        try:
            score = self.engine.take(rid)
        except KeyError:  # still pending: nothing popped
            assert self.engine.version_of(rid) == version
            return
        self._check_resolved(rid, version, score)

    @rule(data=st.data())
    def take_resolved_again(self, data):
        index = data.draw(self._INDEX)
        if not self.resolved:
            return
        resolved = sorted(self.resolved)
        rid = resolved[index % len(resolved)]
        with pytest.raises(KeyError):
            self.engine.take(rid)
        with pytest.raises(KeyError):
            self.engine.version_of(rid)

    @rule(data=st.data(), as_range=st.booleans())
    def take_block(self, data, as_range):
        if as_range:
            picks = [data.draw(self._INDEX), data.draw(self._INDEX)]
        else:
            picks = data.draw(st.lists(self._INDEX, max_size=6))
        outstanding = self._outstanding()
        if not outstanding:
            return
        if as_range:
            lo = outstanding[picks[0] % len(outstanding)]
            rids = range(lo, lo + picks[1] % (len(self.row_of) - lo + 1))
        else:
            rids = list(dict.fromkeys(outstanding[i % len(outstanding)] for i in picks))
        if any(rid in self.resolved for rid in rids):
            return  # a range may straddle ids already taken
        versions = [self.engine.version_of(rid) for rid in rids]
        try:
            scores = self.engine.take_block(rids)
        except KeyError as err:
            assert err.args[0] in rids
            # all or nothing: once everything is scored, the same block
            # still holds every score
            self.engine.flush()
            self.engine.join()
            scores = self.engine.take_block(rids)
        assert len(scores) == len(rids)
        for rid, version, score in zip(rids, versions, scores.tolist()):
            self._check_resolved(rid, version, score)

    @rule(data=st.data())
    def version_of(self, data):
        index = data.draw(self._INDEX)
        outstanding = self._outstanding()
        if outstanding:
            rid = outstanding[index % len(outstanding)]
            assert self.engine.version_of(rid) in (1, 2)

    @rule()
    def drain(self):
        self._check_drained(self.engine.drain())

    @invariant()
    def nothing_lost(self):
        if hasattr(self, "engine"):
            assert len(self.engine._table) == len(self.row_of) - len(self.resolved)


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


# ---------------------------------------------------------------------------
# MultiDayPacer (cross-day carryover)
# ---------------------------------------------------------------------------
class TestMultiDayPacer:
    def test_day2_absorbs_day1_underspend_pinned(self):
        """ISSUE acceptance: day-1 under-spend funds day-2's pacing,
        total multi-day spend stays strictly under the campaign
        budget, and every single-day invariant keeps holding."""
        daily, horizon = 10.0, 100
        multi = MultiDayPacer(
            daily_budget=daily,
            horizon=horizon,
            pacer_params=dict(
                warmup=8, refresh_every=8, window=32, lookahead=16,
                curve_slack=0.05, use_roi_floor=False,
            ),
        )
        # day 1: traffic dries up at midday — only 50 of 100 expected
        # arrivals show, so the uniform curve strands ~half the budget
        # (0.3 unit costs never divide the budget exactly, so every
        # day's spend sits strictly inside its boundary)
        day1 = multi.start_day()
        for _ in range(50):
            day1.offer(0.9, 0.3)
        assert day1.spent <= daily
        carry = multi.end_day()
        underspend = daily - day1.spent
        assert underspend > 3.0  # the curve really did strand budget
        assert carry == pytest.approx(underspend)

        # day 2: full traffic; its pacer holds base + carry
        day2 = multi.start_day()
        assert day2.budget == pytest.approx(daily + carry)
        for _ in range(horizon):
            day2.offer(0.9, 0.3)
        multi.end_day()

        # single-day invariants, both days
        for pacer in multi.days:
            assert pacer.spent <= pacer.budget + 1e-9
            for n_seen, spent, _thr in pacer.history:
                cap = pacer.budget * min(1.0, n_seen / pacer.horizon + 0.05)
                assert spent <= cap + 1e-9
        # day 2 actually used the carried budget: spent beyond its base
        assert multi.days[1].spent > daily
        # campaign invariant: strictly under the two-day plan
        assert multi.total_spent < 2 * daily
        assert multi.total_base_budget == pytest.approx(2 * daily)

    def test_early_mode_tilts_the_curve_forward(self):
        """'early' releases the carry at the start of the next day;
        'spread' paces it evenly — early must be ahead at quarter-day."""
        spends = {}
        for mode in ("spread", "early"):
            multi = MultiDayPacer(
                daily_budget=10.0,
                horizon=100,
                carryover_mode=mode,
                pacer_params=dict(
                    warmup=4, refresh_every=4, window=32, lookahead=8,
                    curve_slack=0.01, use_roi_floor=False,
                ),
            )
            day1 = multi.start_day()
            for _ in range(30):  # heavy underspend: carry ~7
                day1.offer(0.9, 1.0)
            multi.end_day()
            day2 = multi.start_day()
            for _ in range(25):  # first quarter of day 2
                day2.offer(0.9, 1.0)
            spends[mode] = day2.spent
            multi.end_day()
        assert spends["early"] > spends["spread"] + 2.0

    def test_zero_carryover_is_amnesiac(self):
        multi = MultiDayPacer(daily_budget=10.0, horizon=50, carryover=0.0)
        day1 = multi.start_day()
        for _ in range(10):
            day1.offer(0.5, 1.0)
        assert multi.end_day() == 0.0
        assert multi.start_day().budget == 10.0

    def test_delegation_and_lifecycle_errors(self):
        multi = MultiDayPacer(daily_budget=5.0, horizon=10)
        with pytest.raises(RuntimeError, match="start_day"):
            multi.offer(0.5, 1.0)
        with pytest.raises(RuntimeError, match="start_day"):
            multi.end_day()
        multi.start_day()
        assert isinstance(multi.offer(0.5, 1.0), bool)
        multi.observe_outcome(1, 1.0, 1.0)
        with pytest.raises(RuntimeError, match="end_day"):
            multi.start_day()
        multi.end_day()

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="carryover must"):
            MultiDayPacer(daily_budget=1.0, horizon=10, carryover=1.5)
        with pytest.raises(ValueError, match="carryover_mode"):
            MultiDayPacer(daily_budget=1.0, horizon=10, carryover_mode="late")
        with pytest.raises(ValueError, match="daily_budget"):
            MultiDayPacer(daily_budget=-1.0, horizon=10)
        multi = MultiDayPacer()  # defaults omitted is fine...
        with pytest.raises(ValueError, match="base_budget"):
            multi.start_day()  # ...until a day needs numbers

    def test_per_day_overrides(self):
        multi = MultiDayPacer(daily_budget=5.0, horizon=10)
        day = multi.start_day(base_budget=7.0, horizon=20)
        assert day.budget == 7.0
        assert day.horizon == 20


# ---------------------------------------------------------------------------
# multi-day replay (campaign mode)
# ---------------------------------------------------------------------------
class TestMultiDayReplay:
    def test_campaign_accounting_and_carry(self, platform):
        probe = TestTrafficReplay()._probe_weights()
        engine = ScoringEngine(LinearROI(probe), batch_size=128, cache_size=0)
        replay = TrafficReplay(platform, engine)
        result = replay.replay_days(3, 1200, budget_fraction=0.3)
        assert result.n_days == 3 and len(result.ledger) == 3
        # per-day: the day budget is base + carry-in, and never overspent
        carry_in = 0.0
        for day, (base, day_budget, spent, carry_out) in zip(result.days, result.ledger):
            assert day_budget == pytest.approx(base + carry_in)
            assert day.budget == pytest.approx(day_budget)
            assert day.spend == pytest.approx(spent)
            assert spent <= day_budget + 1e-9
            assert carry_out == pytest.approx(day_budget - spent)
            carry_in = carry_out
        # campaign invariant: total spend strictly under the total plan
        assert result.total_spend < result.total_base_budget
        assert result.total_incremental_revenue > 0.0
        summary = result.summary()
        assert summary["n_days"] == 3 and len(summary["carryovers"]) == 3

    def test_carry_makes_later_days_richer(self, platform):
        """With carryover, day budgets are weakly increasing whenever
        every day underspends — and day 2's must strictly exceed its
        base because the strict boundary always leaves residual."""
        probe = TestTrafficReplay()._probe_weights()
        engine = ScoringEngine(LinearROI(probe), batch_size=128, cache_size=0)
        result = TrafficReplay(platform, engine).replay_days(2, 1000, budget_fraction=0.25)
        base2, budget2, _spent2, _c = result.ledger[1]
        assert budget2 > base2  # day-1 residual landed on day 2

    def test_per_day_engine_stats_are_deltas_not_cumulative(self, platform, stub_model):
        """One engine serves the whole campaign, but each day's
        ReplayResult must report that day's counters only."""
        engine = ScoringEngine(stub_model, batch_size=64, cache_size=0)
        result = TrafficReplay(platform, engine).replay_days(2, 500, budget_fraction=0.3)
        assert result.days[0].engine_stats["requests"] == 500
        assert result.days[1].engine_stats["requests"] == 500  # not 1000
        assert engine.stats["requests"] == 1000  # the engine itself is cumulative

    def test_invalid_n_days(self, platform, stub_model):
        engine = ScoringEngine(stub_model, batch_size=8)
        with pytest.raises(ValueError, match="n_days"):
            TrafficReplay(platform, engine).replay_days(0, 500)


# ---------------------------------------------------------------------------
# BudgetPacer
# ---------------------------------------------------------------------------
class TestBudgetPacer:
    def test_zero_budget_admits_nobody(self, rng):
        pacer = BudgetPacer(0.0, horizon=100)
        admits = [pacer.offer(s, 0.3) for s in rng.random(100)]
        assert not any(admits)
        assert pacer.spent == 0.0

    def test_nonpositive_cost_rejected(self):
        pacer = BudgetPacer(10.0, horizon=10)
        with pytest.raises(ValueError, match="cost"):
            pacer.offer(0.5, 0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="budget"):
            BudgetPacer(-1.0, horizon=10)
        with pytest.raises(ValueError, match="budget"):
            BudgetPacer(float("nan"), horizon=10)
        with pytest.raises(ValueError, match="horizon"):
            BudgetPacer(1.0, horizon=0)

    def test_paces_tiny_cost_traffic(self, rng):
        """The threshold fit is cost-scale independent (relative gap)."""
        n = 2000
        costs = np.full(n, 2e-5)
        budget = 0.3 * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n)
        for s in rng.random(n):
            pacer.offer(float(s), 2e-5)
        assert pacer.spent <= budget + 1e-12
        assert pacer.spent > 0.8 * budget  # threshold tracked, not arbitrary

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        budget_frac=st.floats(min_value=0.0, max_value=1.2),
        n=st.integers(min_value=1, max_value=800),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_overspends_property(self, seed, budget_frac, n):
        """Hard invariant: spend <= budget for any stream and budget."""
        gen = np.random.default_rng(seed)
        scores = gen.random(n)
        costs = gen.random(n) * 0.5 + 0.05
        budget = budget_frac * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n, window=64, refresh_every=16, warmup=16)
        for s, c in zip(scores, costs):
            pacer.offer(float(s), float(c))
        assert pacer.spent <= budget + 1e-9
        assert pacer.n_admitted <= n

    def test_paces_instead_of_front_loading(self, rng):
        """Spend at mid-day stays near half the budget, not all of it."""
        n = 4000
        scores = rng.random(n)
        costs = np.full(n, 0.3)
        budget = 0.3 * float(np.sum(costs))
        pacer = BudgetPacer(budget, horizon=n)
        half_spend = None
        for k, (s, c) in enumerate(zip(scores, costs)):
            pacer.offer(float(s), float(c))
            if k == n // 2:
                half_spend = pacer.spent
        assert 0.35 * budget < half_spend < 0.65 * budget
        assert pacer.spent > 0.9 * budget  # and the budget does get used

    def test_short_horizon_still_engages_threshold(self, rng):
        """Default warmup is capped so tiny days are not score-blind."""
        n = 100
        pacer = BudgetPacer(5.0, horizon=n, refresh_every=8, window=32)
        assert pacer.warmup == n // 4
        for s in rng.random(n):
            pacer.offer(float(s), 0.3)
        assert pacer.history  # the threshold refresh actually ran

    def test_roi_floor_activates_with_outcomes(self, rng):
        pacer = BudgetPacer(
            1e9, horizon=2000, warmup=10, refresh_every=10, min_arm_outcomes=20
        )
        # profitable traffic: treated users realise revenue ~70% of cost
        for _ in range(300):
            treated = rng.random() < 0.5
            y_c = float(rng.random() < 0.8) if treated else 0.0
            y_r = float(rng.random() < 0.55) if treated else 0.0
            pacer.observe_outcome(int(treated), y_r, y_c)
            pacer.offer(float(rng.random()), 0.3)
        assert pacer.roi_floor_ > 0.0
        assert pacer.threshold_ >= pacer.roi_floor_

    def test_roi_floor_inactive_when_tau_c_not_positive(self, rng):
        """Zero realised cost violates Assumption 4: the floor must stay off."""
        pacer = BudgetPacer(
            1e9, horizon=1000, warmup=10, refresh_every=10, min_arm_outcomes=20
        )
        admitted = 0
        for _ in range(500):
            treated = rng.random() < 0.5
            y_r = float(treated and rng.random() < 0.6)
            pacer.observe_outcome(int(treated), y_r, 0.0)  # never any cost
            admitted += pacer.offer(float(rng.random()), 0.3)
        assert pacer.roi_floor_ == 0.0
        assert admitted > 400  # a degenerate floor would shut admission off

    def test_custom_curve_respected(self, rng):
        """A back-loaded curve keeps early spend near zero."""
        n = 2000
        pacer = BudgetPacer(
            100.0,
            horizon=n,
            target_curve=lambda p: p**3,
            curve_slack=0.01,
            warmup=16,
        )
        for _ in range(n // 4):
            pacer.offer(float(rng.random()), 0.3)
        # curve(0.25) ~ 1.6% of budget (+1% slack)
        assert pacer.spent <= 100.0 * (0.25**3 + 0.011) + 0.3

    def test_warmup_boundary_gates_the_fitting_arrival(self):
        """Regression: the arrival that completes warmup triggers the
        first threshold fit and must already be gated by it — the
        off-by-one (`_refresh` at >= warmup, gate at > warmup) ignored
        the freshly fitted threshold for exactly that arrival."""
        pacer = BudgetPacer(
            10.0,
            horizon=100,
            warmup=4,
            refresh_every=1,
            lookahead=10,
            curve_slack=0.5,
            use_roi_floor=False,
        )
        assert pacer.warmup == 4
        # warmup arrivals are curve-gated only: all admitted, spend runs
        # far ahead of the uniform curve
        assert all(pacer.offer(0.9, 1.0) for _ in range(3))
        assert pacer.spent == 3.0
        # arrival 4 completes warmup; the fit sees spend ahead of the
        # curve and sets a prohibitive threshold — this very arrival
        # must be rejected (the curve cap alone would still admit it)
        assert pacer.offer(0.9, 1.0) is False
        assert pacer.history and pacer.history[0][0] == 4  # fit happened at n_seen=4
        assert pacer.threshold_ > 0.9
        assert pacer.spent == 3.0

    def test_ahead_of_curve_lockout_cannot_be_pierced(self):
        """Regression: the ahead-of-curve lockout used to set
        ``threshold_ = max(window scores) + 1``, so a later arrival
        scoring above the window max pierced the lockout and spent
        while the pacer believed it was admitting nothing.  The
        lockout must be unconditional (``inf``)."""
        pacer = BudgetPacer(
            100.0,
            horizon=100,
            warmup=4,
            refresh_every=64,  # no re-fit between the arrivals below
            lookahead=4,
            curve_slack=0.5,  # the curve cap alone would still admit
            window=32,
            use_roi_floor=False,
        )
        # warmup arrivals are curve-gated only: spend runs far ahead of
        # the uniform curve's lookahead target
        assert all(pacer.offer(0.5, 5.0) for _ in range(3))
        assert pacer.spent == 15.0
        # arrival 4 completes warmup; the fit sees spend ahead of the
        # curve -> lockout engages and gates this very arrival
        assert pacer.offer(0.5, 5.0) is False
        assert pacer.threshold_ == np.inf
        # the piercing arrival: scores above the window max (old
        # threshold was max + 1 = 1.5) with no refresh in between
        assert pacer.offer(2.0, 5.0) is False
        assert pacer.spent == 15.0  # nothing leaked through the lockout

    def test_adapts_to_intra_day_score_drift(self, rng):
        """Non-stationary arrivals: the score distribution jumps mid-day
        and the sliding window must re-fit the threshold while both
        pacing invariants keep holding."""
        n = 4000
        budget = 800.0  # constant unit costs -> ~20% of arrivals affordable
        curve_slack = 0.05
        pacer = BudgetPacer(
            budget,
            horizon=n,
            window=512,
            refresh_every=64,
            warmup=128,
            lookahead=256,
            curve_slack=curve_slack,
            use_roi_floor=False,
        )
        scores = np.concatenate(
            [rng.uniform(0.0, 1.0, n // 2), rng.uniform(2.0, 3.0, n // 2)]
        )
        for s in scores:
            pacer.offer(float(s), 1.0)
        # invariant 1: never overspends the budget
        assert pacer.spent <= budget + 1e-9
        # invariant 2: every refresh point sat on or under curve + slack
        for n_seen, spent, _thr in pacer.history:
            cap = budget * min(1.0, n_seen / n + curve_slack)
            assert spent <= cap + 1e-9
        # the threshold re-adapted to the drifted distribution: late
        # fits sit in the new score range, early fits in the old one
        early = [thr for seen, _s, thr in pacer.history if seen <= n // 2]
        late = [thr for seen, _s, thr in pacer.history if seen > n // 2 + 512]
        assert early and late
        assert np.median(late) > np.median(early) + 1.0
        assert np.median(early) < 1.0  # fitted inside the pre-drift range
        assert np.median(late) > 2.0  # fitted inside the post-drift range
        # and the budget keeps being used after the drift, not starved
        assert pacer.spent > 0.8 * budget


# ---------------------------------------------------------------------------
# the pacer's window columns: equivalence pins against the deque pacer
# ---------------------------------------------------------------------------
def _reference_roi_star(t, y_r, y_c, eps=1e-3, clip=1e-3):
    """Algorithm 2 re-deriving the pooled uplifts at every bisection step."""
    roi_star = bisect_monotone(
        lambda roi: drp_pooled_derivative(roi, t, y_r, y_c), 0.0, 1.0, eps=eps
    )
    return float(np.clip(roi_star, clip, 1.0 - clip))


class ReferencePacer(BudgetPacer):
    """The deque-based pacer: windows rebuilt into arrays at every
    refresh, ``roi*`` bisected on the per-step pooled derivative.  The
    columnar :class:`BudgetPacer` must decide byte-identically."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._traffic = deque(maxlen=self.window)
        self._outcomes = deque(maxlen=self.window)

    def offer(self, score: float, cost: float) -> bool:
        score = float(score)
        cost = float(cost)
        if cost <= 0:
            raise ValueError(f"cost must be > 0 (Assumption 4), got {cost}")
        self.n_seen += 1
        self._c_offers.inc()
        self.offered_cost += cost
        self._traffic.append((score, cost))
        if (
            self.n_seen >= self.warmup
            and self.n_seen - self._last_refresh >= self.refresh_every
        ):
            self._refresh()

        progress = min(1.0, self.n_seen / self.horizon)
        curve_cap = self.budget * min(
            1.0, float(self.target_curve(progress)) + self.curve_slack
        )
        cap = min(self.budget, curve_cap)
        if self.spent + cost > cap:
            return False
        if self.n_seen >= self.warmup and score < self.threshold_:
            return False
        self.n_admitted += 1
        self.spent += cost
        self._c_admits.inc()
        self._g_spend.set(self.spent)
        return True

    def observe_outcome(self, t: int, y_r: float, y_c: float) -> None:
        self._outcomes.append((int(t), float(y_r), float(y_c)))

    def _refresh(self) -> None:
        self._last_refresh = self.n_seen
        self._c_refreshes.inc()
        traffic = np.asarray(self._traffic, dtype=float)
        scores, costs = traffic[:, 0], traffic[:, 1]

        progress = min(1.0, self.n_seen / self.horizon)
        ahead = min(1.0, (self.n_seen + self.lookahead) / self.horizon)
        events_ahead = max(1, int(round((ahead - progress) * self.horizon)))
        target_cum = self.budget * float(self.target_curve(ahead))
        rate = (target_cum - self.spent) / events_ahead

        if rate <= 0.0:
            self.threshold_ = np.inf
            self._c_lockouts.inc()
        else:
            lo = float(np.min(scores)) - 1e-9
            hi = float(np.max(scores)) + 1e-9

            def pace_gap(thr: float) -> float:
                admitted = float(np.mean(np.where(scores >= thr, costs, 0.0)))
                return 1.0 - admitted / rate

            if pace_gap(lo) >= 0.0:
                self.threshold_ = lo
            else:
                self.threshold_ = bisect_monotone(pace_gap, lo, hi, eps=1e-3)

        if self.use_roi_floor and self._outcomes:
            outcomes = np.asarray(self._outcomes, dtype=float)
            t, y_r, y_c = outcomes[:, 0], outcomes[:, 1], outcomes[:, 2]
            n1, n0 = int(np.sum(t == 1)), int(np.sum(t == 0))
            if n1 >= self.min_arm_outcomes and n0 >= self.min_arm_outcomes:
                tau_c = float(y_c[t == 1].mean() - y_c[t == 0].mean())
                if tau_c > 0.0:
                    self.roi_floor_ = _reference_roi_star(t, y_r, y_c)
                    self.threshold_ = max(self.threshold_, self.roi_floor_)
        self.history.append((self.n_seen, self.spent, self.threshold_))
        self.offered_trace.append((self.n_seen, self.offered_cost))
        self._g_threshold.set(self.threshold_)
        self._g_roi_floor.set(self.roi_floor_)
        self._g_spend_vs_curve.set(
            self.spent - self.budget * float(self.target_curve(progress))
        )


def _pacer_state(pacer) -> bytes:
    """Everything a pacer decided, as bytes (floats compare bit for bit)."""
    return pickle.dumps(
        (pacer.n_seen, pacer.n_admitted, pacer.spent, pacer.offered_cost,
         pacer.threshold_, pacer.roi_floor_, pacer.history, pacer.offered_trace)
    )


def _drive(pacers, gen, n, p_outcome=0.7, p_rebudget=0.0):
    """Feed every pacer the same random stream; returns each one's
    decisions as bytes.  Treated outcomes carry a random lift, so the
    window's ``tau_c`` lands on both sides of zero across draws."""
    lift_r, lift_c = gen.uniform(-0.2, 0.5, size=2)
    decisions = [[] for _ in pacers]
    for _ in range(n):
        score = float(gen.normal())
        cost = float(gen.random() * 0.5 + 0.05)
        for pacer, out in zip(pacers, decisions):
            out.append(pacer.offer(score, cost))
        if gen.random() < p_outcome:
            t = int(gen.random() < 0.5)
            y_r = float(gen.random() < 0.3 + t * lift_r)
            y_c = float(gen.random() < 0.3 + t * lift_c) + 0.01 * float(gen.random())
            for pacer in pacers:
                pacer.observe_outcome(t, y_r, y_c)
        if gen.random() < p_rebudget:
            budget = pacers[0].spent + float(gen.random()) * pacers[0].budget
            for pacer in pacers:
                pacer.rebudget(budget)
    return [bytes(np.asarray(out, dtype=bool)) for out in decisions]


def _early_tilted_curve(horizon):
    """The ``"early"`` carryover tilt a :class:`MultiDayPacer` puts on a
    day that inherits a residual (here: the whole idle first day)."""
    multi = MultiDayPacer(daily_budget=3.0, horizon=horizon, carryover_mode="early")
    multi.start_day()
    multi.end_day()
    return multi.start_day().target_curve


class TestPacerWindowEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        window=st.integers(min_value=2, max_value=17),
        refresh_every=st.integers(min_value=1, max_value=20),
        warmup=st.integers(min_value=0, max_value=40),
        lookahead=st.integers(min_value=1, max_value=64),
        use_roi_floor=st.booleans(),
        min_arm_outcomes=st.integers(min_value=0, max_value=3),
        curve=st.sampled_from(["uniform", "empirical", "early"]),
        budget_frac=st.floats(min_value=0.0, max_value=1.2),
        p_rebudget=st.sampled_from([0.0, 0.02]),
    )
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference's empty-arm means
    def test_decisions_byte_equal_to_deque_reference(
        self, seed, n, window, refresh_every, warmup, lookahead, use_roi_floor,
        min_arm_outcomes, curve, budget_frac, p_rebudget,
    ):
        target_curve = {
            "uniform": None,
            "empirical": EmpiricalCurve(
                np.array([0.0, 0.2, 0.7, 1.0]), np.array([0.0, 0.5, 0.6, 1.0])
            ),
            "early": _early_tilted_curve(n),
        }[curve]
        params = dict(
            window=window, refresh_every=refresh_every, warmup=warmup,
            lookahead=lookahead, use_roi_floor=use_roi_floor,
            min_arm_outcomes=min_arm_outcomes, target_curve=target_curve,
        )
        budget = budget_frac * 0.3 * n
        pacer = BudgetPacer(budget, n, **params)
        reference = ReferencePacer(budget, n, **params)
        got, want = _drive(
            [pacer, reference], np.random.default_rng(seed), n, p_rebudget=p_rebudget
        )
        assert got == want
        assert _pacer_state(pacer) == _pacer_state(reference)

    def test_roi_floor_engages_in_the_pinned_streams(self):
        """The equivalence property covers the floor, not just pacing."""
        pacer = BudgetPacer(1e9, 300, window=16, warmup=4, refresh_every=4, min_arm_outcomes=2)
        reference = ReferencePacer(1e9, 300, window=16, warmup=4, refresh_every=4, min_arm_outcomes=2)
        got, want = _drive([pacer, reference], np.random.default_rng(11), 300)
        assert got == want
        assert _pacer_state(pacer) == _pacer_state(reference)
        assert pacer.roi_floor_ > 0.0

    def test_pickled_mid_stream_continues_identically(self):
        """Unpickling rebuilds the window's write views over the copied
        columns, after the columns have compacted."""
        pacer = BudgetPacer(40.0, 400, window=8, warmup=4, refresh_every=3, min_arm_outcomes=1)
        _drive([pacer], np.random.default_rng(5), 50)  # 50 > 2 * window: compacted
        clone = pickle.loads(pickle.dumps(pacer))
        got, want = _drive([clone, pacer], np.random.default_rng(6), 200)
        assert got == want
        assert _pacer_state(clone) == _pacer_state(pacer)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=400),
        eps=st.sampled_from([1e-2, 1e-3, 1e-5]),
        lift=st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_roi_star_byte_equal_to_per_step_derivative(self, seed, n, eps, lift):
        gen = np.random.default_rng(seed)
        t = np.arange(n) % 2  # both arms present
        y_r = gen.random(n) + 0.3 * t
        y_c = gen.random(n) + lift * t
        got = binary_search_roi_star(t, y_r, y_c, eps=eps)
        assert pickle.dumps(got) == pickle.dumps(_reference_roi_star(t, y_r, y_c, eps=eps))

    def test_roi_star_still_needs_both_arms(self):
        with pytest.raises(ValueError, match="Both treated and control"):
            binary_search_roi_star(np.ones(5), np.ones(5), np.ones(5))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binned_roi_star_estimate_byte_equal(self, seed, monkeypatch):
        gen = np.random.default_rng(seed)
        n = 3000
        roi_hat = gen.random(n)
        t = (gen.random(n) < 0.5).astype(int)
        y_c = (gen.random(n) < 0.2 + 0.4 * roi_hat * t).astype(float)
        y_r = (gen.random(n) < 0.1 + 0.3 * roi_hat * t).astype(float)
        estimator = RoiStarEstimator(mode="binned", n_bins=12, min_arm_per_bin=10)
        got = estimator.estimate(roi_hat, t, y_r, y_c)
        monkeypatch.setattr(roi_star_module, "binary_search_roi_star", _reference_roi_star)
        want = estimator.estimate(roi_hat, t, y_r, y_c)
        assert got.tobytes() == want.tobytes()


class TestPacerInputValidation:
    @pytest.mark.parametrize(
        "score, cost",
        [
            (0.5, float("nan")),  # poisons spent: the cap never binds again
            (0.5, float("inf")),
            (float("nan"), 0.3),  # poisons the window's threshold
            (float("inf"), 0.3),  # pierces an inf lockout
            (float("-inf"), 0.3),
        ],
    )
    def test_non_finite_offer_rejected_before_any_state_change(self, score, cost):
        registry = MetricsRegistry()
        pacer = BudgetPacer(10.0, 100, warmup=2, refresh_every=100, metrics=registry)
        for _ in range(3):
            pacer.offer(0.5, 0.3)
        before = (_pacer_state(pacer), len(pacer._traffic), registry.snapshot())
        with pytest.raises(ValueError, match="score|cost"):
            pacer.offer(score, cost)
        assert (_pacer_state(pacer), len(pacer._traffic), registry.snapshot()) == before

    def test_wrappers_inherit_the_offer_check(self):
        from repro.serving.sharding import ShardedBudgetPacer

        multi = MultiDayPacer(daily_budget=5.0, horizon=10)
        multi.start_day()
        sharded = ShardedBudgetPacer(10.0, 100, 2, use_roi_floor=False)
        for pacer in (multi, sharded):
            with pytest.raises(ValueError, match="cost"):
                pacer.offer(0.5, float("nan"))
            with pytest.raises(ValueError, match="score"):
                pacer.offer(float("nan"), 0.3)
        assert multi.current.n_seen == 0
        assert sharded.n_seen == 0

    @pytest.mark.parametrize(
        "t, y_r, y_c",
        [
            (2, 1.0, 1.0),  # neither arm in the guard, control in the bisection
            (-1, 1.0, 1.0),
            (0.5, 1.0, 1.0),
            (1, float("nan"), 1.0),
            (1, 1.0, float("inf")),
            (0, float("-inf"), 0.0),
        ],
    )
    def test_invalid_outcome_rejected_and_not_recorded(self, t, y_r, y_c):
        pacer = BudgetPacer(10.0, 100)
        pacer.observe_outcome(1, 1.0, 1.0)
        with pytest.raises(ValueError, match="t must|outcomes must"):
            pacer.observe_outcome(t, y_r, y_c)
        assert len(pacer._outcomes) == 1


# ---------------------------------------------------------------------------
# TrafficReplay end-to-end (the ISSUE acceptance scenario)
# ---------------------------------------------------------------------------
class TestTrafficReplay:
    def _probe_weights(self):
        from repro.data import criteo_uplift_v2

        probe = criteo_uplift_v2(4000, random_state=5)
        return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    def test_10k_day_matches_offline_greedy(self, platform):
        """Never overspends and reaches >= 90% of the oracle's revenue."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=256, cache_size=0
        )
        replay = TrafficReplay(platform, engine)
        result = replay.replay_day(10_000, budget_fraction=0.3)
        assert result.spend <= result.budget + 1e-9
        assert result.revenue_ratio >= 0.9
        # spend trajectory tracks the uniform curve at mid-day
        mid = result.spend_trajectory[result.n_events // 2]
        assert 0.35 * result.budget < mid < 0.65 * result.budget

    def test_online_equals_oracle_scores(self, platform):
        """The oracle is computed on the very scores served online."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=64, cache_size=0
        )
        result = TrafficReplay(platform, engine).replay_day(
            1500, budget_fraction=0.25
        )
        assert result.n_events == 1500
        assert result.oracle_spend <= result.budget + 1e-9
        assert 0.0 < result.revenue_ratio <= 1.0 + 1e-9

    def test_single_user_batches(self, platform):
        """batch_size=1 (pure synchronous serving) still works end-to-end."""
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=1, cache_size=0
        )
        result = TrafficReplay(platform, engine).replay_day(400)
        assert result.n_events == 400
        assert result.spend <= result.budget + 1e-9
        assert result.engine_stats["model_calls"] == 400

    def test_zero_budget_day(self, platform):
        engine = ScoringEngine(LinearROI(self._probe_weights()), batch_size=32)
        result = TrafficReplay(platform, engine).replay_day(300, budget=0.0)
        assert result.n_treated == 0
        assert result.spend == 0.0

    def test_feedback_populates_roi_floor(self, platform):
        engine = ScoringEngine(
            LinearROI(self._probe_weights()), batch_size=64, cache_size=0
        )
        replay = TrafficReplay(platform, engine, feedback=True, random_state=7)
        result = replay.replay_day(
            3000,
            budget_fraction=0.3,
            pacer_params=dict(min_arm_outcomes=30),
        )
        assert result.spend <= result.budget + 1e-9
        # the floor engaged at some refresh: recorded thresholds reach it
        assert any(thr > 0 for _n, _s, thr in result.pacing_history)


# ---------------------------------------------------------------------------
# OutcomeLedger folding (regression: streaming moments must survive
# pickle round-trips and Snapshot.merge-style folding exactly)
# ---------------------------------------------------------------------------


class TestOutcomeLedgerFolding:
    @staticmethod
    def _filled(seed, n):
        from repro.serving.registry import OutcomeLedger

        gen = np.random.default_rng(seed)
        ledger = OutcomeLedger()
        rows = list(zip(gen.random(n) < 0.5, gen.random(n), gen.random(n) * 0.5))
        for t, r, c in rows:
            ledger.record(bool(t), float(r), float(c))
        return ledger, rows

    def test_pickle_roundtrip_exact_moments(self):
        import pickle

        ledger, _ = self._filled(0, 75)
        before_net = ledger.moments("net")
        before_rev = ledger.moments("revenue")
        clone = pickle.loads(pickle.dumps(ledger))
        assert clone.moments("net") == before_net
        assert clone.moments("revenue") == before_rev
        assert (clone.n, clone.n_treated) == (ledger.n, ledger.n_treated)
        assert (clone.spend, clone.revenue) == (ledger.spend, ledger.revenue)
        # folding a pickled replica back in doubles every raw sum
        ledger.merge(clone)
        assert ledger.n == 150
        assert ledger.moments("net")[0] == before_net[0]

    def test_merge_equals_sequential_recording(self):
        from repro.serving.registry import OutcomeLedger

        a, rows_a = self._filled(1, 40)
        b, rows_b = self._filled(2, 60)
        merged = a.merge(b)
        assert merged is a
        sequential = OutcomeLedger()
        for t, r, c in rows_a + rows_b:
            sequential.record(bool(t), float(r), float(c))
        # raw sums fold as block additions, so the only divergence from
        # row-by-row accumulation is float summation order (~1 ULP)
        for metric in ("net", "revenue"):
            got, want = a.moments(metric), sequential.moments(metric)
            assert got[-1] == want[-1]  # counts are exact
            assert got[:-1] == pytest.approx(want[:-1], rel=1e-12)
        assert a.n == sequential.n and a.n_treated == sequential.n_treated

    def test_merge_commutes(self):
        a1, _ = self._filled(3, 30)
        b1, _ = self._filled(4, 50)
        a2, _ = self._filled(3, 30)
        b2, _ = self._filled(4, 50)
        assert a1.merge(b1).moments("net") == b2.merge(a2).moments("net")

    def test_merge_empty_is_identity(self):
        from repro.serving.registry import OutcomeLedger

        a, _ = self._filled(5, 20)
        before = a.moments("net")
        a.merge(OutcomeLedger())
        assert a.moments("net") == before


# ---------------------------------------------------------------------------
# Day-ahead planning (MultiDayPacer.plan_next_day + EmpiricalCurve)
# ---------------------------------------------------------------------------


class TestDayAheadPlanning:
    @staticmethod
    def _run_day(multi, n=600, seed=0):
        gen = np.random.default_rng(seed)
        multi.start_day()
        for _ in range(n):
            multi.offer(float(gen.random()), 0.2 + 0.3 * float(gen.random()))
        pacer = multi.current
        multi.end_day()
        return pacer

    def test_plan_sizes_from_observed_traffic(self):
        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(
            daily_budget=40.0, horizon=600, pacer_params={"refresh_every": 50}
        )
        day1 = self._run_day(multi)
        plan = multi.plan_next_day(0.3)
        assert plan.base_budget == pytest.approx(0.3 * day1.offered_cost)
        assert plan.horizon == 600
        curve = plan.target_curve
        assert curve is not None
        assert curve(0.0) == 0.0 and curve(1.0) == 1.0
        # demand arrives uniformly here, so the empirical curve is
        # close to the identity in the interior
        assert curve(0.5) == pytest.approx(0.5, abs=0.1)

    def test_planned_day_runs_with_planned_curve(self):
        import pickle

        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(
            daily_budget=40.0, horizon=600, pacer_params={"refresh_every": 50}
        )
        self._run_day(multi, seed=1)
        plan = multi.plan_next_day(0.3)
        pacer = multi.start_day(plan.base_budget, plan.horizon, plan.target_curve)
        assert pacer.budget == pytest.approx(plan.base_budget + multi.days[0].budget
                                             - multi.days[0].spent)
        pickle.loads(pickle.dumps(pacer))  # planned pacers must still ship
        gen = np.random.default_rng(2)
        for _ in range(600):
            multi.offer(float(gen.random()), 0.25)
        assert pacer.spent <= pacer.budget
        multi.end_day()

    def test_plan_without_completed_day_rejected(self):
        from repro.serving.pacing import MultiDayPacer

        multi = MultiDayPacer(daily_budget=10.0, horizon=100)
        with pytest.raises(RuntimeError, match="completed day"):
            multi.plan_next_day(0.3)
        multi.start_day()
        with pytest.raises(RuntimeError, match="completed day"):
            multi.plan_next_day(0.3)

    def test_offered_cost_tracks_all_offers(self):
        from repro.serving.pacing import BudgetPacer

        pacer = BudgetPacer(5.0, 100, refresh_every=10)
        gen = np.random.default_rng(3)
        costs = 0.1 + 0.2 * gen.random(100)
        for c in costs:
            pacer.offer(float(gen.random()), float(c))
        # offered_cost counts admitted AND skipped offers
        assert pacer.offered_cost == pytest.approx(float(costs.sum()))
        assert pacer.offered_trace  # refreshes recorded the demand shape
        n_last, c_last = pacer.offered_trace[-1]
        assert n_last <= 100 and c_last <= pacer.offered_cost

    def test_empirical_curve_validation(self):
        from repro.serving.pacing import EmpiricalCurve

        with pytest.raises(ValueError, match="span"):
            EmpiricalCurve(np.array([0.0, 0.5]), np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="non-decreasing"):
            EmpiricalCurve(np.array([0.0, 0.6, 1.0]), np.array([0.0, 1.2, 1.0]))
        with pytest.raises(ValueError, match="non-empty"):
            EmpiricalCurve.from_trace([], 0, 0.0)
