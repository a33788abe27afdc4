"""Sharded serving fleet pins: equivalence, merge accounting, pacing.

The load-bearing guarantees of :mod:`repro.serving.sharding`:

* a single-shard fleet over the :class:`SerialBackend` is
  **bit-identical** to a plain :class:`ScoringEngine` on the same
  request stream — scores, stats, and version attribution;
* fleet accounting is merge-*derived*: ``stats`` equals the sum of the
  per-shard snapshots because it is computed from them, and the pinned
  equality proves no second accounting path exists;
* lifecycle mutations on the parent registry reach every shard replica
  before subsequent traffic (revision-gated sync on FIFO lanes);
* :class:`ShardedBudgetPacer` keeps the slice-sum invariant
  ``Σ budgets == B`` across rebalance ticks and fleet spend strictly
  under ``B``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    ManualClock,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.serving import (
    ModelRegistry,
    ScoringEngine,
    ShardedBudgetPacer,
    ShardedScoringEngine,
)
from repro.serving.sharding import _SHARD_ENGINES


class LinearROI:
    """Module-level (picklable) deterministic scorer: x @ w."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def predict_roi(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.w


W_CHAMPION = [1.0, -0.5, 0.25, 2.0]
W_CHALLENGER = [0.5, 0.5, -0.25, 1.0]


def make_registry(split: float = 0.2, seed: int = 7) -> ModelRegistry:
    registry = ModelRegistry(traffic_split=split, random_state=seed)
    registry.register(LinearROI(W_CHAMPION), promote=True)
    registry.register(LinearROI(W_CHALLENGER))
    return registry


@pytest.fixture
def rows():
    return np.random.default_rng(0).normal(size=(400, 4))


# ---------------------------------------------------------------------------
# single-engine equivalence (the correctness anchor)
# ---------------------------------------------------------------------------
class TestSingleShardEquivalence:
    def test_bit_identical_scores_stats_versions(self, rows):
        """1-shard serial fleet == plain engine: same stream in, same
        everything out (keyed, with a live challenger split)."""
        plain = ScoringEngine(make_registry(), batch_size=16)
        fleet = ShardedScoringEngine(make_registry(), n_shards=1, batch_size=16)
        for i, row in enumerate(rows):
            assert plain.submit(row, key=i) == fleet.submit(row, key=i)
        plain.flush()
        plain.join()
        fleet.flush()
        for rid in range(len(rows)):
            assert fleet.has_result(rid) and plain.has_result(rid)
            assert fleet.version_of(rid) == plain.version_of(rid)
            assert fleet.take(rid) == plain.take(rid)
        assert fleet.stats == plain.stats
        fleet.close()

    def test_keyless_rng_routing_matches(self, rows):
        """Keyless requests draw the replica's routing RNG in the same
        order the parent would — same split decisions, same scores."""
        plain = ScoringEngine(make_registry(), batch_size=32)
        fleet = ShardedScoringEngine(make_registry(), n_shards=1, batch_size=32)
        for row in rows[:128]:
            plain.submit(row)
            fleet.submit(row)
        plain.flush()
        fleet.flush()
        for rid in range(128):
            assert fleet.version_of(rid) == plain.version_of(rid)
            assert fleet.take(rid) == plain.take(rid)
        fleet.close()

    def test_cache_hits_identical(self):
        """Repeated rows hit the shard LRU exactly like the plain engine."""
        repeated = np.tile(np.arange(8.0).reshape(2, 4), (30, 1))
        plain = ScoringEngine(make_registry(split=0.0), batch_size=8, cache_size=64)
        fleet = ShardedScoringEngine(
            make_registry(split=0.0), n_shards=1, batch_size=8, cache_size=64
        )
        for i, row in enumerate(repeated):
            plain.submit(row, key=i)
            fleet.submit(row, key=i)
        plain.flush()
        fleet.flush()
        assert fleet.stats == plain.stats
        assert fleet.stats["cache_hits"] > 0
        fleet.close()

    def test_dispatch_size_does_not_change_results(self, rows):
        """Transport granularity is invisible: worker batch_size governs
        flush boundaries, so any dispatch_size yields identical stats."""
        baseline = None
        for dispatch in (1, 7, 16, 64):
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=1, batch_size=16, dispatch_size=dispatch
            )
            for i, row in enumerate(rows[:200]):
                fleet.submit(row, key=i)
            fleet.flush()
            scores = [fleet.take(r) for r in range(200)]
            stats = fleet.stats
            if baseline is None:
                baseline = (scores, stats)
            else:
                assert scores == baseline[0]
                assert stats == baseline[1]
            fleet.close()


# ---------------------------------------------------------------------------
# fleet submit_batch: one call, N submits' semantics
# ---------------------------------------------------------------------------
class TestFleetSubmitBatch:
    """``fleet.submit_batch(X)`` routes and scores exactly like N
    ``submit`` calls — keyed rows stick to their hash shard, keyless
    rows walk the round-robin cursor — across every backend and shard
    count, so results and merged stats match the per-row stream."""

    def _per_row_reference(self, rows, keys, **fleet_kwargs):
        fleet = ShardedScoringEngine(make_registry(), **fleet_kwargs)
        ids = [fleet.submit(row, key=k) for row, k in zip(rows, keys)]
        fleet.flush()
        scores = [fleet.take(rid) for rid in ids]
        stats = fleet.stats
        fleet.close()
        return scores, stats

    def test_keyed_matches_per_row_submits(self, rows):
        keys = [f"user-{i}" for i in range(len(rows))]
        expected, ref_stats = self._per_row_reference(
            rows, keys, n_shards=4, batch_size=16
        )
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        ids = fleet.submit_batch(rows, keys=keys)
        assert isinstance(ids, range) and len(ids) == len(rows)
        fleet.flush()
        assert [fleet.take(rid) for rid in ids] == expected
        assert fleet.stats == ref_stats
        fleet.close()

    def test_keyless_round_robin_matches(self, rows):
        expected, ref_stats = self._per_row_reference(
            rows[:150], [None] * 150, n_shards=3, batch_size=16
        )
        fleet = ShardedScoringEngine(make_registry(), n_shards=3, batch_size=16)
        ids = fleet.submit_batch(rows[:150])
        fleet.flush()
        assert [fleet.take(rid) for rid in ids] == expected
        assert fleet.stats == ref_stats
        # the round-robin cursor advanced exactly n places
        assert fleet.shard_of(None) == 150 % 3
        fleet.close()

    def test_partial_dispatch_then_more_batches(self, rows):
        """Blocks smaller than dispatch_size buffer parent-side and ship
        with the next batch — boundaries only affect transport, never
        results."""
        expected, ref_stats = self._per_row_reference(
            rows[:90], list(range(90)), n_shards=2, batch_size=8, dispatch_size=64
        )
        fleet = ShardedScoringEngine(
            make_registry(), n_shards=2, batch_size=8, dispatch_size=64
        )
        got = []
        for start in (0, 30, 60):
            ids = fleet.submit_batch(
                rows[start : start + 30], keys=list(range(start, start + 30))
            )
            got.append(ids)
        fleet.flush()
        scores = [fleet.take(rid) for ids in got for rid in ids]
        assert scores == expected
        assert fleet.stats == ref_stats
        fleet.close()

    def test_thread_and_process_backends_match_serial(self, rows):
        keys = list(range(120))
        expected, _ = self._per_row_reference(
            rows[:120], keys, n_shards=2, batch_size=32
        )
        for backend_cls in (ThreadBackend, ProcessBackend):
            backend = backend_cls(n_workers=2)
            try:
                with ShardedScoringEngine(
                    make_registry(), n_shards=2, batch_size=32, backend=backend
                ) as fleet:
                    ids = fleet.submit_batch(rows[:120], keys=keys)
                    fleet.flush()
                    assert [fleet.take(rid) for rid in ids] == expected
                    assert fleet.stats["requests"] == 120
            finally:
                backend.shutdown()

    def test_shard_count_does_not_change_scores(self, rows):
        """With a deterministic champion, 1-shard and 4-shard fleets
        score the same keyed stream identically."""
        scores = {}
        for n_shards in (1, 4):
            fleet = ShardedScoringEngine(
                make_registry(split=0.0), n_shards=n_shards, batch_size=16
            )
            ids = fleet.submit_batch(rows, keys=list(range(len(rows))))
            fleet.flush()
            scores[n_shards] = [fleet.take(rid) for rid in ids]
            fleet.close()
        assert scores[1] == scores[4]

    def test_latency_sketch_matches_per_row(self, rows):
        """Clocked deadline fleets log the same latencies either way."""
        results = []
        for use_batch in (False, True):
            clock = ManualClock()
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=8,
                max_latency_ms=50.0, clock=clock,
            )
            if use_batch:
                fleet.submit_batch(rows[:64], keys=list(range(64)))
            else:
                for i, row in enumerate(rows[:64]):
                    fleet.submit(row, key=i)
            clock.advance(0.003)
            fleet.flush()
            results.append(
                (sorted(fleet.latencies), fleet.latency_hist.snapshot().count)
            )
            fleet.close()
        assert results[0] == results[1]
        assert results[0][1] == 64

    def test_stamped_batch_matches_stamped_submits(self, rows):
        """Stamped rows arrive one at a time on the fleet's clock."""
        stamps = np.cumsum(np.full(40, 0.0015))
        results = []
        for use_batch in (False, True):
            clock = ManualClock()
            fleet = ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=8,
                max_latency_ms=5.0, clock=clock,
            )
            if use_batch:
                ids = fleet.submit_batch(rows[:40], stamps=stamps)
            else:
                ids = []
                for row, stamp in zip(rows[:40], stamps):
                    clock.advance_to(stamp)
                    ids.append(fleet.submit(row))
            fleet.flush()
            results.append(
                (list(ids), [fleet.take(rid) for rid in ids], sorted(fleet.latencies), clock.now())
            )
            fleet.close()
        assert results[0] == results[1]

    def test_stamps_need_a_manual_clock(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        with pytest.raises(ValueError, match="ManualClock"):
            fleet.submit_batch(rows[:2], stamps=[0.0, 1.0])
        fleet.close()

    def test_validation_and_empty(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        with pytest.raises(ValueError, match="2-D"):
            fleet.submit_batch(np.zeros(4))
        with pytest.raises(ValueError, match="keys"):
            fleet.submit_batch(np.zeros((3, 4)), keys=["a"])
        empty = fleet.submit_batch(np.empty((0, 4)))
        assert isinstance(empty, range) and len(empty) == 0
        assert fleet.stats["requests"] == 0
        fleet.close()


# ---------------------------------------------------------------------------
# merge-derived fleet accounting
# ---------------------------------------------------------------------------
class TestFleetAccounting:
    def test_stats_equal_sum_of_shard_snapshots(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        for i, row in enumerate(rows):
            fleet.submit(row, key=f"user-{i}")
        fleet.flush()
        stats = fleet.stats
        per_shard = fleet.shard_snapshots()
        for name, total in stats.items():
            shard_sum = sum(
                int(snap[f"engine.{name}"].value)
                for snap, _v in per_shard
                if f"engine.{name}" in snap
            )
            assert total == shard_sum, name
        assert stats["requests"] == len(rows)
        # every shard actually took traffic at this key cardinality
        assert all(
            snap["engine.requests"].value > 0 for snap, _v in per_shard
        )
        fleet.close()

    def test_version_stats_sum_across_shards(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4, batch_size=16)
        for i, row in enumerate(rows):
            fleet.submit(row, key=i)
        fleet.flush()
        totals = fleet.version_stats()
        assert sum(
            v["requests"] + v["cache_hits"] for v in totals.values()
        ) == len(rows)
        assert set(totals) == {1, 2}  # champion and challenger both served
        fleet.close()

    def test_fleet_metrics_snapshot_merges_shards(self, rows):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2, batch_size=16)
        before = fleet.metrics.snapshot()
        for i, row in enumerate(rows[:100]):
            fleet.submit(row, key=i)
        fleet.flush()
        delta = fleet.metrics.snapshot().delta(before)
        assert delta["engine.requests"].value == 100
        fleet.close()

    def test_merged_latency_quantiles(self, rows):
        """Clocked shards' sketches fold into one fleet distribution."""
        clock = ManualClock()
        fleet = ShardedScoringEngine(
            make_registry(),
            n_shards=2,
            batch_size=8,
            max_latency_ms=50.0,
            clock=clock,
        )
        for i, row in enumerate(rows[:64]):
            fleet.submit(row, key=i)
            clock.advance(0.002)
            fleet.poll()
        fleet.flush()
        merged = fleet.latency_hist.snapshot()
        assert merged.count == 64
        shard_counts = [
            snap["engine.latency_seconds"].count for snap, _v in fleet.shard_snapshots()
        ]
        assert sum(shard_counts) == 64
        assert all(c < 64 for c in shard_counts)  # genuinely distributed
        p95 = fleet.latency_quantile(0.95)
        assert 0.0 <= p95 <= 0.050 * 1.02  # deadline honoured fleet-wide
        assert len(fleet.latencies) == 64
        fleet.close()

    def test_latency_quantile_empty_raises(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        with pytest.raises(ValueError, match="no latencies"):
            fleet.latency_quantile(0.5)
        fleet.close()


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------
class TestRouting:
    def test_keyed_routing_sticky_and_spread(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=4)
        shards = [fleet.shard_of(f"user-{i}") for i in range(1000)]
        again = [fleet.shard_of(f"user-{i}") for i in range(1000)]
        assert shards == again  # deterministic
        counts = np.bincount(shards, minlength=4)
        assert (counts > 150).all()  # roughly balanced
        fleet.close()

    def test_keyless_round_robin(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=3)
        assert [fleet.shard_of(None) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        fleet.close()

    def test_score_batch_keyed_and_keyless_parity(self, rows):
        plain = ScoringEngine(make_registry(split=0.0))
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=4)
        # keyless with no active split: chunks all route the champion
        np.testing.assert_array_equal(
            fleet.score_batch(rows), plain.score_batch(rows)
        )
        # keyed: the whole batch goes to one sticky shard
        np.testing.assert_array_equal(
            fleet.score_batch(rows, key="u1"), plain.score_batch(rows, key="u1")
        )
        fleet.close()

    def test_score_convenience_path(self, rows):
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=2)
        expected = float(np.asarray(rows[0]) @ np.asarray(W_CHAMPION))
        assert fleet.score(rows[0], key="x") == pytest.approx(expected)
        fleet.close()


# ---------------------------------------------------------------------------
# lifecycle sync across replicas
# ---------------------------------------------------------------------------
class TestReplicaSync:
    def test_promotion_reaches_every_shard(self, rows):
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=3)
        before = fleet.score_batch(rows[:8])
        fleet.registry.promote(2)  # challenger takes over, parent-side
        after = fleet.score_batch(rows[:8])
        np.testing.assert_array_equal(
            before, np.asarray(rows[:8]) @ np.asarray(W_CHAMPION)
        )
        np.testing.assert_array_equal(
            after, np.asarray(rows[:8]) @ np.asarray(W_CHALLENGER)
        )
        fleet.close()

    def test_new_version_ships_model_to_shards(self, rows):
        fleet = ShardedScoringEngine(make_registry(split=0.0), n_shards=2)
        fleet.score_batch(rows[:4])
        w_new = [3.0, 0.0, 0.0, 0.0]
        fleet.registry.register(LinearROI(w_new), promote=True)
        scores = fleet.score_batch(rows[:8])
        np.testing.assert_array_equal(scores, np.asarray(rows[:8]) @ np.asarray(w_new))
        fleet.close()

    def test_sync_is_revision_gated(self, rows):
        """No lifecycle change → no sync traffic on the lanes."""
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        fleet.flush()
        synced = fleet._synced_revision
        for i, row in enumerate(rows[:50]):
            fleet.submit(row, key=i)
        fleet.flush()
        assert fleet._synced_revision == synced
        fleet.registry.traffic_split = 0.5
        fleet.submit(rows[0], key=0)
        assert fleet._synced_revision == fleet.registry.revision != synced
        fleet.close()

    def test_registry_lifecycle_state_roundtrip(self):
        parent = make_registry(split=0.3)
        replica = ModelRegistry()
        replica.apply_lifecycle_state(parent.lifecycle_state())
        assert replica.champion.version == 1
        assert replica.challenger is not None
        assert replica.challenger.version == 2
        assert replica.traffic_split == 0.3
        parent.promote()
        # incremental: replica already knows versions 1 and 2
        state = parent.lifecycle_state(known={1, 2})
        assert state["models"] == {}
        replica.apply_lifecycle_state(state)
        assert replica.champion.version == 2
        assert replica.challenger is None
        assert replica.get(1).stage == "archived"

    def test_lifecycle_state_missing_model_raises(self):
        parent = make_registry()
        replica = ModelRegistry()
        state = parent.lifecycle_state(known={1, 2})  # strips the models
        with pytest.raises(KeyError, match="ships no model"):
            replica.apply_lifecycle_state(state)

    def test_revision_bumps_on_lifecycle_not_on_traffic(self):
        registry = make_registry()
        revision = registry.revision
        registry.route(key="u")
        registry.record_outcome(1, True, 1.0, 0.5)
        assert registry.revision == revision
        registry.promote()
        assert registry.revision == revision + 1
        registry.register(LinearROI(W_CHAMPION))
        assert registry.revision == revision + 2
        registry.demote()
        assert registry.revision == revision + 3
        registry.rollback()
        assert registry.revision == revision + 4


# ---------------------------------------------------------------------------
# backends: lanes, processes, threads
# ---------------------------------------------------------------------------
class TestBackends:
    def test_process_backend_two_shards(self, rows):
        backend = ProcessBackend(n_workers=2)
        try:
            with ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=32, backend=backend
            ) as fleet:
                for i, row in enumerate(rows[:120]):
                    fleet.submit(row, key=i)
                fleet.flush()
                scores = {r: fleet.take(r) for r in range(120)}
                # process replicas score exactly like an in-process engine
                reference = ShardedScoringEngine(
                    make_registry(), n_shards=2, batch_size=32
                )
                for i, row in enumerate(rows[:120]):
                    reference.submit(row, key=i)
                reference.flush()
                assert scores == {r: reference.take(r) for r in range(120)}
                assert fleet.stats["requests"] == 120
                reference.close()
                # shards really live out-of-process: nothing local
                assert (fleet._fleet_id, 0) not in _SHARD_ENGINES
        finally:
            backend.shutdown()

    def test_thread_backend_fleet(self, rows):
        backend = ThreadBackend(n_workers=2)
        try:
            with ShardedScoringEngine(
                make_registry(), n_shards=2, batch_size=16, backend=backend
            ) as fleet:
                for i, row in enumerate(rows[:100]):
                    fleet.submit(row, key=i)
                fleet.flush()
                assert sum(fleet.has_result(r) for r in range(100)) == 100
                assert fleet.stats["requests"] == 100
        finally:
            backend.shutdown()

    def test_clock_rejected_on_process_backend(self):
        backend = ProcessBackend(n_workers=2)
        try:
            with pytest.raises(ValueError, match="process boundary"):
                ShardedScoringEngine(
                    make_registry(), n_shards=2, backend=backend, clock=ManualClock()
                )
        finally:
            backend.shutdown()

    def test_backend_without_lanes_rejected(self):
        class Bare:
            n_workers = 4
            start_count = 0

            def submit(self, fn, *a, **k):  # pragma: no cover
                raise NotImplementedError

            def shutdown(self, wait=True):
                pass

        with pytest.raises(TypeError, match="submit_to"):
            ShardedScoringEngine(make_registry(), n_shards=2, backend=Bare())

    def test_close_is_idempotent_and_drops_shards(self):
        fleet = ShardedScoringEngine(make_registry(), n_shards=2)
        fleet.score_batch(np.zeros((1, 4)))
        fid = fleet._fleet_id
        assert (fid, 0) in _SHARD_ENGINES
        fleet.close()
        fleet.close()
        assert (fid, 0) not in _SHARD_ENGINES
        assert (fid, 1) not in _SHARD_ENGINES


class TestLaneAffinity:
    """The runtime layer underneath: submit_to pins work to one worker."""

    def test_serial_lane_initializer_once_per_lane(self):
        seen = []
        backend = SerialBackend(initializer=lambda lane: seen.append(lane))
        for _ in range(3):
            backend.submit_to(0, lambda: None)
            backend.submit_to(1, lambda: None)
        assert seen == [0, 1]
        backend.shutdown()  # lanes re-initialize after shutdown
        backend.submit_to(0, lambda: None)
        assert seen == [0, 1, 0]

    def test_serial_lane_validation(self):
        backend = SerialBackend()
        with pytest.raises(ValueError, match="lane"):
            backend.submit_to(-1, lambda: None)

    def test_pool_lane_bounds(self):
        backend = ThreadBackend(n_workers=2)
        with pytest.raises(ValueError, match="lane"):
            backend.submit_to(2, lambda: None)
        backend.shutdown()

    def test_lanes_count_as_pool_starts(self):
        backend = ThreadBackend(n_workers=3)
        assert backend.start_count == 0
        backend.submit_to(0, lambda: 1).result()
        backend.submit_to(0, lambda: 2).result()
        backend.submit_to(2, lambda: 3).result()
        assert backend.start_count == 2  # one per distinct lane
        assert backend.running
        backend.shutdown()
        assert not backend.running

    def test_lane_fifo_order(self):
        backend = ThreadBackend(n_workers=1)
        order = []
        futures = [
            backend.submit_to(0, lambda i=i: order.append(i)) for i in range(20)
        ]
        for f in futures:
            f.result()
        assert order == list(range(20))
        backend.shutdown()

    def test_process_lane_pid_affinity(self):
        import os

        backend = ProcessBackend(n_workers=2)
        try:
            pids_lane0 = {backend.submit_to(0, os.getpid).result() for _ in range(3)}
            pids_lane1 = {backend.submit_to(1, os.getpid).result() for _ in range(3)}
            assert len(pids_lane0) == 1  # one long-lived process per lane
            assert len(pids_lane1) == 1
            assert pids_lane0 != pids_lane1
            assert os.getpid() not in pids_lane0 | pids_lane1
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# fleet budget pacing
# ---------------------------------------------------------------------------
class TestShardedBudgetPacer:
    def _traffic(self, n, seed=3):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        costs = np.abs(rng.normal(size=n)) * 0.1 + 0.01
        return scores, costs

    def test_slice_sum_equals_budget_always(self):
        clock = ManualClock()
        pacer = ShardedBudgetPacer(
            50.0, 2000, 4, clock=clock, rebalance_every=1.0, use_roi_floor=False
        )
        scores, costs = self._traffic(2000)
        for s, c in zip(scores, costs):
            pacer.offer(s, c)
            clock.advance(0.01)
            assert sum(pacer.slice_budgets) == pytest.approx(50.0)
        assert pacer.rebalances > 10

    def test_fleet_spend_strictly_under_budget(self):
        clock = ManualClock()
        pacer = ShardedBudgetPacer(
            20.0, 3000, 4, clock=clock, rebalance_every=0.5, use_roi_floor=False
        )
        scores, costs = self._traffic(3000, seed=9)
        for s, c in zip(scores, costs):
            pacer.offer(s, c)
            clock.advance(0.005)
        assert 0.0 < pacer.spent < pacer.budget
        for shard in pacer.shards:
            assert shard.spent <= shard.budget + 1e-9

    def test_rebalance_moves_headroom_to_hot_slices(self):
        """A slice that saw no traffic donates budget to the ones that did."""
        pacer = ShardedBudgetPacer(40.0, 400, 2, use_roi_floor=False)
        scores, costs = self._traffic(200, seed=5)
        for s, c in zip(scores, costs):
            pacer.offer(s, c, key="hot-user")  # sticky: all to one slice
        hot = pacer.shard_of("hot-user")
        cold = 1 - hot
        assert pacer.shards[cold].n_seen == 0
        budgets = pacer.rebalance()
        # the cold slice's remaining-horizon share is now larger than the
        # hot slice's, so it holds more *unspent* headroom; the hot slice
        # keeps everything it spent
        assert budgets[hot] >= pacer.shards[hot].spent
        assert sum(budgets) == pytest.approx(40.0)
        assert pacer.rebalances == 1

    def test_keyless_offers_round_robin(self):
        pacer = ShardedBudgetPacer(10.0, 100, 2, use_roi_floor=False)
        for i in range(10):
            pacer.offer(0.0, 0.01)
            assert pacer._last_offer_shard == i % 2

    def test_observe_outcome_follows_offer(self):
        pacer = ShardedBudgetPacer(10.0, 100, 2, use_roi_floor=True)
        pacer.offer(1.0, 0.01, key="a")
        shard = pacer.shard_of("a")
        pacer.observe_outcome(1, 0.5, 0.1)
        # the outcome lands on the offering shard's window and no other
        assert [len(p._outcomes) for p in pacer.shards] == [int(i == shard) for i in range(2)]

    def test_surface_matches_single_pacer(self):
        pacer = ShardedBudgetPacer(10.0, 100, 4, use_roi_floor=False)
        scores, costs = self._traffic(100)
        for s, c in zip(scores, costs):
            pacer.offer(s, c)
        assert pacer.n_seen == 100
        assert pacer.progress == pytest.approx(1.0)
        assert 0.0 <= pacer.admit_rate <= 1.0
        assert pacer.remaining == pytest.approx(pacer.budget - pacer.spent)
        assert all(isinstance(e, tuple) and len(e) == 3 for e in pacer.history)

    def test_rebalance_every_defaults_to_wall_clock(self):
        from repro.runtime import SystemClock

        pacer = ShardedBudgetPacer(10.0, 100, 2, rebalance_every=0.5)
        assert isinstance(pacer.clock, SystemClock)
        assert pacer._loop is not None
        without = ShardedBudgetPacer(10.0, 100, 2)
        assert without._loop is None

    def test_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedBudgetPacer(10.0, 100, 0)
        with pytest.raises(ValueError, match="horizon"):
            ShardedBudgetPacer(10.0, 2, 4)
        with pytest.raises(ValueError, match="rebalance_every"):
            ShardedBudgetPacer(10.0, 100, 2, clock=ManualClock(), rebalance_every=0.0)

    def test_rebudget_below_spend_rejected(self):
        from repro.serving import BudgetPacer

        pacer = BudgetPacer(10.0, 100, warmup=2)
        pacer.spent = 5.0
        with pytest.raises(ValueError, match="below already-realised spend"):
            pacer.rebudget(4.0)
        pacer.rebudget(7.5)
        assert pacer.budget == 7.5


# ---------------------------------------------------------------------------
# end-to-end: the fleet under real replayed traffic
# ---------------------------------------------------------------------------
class TestFleetEndToEnd:
    @pytest.fixture(scope="class")
    def probe_weights(self):
        from repro.data import criteo_uplift_v2

        probe = criteo_uplift_v2(4000, random_state=5)
        return np.linalg.lstsq(probe.x, probe.roi, rcond=None)[0]

    def test_traffic_replay_over_fleet(self, probe_weights):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        platform = Platform(dataset="criteo", random_state=0)
        fleet = ShardedScoringEngine(
            LinearROI(probe_weights), n_shards=4, batch_size=128, cache_size=0
        )
        result = TrafficReplay(platform, fleet).replay_day(3000, budget_fraction=0.3)
        assert result.n_events == 3000
        assert result.spend <= result.budget + 1e-9
        assert result.engine_stats["requests"] == 3000
        assert result.revenue_ratio > 0.8
        fleet.close()

    def test_traffic_replay_with_fleet_pacer(self, probe_weights):
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        platform = Platform(dataset="criteo", random_state=1)
        fleet = ShardedScoringEngine(
            LinearROI(probe_weights), n_shards=4, batch_size=128, cache_size=0
        )
        budget = 4.0
        pacer = ShardedBudgetPacer(budget, 3000, 4, use_roi_floor=False)
        result = TrafficReplay(platform, fleet).replay_day(3000, pacer=pacer)
        assert result.spend < budget  # strict: fleet never exhausts B
        assert result.spend == pytest.approx(pacer.spent)
        assert pacer.n_seen == 3000
        fleet.close()

    def test_clocked_traffic_replay_over_fleet(self, probe_weights):
        """Arrivals spaced on the fleet's clock: every one is decided
        once, and every scored one within the flush deadline."""
        from repro.ab.platform import Platform
        from repro.serving import TrafficReplay

        clock = ManualClock()
        fleet = ShardedScoringEngine(
            LinearROI(probe_weights), n_shards=2, batch_size=16, cache_size=0,
            max_latency_ms=5.0, clock=clock,
        )
        platform = Platform(dataset="criteo", random_state=2)
        replay = TrafficReplay(platform, fleet, interarrival_s=0.001)
        result = replay.replay_day(600, budget_fraction=0.3)
        assert result.n_events == 600
        assert result.engine_stats["requests"] == 600
        assert result.treated.shape == (600,)
        assert result.spend <= result.budget + 1e-9
        assert len(result.latencies) == 600
        assert result.latencies.max() <= 0.005 + 1e-9
        assert clock.now() == pytest.approx(600 * 0.001, rel=1e-6)
        fleet.close()

    def test_promoter_campaign_on_fleet(self, probe_weights):
        """An AutoPromoter driving the parent registry steers the fleet:
        after promotion the shards serve the challenger's scores."""
        from repro.serving import AutoPromoter

        clock = ManualClock()
        registry = ModelRegistry(traffic_split=0.3, random_state=11)
        registry.register(LinearROI(np.zeros_like(probe_weights)), promote=True)
        registry.register(LinearROI(probe_weights))
        promoter = AutoPromoter(
            registry,
            clock=clock,
            ramp=(0.3,),
            step_every_s=1.0,
            min_decided=50,
            check_every=10,
            hold_decided=100_000,
        )
        fleet = ShardedScoringEngine(registry, n_shards=2, batch_size=32)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(600, len(probe_weights)))
        for i, row in enumerate(x):
            rid = fleet.submit(row, key=i)
            fleet.flush()
            vid = fleet.version_of(rid)
            fleet.take(rid)
            # challenger is strictly better: its outcomes dominate
            net = 1.0 if vid == 2 else 0.0
            promoter.observe(vid, True, net, 0.0)
            clock.advance(0.01)
            promoter.poll()
            if registry.champion.version == 2:
                break
        assert registry.champion.version == 2
        scores = fleet.score_batch(x[:8])
        np.testing.assert_array_equal(scores, x[:8] @ probe_weights)
        fleet.close()
