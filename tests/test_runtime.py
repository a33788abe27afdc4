"""Tests for the execution layer (``repro.runtime``) and its consumers.

Covers the backend contract (lazy start, reuse, restart, exception
transport), the clock/deadline primitives, and the cross-layer
guarantees the runtime refactor exists for: chunked generation on a
*shared* pool stays bit-identical to serial, and a multi-day parallel
``ABTest``/``PolicyReplay`` run starts **exactly one** worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ab.experiment import ABTest
from repro.ab.platform import Platform
from repro.ab.replay import PolicyReplay
from repro.data.settings import iter_dataset_chunks
from repro.runtime import (
    DeadlineLoop,
    ExecutionBackend,
    ManualClock,
    ProcessBackend,
    SerialBackend,
    SystemClock,
    ThreadBackend,
    resolve_n_workers,
)


def _square(v):
    """Module-level so ProcessBackend can pickle it."""
    return v * v


def _boom():
    raise RuntimeError("worker exploded")


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class TestSerialBackend:
    def test_submit_runs_inline_and_future_is_done(self):
        backend = SerialBackend()
        future = backend.submit(_square, 7)
        assert future.done()
        assert future.result() == 49

    def test_exception_is_carried_not_raised_at_submit(self):
        backend = SerialBackend()
        future = backend.submit(_boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="exploded"):
            future.result()

    def test_no_pool_ever_starts(self):
        backend = SerialBackend()
        for v in range(5):
            backend.submit(_square, v)
        assert backend.start_count == 0
        assert backend.n_workers == 1

    def test_context_manager_and_protocol(self):
        with SerialBackend() as backend:
            assert isinstance(backend, ExecutionBackend)
            assert backend.submit(_square, 3).result() == 9


@pytest.mark.parametrize("backend_cls", [ThreadBackend, ProcessBackend])
class TestPoolBackends:
    def test_lazy_start_and_reuse(self, backend_cls):
        with backend_cls(2) as backend:
            assert backend.start_count == 0  # constructing costs nothing
            assert not backend.running
            results = [backend.submit(_square, v).result() for v in range(6)]
            assert results == [v * v for v in range(6)]
            assert backend.start_count == 1  # every submit shared one pool
            assert backend.running

    def test_shutdown_then_restart_counts_again(self, backend_cls):
        backend = backend_cls(2)
        backend.submit(_square, 2).result()
        backend.shutdown()
        assert not backend.running
        assert backend.submit(_square, 3).result() == 9  # usable again
        assert backend.start_count == 2
        backend.shutdown()

    def test_shutdown_idempotent(self, backend_cls):
        backend = backend_cls(1)
        backend.shutdown()  # never started: fine
        backend.submit(_square, 2).result()
        backend.shutdown()
        backend.shutdown()

    def test_worker_exception_carried_by_future(self, backend_cls):
        with backend_cls(1) as backend:
            with pytest.raises(RuntimeError, match="exploded"):
                backend.submit(_boom).result()

    def test_invalid_n_workers(self, backend_cls):
        with pytest.raises(ValueError, match="n_workers"):
            backend_cls(0)


class TestResolveNWorkers:
    def test_none_means_all_cpus(self):
        assert resolve_n_workers(None) >= 1

    def test_passthrough_and_validation(self):
        assert resolve_n_workers(3) == 3
        with pytest.raises(ValueError, match="n_workers"):
            resolve_n_workers(-1)


# ---------------------------------------------------------------------------
# clocks and the deadline loop
# ---------------------------------------------------------------------------
class TestClocks:
    def test_manual_clock_only_moves_when_told(self):
        clock = ManualClock(start=10.0)
        assert clock.now() == 10.0
        assert clock.advance(2.5) == 12.5
        assert clock.now() == 12.5

    def test_manual_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError, match="negative"):
            ManualClock().advance(-1.0)

    def test_system_clock_is_monotone(self):
        clock = SystemClock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestDeadlineLoop:
    def test_fires_only_once_due_and_in_deadline_order(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired: list[str] = []
        loop.schedule("b", 2.0, lambda: fired.append("b"))
        loop.schedule("a", 1.0, lambda: fired.append("a"))
        assert loop.poll() == 0  # nothing due yet
        assert fired == []
        clock.advance(1.5)
        assert loop.poll() == 1
        assert fired == ["a"]
        clock.advance(1.0)
        assert loop.poll() == 1
        assert fired == ["a", "b"]
        assert len(loop) == 0

    def test_reschedule_same_key_replaces(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        fired: list[int] = []
        loop.schedule("k", 1.0, lambda: fired.append(1))
        loop.schedule("k", 5.0, lambda: fired.append(2))
        clock.advance(2.0)
        assert loop.poll() == 0  # the 1.0 deadline no longer exists
        clock.advance(4.0)
        assert loop.poll() == 1
        assert fired == [2]

    def test_cancel(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        loop.schedule_in("k", 1.0, lambda: None)
        assert loop.next_deadline() == 1.0
        assert loop.cancel("k") is True
        assert loop.cancel("k") is False
        clock.advance(2.0)
        assert loop.poll() == 0
        assert loop.next_deadline() is None

    def test_schedule_in_rejects_negative_delay(self):
        loop = DeadlineLoop(ManualClock())
        with pytest.raises(ValueError, match="delay"):
            loop.schedule_in("k", -0.1, lambda: None)

    def test_callback_may_reschedule_itself(self):
        clock = ManualClock()
        loop = DeadlineLoop(clock)
        ticks: list[float] = []

        def tick():
            ticks.append(clock.now())
            if len(ticks) < 3:
                loop.schedule_in("tick", 1.0, tick)

        loop.schedule_in("tick", 1.0, tick)
        for _ in range(5):
            clock.advance(1.0)
            loop.poll()
        assert ticks == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# shared-backend chunk generation
# ---------------------------------------------------------------------------
def _assert_datasets_equal(a, b):
    assert a.n == b.n
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.tau_r, b.tau_r)
    np.testing.assert_array_equal(a.tau_c, b.tau_c)


class TestSharedBackendChunks:
    def test_backend_bit_identical_to_serial(self):
        serial = list(iter_dataset_chunks("criteo", 1200, chunk_size=300, random_state=7))
        with ProcessBackend(2) as backend:
            shared = list(
                iter_dataset_chunks(
                    "criteo", 1200, chunk_size=300, random_state=7, backend=backend
                )
            )
        assert [c.n for c in serial] == [c.n for c in shared]
        for a, b in zip(serial, shared):
            _assert_datasets_equal(a, b)

    def test_thread_backend_works_too(self):
        """The pickling-free variant must yield the same chunks."""
        serial = list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=3))
        with ThreadBackend(2) as backend:
            threaded = list(
                iter_dataset_chunks(
                    "criteo", 900, chunk_size=300, random_state=3, backend=backend
                )
            )
        for a, b in zip(serial, threaded):
            _assert_datasets_equal(a, b)

    def test_one_pool_serves_many_calls(self):
        """The whole point: no churn — two draws, one pool startup."""
        with ProcessBackend(2) as backend:
            list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=1, backend=backend))
            list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=2, backend=backend))
            assert backend.start_count == 1

    def test_backend_not_shut_down_by_iterator(self):
        with ProcessBackend(2) as backend:
            list(iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=0, backend=backend))
            assert backend.running  # the iterator borrowed, not owned
            assert backend.submit(_square, 4).result() == 16

    def test_explicit_parallel_false_disables_platform_backend(self):
        """A per-draw serial override (``backend=SerialBackend()``, the
        spelling that replaced ``parallel=False``) must force a fully
        in-process draw even when the platform carries a configured
        backend (nested pools inside a worker process are forbidden)."""
        with ProcessBackend(2) as backend:
            platform = Platform(
                dataset="criteo", chunk_size=300, random_state=9, backend=backend
            )
            cohort = platform.daily_cohort(700, day=1, backend=SerialBackend())
            assert backend.start_count == 0  # the pool never started
        serial = Platform(dataset="criteo", chunk_size=300, random_state=9)
        np.testing.assert_array_equal(cohort.x, serial.daily_cohort(700, day=1).x)

    def test_serial_width_backend_takes_serial_path(self):
        backend = SerialBackend()
        serial = list(iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=4))
        via = list(
            iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=4, backend=backend)
        )
        for a, b in zip(serial, via):
            _assert_datasets_equal(a, b)


# ---------------------------------------------------------------------------
# pool reuse across a multi-day experiment (ISSUE satellite)
# ---------------------------------------------------------------------------
def _score_first_feature(x):
    return x[:, 0]


class TestExperimentPoolReuse:
    def _make_platform(self, **kwargs):
        # chunk_size below the cohort so every daily draw is chunked
        return Platform(dataset="criteo", chunk_size=120, random_state=0, **kwargs)

    def _day_tuple(self, day):
        return (
            day.revenue,
            day.incremental_revenue,
            day.spend,
            day.n_treated,
            day.n_users,
        )

    def test_abtest_multi_day_starts_exactly_one_pool(self):
        serial = ABTest(
            self._make_platform(), {"m": _score_first_feature}, random_state=0
        ).run(n_days=3, cohort_size=400)
        with ProcessBackend(2) as backend:
            shared = ABTest(
                self._make_platform(),
                {"m": _score_first_feature},
                random_state=0,
                backend=backend,
            ).run(n_days=3, cohort_size=400)
            # one pool startup across all three days' chunked generation
            assert backend.start_count == 1
        # and the realised experiment is bit-identical to the serial path
        for day_s, day_p in zip(serial.days, shared.days):
            assert self._day_tuple(day_s) == self._day_tuple(day_p)

    def test_abtest_serial_backend_overrides_platform_pool(self):
        """``ABTest(backend=SerialBackend())`` runs every day in-process
        even over a platform that carries a pool."""
        with ProcessBackend(2) as backend:
            forced = ABTest(
                self._make_platform(backend=backend),
                {"m": _score_first_feature},
                random_state=0,
                backend=SerialBackend(),
            ).run(n_days=2, cohort_size=400)
            assert backend.start_count == 0  # no pool anywhere
        plain = ABTest(
            self._make_platform(), {"m": _score_first_feature}, random_state=0
        ).run(n_days=2, cohort_size=400)
        for day_s, day_p in zip(forced.days, plain.days):
            assert self._day_tuple(day_s) == self._day_tuple(day_p)

    def test_policy_replay_shares_the_backend(self):
        sets = {
            "a": {"m": _score_first_feature},
            "b": {"m": lambda x: -x[:, 0]},
        }
        serial = PolicyReplay(
            self._make_platform(), sets, random_state=5
        ).run(n_days=2, cohort_size=400)
        with ProcessBackend(2) as backend:
            shared = PolicyReplay(
                self._make_platform(), sets, random_state=5, backend=backend
            ).run(n_days=2, cohort_size=400)
            assert backend.start_count == 1
        for name in sets:
            for day_s, day_p in zip(
                serial.results[name].days, shared.results[name].days
            ):
                assert day_s == day_p


class TestBackendIsTheOnlyExecutionOption:
    """``backend=`` is the one way to say where cohort generation runs."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Platform(parallel=True),
            lambda: ABTest(Platform(), {"m": _score_first_feature}, n_workers=2),
            lambda: PolicyReplay(Platform(), {"s": {"m": _score_first_feature}}, parallel=False),
            lambda: next(iter_dataset_chunks("criteo", 100, parallel=True)),
            lambda: Platform().daily_cohort(100, day=1, n_workers=2),
        ],
        ids=["platform", "abtest", "policy_replay", "iter_dataset_chunks", "daily_cohort"],
    )
    def test_removed_spelling_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="parallel|n_workers"):
            call()
