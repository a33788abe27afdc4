"""Micro-batching scoring engine with deadline flushing and an LRU cache.

Online traffic arrives one user at a time, but every model in this
codebase is dramatically faster when scored in vectorised batches (an
MLP forward pass amortises its Python overhead across rows).  The
:class:`ScoringEngine` bridges the two: requests are buffered per model
version and scored with **one** vectorised policy call per flush.  A
flush happens for one of three reasons, tallied in
``stats["flush_batch_full"/"flush_deadline"/"flush_manual"]``:

* **batch_full** — the buffer reached ``batch_size`` (the throughput
  path);
* **deadline** — ``max_latency_ms`` elapsed since the oldest buffered
  request (the latency path: a lonely request on a quiet stream is
  never stranded waiting for a batch that won't fill).  Deadlines run
  on a :class:`~repro.runtime.Clock` through a pull-based
  :class:`~repro.runtime.DeadlineLoop`: ``submit`` and :meth:`poll`
  check it, so under a :class:`~repro.runtime.ManualClock` the
  behaviour is exact and simulator-testable;
* **manual** — an explicit :meth:`flush` call (stream end).

Where the scoring itself runs is delegated to an
:class:`~repro.runtime.ExecutionBackend`: the default
:class:`~repro.runtime.SerialBackend` keeps the historical synchronous
semantics bit-identical (same scores, same stats, same exception
points), while a :class:`~repro.runtime.ThreadBackend` makes flushes
genuinely asynchronous — ``flush`` dispatches the policy call to a
worker and returns; results land via :meth:`poll`/:meth:`join` (numpy
releases the GIL inside the vectorised call, so scoring overlaps the
caller).

Identical feature rows — retargeted users, bot bursts —
short-circuit through an LRU cache keyed by the feature hash and the
model version, skipping the model entirely.

The request lifecycle is ``submit → (auto)flush → take``; ``score``
wraps it for synchronous single-request use.  When a clock is present
the engine also records every *scored* request's submit→score latency
in ``latencies`` (asynchronous batches stamp the moment scoring
*completed*, not when the caller reaped the result), which is what the
latency benchmarks and the deadline acceptance tests read.  Cache hits
never enter the latency log: they are tallied in ``cache_hits``
instead, so the p95 the deadline-bound claims are measured on reflects
requests the model actually scored rather than being silently deflated
by zero-cost replays.

Every request's result lives in one rid-indexed table: a score, the
registry version whose score serves it (:meth:`version_of`, which the
traffic simulator reads to credit realised outcomes to the right
:class:`~repro.serving.registry.OutcomeLedger`) and a pending/ready/free
state.  Request ids are issued contiguously, so a scalar ``submit``
opens one slot, ``submit_batch`` opens a slice, a scored batch lands
with one indexed write, and :meth:`take` / :meth:`take_block` /
:meth:`drain` free slots that the table later compacts away.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import NULL_REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime import (
    Clock,
    DeadlineLoop,
    ExecutionBackend,
    ManualClock,
    SerialBackend,
    SystemClock,
)
from repro.serving.policy import DecisionPolicy, GreedyROIPolicy
from repro.serving.registry import ModelRegistry

__all__ = ["EngineCore", "ScoringEngine"]

_FLUSH_KEY = "flush"  # the engine's single deadline-loop slot

# the engine's counter vocabulary; ``stats`` renders these, and a real
# registry exports them as ``engine.<name>``
_STAT_NAMES = (
    "requests",
    "cache_hits",
    "cache_misses",
    "flushes",
    "flush_batch_full",
    "flush_deadline",
    "flush_manual",
    "model_calls",
    "rows_scored",
)


def _score_rows(policy: DecisionPolicy, model: object, rows: np.ndarray) -> np.ndarray:
    """The unit of backend work: one vectorised policy call."""
    return policy.score_batch(model, rows)


class _LRUScoreCache:
    """The default score cache: an LRU dict of at most ``capacity``
    ``(version, row bytes) -> score`` entries.

    Speaks the ``get``/``put`` contract of
    :class:`~repro.runtime.SharedScoreCache`, so the engine holds one
    cache object whichever implementation is plugged in.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, bytes], float] = OrderedDict()

    def get(self, version: int, row_bytes: bytes) -> float | None:
        key = (version, row_bytes)
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
        return hit

    def put(self, version: int, row_bytes: bytes, score: float) -> None:
        key = (version, row_bytes)
        self._entries[key] = score
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


_PENDING, _READY, _FREE = 0, 1, 2  # result-table slot states


class _ResultTable:
    """Every live request's result, held columnar and indexed by rid.

    Slot ``i`` of the ``score`` / ``version`` / ``state`` columns holds
    request ``base + i``; the window ``[base, stop)`` spans every issued
    rid that the table has not compacted away.  :meth:`open` issues the
    next rids as pending slots, :meth:`resolve` marks them ready with
    their scores, and taking a result (or :meth:`forget`-ing a failed
    batch) frees its slot.  When the columns fill up, the free head of
    the window is compacted away and the columns grow to keep at least
    half of them free, so compaction costs amortised O(1) per rid.
    Slots past ``stop`` are kept pending, so opening never writes a
    state.

    Batches read and write the numpy columns; single requests go
    through memoryviews of the same buffers, whose item access costs
    about a third of numpy's.
    """

    __slots__ = ("base", "stop", "score", "version", "state", "_score", "_version", "_state")

    def __init__(self, cap: int = 1024) -> None:
        # a compaction costs a few µs of numpy calls whatever the size;
        # a kilo-slot floor keeps that well under 0.1 µs per request
        self.base = 0
        self.stop = 0
        self._bind(np.zeros(cap), np.zeros(cap, dtype=np.int64), np.zeros(cap, dtype=np.int8))

    def _bind(self, score: np.ndarray, version: np.ndarray, state: np.ndarray) -> None:
        self.score, self.version, self.state = score, version, state
        self._score, self._version, self._state = map(memoryview, (score, version, state))

    def __len__(self) -> int:
        """Live (pending or ready) slots."""
        return int(np.count_nonzero(self.state[: self.stop - self.base] != _FREE))

    def open(self, n: int, version=-1) -> int:
        """Issue ``n`` consecutive pending rids served by ``version`` (one
        id, or one per rid; ``-1``: known only once :meth:`resolve`
        delivers it); returns the first."""
        lo = self.stop - self.base
        if lo + n > len(self._state):
            lo = self._compact(n)
        if n == 1:  # a scalar submit: an item write is far cheaper than a slice's
            self._version[lo] = version
        else:
            self.version[lo : lo + n] = version
        self.stop += n
        return self.stop - n

    def _compact(self, n: int) -> int:
        used = self.stop - self.base
        live = self.state[:used] != _FREE
        head = int(live.argmax()) if live.any() else used
        keep = used - head
        cap = len(self.state)
        while 2 * (keep + n) > cap:
            cap *= 2
        columns = []
        for col in (self.score, self.version, self.state):
            new = col if cap == len(col) else np.zeros(cap, dtype=col.dtype)
            new[:keep] = col[head:used]
            columns.append(new)
        self._bind(*columns)
        self.state[keep:used] = _PENDING
        self.base += head
        return keep

    def resolve(self, rids, scores, versions=None) -> None:
        """Mark ``rids`` (one id or an id array) ready with ``scores``."""
        idx = rids - self.base
        self.score[idx] = scores
        self.state[idx] = _READY
        if versions is not None:
            self.version[idx] = versions

    def forget(self, rids: np.ndarray) -> None:
        """Free pending ``rids`` whose batch failed: they never resolve."""
        self.state[rids - self.base] = _FREE

    def is_ready(self, rid: int) -> bool:
        i = rid - self.base
        return 0 <= i < self.stop - self.base and self._state[i] == _READY

    def version_of(self, rid: int) -> int:
        i = rid - self.base
        if not (0 <= i < self.stop - self.base) or self._state[i] == _FREE:
            raise KeyError(rid)
        return self._version[i]

    def take(self, rid: int) -> float:
        i = rid - self.base
        if not (0 <= i < self.stop - self.base) or self._state[i] != _READY:
            raise KeyError(rid)
        self._state[i] = _FREE
        return self._score[i]

    def take_block(self, rids: Sequence[int]) -> np.ndarray:
        """Free ``rids`` and return their scores in order — all or
        nothing: KeyError for the first id not ready, nothing freed."""
        if isinstance(rids, range) and rids.step == 1 and (
            self.base <= rids.start <= rids.stop <= self.stop
        ):
            idx = slice(rids.start - self.base, rids.stop - self.base)
        else:
            idx = np.asarray(rids, dtype=np.int64) - self.base
            if not ((idx >= 0) & (idx < self.stop - self.base)).all():
                raise KeyError(next(rid for rid in rids if not self.is_ready(rid)))
        ready = self.state[idx] == _READY
        if not ready.all():
            raise KeyError(rids[int(ready.argmin())])
        self.state[idx] = _FREE
        return self.score[idx].copy()

    def take_ready(self, rids: range) -> tuple[np.ndarray, np.ndarray]:
        """Free the longest ready prefix of the consecutive ``rids`` and
        return its ``(versions, scores)``."""
        lo, hi = rids.start - self.base, rids.stop - self.base
        if rids.step != 1 or not 0 <= lo <= hi <= self.stop - self.base:
            raise KeyError(rids)
        waiting = self.state[lo:hi] != _READY
        stop = lo + (int(waiting.argmax()) if np.count_nonzero(waiting) else hi - lo)
        self.state[lo:stop] = _FREE
        return self.version[lo:stop].copy(), self.score[lo:stop].copy()

    def drain(self) -> list[tuple[int, int, float]]:
        """Free every ready slot; ``(rid, version, score)`` in rid order."""
        idx = np.flatnonzero(self.state[: self.stop - self.base] == _READY)
        self.state[idx] = _FREE
        return list(zip(
            (idx + self.base).tolist(), self.version[idx].tolist(), self.score[idx].tolist()
        ))


class _PendingBlock:
    """One version's buffered requests, stored columnar.

    A preallocated ``(cap, d)`` feature block with aligned request-id
    and submit-stamp columns, grown geometrically — the flush slices
    **one contiguous array** instead of stacking a deque of per-row
    copies, and the reap logs every row's latency from ``stamps`` in
    one vector subtraction.  The block object travels whole into the
    in-flight queue when dispatched (a fresh block starts the next
    batch), so the view handed to the backend can never alias rows
    appended later.
    """

    __slots__ = ("rows", "rids", "stamps", "n")

    def __init__(self, d: int, cap: int) -> None:
        cap = max(1, cap)
        self.rows = np.empty((cap, d), dtype=float)
        self.rids = np.empty(cap, dtype=np.int64)
        self.stamps = np.empty(cap, dtype=float)
        self.n = 0

    def _grow_to(self, need: int) -> None:
        cap = self.rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        extra = cap - self.rows.shape[0]
        self.rows = np.concatenate([self.rows, np.empty((extra, self.rows.shape[1]))])
        self.rids = np.concatenate([self.rids, np.empty(extra, dtype=np.int64)])
        self.stamps = np.concatenate([self.stamps, np.empty(extra)])

    def append(self, rid: int, row: np.ndarray, stamp: float) -> None:
        self._grow_to(self.n + 1)
        self.rows[self.n] = row
        self.rids[self.n] = rid
        self.stamps[self.n] = stamp
        self.n += 1

    def append_block(self, rids: np.ndarray, block: np.ndarray, stamps: np.ndarray) -> None:
        take = block.shape[0]
        self._grow_to(self.n + take)
        self.rows[self.n : self.n + take] = block
        self.rids[self.n : self.n + take] = rids
        self.stamps[self.n : self.n + take] = stamps
        self.n += take

    def view(self) -> np.ndarray:
        """The buffered rows as one contiguous slice (no copy)."""
        return self.rows[: self.n]


@dataclass
class EngineCore:
    """The picklable half of a scoring engine: state, not plumbing.

    Everything a fresh process needs to rebuild this engine's hot path
    — the registry (models and lifecycle pointers included), the
    decision policy, and the micro-batch/cache geometry — with none of
    the process-bound machinery (clock, backend, metrics registry with
    its locks, live buffers).  ``pickle(engine.core())`` is how
    :class:`~repro.serving.sharding.ShardedScoringEngine` ships a shard
    to a worker; :meth:`build` reconstitutes an engine around the core
    on the other side.  Models must round-trip through pickle with
    bit-identical predictions (pinned in ``tests/test_pickling.py``).
    """

    registry: ModelRegistry
    policy: DecisionPolicy
    batch_size: int
    cache_size: int
    latency_log_size: int | None

    def build(
        self,
        *,
        max_latency_ms: float | None = None,
        clock: Clock | None = None,
        backend: ExecutionBackend | None = None,
        metrics: MetricsRegistry | None = None,
        score_cache: object | None = None,
    ) -> "ScoringEngine":
        """Reconstitute a live engine around this core."""
        return ScoringEngine(
            self.registry,
            policy=self.policy,
            batch_size=self.batch_size,
            cache_size=self.cache_size,
            max_latency_ms=max_latency_ms,
            clock=clock,
            backend=backend,
            latency_log_size=self.latency_log_size,
            metrics=metrics,
            score_cache=score_cache,
        )


class ScoringEngine:
    """Accumulate scoring requests and serve them in vectorised micro-batches.

    Parameters
    ----------
    models:
        A :class:`ModelRegistry` or a bare scorer with ``predict_roi``
        (wrapped into a single-champion registry).
    policy:
        The :class:`DecisionPolicy` producing scores from a model and a
        feature batch (default greedy-ROI point estimates).
    batch_size:
        Buffered requests that trigger an automatic flush.  ``1``
        degenerates to synchronous per-request scoring.
    cache_size:
        Maximum number of ``(version, feature-hash)`` entries in the
        LRU score cache; ``0`` disables caching.
    max_latency_ms:
        Deadline flushing: at most this many milliseconds may pass
        (on ``clock``) between a request entering the buffer and the
        flush that scores it, however empty the batch is.  ``None``
        (default) keeps pure batch-full flushing.
    clock:
        Time source for deadlines and latency accounting.  Defaults to
        :class:`~repro.runtime.SystemClock` when ``max_latency_ms`` is
        set; pass a :class:`~repro.runtime.ManualClock` to drive time
        explicitly (simulation/tests).  When present, submit→score
        latencies are appended to :attr:`latencies`.
    backend:
        Execution backend for the flush's policy call.  The default
        :class:`~repro.runtime.SerialBackend` is bit-identical to the
        pre-runtime engine; :class:`~repro.runtime.ThreadBackend`
        makes flushes truly asynchronous (reap results with
        :meth:`poll`, :meth:`join`, or blocking :meth:`score`).
    latency_log_size:
        Keep at most this many recent entries in :attr:`latencies`
        (oldest dropped in blocks; :attr:`latencies_dropped` counts
        them) so a long-lived clocked engine doesn't grow without
        bound.  ``None`` disables the cap.  Quantiles are *not*
        affected by the cap: :meth:`latency_quantile` reads
        :attr:`latency_hist`, a bounded-memory log-bucket sketch that
        sees every recorded latency.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to export this engine's
        metrics into (counters ``engine.<stat>``, gauge
        ``engine.queue_depth``, histogram ``engine.latency_seconds``,
        span ``span.engine.flush.seconds``).  ``None`` (default) keeps
        them engine-local: the engine always *keeps* its own real
        counters (they are what :attr:`stats` renders), the registry
        only decides whether anything collects them — so enabling
        observability costs nothing on the hot path and the scoring
        results are bit-identical either way.  Use one registry per
        engine (a second engine adopting into the same registry
        replaces the first's metrics); shard-level registries merge
        via :meth:`~repro.obs.Snapshot.merge`.
    score_cache:
        Pluggable score-cache backend: an object with
        ``get(version, row_bytes) -> float | None`` and
        ``put(version, row_bytes, score)`` (the
        :class:`~repro.runtime.SharedScoreCache` contract).  ``None``
        (default) uses a private LRU of ``cache_size`` entries.
        ``cache_size`` still gates whether caching happens at all (``0``
        disables the probe either way); capacity/eviction of an external cache are
        its own — a shared fixed-capacity table is what the sharded
        fleet plugs in so a hit on any shard is a hit on all.
    """

    def __init__(
        self,
        models: ModelRegistry | object,
        policy: DecisionPolicy | None = None,
        batch_size: int = 32,
        cache_size: int = 4096,
        max_latency_ms: float | None = None,
        clock: Clock | None = None,
        backend: ExecutionBackend | None = None,
        latency_log_size: int | None = 1_000_000,
        metrics: MetricsRegistry | None = None,
        score_cache: object | None = None,
    ) -> None:
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry()
            self.registry.register(models, promote=True)
        self.policy = policy if policy is not None else GreedyROIPolicy()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_latency_ms is not None and not max_latency_ms > 0:
            raise ValueError(f"max_latency_ms must be > 0, got {max_latency_ms}")
        if latency_log_size is not None and latency_log_size < 1:
            raise ValueError(f"latency_log_size must be >= 1, got {latency_log_size}")
        self.batch_size = int(batch_size)
        self.cache_size = int(cache_size)
        self.max_latency_ms = None if max_latency_ms is None else float(max_latency_ms)
        if clock is None and max_latency_ms is not None:
            clock = SystemClock()
        self.clock = clock
        self.backend: ExecutionBackend = backend if backend is not None else SerialBackend()
        self._deadlines = (
            DeadlineLoop(clock) if (clock is not None and max_latency_ms is not None) else None
        )
        self._cache = score_cache if score_cache is not None else _LRUScoreCache(self.cache_size)
        # pending rows grouped by model version, stored columnar:
        # version -> _PendingBlock (rows + rids, one contiguous slab)
        self._pending: dict[int, _PendingBlock] = {}
        self._n_pending = 0
        # dispatched-but-unreaped batches, in dispatch order; the dict
        # holds the clock time the batch's scoring completed (stamped
        # by a done-callback, so async batches measure true completion
        # rather than whenever the caller happens to reap)
        self._inflight: deque[tuple[object, int, _PendingBlock, dict]] = deque()
        # every request from submit until take: score, serving version
        # (cache hits included) and pending/ready state
        self._table = _ResultTable()
        self.latency_log_size = latency_log_size
        #: submit→score latency (seconds) per request, when a clock is
        #: set (most recent ``latency_log_size`` entries)
        self.latencies: list[float] = []
        #: entries evicted from :attr:`latencies` by the size cap
        self.latencies_dropped = 0
        # the engine's metrics are real whether or not a registry
        # collects them — ``stats`` renders the counters, so the hot
        # path costs the same with observability on or off
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._counters: dict[str, Counter] = {
            name: self.metrics.adopt(Counter(f"engine.{name}")) for name in _STAT_NAMES
        }
        self._c_requests = self._counters["requests"]
        self._c_cache_hits = self._counters["cache_hits"]
        self._c_cache_misses = self._counters["cache_misses"]
        self._c_flushes = self._counters["flushes"]
        self._c_model_calls = self._counters["model_calls"]
        self._c_rows_scored = self._counters["rows_scored"]
        self._c_flush_reason = {
            reason: self._counters["flush_" + reason]
            for reason in ("batch_full", "deadline", "manual")
        }
        self._g_queue = self.metrics.adopt(Gauge("engine.queue_depth"))
        #: bounded-memory latency sketch over **every** recorded
        #: submit→score latency (the quantile source; never evicted,
        #: unlike the capped :attr:`latencies` list)
        self.latency_hist: Histogram = self.metrics.adopt(
            Histogram("engine.latency_seconds")
        )

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def submit(self, x_row: np.ndarray, key: str | int | None = None) -> int:
        """Enqueue one request; returns its id.

        Auto-flushes when the buffer fills; first checks the deadline
        loop, so an overdue batch flushes *before* this request starts
        a fresh one (its own deadline is armed when it is the first
        pending request).
        """
        if self._deadlines is not None:
            self._deadlines.poll()
        row = np.ascontiguousarray(np.asarray(x_row, dtype=float).ravel())
        self._c_requests.inc()
        version = self.registry.route(key)
        if self.cache_size > 0:
            hit = self._cache.get(version.version, row.tobytes())
            if hit is not None:
                self._c_cache_hits.inc()
                version.cache_hits += 1
                rid = self._table.open(1, version.version)
                self._table.resolve(rid, hit)
                # deliberately NOT logged into ``latencies``: a cache
                # replay costs nothing and would deflate the scored p95
                return rid
        self._c_cache_misses.inc()
        # buffer the row before opening its slot: a row of the wrong
        # width raises here, and must not leave a slot pending forever
        rid = self._table.stop
        at = self.clock.now() if self.clock is not None else 0.0
        block = self._block(version.version, row.shape[0], 1)
        block.append(rid, row, at)
        self._table.open(1, version.version)
        self._buffered(1, at)
        return rid

    def submit_batch(
        self,
        x: np.ndarray,
        keys: "Sequence[str | int | None] | None" = None,
        stamps: np.ndarray | None = None,
    ) -> range:
        """Enqueue a block of requests; returns their ids, in row order,
        as a ``range`` (hand it to :meth:`take_block`).

        Exactly N :meth:`submit` calls — same routing and registry RNG
        draws, cache probes and hits, version attribution, stats,
        flushes and flush counters, deadline arming and latencies.
        ``stamps`` are the rows' arrival times on the engine's
        :class:`~repro.runtime.ManualClock` (non-decreasing, none
        before its reading): the block then equals, for each row,
        ``clock.advance_to(stamps[i])`` followed by ``submit(x[i])``,
        and leaves the clock at ``stamps[-1]``.  Without ``stamps``
        every row arrives at the clock's current reading (under a wall
        clock, N calls would each read it; the block reads it once).

        The rows go in slices (see :meth:`room`) that end where a flush
        could fire: at the row that could fill the batch, or before a
        row at which the flush deadline could fall due.  A slice is
        routed in one :meth:`~repro.serving.registry.ModelRegistry.
        route_block` call, probes the cache row by row when caching is
        on, and lands in the columnar buffer as one slab copy per
        version.  Rows whose width differs from the buffered rows'
        raise before any row is taken.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if keys is not None and len(keys) != n:
            raise ValueError(f"got {len(keys)} keys for {n} rows")
        clock = self.clock
        if stamps is not None:
            if not isinstance(clock, ManualClock):
                raise ValueError("stamps need an engine on a ManualClock")
            stamps = np.asarray(stamps, dtype=float)
            if stamps.shape != (n,):
                raise ValueError(f"got {stamps.shape} stamps for {n} rows")
            if n and (stamps[0] < clock.now() or np.count_nonzero(stamps[1:] < stamps[:-1])):
                raise ValueError("stamps must be non-decreasing and not before the clock")
        for block in self._pending.values():
            if block.rows.shape[1] != x.shape[1]:
                raise ValueError(
                    f"rows have {x.shape[1]} features, buffered rows {block.rows.shape[1]}"
                )
        rid0 = self._table.stop
        pos = 0
        while pos < n:
            if stamps is not None:
                clock.advance_to(stamps[pos])
            if self._deadlines is not None:
                self._deadlines.poll()
            end = pos + self.room(n - pos, None if stamps is None else stamps[pos:])
            if stamps is not None:
                # nothing reads the clock inside a slice but a flush
                # that the last row triggers, at that row's time
                clock.advance_to(stamps[end - 1])
            self._submit_slice(
                x[pos:end],
                None if keys is None else keys[pos:end],
                None if stamps is None else stamps[pos:end],
            )
            pos = end
        return range(rid0, rid0 + n)

    def room(self, n: int, times: np.ndarray | None = None) -> int:
        """How many of the next ``n`` arrivals — at the non-decreasing
        clock readings ``times``, or all at the current reading — one
        :meth:`submit_batch` slice takes: a flush can then only come
        before the first of them or with the last.

        At most ``batch_size - n_pending`` (only the last can fill the
        batch), and none after the first arrival at which a flush
        deadline could fall due: the pending one, or with nothing
        pending the earliest one an arrival could arm (the first
        arrival's time plus ``max_latency_ms``).  A pending deadline
        due at the first arrival fires before that arrival is taken,
        as :meth:`submit` polls first, so it bounds nothing after.
        """
        if self._deadlines is None:
            return max(1, min(n, self.batch_size - self._n_pending))
        first = self.clock.now() if times is None else float(times[0])
        epsilon = self._deadlines.epsilon  # the loop fires at <= now + epsilon
        due = self._deadlines.next_deadline()
        pending = self._n_pending
        if due is not None and due <= first + epsilon:
            due, pending = None, 0  # it fires before the first arrival is taken
        k = max(1, min(n, self.batch_size - pending))
        if k == 1:
            return 1
        if due is None:
            due = first + self.max_latency_ms / 1000.0
        later = np.full(k - 1, first) if times is None else np.asarray(times[1:k], dtype=float)
        return 1 + int(np.searchsorted(later + epsilon, due))

    def _submit_slice(self, rows: np.ndarray, keys, stamps: np.ndarray | None) -> None:
        """Submit rows among which a flush can only come with the last."""
        k = rows.shape[0]
        versions = self.registry.route_block(k, keys)
        self._c_requests.inc(k)
        rid = self._table.stop
        self._table.open(k, versions if k > 1 else int(versions[0]))
        version_ids = versions.tolist()
        miss = range(k)
        if self.cache_size > 0:
            get, width = self._cache.get, rows.shape[1] * rows.itemsize
            data = rows.tobytes()
            cached = [get(v, data[i * width : (i + 1) * width]) for i, v in enumerate(version_ids)]
            miss = [i for i, score in enumerate(cached) if score is None]
            if len(miss) < k:
                hits = [i for i, score in enumerate(cached) if score is not None]
                self._table.resolve(rid + np.array(hits), [cached[i] for i in hits])
                self._c_cache_hits.inc(len(hits))
                for i in hits:
                    self.registry.get(version_ids[i]).cache_hits += 1
        if not miss:
            return
        self._c_cache_misses.inc(len(miss))
        if stamps is None:
            stamps = np.full(k, self.clock.now() if self.clock is not None else 0.0)
        # pending blocks in order of their version's first row, as
        # row-by-row submits would create them
        by_version: dict[int, list[int]] = {}
        for i in miss:
            by_version.setdefault(version_ids[i], []).append(i)
        for version_id, take in by_version.items():
            block = self._block(version_id, rows.shape[1], len(take))
            if len(take) == k:  # the whole slice
                block.append_block(np.arange(rid, rid + k), rows, stamps)
            else:
                take = np.array(take)
                block.append_block(rid + take, rows[take], stamps[take])
        self._buffered(len(miss), float(stamps[miss[0]]))

    def _block(self, version_id: int, d: int, take: int) -> _PendingBlock:
        block = self._pending.get(version_id)
        if block is None:
            block = self._pending[version_id] = _PendingBlock(
                d, min(self.batch_size, max(take, 64))
            )
        return block

    def _buffered(self, take: int, first_at: float) -> None:
        """Count ``take`` freshly buffered rows, the first of which
        arrived at ``first_at``: arm the deadline when they start the
        batch, flush when they fill it."""
        self._n_pending += take
        self._g_queue.set(self._n_pending)
        if self._n_pending == take and self._deadlines is not None:
            self._deadlines.schedule(
                _FLUSH_KEY, first_at + self.max_latency_ms / 1000.0, self._flush_on_deadline
            )
        if self._n_pending >= self.batch_size:
            self.flush(reason="batch_full")

    def _flush_on_deadline(self) -> None:
        self.flush(reason="deadline")

    def flush(self, reason: str = "manual") -> int:
        """Dispatch every pending request (one policy call per version).

        Returns the number of requests dispatched.  On the serial
        backend scoring happens inline, so results are ready (and any
        model failure raises) before ``flush`` returns — the
        historical semantics.  On an asynchronous backend the policy
        calls run on workers; results (and deferred failures) surface
        once the worker finishes, at the next :meth:`poll` or a
        blocking :meth:`join` (non-blocking probes like
        :meth:`has_result` / :meth:`take` only see batches that have
        already completed).
        """
        if reason not in self._c_flush_reason:
            raise ValueError(
                f"reason must be 'manual', 'batch_full' or 'deadline', got {reason!r}"
            )
        dispatched = 0
        if self._n_pending:
            self._c_flushes.inc()
            self._c_flush_reason[reason].inc()
        if self._deadlines is not None:
            self._deadlines.cancel(_FLUSH_KEY)
        # pop each batch before dispatching so a raising policy/model
        # leaves the engine consistent (the failed batch is dropped,
        # not re-run)
        try:
            with self.metrics.span("engine.flush", clock=self.clock):
                while self._pending:
                    version_id, batch = self._pending.popitem()
                    self._n_pending -= batch.n
                    model = self.registry.get(version_id).model
                    # one contiguous slice of the columnar block — the
                    # block is retired with this dispatch, so the view
                    # cannot alias later appends
                    rows = batch.view()
                    future = self.backend.submit(_score_rows, self.policy, model, rows)
                    done_stamp: dict = {}
                    if self.clock is not None:
                        clock = self.clock

                        def _stamp(_f, _d=done_stamp, _c=clock):
                            _d["at"] = _c.now()

                        # serial futures are already done: fires inline now,
                        # preserving the historical flush-time measurement
                        future.add_done_callback(_stamp)  # type: ignore[attr-defined]
                    self._inflight.append((future, version_id, batch, done_stamp))
                    dispatched += rows.shape[0]
                    if future.done():  # type: ignore[attr-defined]
                        # serial backend: score (or raise) per batch, exactly
                        # the pre-runtime sequence — a failing batch stops the
                        # flush with the remaining batches pending and unscored
                        self._reap(wait=False)
                self._reap(wait=False)
        finally:
            self._g_queue.set(self._n_pending)
            if self._n_pending and self._deadlines is not None:
                # a raising batch aborted the flush with other versions'
                # requests still buffered — they are already overdue, so
                # re-arm to fire at the very next poll (never leave
                # survivors without a deadline)
                self._deadlines.schedule_in(_FLUSH_KEY, 0.0, self._flush_on_deadline)
        return dispatched

    def _reap(self, wait: bool) -> None:
        """Land finished backend futures in the result table (dispatch order).

        ``wait=True`` blocks until every in-flight batch has resolved.
        A failed batch re-raises here and is dropped; later in-flight
        batches stay queued and resolve on subsequent reaps.
        """
        while self._inflight:
            future, version_id, batch, done_stamp = self._inflight[0]
            if not wait and not future.done():  # type: ignore[attr-defined]
                break
            self._inflight.popleft()
            nb = batch.n
            rids = batch.rids[:nb]
            try:
                scores = np.asarray(
                    future.result(), dtype=float  # type: ignore[attr-defined]
                ).ravel()
                if scores.shape[0] != nb:
                    raise ValueError(
                        f"policy returned {scores.shape[0]} scores for {nb} rows"
                    )
            except BaseException:
                # the failed batch is dropped whole: its ids never resolve
                self._table.forget(rids)
                raise
            self._c_model_calls.inc()
            self._c_rows_scored.inc(nb)
            # the model really scored these rows — credit the version
            # (cache hits were credited separately at submit)
            self.registry.get(version_id).requests += nb
            self._table.resolve(rids, scores)
            if self.clock is not None:
                # scoring-completion time from the done-callback; the
                # tiny race where done() flips before callbacks run
                # falls back to the reap time
                now = done_stamp.get("at", self.clock.now())
                self._log_latencies((now - batch.stamps[:nb]).tolist())
            if self.cache_size > 0:
                put, width = self._cache.put, batch.rows.shape[1] * batch.rows.itemsize
                data = batch.rows[:nb].tobytes()
                for i, score in enumerate(scores.tolist()):
                    put(version_id, data[i * width : (i + 1) * width], score)

    def _log_latencies(self, seconds: list[float]) -> None:
        # the sketch sees everything (bounded memory, no eviction) —
        # quantiles stay unbiased however long the engine lives
        self.latency_hist.record_block([s if s > 0.0 else 0.0 for s in seconds])
        self.latencies.extend(seconds)
        cap = self.latency_log_size
        if cap is not None and len(self.latencies) > 2 * cap:
            # the log drops its oldest entries down to ``cap`` whenever
            # it passes ``2 * cap``; keep what appending one by one
            # would have kept (amortised O(1) per entry)
            past = len(self.latencies) - (2 * cap + 1)
            drop = len(self.latencies) - (cap + past % (cap + 1))
            del self.latencies[:drop]
            self.latencies_dropped += drop

    def latency_quantile(self, q: float) -> float:
        """Submit→score latency quantile (clock seconds) over **every**
        latency this engine ever recorded.

        Reads :attr:`latency_hist`, so unlike ``np.quantile(engine.
        latencies, q)`` the answer is not silently biased toward recent
        traffic once the ``latency_log_size`` cap starts evicting; the
        sketch's relative error is ~1%.  Raises :class:`ValueError`
        when nothing was recorded (no clock, or cache-only traffic).
        """
        if self.latency_hist.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return self.latency_hist.quantile(q)

    def poll(self) -> int:
        """Advance the engine without submitting: fire any overdue
        deadline flush and reap finished asynchronous batches.

        Returns the number of deadline flushes fired.  The idle-stream
        hook: callers with their own event loop (the traffic
        simulator, a server's timer tick) call this between arrivals
        so a quiet stream still honours ``max_latency_ms``.
        """
        fired = self._deadlines.poll() if self._deadlines is not None else 0
        self._reap(wait=False)
        return fired

    def join(self) -> None:
        """Block until every dispatched batch has been scored.

        No-op on the serial backend (nothing is ever left in flight).
        """
        self._reap(wait=True)

    def next_deadline(self) -> float | None:
        """Clock time of the pending flush deadline, or None.

        Lets an event loop driving a :class:`~repro.runtime.ManualClock`
        stop *at* the deadline instead of jumping past it — the traffic
        simulator uses this to keep the latency bound exact for any
        inter-arrival gap.
        """
        return self._deadlines.next_deadline() if self._deadlines is not None else None

    def has_result(self, request_id: int) -> bool:
        """True once the request's score is available.

        Advances the engine like :meth:`poll` does — overdue deadline
        flushes fire and finished asynchronous batches are reaped — so
        a waiter spinning on ``has_result`` alone still gets the
        ``max_latency_ms`` guarantee.
        """
        if self._deadlines is not None:
            self._deadlines.poll()
        if self._inflight:
            self._reap(wait=False)
        return self._table.is_ready(request_id)

    def version_of(self, request_id: int) -> int:
        """Registry version id whose score serves this request.

        Valid from :meth:`submit` until the result is taken (cache hits
        report the version whose cached score answered); KeyError for
        unknown ids or batches dropped by a failed flush.  Read it
        *before* :meth:`take` — outcome attribution needs to know which
        model's score drove the decision being realised.
        """
        return self._table.version_of(request_id)

    def take(self, request_id: int) -> float:
        """Pop a finished score (KeyError when still pending/unknown)."""
        try:
            return self._table.take(request_id)
        except KeyError:  # not ready yet: advance the engine, then retry
            if self._deadlines is not None:
                self._deadlines.poll()
            if self._inflight:
                self._reap(wait=False)
        return self._table.take(request_id)

    def take_ready(self, rids: range) -> tuple[np.ndarray, np.ndarray]:
        """Pop the longest ready prefix of the consecutive ``rids`` — a
        FIFO of waiting requests — as ``(versions, scores)``.

        Advances the engine first, as :meth:`poll` does.  The bulk
        counterpart of taking the head request while
        :meth:`has_result` holds, reading :meth:`version_of` first.
        """
        self.poll()
        return self._table.take_ready(rids)

    def take_block(self, rids: Sequence[int]) -> np.ndarray:
        """Pop a whole ``submit_batch`` worth of scores as one array.

        The bulk companion to :meth:`take`: hand back the ``range``
        ``submit_batch`` returned and the scores come out in row order,
        read from the result table as one slice (any other id sequence
        is one fancy-indexed read).  All or nothing: when any id is
        still pending or unknown, KeyError names the first such id and
        no score is popped.
        """
        self.poll()
        return self._table.take_block(rids)

    def drain(self) -> list[tuple[int, int, float]]:
        """Pop every finished result as ``(request_id, version_id, score)``.

        Advances the engine first (deadline flushes, finished async
        batches), then empties the ready set in request-id order.  The
        bulk companion to :meth:`take` for callers that track requests
        themselves — a sharded routing layer reaps a whole dispatch in
        one call instead of probing ids one by one.
        """
        self.poll()
        return self._table.drain()

    def core(self) -> EngineCore:
        """This engine's picklable per-shard core (see :class:`EngineCore`).

        The core *shares* the live registry and policy objects — it is
        a view, not a copy; pickling it is what snapshots the state.
        """
        return EngineCore(
            registry=self.registry,
            policy=self.policy,
            batch_size=self.batch_size,
            cache_size=self.cache_size,
            latency_log_size=self.latency_log_size,
        )

    def score(self, x_row: np.ndarray, key: str | int | None = None) -> float:
        """Synchronous convenience path: submit, force a flush, return."""
        rid = self.submit(x_row, key=key)
        if not self._table.is_ready(rid):
            self.flush()
            self.join()
        return self.take(rid)

    def score_batch(self, x: np.ndarray, key: str | int | None = None) -> np.ndarray:
        """Score a pre-assembled batch through one routed version.

        The offline-parity path: routes once and applies the policy in
        a single call, bypassing both the micro-batch buffer and the
        LRU cache (cache hit/miss counters are untouched).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        version = self.registry.route(key)
        scores = np.asarray(
            self.policy.score_batch(version.model, x), dtype=float
        ).ravel()
        # credited only after the call returns: a raising model scored
        # nothing, and ``requests`` counts what the model actually did
        version.requests += x.shape[0]
        self._c_requests.inc(x.shape[0])
        self._c_model_calls.inc()
        self._c_rows_scored.inc(x.shape[0])
        return scores

    @property
    def stats(self) -> dict[str, int]:
        """Lifetime request/flush/cache counters, as a plain dict.

        Rendered from the engine's :class:`~repro.obs.Counter`\\ s (the
        same objects an attached registry exports), so the dict is a
        fresh copy each access — mutate away, the counters are the
        source of truth.
        """
        return {name: int(self._counters[name].value) for name in _STAT_NAMES}

    @property
    def n_pending(self) -> int:
        """Requests buffered and not yet dispatched."""
        return self._n_pending

    @property
    def n_inflight(self) -> int:
        """Dispatched batches not yet reaped (asynchronous backends)."""
        return len(self._inflight)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests served from the LRU cache."""
        hits = self._c_cache_hits.value
        total = hits + self._c_cache_misses.value
        return hits / total if total else 0.0
