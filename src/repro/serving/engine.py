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

For outcome attribution the engine remembers which registry version's
score serves each request — :meth:`version_of` — until the result is
taken; the traffic simulator uses it to credit realised outcomes to
the right :class:`~repro.serving.registry.OutcomeLedger`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.obs import NULL_REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime import Clock, DeadlineLoop, ExecutionBackend, SerialBackend, SystemClock
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


class _PendingBlock:
    """One version's buffered requests, stored columnar.

    A preallocated ``(cap, d)`` feature block plus an aligned request-id
    vector, grown geometrically — the flush slices **one contiguous
    array** instead of stacking a deque of per-row copies.  The block
    object travels whole into the in-flight queue when dispatched (a
    fresh block starts the next batch), so the view handed to the
    backend can never alias rows appended later.

    ``record`` / ``mixed`` are the fast-path bookkeeping: a block fed
    only by ``submit_batch`` slices carries one :class:`_RidRange`
    covering its (contiguous) ids, letting the reap skip per-rid dict
    writes entirely; any scalar ``submit`` landing on the block flips
    ``mixed`` and the reap degrades to exact per-rid accounting.
    """

    __slots__ = ("rows", "rids", "n", "record", "mixed")

    def __init__(self, d: int, cap: int) -> None:
        cap = max(1, cap)
        self.rows = np.empty((cap, d), dtype=float)
        self.rids = np.empty(cap, dtype=np.int64)
        self.n = 0
        self.record: _RidRange | None = None
        self.mixed = False

    def _grow_to(self, need: int) -> None:
        cap = self.rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        self.rows = np.concatenate([self.rows, np.empty((cap - self.rows.shape[0], self.rows.shape[1]))])
        self.rids = np.concatenate([self.rids, np.empty(cap - self.rids.shape[0], dtype=np.int64)])

    def append(self, rid: int, row: np.ndarray) -> None:
        if self.record is not None:
            self.mixed = True
        self._grow_to(self.n + 1)
        self.rows[self.n] = row
        self.rids[self.n] = rid
        self.n += 1

    def append_block(self, rids: np.ndarray, block: np.ndarray) -> None:
        take = block.shape[0]
        self._grow_to(self.n + take)
        self.rows[self.n : self.n + take] = block
        self.rids[self.n : self.n + take] = rids
        self.n += take

    def view(self) -> np.ndarray:
        """The buffered rows as one contiguous slice (no copy)."""
        return self.rows[: self.n]


class _RidRange:
    """One contiguous run of fast-path request ids, bookkept as a range.

    ``submit_batch``'s vectorised path never touches the per-rid dicts
    on submit *or* on reap: the block's ids are ``[start, stop)``, the
    version is single, the submit stamp is single, and once scored the
    whole result array hangs off :attr:`scores`.  ``take_block`` then
    pops an entire record in O(1); only callers probing individual ids
    (``take``/``version_of``) force a lazy materialisation into the
    dicts — pay-per-use, never on the block path.
    """

    __slots__ = ("start", "stop", "version_id", "scores", "submitted_at")

    def __init__(self, start: int, stop: int, version_id: int, submitted_at: float | None) -> None:
        self.start = start
        self.stop = stop
        self.version_id = version_id
        self.scores: np.ndarray | None = None
        self.submitted_at = submitted_at


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
        self._ready: dict[int, float] = {}
        # fast-path id runs (pending, in-flight, or scored), oldest
        # first; scan is linear but the list holds one entry per
        # undrained submit_batch block, not per request
        self._ranges: list[_RidRange] = []
        self._submitted_at: dict[int, float] = {}
        # rid -> registry version whose score serves the request
        # (cache hits included); alive from submit until take
        self._version_by_rid: dict[int, int] = {}
        self._next_id = 0
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
        rid = self._next_id
        self._next_id += 1
        self._c_requests.inc()
        version = self.registry.route(key)
        self._version_by_rid[rid] = version.version
        if self.cache_size > 0:
            hit = self._cache.get(version.version, row.tobytes())
            if hit is not None:
                self._c_cache_hits.inc()
                version.cache_hits += 1
                self._ready[rid] = hit
                # deliberately NOT logged into ``latencies``: a cache
                # replay costs nothing and would deflate the scored p95
                return rid
        self._c_cache_misses.inc()
        if self.clock is not None:
            self._submitted_at[rid] = self.clock.now()
        block = self._pending.get(version.version)
        if block is None:
            block = self._pending[version.version] = _PendingBlock(
                row.shape[0], min(self.batch_size, 64)
            )
        block.append(rid, row)
        self._n_pending += 1
        self._g_queue.set(self._n_pending)
        if self._n_pending == 1 and self._deadlines is not None:
            self._deadlines.schedule_in(
                _FLUSH_KEY, self.max_latency_ms / 1000.0, self._flush_on_deadline
            )
        if self._n_pending >= self.batch_size:
            self.flush(reason="batch_full")
        return rid

    def submit_batch(
        self, x: np.ndarray, keys: "list[str | int] | None" = None
    ) -> "list[int] | range":
        """Enqueue a block of requests; returns their ids in row order
        (a ``range`` on the fast path, a list otherwise — both are
        sequences of ints; hand either to :meth:`take_block`).

        Semantically **exactly** N :meth:`submit` calls — same scores,
        stats, cache hits, version attribution, flush counters, and
        latency sketch (pinned under a
        :class:`~repro.runtime.ManualClock`; under a wall clock the
        per-row submit stamps drift apart by however long N calls
        take, which a single block stamp legitimately doesn't).  The
        difference is the constant factor: when the registry's routing
        is static (:attr:`~repro.serving.registry.ModelRegistry.
        routing_is_static`) and the cache is off, the block takes a
        vectorised fast path — one route call, one clock stamp,
        C-level id bookkeeping, and rows landing in the columnar
        buffer as slab copies — which is what the ≥2M scores/s batched
        target is measured on.  With a cache or an active challenger
        the rows fall back to the per-row loop (each row must probe /
        draw exactly as ``submit`` would).

        Mid-block ``batch_size`` boundaries flush exactly as they
        would per-row, so flush counters and batch shapes are
        identical to the scalar path.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if keys is not None and len(keys) != n:
            raise ValueError(f"got {len(keys)} keys for {n} rows")
        if n == 0:
            return []
        if self.cache_size > 0 or not self.registry.routing_is_static:
            # per-row semantics genuinely needed: cache probes and RNG
            # routing must happen once per row, in order
            if keys is None:
                return [self.submit(x[i]) for i in range(n)]
            return [self.submit(x[i], key=keys[i]) for i in range(n)]
        # ---- vectorised fast path ----------------------------------
        if self._deadlines is not None:
            self._deadlines.poll()
        version = self.registry.route(None)  # static: champion, no RNG
        vid = version.version
        rid0 = self._next_id
        now = self.clock.now() if self.clock is not None else None
        start = 0
        while start < n:
            # stop at every batch_size boundary exactly as the scalar
            # path would (flush counters stay identical); ids and
            # counters advance per slice, so a raising mid-block flush
            # leaves the rows after it uncounted, as N submits would
            take = min(max(self.batch_size - self._n_pending, 1), n - start)
            slice_rid0 = rid0 + start
            self._next_id += take
            self._c_requests.inc(take)
            self._c_cache_misses.inc(take)
            block = self._pending.get(vid)
            if block is None:
                block = self._pending[vid] = _PendingBlock(
                    x.shape[1], min(self.batch_size, max(take, 64))
                )
            rec = block.record
            if rec is not None and not block.mixed and rec.stop == slice_rid0:
                rec.stop += take  # same block, contiguous ids: extend
            elif rec is None and not block.mixed and block.n == 0:
                rec = block.record = _RidRange(slice_rid0, slice_rid0 + take, vid, now)
                self._ranges.append(rec)
            else:
                # the block already holds scalar rows (or ids that are
                # no longer contiguous) — bookkeep this slice per-rid
                # so the reap's exact path covers everything
                slice_ids = range(slice_rid0, slice_rid0 + take)
                self._version_by_rid.update(zip(slice_ids, repeat(vid)))
                if now is not None:
                    self._submitted_at.update(zip(slice_ids, repeat(now)))
                block.mixed = True
            was_empty = self._n_pending == 0
            block.append_block(
                np.arange(slice_rid0, slice_rid0 + take, dtype=np.int64),
                x[start : start + take],
            )
            self._n_pending += take
            start += take
            if was_empty and self._deadlines is not None:
                self._deadlines.schedule_in(
                    _FLUSH_KEY, self.max_latency_ms / 1000.0, self._flush_on_deadline
                )
            if self._n_pending >= self.batch_size:
                self.flush(reason="batch_full")
        self._g_queue.set(self._n_pending)
        return range(rid0, rid0 + n)

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
        """Collect finished backend futures into ``_ready`` (dispatch order).

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
            try:
                scores = np.asarray(
                    future.result(), dtype=float  # type: ignore[attr-defined]
                ).ravel()
                if scores.shape[0] != nb:
                    raise ValueError(
                        f"policy returned {scores.shape[0]} scores for {nb} rows"
                    )
            except BaseException:
                # the failed batch is dropped whole — forget its stamps,
                # its version attribution, and its id run (those ids
                # never resolve)
                if batch.record is not None:
                    try:
                        self._ranges.remove(batch.record)
                    # idempotent cleanup: the range may have been reaped
                    # concurrently; nothing was lost, so nothing to record
                    except ValueError:  # pragma: no cover - already gone  # repro: allow[RPR007]
                        pass
                for rid in batch.rids[:nb].tolist():
                    self._submitted_at.pop(rid, None)
                    self._version_by_rid.pop(rid, None)
                raise
            self._c_model_calls.inc()
            self._c_rows_scored.inc(nb)
            # the model really scored these rows — credit the version
            # (cache hits were credited separately at submit)
            self.registry.get(version_id).requests += nb
            if self.clock is not None:
                # scoring-completion time from the done-callback; the
                # tiny race where done() flips before callbacks run
                # falls back to the reap time
                now = done_stamp.get("at", self.clock.now())
            else:
                now = None
            rec = batch.record
            if rec is not None and not batch.mixed and now is None and self.cache_size <= 0:
                # pure fast-path block: the scores array *is* the
                # bookkeeping — O(1) reap, served by take_block (or
                # lazily materialised if someone probes single ids)
                rec.scores = scores
            elif now is None and self.cache_size <= 0:
                # nothing per-row to book — land the whole batch in one
                # C-level update
                if rec is not None:
                    self._ranges.remove(rec)
                    self._version_by_rid.update(
                        zip(batch.rids[:nb].tolist(), repeat(version_id))
                    )
                self._ready.update(zip(batch.rids[:nb].tolist(), scores.tolist()))
            else:
                fallback = rec.submitted_at if rec is not None else None
                if rec is not None:
                    # degrade to exact per-rid accounting (clock and/or
                    # cache writes need every row anyway)
                    self._ranges.remove(rec)
                    self._version_by_rid.update(
                        zip(batch.rids[:nb].tolist(), repeat(version_id))
                    )
                rows = batch.rows
                for i, rid in enumerate(batch.rids[:nb].tolist()):
                    score = float(scores[i])
                    self._ready[rid] = score
                    if now is not None:
                        sub = self._submitted_at.pop(
                            rid, fallback if fallback is not None else now
                        )
                        self._log_latency(now - sub)
                    if self.cache_size > 0:
                        self._cache.put(version_id, rows[i].tobytes(), score)

    def _log_latency(self, seconds: float) -> None:
        # the sketch sees everything (bounded memory, no eviction) —
        # quantiles stay unbiased however long the engine lives
        self.latency_hist.record(max(0.0, seconds))
        self.latencies.append(seconds)
        cap = self.latency_log_size
        if cap is not None and len(self.latencies) > 2 * cap:
            # drop the oldest half-block; amortised O(1) per append
            drop = len(self.latencies) - cap
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
        if request_id in self._ready:
            return True
        rec = self._find_range(request_id)
        return rec is not None and rec.scores is not None

    def version_of(self, request_id: int) -> int:
        """Registry version id whose score serves this request.

        Valid from :meth:`submit` until the result is taken (cache hits
        report the version whose cached score answered); KeyError for
        unknown ids or batches dropped by a failed flush.  Read it
        *before* :meth:`take` — outcome attribution needs to know which
        model's score drove the decision being realised.
        """
        version = self._version_by_rid.get(request_id)
        if version is not None:
            return version
        rec = self._find_range(request_id)
        if rec is not None:
            return rec.version_id
        return self._version_by_rid[request_id]  # KeyError with the rid

    def _find_range(self, rid: int) -> _RidRange | None:
        for rec in self._ranges:
            if rec.start <= rid < rec.stop:
                return rec
        return None

    def _materialize(self, rec: _RidRange) -> None:
        """Expand one scored fast-path run into the per-rid dicts (the
        price of probing block results id-by-id; ``take_block`` never
        pays it)."""
        ids = range(rec.start, rec.stop)
        self._ready.update(zip(ids, rec.scores.tolist()))
        self._version_by_rid.update(zip(ids, repeat(rec.version_id)))
        self._ranges.remove(rec)

    def take(self, request_id: int) -> float:
        """Pop a finished score (KeyError when still pending/unknown)."""
        if request_id not in self._ready:
            if self._deadlines is not None:
                self._deadlines.poll()
            if self._inflight:
                self._reap(wait=False)
            if request_id not in self._ready:
                rec = self._find_range(request_id)
                if rec is not None and rec.scores is not None:
                    self._materialize(rec)
        score = self._ready.pop(request_id)
        self._version_by_rid.pop(request_id, None)
        return score

    def take_block(self, rids: "list[int] | range") -> np.ndarray:
        """Pop a whole ``submit_batch`` worth of scores as one array.

        The bulk companion to :meth:`take`: hand back exactly what
        ``submit_batch`` returned and the scores come out in row
        order.  When the ids are a fast-path run whose records tile
        the span, this is O(1) per dispatched block (array slices, no
        per-rid dicts); any other id sequence falls back to per-rid
        :meth:`take` calls — same result, scalar cost.
        """
        n = len(rids)
        if n == 0:
            return np.empty(0, dtype=float)
        self.poll()
        start, stop = int(rids[0]), int(rids[-1]) + 1
        if stop - start == n:
            recs = sorted(
                (
                    r
                    for r in self._ranges
                    if r.start >= start and r.stop <= stop and r.scores is not None
                ),
                key=lambda r: r.start,
            )
            if (
                recs
                and recs[0].start == start
                and recs[-1].stop == stop
                and all(a.stop == b.start for a, b in zip(recs, recs[1:]))
            ):
                for rec in recs:
                    self._ranges.remove(rec)
                if len(recs) == 1:
                    return recs[0].scores
                return np.concatenate([rec.scores for rec in recs])
        return np.array([self.take(rid) for rid in rids], dtype=float)

    def drain(self) -> list[tuple[int, int, float]]:
        """Pop every finished result as ``(request_id, version_id, score)``.

        Advances the engine first (deadline flushes, finished async
        batches), then empties the ready set in request-id order.  The
        bulk companion to :meth:`take` for callers that track requests
        themselves — a sharded routing layer reaps a whole dispatch in
        one call instead of probing ids one by one.
        """
        self.poll()
        for rec in [r for r in self._ranges if r.scores is not None]:
            self._materialize(rec)
        out = []
        for rid in sorted(self._ready):
            score = self._ready.pop(rid)
            out.append((rid, self._version_by_rid.pop(rid, -1), score))
        return out

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
        if rid not in self._ready:
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
