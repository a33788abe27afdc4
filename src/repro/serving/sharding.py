"""Sharded serving fleet: one engine API over N per-process shards.

A single :class:`~repro.serving.engine.ScoringEngine` is bound to one
process — its micro-batch buffer, LRU cache, and registry replica all
live wherever ``submit`` is called, so one CPU serves the whole stream.
:class:`ShardedScoringEngine` is the horizontal version: the same
request API (``submit``/``take``/``score``/``score_batch``/``flush``/
``poll``/``stats``/``latency_quantile``/``version_of``) routed across
``n_shards`` complete per-shard engines, each pinned to its own
:meth:`~repro.runtime.backend._PoolBackend.submit_to` lane of an
:class:`~repro.runtime.ExecutionBackend`.  On a
:class:`~repro.runtime.ProcessBackend` every shard is a long-lived
worker process with its own cache and registry replica; on the
:class:`~repro.runtime.SerialBackend` the whole fleet runs inline —
bit-identical to a plain engine at ``n_shards=1``, which is the
correctness anchor the tests pin.

Three contracts hold by construction:

**Sticky routing.**  A keyed request always lands on
``blake2b(key) % n_shards`` — the shard whose cache has seen that user
before and whose registry replica routes the same champion/challenger
split the parent would.  Keyless requests round-robin.

**Merge-derived accounting.**  The fleet keeps *no* second set of
request counters.  Each shard owns a real
:class:`~repro.obs.MetricsRegistry`; ``stats``, ``latency_quantile``,
and ``metrics.snapshot()`` are computed by folding the per-shard
:class:`~repro.obs.Snapshot`\\ s (and latency sketches) with
:meth:`~repro.obs.Snapshot.merge`.  Fleet totals therefore *are* the
sum of shard truth — there is nothing to drift.

**Replica sync by revision.**  The parent's
:class:`~repro.serving.registry.ModelRegistry` is the control plane
(an :class:`~repro.serving.promotion.AutoPromoter` mutates it
directly).  Every lifecycle mutation bumps ``registry.revision``; the
fleet compares that against the revision it last shipped and, when
they diverge, pickles a :meth:`~repro.serving.registry.ModelRegistry
.lifecycle_state` delta onto every lane *ahead of* subsequent traffic
(lanes are FIFO), so a promotion takes effect at a well-defined point
in each shard's stream.

Budget pacing scales the same way: :class:`ShardedBudgetPacer` splits
one budget ``B`` into per-shard :class:`~repro.serving.pacing
.BudgetPacer` slices and periodically rebalances them — each tick of a
:class:`~repro.runtime.DeadlineLoop` re-divides the *unspent* residual
in proportion to each slice's remaining horizon, so a hot shard
borrows headroom from quiet ones while the slice-sum invariant
``Σ budgets == B`` (and hence fleet spend < B) survives every tick.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import pickle
from collections import deque
from typing import Sequence

import numpy as np

from repro.obs import HistogramSnapshot, MetricsRegistry, Snapshot
from repro.runtime import (
    Clock,
    DeadlineLoop,
    ExecutionBackend,
    ManualClock,
    ProcessBackend,
    SerialBackend,
    SharedScoreCache,
    SharedTensor,
    SharedTensorPool,
    SystemClock,
)
from repro.serving.engine import _STAT_NAMES, EngineCore, ScoringEngine, _ResultTable
from repro.serving.pacing import BudgetPacer
from repro.serving.policy import DecisionPolicy, GreedyROIPolicy
from repro.serving.registry import ModelRegistry

__all__ = ["ShardedBudgetPacer", "ShardedScoringEngine"]

# fleet ids distinguish coexisting fleets sharing one backend's workers
_FLEET_IDS = itertools.count()

# the default Histogram grid (relative_error=0.01); an empty fleet
# latency sketch must carry the same gamma so merge/delta line up
_DEFAULT_GAMMA = (1.0 + 0.01) / (1.0 - 0.01)

_LATENCY_METRIC = "engine.latency_seconds"


# ---------------------------------------------------------------------------
# worker-side shard operations (module-level: picklable by reference)
# ---------------------------------------------------------------------------
# Each worker process (or thread, or the parent itself on the serial
# backend) holds its shards here, keyed by (fleet_id, shard_index).
# FIFO lane ordering guarantees _shard_install runs before any other op
# on the lane, so the dict is always populated when traffic arrives.
_SHARD_ENGINES: dict[tuple[int, int], ScoringEngine] = {}

# zero-copy transport state per shard: the attacher side of the
# parent's segments (see :mod:`repro.runtime.shm`).  Workers only ever
# *attach* — the lifecycle rule is that the parent, who created every
# segment, releases them; a worker's pool merely closes its own
# mappings at _shard_drop (or process exit).
_SHARD_TRANSPORTS: dict[tuple[int, int], "_WorkerTransport"] = {}


class _WorkerTransport:
    """One shard's attached transport segments + ring write cursor."""

    __slots__ = ("pool", "ring", "ring_slots", "ring_written", "staging")

    def __init__(self, pool: SharedTensorPool, ring: SharedTensor, ring_slots: int) -> None:
        self.pool = pool
        self.ring = ring
        self.ring_slots = ring_slots
        self.ring_written = 0  # absolute result cursor (parent reads [consumed, written))
        self.staging: dict[str, SharedTensor] = {}


def _shard_install(
    fleet: int,
    shard: int,
    core_blob: bytes,
    max_latency_ms: float | None,
    clock: Clock | None,
    transport_desc: dict | None = None,
) -> int:
    """Build shard ``shard`` of fleet ``fleet`` from a pickled core.

    The core arrives as bytes pickled *by the parent* (not by the
    executor) so the replica is a genuine copy on every backend — on
    the serial backend an un-pickled core would share the parent's
    live registry and the fleet would stop being a replica system.
    Each shard gets its own real :class:`MetricsRegistry`: the fleet's
    accounting is the merge of these.

    ``transport_desc`` (zero-copy fleets only) names the parent's
    segments: ``{"ring": (name, slots), "cache": (name, slots)|None}``.
    The shard attaches its result ring and — when the fleet runs a
    shared score cache — plugs the one fleet-wide
    :class:`~repro.runtime.SharedScoreCache` into its engine, so a
    score cached by any shard is a cache hit on all of them.
    """
    core: EngineCore = pickle.loads(core_blob)
    score_cache = None
    if transport_desc is not None:
        pool = SharedTensorPool(prefix=f"repro-shard{shard}")
        ring_name, ring_slots = transport_desc["ring"]
        ring = pool.attach(ring_name, (ring_slots, 3))
        _SHARD_TRANSPORTS[(fleet, shard)] = _WorkerTransport(pool, ring, ring_slots)
        if transport_desc.get("cache") is not None:
            cache_name, cache_slots = transport_desc["cache"]
            score_cache = SharedScoreCache.attach(pool, cache_name, cache_slots)
    _SHARD_ENGINES[(fleet, shard)] = core.build(
        max_latency_ms=max_latency_ms,
        clock=clock,
        backend=SerialBackend(),
        metrics=MetricsRegistry(),
        score_cache=score_cache,
    )
    return shard


def _resolve_rows(fleet: int, shard: int, rows) -> np.ndarray:
    """Turn a feed payload into rows: either the array itself (pickle /
    inline transports) or a staged-segment descriptor to view."""
    if not isinstance(rows, tuple):
        return rows
    _tag, name, cap, d, pos, n = rows
    transport = _SHARD_TRANSPORTS[(fleet, shard)]
    seg = transport.staging.get(name)
    if seg is None:
        seg = transport.staging[name] = transport.pool.attach(name, (cap, d))
    return seg.array[pos : pos + n]


def _shard_feed(
    fleet: int, shard: int, rows, keys: list, ring_consumed: int = 0
):
    """Submit a dispatch of rows and return everything now ready.

    Zero-copy fleets ship ``rows`` as a ``("seg", name, cap, d, pos,
    n)`` descriptor into the parent's staging ring, and results go
    back through the shard's shared result ring when it has room
    (``("ring", start, k)``) — the parent ships its consumed cursor
    with every feed, so the worker never overwrites unread slots.  A
    full ring (or a non-transport fleet) returns results inline.
    """
    engine = _SHARD_ENGINES[(fleet, shard)]
    resolved = _resolve_rows(fleet, shard, rows)
    # rids are deliberately dropped: the shard worker consumes results
    # positionally via the drain() below
    keyed = any(key is not None for key in keys)
    engine.submit_batch(np.asarray(resolved), keys=keys if keyed else None)  # repro: allow[RPR006]
    results = engine.drain()
    transport = _SHARD_TRANSPORTS.get((fleet, shard))
    if transport is None:
        return results
    k = len(results)
    free = transport.ring_slots - (transport.ring_written - ring_consumed)
    if k == 0 or k > free:
        return ("inline", results)
    start = transport.ring_written
    idx = (start + np.arange(k)) % transport.ring_slots
    transport.ring.array[idx] = np.asarray(results, dtype=float)
    transport.ring_written = start + k
    return ("ring", start, k)


def _shard_flush(fleet: int, shard: int) -> list[tuple[int, int, float]]:
    engine = _SHARD_ENGINES[(fleet, shard)]
    engine.flush()
    engine.join()
    return engine.drain()


def _shard_poll(
    fleet: int, shard: int
) -> tuple[int, float | None, list[tuple[int, int, float]]]:
    """Fire overdue deadline flushes; returns (fired, next_deadline, ready)."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    fired = engine.poll()
    return fired, engine.next_deadline(), engine.drain()


def _shard_next_deadline(fleet: int, shard: int) -> float | None:
    return _SHARD_ENGINES[(fleet, shard)].next_deadline()


def _shard_score_batch(fleet: int, shard: int, x, key):
    """Score one pre-assembled part; zero-copy fleets ship ``x`` as a
    ``("bulk", in_name, cap, d, pos, n, out_name)`` descriptor and the
    scores land in the parent's output segment instead of a pickled
    return (the worker returns only the row count)."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    if not isinstance(x, tuple):
        return engine.score_batch(x, key=key)
    _tag, in_name, cap, d, pos, n, out_name = x
    transport = _SHARD_TRANSPORTS[(fleet, shard)]
    pool = transport.pool
    seg_in = pool.attach(in_name, (cap, d))
    seg_out = pool.attach(out_name, (cap,))
    try:
        scores = engine.score_batch(seg_in.array[pos : pos + n], key=key)
        seg_out.array[pos : pos + n] = scores
    finally:
        pool.release(in_name)
        pool.release(out_name)
    return n


def _shard_snapshot(fleet: int, shard: int) -> tuple[Snapshot, dict]:
    """One shard's whole observable state: obs snapshot + version counters."""
    engine = _SHARD_ENGINES[(fleet, shard)]
    versions = {
        mv.version: {"requests": mv.requests, "cache_hits": mv.cache_hits}
        for mv in engine.registry.versions()
    }
    return engine.metrics.snapshot(), versions


def _shard_sync(fleet: int, shard: int, state_blob: bytes) -> int:
    """Apply a pickled registry lifecycle delta to the shard's replica."""
    _SHARD_ENGINES[(fleet, shard)].registry.apply_lifecycle_state(
        pickle.loads(state_blob)
    )
    return shard


def _shard_drop(fleet: int, shard: int) -> bool:
    transport = _SHARD_TRANSPORTS.pop((fleet, shard), None)
    if transport is not None:
        # attacher side only: close our mappings, never unlink — the
        # parent created these segments and the parent releases them
        transport.pool.close()
    return _SHARD_ENGINES.pop((fleet, shard), None) is not None


def _empty_latency_snapshot() -> HistogramSnapshot:
    return HistogramSnapshot(
        name=_LATENCY_METRIC,
        gamma=_DEFAULT_GAMMA,
        count=0,
        sum=0.0,
        min=math.inf,
        max=-math.inf,
        zero_count=0,
        buckets={},
    )


class _MergedSketch:
    """Read-only stand-in for ``engine.latency_hist`` over a fleet.

    Every access folds the shards' latency histograms with
    :meth:`HistogramSnapshot.merge` — same quantile guarantees, no
    separate fleet-side recording.
    """

    def __init__(self, fleet: "ShardedScoringEngine") -> None:
        self._fleet = fleet

    def snapshot(self) -> HistogramSnapshot:
        merged = _empty_latency_snapshot()
        for snap, _versions in self._fleet.shard_snapshots():
            hist = snap.get(_LATENCY_METRIC)
            if hist is not None and hist.count:
                merged = merged.merge(hist)
        return merged

    @property
    def count(self) -> int:
        return self.snapshot().count

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)

    def __repr__(self) -> str:
        return f"_MergedSketch(shards={self._fleet.n_shards})"


class _FleetMetrics(MetricsRegistry):
    """The fleet's registry: parent-side metrics + merged shard snapshots.

    A real :class:`MetricsRegistry` (parent components — a promoter, a
    pacer — adopt into it as usual) whose :meth:`snapshot` folds in
    every shard's snapshot, so one call still yields the whole fleet
    and ``snapshot().delta(before)`` still works (merged counters stay
    monotone because every constituent is).
    """

    def __init__(self, fleet: "ShardedScoringEngine") -> None:
        super().__init__()
        self._fleet = fleet

    def snapshot(self) -> Snapshot:
        merged = super().snapshot()
        for snap, _versions in self._fleet.shard_snapshots():
            merged = merged.merge(snap)
        return merged


# ---------------------------------------------------------------------------
# the fleet
# ---------------------------------------------------------------------------
class ShardedScoringEngine:
    """N per-process scoring shards behind the single-engine API.

    Parameters
    ----------
    models:
        A :class:`ModelRegistry` (shared with the promoter — this is
        the control plane) or a bare scorer with ``predict_roi``.
        Every model must round-trip pickle with bit-identical
        predictions (``tests/test_pickling.py`` pins this for all
        public model classes).
    n_shards:
        Fleet width; defaults to ``backend.n_workers``.
    policy / batch_size / cache_size / latency_log_size:
        Per-shard engine construction, as for :class:`ScoringEngine`.
    max_latency_ms:
        Per-shard deadline flushing.  Forces ``dispatch_size=1`` so
        every arrival reaches its shard (and its deadline loop)
        immediately.
    clock:
        Shared time source for deadline/latency accounting.  Only
        meaningful on in-process backends (serial/thread) — a clock
        cannot cross a process boundary, so on a
        :class:`ProcessBackend` pass ``None`` (shards fall back to
        their own :class:`~repro.runtime.SystemClock` when
        ``max_latency_ms`` is set).
    backend:
        Where shards live: one :meth:`submit_to` lane per shard.
        Defaults to a private :class:`SerialBackend` (shut down by
        :meth:`close`); a caller-provided backend is borrowed and left
        running.
    dispatch_size:
        Rows the parent buffers per shard before shipping one
        ``_shard_feed``.  Transport granularity **only**: flush
        boundaries are governed by the shard engine's own
        ``batch_size``, so scores and stats are identical for any
        value.  Defaults to ``batch_size`` (one feed per micro-batch).
    transport:
        How bytes cross the shard boundary.  ``"auto"`` (default)
        picks ``"shm"`` on a :class:`ProcessBackend` and ``"inline"``
        elsewhere.  ``"shm"`` is the zero-copy path: feature blocks
        land in per-shard shared staging rings and feeds ship only a
        ``(segment, offset, shape)`` descriptor; scores return through
        a per-shard shared result ring (with an automatic inline
        fallback when a ring is full); and when ``cache_size > 0`` the
        score cache becomes one fleet-wide
        :class:`~repro.runtime.SharedScoreCache` segment, so a score
        cached by any shard is a hit on all of them without a byte of
        pickling.  ``"pickle"`` forces the old whole-array-through-
        the-lane dispatch (the measured baseline the zero-copy bench
        compares against); ``"inline"`` is the same mechanism on an
        in-process backend, where the lane hands the array over
        without serialising anyway.  Results and stats are identical
        across transports — only the copies differ; note ``"shm"``
        trades the per-shard LRU for the shared fixed-capacity table,
        which can only change *hit rates*, never scores.
    """

    def __init__(
        self,
        models: ModelRegistry | object,
        n_shards: int | None = None,
        *,
        policy: DecisionPolicy | None = None,
        batch_size: int = 32,
        cache_size: int = 4096,
        max_latency_ms: float | None = None,
        clock: Clock | None = None,
        backend: ExecutionBackend | None = None,
        dispatch_size: int | None = None,
        latency_log_size: int | None = 1_000_000,
        transport: str = "auto",
    ) -> None:
        if isinstance(models, ModelRegistry):
            self.registry = models
        else:
            self.registry = ModelRegistry()
            self.registry.register(models, promote=True)
        self._owns_backend = backend is None
        self.backend: ExecutionBackend = backend if backend is not None else SerialBackend()
        if not hasattr(self.backend, "submit_to"):
            raise TypeError(
                f"backend {self.backend!r} has no submit_to lane affinity; "
                "sharded serving needs long-lived per-shard workers"
            )
        if n_shards is None:
            n_shards = self.backend.n_workers
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if isinstance(self.backend, SerialBackend):
            pass  # serial lanes are logical: any count is fine
        elif n_shards > self.backend.n_workers:
            raise ValueError(
                f"n_shards={n_shards} exceeds the backend's "
                f"{self.backend.n_workers} lanes"
            )
        if clock is not None and isinstance(self.backend, ProcessBackend):
            raise ValueError(
                "a shared clock cannot cross a process boundary; use a "
                "Serial/ThreadBackend for clocked fleets (process shards "
                "default to their own SystemClock when max_latency_ms is set)"
            )
        self.n_shards = int(n_shards)
        self.clock = clock
        self.max_latency_ms = max_latency_ms
        self._deadline_driven = max_latency_ms is not None
        if dispatch_size is None:
            dispatch_size = int(batch_size)
        if self._deadline_driven:
            dispatch_size = 1  # arrivals must reach their shard's deadline loop
        if dispatch_size < 1:
            raise ValueError(f"dispatch_size must be >= 1, got {dispatch_size}")
        self.dispatch_size = int(dispatch_size)

        core = EngineCore(
            registry=self.registry,
            policy=policy if policy is not None else GreedyROIPolicy(),
            batch_size=int(batch_size),
            cache_size=int(cache_size),
            latency_log_size=latency_log_size,
        )
        self.policy = core.policy
        self.batch_size = core.batch_size
        self._fleet_id = next(_FLEET_IDS)
        self._closed = False

        # request plumbing: fleet results (the engine's result table;
        # versions arrive with the scores), per-shard local-id mirrors,
        # buffers
        self._table = _ResultTable()
        self._rr = 0  # keyless round-robin cursor
        self._next_local = [0] * self.n_shards
        self._rid_map: list[dict[int, int]] = [{} for _ in range(self.n_shards)]
        self._buf_rows: list[list[np.ndarray]] = [[] for _ in range(self.n_shards)]
        self._buf_keys: list[list] = [[] for _ in range(self.n_shards)]
        self._buf_rids: list[list[int]] = [[] for _ in range(self.n_shards)]
        self._inflight: deque = deque()  # (kind, shard, future, meta)

        self.metrics: MetricsRegistry = _FleetMetrics(self)
        self.latency_hist = _MergedSketch(self)

        # zero-copy transport: the parent creates every segment (and
        # therefore releases every segment — close() sweeps the pool
        # even when workers died mid-flight)
        if transport == "auto":
            transport = "shm" if isinstance(self.backend, ProcessBackend) else "inline"
        if transport not in ("shm", "pickle", "inline"):
            raise ValueError(
                f"transport must be 'auto', 'shm', 'pickle' or 'inline', got {transport!r}"
            )
        self.transport = transport
        self._shm_pool: SharedTensorPool | None = None
        transport_desc = None
        if transport == "shm":
            self._shm_pool = SharedTensorPool(metrics=self.metrics, prefix="repro-fleet")
            self._ring_slots = max(16 * self.dispatch_size, 1024)
            self._rings = [
                self._shm_pool.create((self._ring_slots, 3)) for _ in range(self.n_shards)
            ]
            self._ring_consumed = [0] * self.n_shards
            # staging rings materialise lazily (row width unknown yet)
            self._stage_cap = max(8 * self.dispatch_size, 512)
            self._staging: list[SharedTensor | None] = [None] * self.n_shards
            self._stage_head = [0] * self.n_shards  # absolute consumed row cursor
            self._stage_tail = [0] * self.n_shards  # absolute written row cursor
            self._shared_cache: SharedScoreCache | None = None
            if core.cache_size > 0:
                # open addressing wants headroom: 2x slots keeps the
                # probe windows sparse at the engine's nominal capacity
                self._shared_cache = SharedScoreCache.create(
                    self._shm_pool, slots=max(2 * core.cache_size, 8)
                )

        # ship the replicas: first task on every lane, ahead of traffic
        blob = pickle.dumps(core)
        self._known_versions = {mv.version for mv in self.registry.versions()}
        self._synced_revision = self.registry.revision
        for shard in range(self.n_shards):
            if transport == "shm":
                transport_desc = {
                    "ring": (self._rings[shard].name, self._ring_slots),
                    "cache": (
                        self._shared_cache.descriptor()
                        if self._shared_cache is not None
                        else None
                    ),
                }
            self._enqueue(shard, "install", _shard_install,
                          self._fleet_id, shard, blob, max_latency_ms, clock,
                          transport_desc)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of(self, key: str | int | None) -> int:
        """The shard a key routes to (keyless draws the round-robin cursor)."""
        if key is None:
            shard = self._rr
            self._rr = (self._rr + 1) % self.n_shards
            return shard
        digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    # ------------------------------------------------------------------
    # request lifecycle (the ScoringEngine facade)
    # ------------------------------------------------------------------
    def submit(self, x_row: np.ndarray, key: str | int | None = None) -> int:
        """Enqueue one request on its shard; returns the fleet request id."""
        self._maybe_sync()
        row = np.ascontiguousarray(np.asarray(x_row, dtype=float).ravel())
        rid = self._table.open(1)
        shard = self.shard_of(key)
        self._buf_rows[shard].append(row)
        self._buf_keys[shard].append(key)
        self._buf_rids[shard].append(rid)
        if len(self._buf_rows[shard]) >= self.dispatch_size:
            self._feed(shard)
        self._reap(wait=False)
        return rid

    def submit_batch(
        self,
        x: np.ndarray,
        keys: Sequence[str | int | None] | None = None,
        stamps: np.ndarray | None = None,
    ) -> range:
        """Enqueue ``x``'s rows in one call; returns their fleet ids.

        Row ``i`` gets fleet id ``rid0 + i`` and routes exactly where
        ``submit(x[i], key=keys[i])`` would have sent it — keyless rows
        walk the round-robin cursor, keyed rows stick to their hash
        shard — so results, stats, and version attribution match N
        single submits.  The win is constant-factor: one routing pass,
        one buffer extension per shard, and the shard engine scores the
        dispatch through its own :meth:`ScoringEngine.submit_batch`.
        ``stamps`` are the rows' arrival times on the fleet's
        :class:`~repro.runtime.ManualClock`: the rows then go one at a
        time, each as ``clock.advance_to(stamps[i])`` followed by
        ``submit(x[i])``, so every shard arms its deadline at the row's
        own arrival.
        """
        if stamps is not None:
            return self._submit_stamped(x, keys, stamps)
        self._maybe_sync()
        x = np.ascontiguousarray(np.asarray(x, dtype=float))
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if keys is not None and len(keys) != n:
            raise ValueError(f"got {n} rows but {len(keys)} keys")
        rid0 = self._table.open(n)
        if n == 0:
            return range(rid0, rid0)
        if keys is None:
            shards = (self._rr + np.arange(n)) % self.n_shards
            self._rr = int((self._rr + n) % self.n_shards)
        else:
            shards = np.fromiter(
                (self.shard_of(k) for k in keys), dtype=np.int64, count=n
            )
        for shard in range(self.n_shards):
            idx = np.nonzero(shards == shard)[0]
            if idx.size == 0:
                continue
            block = x[idx]
            ids = idx.tolist()
            self._buf_rows[shard].extend(block)
            self._buf_keys[shard].extend(
                [None] * len(ids) if keys is None else [keys[i] for i in ids]
            )
            self._buf_rids[shard].extend(rid0 + i for i in ids)
            if len(self._buf_rids[shard]) >= self.dispatch_size:
                self._feed(shard)
        self._reap(wait=False)
        return range(rid0, rid0 + n)

    def _submit_stamped(self, x, keys, stamps) -> range:
        clock = self.clock
        if not isinstance(clock, ManualClock):
            raise ValueError("stamps need a fleet on a ManualClock")
        x = np.asarray(x, dtype=float)
        stamps = np.asarray(stamps, dtype=float)
        if x.ndim != 2 or stamps.shape != (x.shape[0],):
            raise ValueError(f"got {stamps.shape} stamps for rows of shape {x.shape}")
        if keys is not None and len(keys) != x.shape[0]:
            raise ValueError(f"got {x.shape[0]} rows but {len(keys)} keys")
        rid0 = self._table.stop
        for i, stamp in enumerate(stamps):
            clock.advance_to(stamp)
            rid = self.submit(x[i], None if keys is None else keys[i])
            if rid != rid0 + i:
                raise RuntimeError("the fleet issued request ids out of order")
        return range(rid0, rid0 + x.shape[0])

    def flush(self, reason: str = "manual") -> int:
        """Ship every buffered request and flush every shard; returns
        the number of requests dispatched from the parent buffers."""
        self._maybe_sync()
        dispatched = sum(self._feed(shard) for shard in range(self.n_shards))
        for shard in range(self.n_shards):
            self._enqueue(shard, "flush", _shard_flush, self._fleet_id, shard)
        self._reap(wait=True)
        return dispatched

    def poll(self) -> int:
        """Advance the fleet: reap finished dispatches and (when
        deadline-driven) fire every shard's overdue flushes."""
        self._maybe_sync()
        self._reap(wait=False)
        fired = 0
        if self._deadline_driven:
            futures = [
                (s, self.backend.submit_to(s, _shard_poll, self._fleet_id, s))
                for s in range(self.n_shards)
            ]
            for shard, future in futures:
                n_fired, _deadline, drained = future.result()
                fired += n_fired
                self._absorb(shard, drained)
        return fired

    def join(self) -> None:
        """Block until every shipped dispatch has resolved."""
        self._reap(wait=True)

    def next_deadline(self) -> float | None:
        """Earliest pending flush deadline across the fleet, or None."""
        if not self._deadline_driven:
            return None
        deadlines = []
        for shard in range(self.n_shards):
            future = self.backend.submit_to(
                shard, _shard_next_deadline, self._fleet_id, shard
            )
            due = future.result()
            if due is not None:
                deadlines.append(due)
        return min(deadlines) if deadlines else None

    def has_result(self, request_id: int) -> bool:
        """True once the request's score is available (advances the fleet)."""
        if self._table.is_ready(request_id):
            return True
        self.poll()
        return self._table.is_ready(request_id)

    def version_of(self, request_id: int) -> int:
        """Registry version id whose score serves this request (valid
        once the result is ready, until it is taken)."""
        if not self._table.is_ready(request_id):
            raise KeyError(request_id)
        return self._table.version_of(request_id)

    def take(self, request_id: int) -> float:
        """Pop a finished score (KeyError when still pending/unknown)."""
        if not self._table.is_ready(request_id):
            self._reap(wait=False)
        return self._table.take(request_id)

    def drain(self) -> list[tuple[int, int, float]]:
        """Pop every finished result as ``(request_id, version_id, score)``."""
        self.poll()
        return self._table.drain()

    def room(self, n: int, times: np.ndarray | None = None) -> int:
        """One arrival at a time: the fleet's flushes are the shards'."""
        return 1

    def take_ready(self, rids: range) -> tuple[np.ndarray, np.ndarray]:
        """Pop the longest ready prefix of ``rids`` (advances the fleet)."""
        self.poll()
        return self._table.take_ready(rids)

    def score(self, x_row: np.ndarray, key: str | int | None = None) -> float:
        """Synchronous convenience path: submit, flush, return."""
        rid = self.submit(x_row, key=key)
        if not self._table.is_ready(rid):
            self.flush()
        return self.take(rid)

    def score_batch(self, x: np.ndarray, key: str | int | None = None) -> np.ndarray:
        """Score a pre-assembled batch.

        Keyed batches go whole to their sticky shard (one routed
        version, exactly the single-engine semantics).  Keyless
        batches split row-contiguously across every shard — the fleet
        throughput path — and each chunk routes on its own shard's
        replica (identical outcome whenever no challenger is staged).
        """
        self._maybe_sync()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if key is not None:
            shard = self.shard_of(key)
            future = self.backend.submit_to(
                shard, _shard_score_batch, self._fleet_id, shard, x, key
            )
            return np.asarray(future.result(), dtype=float).ravel()
        if self.transport == "shm" and x.shape[0] >= self.n_shards:
            return self._score_batch_shm(x)
        parts = np.array_split(x, self.n_shards)
        futures = [
            (shard, self.backend.submit_to(
                shard, _shard_score_batch, self._fleet_id, shard, part, None
            ))
            for shard, part in enumerate(parts)
            if part.shape[0]
        ]
        return np.concatenate(
            [np.asarray(f.result(), dtype=float).ravel() for _s, f in futures]
        ) if futures else np.empty(0)

    def _score_batch_shm(self, x: np.ndarray) -> np.ndarray:
        """Keyless bulk scoring over shared segments: rows go out and
        scores come back without a pickled byte.

        One input segment holds the whole batch and one output segment
        its scores; each shard reads/writes only its contiguous slice,
        so there is no cross-shard write overlap to synchronise.  Both
        segments are per-call (bulk batches are occasional and sized
        arbitrarily — the feed path's persistent rings don't fit) and
        the parent releases them before returning, success or not.
        """
        n, d = x.shape
        seg_in = self._shm_pool.create((n, d))
        seg_out = self._shm_pool.create((n,))
        try:
            seg_in.array[:] = x
            # same part boundaries as np.array_split, so each shard
            # scores byte-identical slices to the pickled dispatch
            base, extra = divmod(n, self.n_shards)
            futures = []
            pos = 0
            for shard in range(self.n_shards):
                stop = pos + base + (1 if shard < extra else 0)
                if stop == pos:
                    continue
                desc = ("bulk", seg_in.name, n, d, pos, stop - pos, seg_out.name)
                futures.append(self.backend.submit_to(
                    shard, _shard_score_batch, self._fleet_id, shard, desc, None
                ))
                pos = stop
            for future in futures:
                future.result()
            return seg_out.array.copy()
        finally:
            self._shm_pool.release(seg_in.name)
            self._shm_pool.release(seg_out.name)

    # ------------------------------------------------------------------
    # merge-derived accounting
    # ------------------------------------------------------------------
    def shard_snapshots(self) -> list[tuple[Snapshot, dict]]:
        """Per-shard ``(obs snapshot, version counters)``, in shard order.

        Each query rides its shard's FIFO lane, so it observes
        everything dispatched before it.
        """
        futures = [
            self.backend.submit_to(s, _shard_snapshot, self._fleet_id, s)
            for s in range(self.n_shards)
        ]
        return [f.result() for f in futures]

    def fleet_snapshot(self) -> Snapshot:
        """All shards' metrics folded into one :class:`Snapshot`."""
        merged = Snapshot()
        for snap, _versions in self.shard_snapshots():
            merged = merged.merge(snap)
        return merged

    @property
    def stats(self) -> dict[str, int]:
        """Fleet request/flush/cache counters — the shard sum, derived
        by snapshot merge (requests still in the parent's dispatch
        buffers are not yet counted; ``flush`` first for exact totals)."""
        merged = self.fleet_snapshot()
        out = {}
        for name in _STAT_NAMES:
            metric = merged.get(f"engine.{name}")
            out[name] = int(metric.value) if metric is not None else 0
        return out

    def version_stats(self) -> dict[int, dict[str, int]]:
        """Per-version served-request counters summed across shards."""
        totals: dict[int, dict[str, int]] = {}
        for _snap, versions in self.shard_snapshots():
            for vid, counts in versions.items():
                slot = totals.setdefault(vid, {"requests": 0, "cache_hits": 0})
                slot["requests"] += counts["requests"]
                slot["cache_hits"] += counts["cache_hits"]
        return totals

    def latency_quantile(self, q: float) -> float:
        """Fleet submit→score latency quantile from the merged sketches."""
        merged = self.latency_hist.snapshot()
        if merged.count == 0:
            raise ValueError("no latencies recorded — run with a clocked engine")
        return merged.quantile(q)

    @property
    def latencies(self) -> list[float]:
        """Raw per-request latencies, concatenated shard-by-shard.

        Only in-process shards (serial/thread backends) are readable;
        process shards contribute nothing here — use
        :meth:`latency_quantile` (merged sketches) for fleet
        quantiles on any backend.
        """
        out: list[float] = []
        for shard in range(self.n_shards):
            engine = _SHARD_ENGINES.get((self._fleet_id, shard))
            if engine is not None:
                out.extend(engine.latencies)
        return out

    @property
    def latencies_dropped(self) -> int:
        return sum(
            engine.latencies_dropped
            for shard in range(self.n_shards)
            if (engine := _SHARD_ENGINES.get((self._fleet_id, shard))) is not None
        )

    @property
    def n_pending(self) -> int:
        """Requests buffered parent-side, not yet shipped to a shard."""
        return sum(len(rows) for rows in self._buf_rows)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight work, drop every shard, release every shared
        segment, and shut down a privately owned backend (idempotent).

        Segment release is unconditional: the parent created every
        fleet segment, so whatever the reap or the drops raise — a
        mid-flight scoring exception, even a dead process worker — the
        final tier closes the parent's pool, which unlinks them all.
        """
        if self._closed:
            return
        self._closed = True
        try:
            try:
                self._reap(wait=True)
            finally:
                futures = [
                    self.backend.submit_to(s, _shard_drop, self._fleet_id, s)
                    for s in range(self.n_shards)
                ]
                for f in futures:
                    f.result()
        finally:
            if self._shm_pool is not None:
                self._shm_pool.close()
            if self._owns_backend:
                self.backend.shutdown()

    def __enter__(self) -> "ShardedScoringEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedScoringEngine(n_shards={self.n_shards}, "
            f"backend={type(self.backend).__name__})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _enqueue(self, shard: int, kind: str, fn, *args, meta=None) -> None:
        self._inflight.append((kind, shard, self.backend.submit_to(shard, fn, *args), meta))

    def _stage_rows(self, shard: int, rows: np.ndarray):
        """Land a feed's rows in the shard's staging ring; returns the
        descriptor to ship, or ``None`` when the ring can't take them
        (full, or a row-width change) — the caller falls back to the
        pickled dispatch, which is always correct."""
        n, d = rows.shape
        staging = self._staging[shard]
        if staging is None:
            if n > self._stage_cap:
                return None
            staging = self._staging[shard] = self._shm_pool.create((self._stage_cap, d))
        elif staging.shape[1] != d:
            return None
        cap = staging.shape[0]
        head, tail = self._stage_head[shard], self._stage_tail[shard]
        pos = tail % cap
        if pos + n > cap:
            tail += cap - pos  # pad to the wrap boundary (freed with the feed)
            pos = 0
        if tail + n - head > cap:
            return None
        staging.array[pos : pos + n] = rows
        self._stage_tail[shard] = tail + n
        return ("seg", staging.name, cap, d, pos, n), tail + n

    def _feed(self, shard: int) -> int:
        """Ship shard ``shard``'s parent-side buffer as one dispatch."""
        rids = self._buf_rids[shard]
        if not rids:
            return 0
        # shard-local ids are assigned sequentially by the worker
        # engine's submit; mirror its counter to map them back
        base = self._next_local[shard]
        mapping = self._rid_map[shard]
        for offset, rid in enumerate(rids):
            mapping[base + offset] = rid
        self._next_local[shard] = base + len(rids)
        rows = np.stack(self._buf_rows[shard])
        keys = list(self._buf_keys[shard])
        n = len(rids)
        self._buf_rows[shard] = []
        self._buf_keys[shard] = []
        self._buf_rids[shard] = []
        if self.transport == "shm":
            staged = self._stage_rows(shard, rows)
            payload, meta = staged if staged is not None else (rows, None)
            self._enqueue(
                shard, "feed", _shard_feed, self._fleet_id, shard,
                payload, keys, self._ring_consumed[shard], meta=meta,
            )
        else:
            self._enqueue(shard, "feed", _shard_feed, self._fleet_id, shard, rows, keys)
        return n

    def _absorb(self, shard: int, drained: Sequence[tuple[int, int, float]]) -> None:
        mapping = self._rid_map[shard]
        landed = [
            (rid, version, score)
            for local, version, score in drained
            # None: already surfaced through another op's drain
            if (rid := mapping.pop(int(local), None)) is not None
        ]
        if landed:
            rids, versions, scores = zip(*landed)
            self._table.resolve(np.array(rids), scores, versions)

    def _absorb_ring(self, shard: int, start: int, k: int) -> None:
        """Read ``k`` results the worker parked in the shared ring.

        Safe without locks: the feed's future resolved, so the worker
        finished writing; and the worker never writes past our consumed
        cursor + ring size, so these slots were not overwritten."""
        idx = (start + np.arange(k)) % self._ring_slots
        self._absorb(shard, self._rings[shard].array[idx].tolist())
        self._ring_consumed[shard] = start + k

    def _reap(self, wait: bool) -> None:
        while self._inflight:
            kind, shard, future, meta = self._inflight[0]
            if not wait and not future.done():
                break
            self._inflight.popleft()
            result = future.result()  # re-raises worker failures here
            if meta is not None:
                # the worker consumed the staged rows: free them (FIFO,
                # so the head simply advances to this feed's end)
                self._stage_head[shard] = meta
            if kind == "feed" and isinstance(result, tuple):
                tag = result[0]
                if tag == "ring":
                    self._absorb_ring(shard, result[1], result[2])
                else:  # "inline": ring was full — results rode the future
                    self._absorb(shard, result[1])
            elif kind in ("feed", "flush"):
                self._absorb(shard, result)
            # install/sync/drop return markers; nothing to absorb

    def _maybe_sync(self) -> None:
        """Ship the registry lifecycle delta when the revision moved."""
        if self.registry.revision == self._synced_revision:
            return
        state = self.registry.lifecycle_state(known=self._known_versions)
        blob = pickle.dumps(state)
        for shard in range(self.n_shards):
            self._enqueue(shard, "sync", _shard_sync, self._fleet_id, shard, blob)
        self._known_versions |= set(state["stages"])
        self._synced_revision = self.registry.revision


# ---------------------------------------------------------------------------
# fleet budget pacing
# ---------------------------------------------------------------------------
class ShardedBudgetPacer:
    """One budget ``B`` paced as N rebalancing per-shard slices.

    Each slice is a complete :class:`BudgetPacer` holding ``B/N`` and
    ``horizon/N``; offers route to a slice (sticky by key, round-robin
    keyless — matching :meth:`ShardedScoringEngine.shard_of` so shard
    ``i``'s traffic meets pacer ``i``'s threshold), outcome feedback
    follows the offer it realises.  On every ``rebalance_every``
    seconds of ``clock`` (a :class:`DeadlineLoop` tick, polled from
    :meth:`offer`) the *unspent* residual ``R = B − Σ spentᵢ`` is
    re-divided over the slices in proportion to their remaining
    horizon::

        budgetᵢ ← spentᵢ + R · remainingᵢ / Σ remainingⱼ

    Every slice keeps at least what it already spent (so
    :meth:`BudgetPacer.rebudget` never violates a slice invariant) and
    the slice-sum is ``B`` after every tick, which is what makes fleet
    spend strictly bounded by ``B``: each slice's own cap does the
    local enforcement, the rebalance only moves headroom between
    slices.  ``rebalance_every`` without an explicit clock reads wall
    time (:class:`~repro.runtime.SystemClock`); with neither, the
    initial even split simply stays.

    The single-pacer surface (``budget``/``spent``/``offer``/
    ``observe_outcome``/``history``/...) is preserved, so
    :class:`~repro.serving.simulator.TrafficReplay` drives a fleet
    pacer unchanged.
    """

    def __init__(
        self,
        budget: float,
        horizon: int,
        n_shards: int,
        *,
        clock: Clock | None = None,
        rebalance_every: float | None = None,
        **pacer_params,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not budget >= 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if horizon < n_shards:
            raise ValueError(
                f"horizon {horizon} must cover at least one arrival per "
                f"shard ({n_shards})"
            )
        if rebalance_every is not None and not rebalance_every > 0:
            raise ValueError(
                f"rebalance_every must be > 0, got {rebalance_every}"
            )
        self.n_shards = int(n_shards)
        self.horizon = int(horizon)
        self._budget = float(budget)
        self.clock = clock
        self.rebalance_every = rebalance_every
        per_horizon = max(1, int(math.ceil(horizon / n_shards)))
        self.shards: list[BudgetPacer] = [
            BudgetPacer(budget / n_shards, per_horizon, **pacer_params)
            for _ in range(self.n_shards)
        ]
        self._rr = 0
        self._last_offer_shard = 0
        self.rebalances = 0
        self._loop: DeadlineLoop | None = None
        if rebalance_every is not None:
            # asking for periodic rebalancing implies a clock to read;
            # wall time is the natural default outside simulations
            self.clock = clock if clock is not None else SystemClock()
            self._loop = DeadlineLoop(self.clock)
            self._loop.schedule_in("rebalance", rebalance_every, self._on_tick)

    # ------------------------------------------------------------------
    # routing + the pacer surface
    # ------------------------------------------------------------------
    def shard_of(self, key: str | int | None) -> int:
        if key is None:
            shard = self._rr
            self._rr = (self._rr + 1) % self.n_shards
            return shard
        digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    def offer(self, score: float, cost: float, key: str | int | None = None) -> bool:
        """Route one arrival to its slice and decide treat/skip."""
        if self._loop is not None:
            self._loop.poll()
        shard = self.shard_of(key)
        self._last_offer_shard = shard
        return self.shards[shard].offer(score, cost)

    def observe_outcome(self, t: int, y_r: float, y_c: float) -> None:
        """Feed one realised outcome back to the slice whose offer it
        realises (callers report immediately after :meth:`offer`, the
        :class:`~repro.serving.simulator.TrafficReplay` convention)."""
        self.shards[self._last_offer_shard].observe_outcome(t, y_r, y_c)

    def offer_block(self, scores, costs) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`BudgetPacer.offer_block`'s surface, one arrival at a
        time, so each outcome reaches the slice of its own offer."""
        admitted = self.offer(float(scores[0]), float(costs[0]))
        return np.array([admitted]), np.array([self.spent])

    def observe_outcome_block(self, t, y_r, y_c) -> None:
        for row in zip(np.asarray(t).tolist(), np.asarray(y_r).tolist(), np.asarray(y_c).tolist()):
            self.observe_outcome(*row)

    # ------------------------------------------------------------------
    # slice rebalancing
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        self.rebalance()
        if self._loop is not None and self.rebalance_every is not None:
            self._loop.schedule_in("rebalance", self.rebalance_every, self._on_tick)

    def rebalance(self) -> list[float]:
        """Re-divide the unspent residual by remaining horizon share.

        Returns the new per-slice budgets (summing to ``budget``
        exactly, up to float addition).
        """
        spent = [p.spent for p in self.shards]
        residual = self._budget - sum(spent)
        remaining = [max(0, p.horizon - p.n_seen) for p in self.shards]
        total_remaining = sum(remaining)
        if total_remaining == 0:
            # every slice exhausted its horizon: split residual evenly
            weights = [1.0 / self.n_shards] * self.n_shards
        else:
            weights = [r / total_remaining for r in remaining]
        budgets = [s + residual * w for s, w in zip(spent, weights)]
        for pacer, b in zip(self.shards, budgets):
            pacer.rebudget(b)
        self.rebalances += 1
        return budgets

    # ------------------------------------------------------------------
    # fleet accounting (sums over slices — no second ledger)
    # ------------------------------------------------------------------
    @property
    def budget(self) -> float:
        return self._budget

    @property
    def spent(self) -> float:
        return float(sum(p.spent for p in self.shards))

    @property
    def n_seen(self) -> int:
        return sum(p.n_seen for p in self.shards)

    @property
    def n_admitted(self) -> int:
        return sum(p.n_admitted for p in self.shards)

    @property
    def remaining(self) -> float:
        return max(0.0, self._budget - self.spent)

    @property
    def progress(self) -> float:
        return min(1.0, self.n_seen / self.horizon)

    @property
    def admit_rate(self) -> float:
        return self.n_admitted / self.n_seen if self.n_seen else 0.0

    @property
    def slice_budgets(self) -> list[float]:
        """Current per-slice budgets (sum == ``budget`` after any tick)."""
        return [p.budget for p in self.shards]

    @property
    def history(self) -> list[tuple[int, float, float]]:
        """Every slice's refresh trace, ordered by arrivals seen."""
        merged = [entry for p in self.shards for entry in p.history]
        merged.sort(key=lambda e: e[0])
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedBudgetPacer(budget={self._budget}, "
            f"n_shards={self.n_shards}, spent={self.spent:.3f})"
        )
