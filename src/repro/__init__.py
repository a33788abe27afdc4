"""repro — *Improve ROI with Causal Learning and Conformal Prediction* (ICDE 2024).

A from-scratch reproduction of the rDRP system: the DRP direct-ROI
uplift model, Monte-Carlo-dropout uncertainty, conformal prediction
intervals, heuristic point-estimate calibration, the full TPM baseline
zoo, synthetic analogs of the paper's three datasets, the AUCC metric,
and a simulated online A/B platform.

Quickstart
----------
>>> from repro import RobustDRP, make_setting, aucc
>>> data = make_setting("criteo", "InCo", random_state=0)
>>> model = RobustDRP(random_state=0)
>>> model.fit(data.train.x, data.train.t, data.train.y_r, data.train.y_c)
>>> model.calibrate(data.calibration.x, data.calibration.t,
...                 data.calibration.y_r, data.calibration.y_c)
>>> froi = model.predict_roi(data.test.x)
>>> aucc(froi, data.test.t, data.test.y_r, data.test.y_c)  # doctest: +SKIP

Online serving (``repro.serving``)
----------------------------------
The offline pipeline above sees the whole cohort at once; production
decisioning happens per request.  :mod:`repro.serving` provides the
online half: a versioned :class:`ModelRegistry` with champion /
challenger rollout, a micro-batching :class:`ScoringEngine` with an
LRU score cache, a streaming :class:`BudgetPacer` that admits users
through an adaptive threshold tracking a daily pacing curve, pluggable
decision policies (greedy-ROI and conformal-gated), and a
:class:`TrafficReplay` harness measuring throughput and the online
policy's revenue against the offline greedy oracle.

>>> from repro import ModelRegistry, ScoringEngine, TrafficReplay, Platform
>>> registry = ModelRegistry()
>>> registry.register(model, promote=True)  # doctest: +SKIP
>>> engine = ScoringEngine(registry, batch_size=64)  # doctest: +SKIP
>>> result = TrafficReplay(Platform(), engine).replay_day(10_000)  # doctest: +SKIP

Execution runtime (``repro.runtime``)
-------------------------------------
One execution layer under everything above: pluggable
:class:`ExecutionBackend` pools (:class:`SerialBackend`,
:class:`ThreadBackend`, :class:`ProcessBackend` — lazily started,
reused across a whole run) fan out chunked cohort generation and make
scoring-engine flushes asynchronous, while :class:`Clock` /
:class:`ManualClock` / ``DeadlineLoop`` put latency deadlines
(``max_latency_ms`` flushing) under exact, simulator-controlled time.
:class:`MultiDayPacer` chains pacing across days with under/over-spend
carryover, and ``TrafficReplay.replay_days`` replays whole campaigns.

Observability (``repro.obs``)
-----------------------------
Every layer above instruments itself onto one metrics/tracing package:
:class:`MetricsRegistry` collects counters, gauges, and log-bucket
:class:`~repro.obs.Histogram` sketches (O(1) record, ~1% quantile
error) whose snapshots merge across shards and diff across days;
clock-aware spans time operations in exact simulated seconds under a
:class:`ManualClock`; exporters cover lossless JSON and the Prometheus
text format.  Pass ``metrics=MetricsRegistry()`` to an engine, pacer,
promoter, backend, or replay to collect — the default null registry
keeps un-instrumented paths bit-identical.  See
``docs/OBSERVABILITY.md``.

Cross-policy replay (``repro.ab.replay``)
-----------------------------------------
:class:`PolicyReplay` compares several policy sets on *identical*
traffic with shared outcome draws (common random numbers): one cohort,
one arm partition, and one per-user cost/reward uniform tensor per day,
so cross-policy uplift deltas are paired and far less noisy than
independent :class:`ABTest` runs — at roughly one run's generation
cost.  See :mod:`repro.ab.replay` for a three-policy example.
"""

from repro.ab import ABTest, Platform, PolicyReplay
from repro.causal import (
    CausalForestUplift,
    DragonNet,
    OffsetNet,
    SLearner,
    SNet,
    TARNet,
    TLearner,
    TwoPhaseMethod,
    XLearner,
    make_tpm,
)
from repro.core import (
    ConformalCalibrator,
    DirectRank,
    DivideAndConquerRDRP,
    DRPModel,
    HeuristicCalibration,
    IsotonicRoiRecalibration,
    RobustDRP,
    RoiStarEstimator,
    binary_search_roi_star,
    bisect_monotone,
    greedy_allocation,
    greedy_allocation_by_roi,
    pav_isotonic,
)
from repro.data import (
    MultiTreatmentRCT,
    RCTDataset,
    alibaba_lift,
    criteo_uplift_v2,
    exponential_tilt_shift,
    make_setting,
    meituan_lift,
    multi_treatment_rct,
)
from repro.metrics import aucc, cost_curve, qini_coefficient
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.runtime import (
    ManualClock,
    ProcessBackend,
    SerialBackend,
    SystemClock,
    ThreadBackend,
)
from repro.serving import (
    AutoPromoter,
    BudgetPacer,
    ConformalGatedPolicy,
    GreedyROIPolicy,
    ModelRegistry,
    MultiDayPacer,
    ScoringEngine,
    TrafficReplay,
)

__version__ = "1.16.0"

__all__ = [
    "ABTest",
    "AutoPromoter",
    "BudgetPacer",
    "CausalForestUplift",
    "ConformalCalibrator",
    "ConformalGatedPolicy",
    "DRPModel",
    "DirectRank",
    "DivideAndConquerRDRP",
    "DragonNet",
    "GreedyROIPolicy",
    "ModelRegistry",
    "MultiTreatmentRCT",
    "multi_treatment_rct",
    "HeuristicCalibration",
    "IsotonicRoiRecalibration",
    "ManualClock",
    "MetricsRegistry",
    "MultiDayPacer",
    "NULL_REGISTRY",
    "OffsetNet",
    "ProcessBackend",
    "ScoringEngine",
    "SerialBackend",
    "SystemClock",
    "ThreadBackend",
    "TrafficReplay",
    "pav_isotonic",
    "Platform",
    "PolicyReplay",
    "RCTDataset",
    "RobustDRP",
    "RoiStarEstimator",
    "SLearner",
    "SNet",
    "TARNet",
    "TLearner",
    "TwoPhaseMethod",
    "XLearner",
    "alibaba_lift",
    "aucc",
    "binary_search_roi_star",
    "bisect_monotone",
    "cost_curve",
    "criteo_uplift_v2",
    "exponential_tilt_shift",
    "greedy_allocation",
    "greedy_allocation_by_roi",
    "make_setting",
    "make_tpm",
    "meituan_lift",
    "qini_coefficient",
    "__version__",
]
