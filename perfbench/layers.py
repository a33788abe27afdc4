"""The program's layers, their public entry points, and per-layer metrics.

Layers are named by module.  :func:`targets` lists every entry point the
traced run wraps, and :func:`per_layer_metrics` computes the per-layer
metrics that ``BENCHMARK.json`` lists from a traced run's spans.
"""

from __future__ import annotations

import importlib

import numpy as np

LAYERS = (
    "ab.platform",
    "serving.simulator",
    "serving.engine",
    "serving.registry",
    "serving.pacing",
    "serving.promotion",
    "serving.retraining",
    "runtime.clock",
    "core.rdrp",
    "core.drp",
    "nn.network",
    "core.calibration",
    "core.conformal",
    "core.roi_star",
    "core.allocation",
    "data.settings",
    "metrics.aucc",
)

# nn.network is charged to two labels so forward passes (MC dropout and
# point prediction) and training show apart
NN_FORWARD = "nn.network.forward"
NN_FIT = "nn.network.fit"

# layers the set-up phases call (data generation, fit and calibrate)
SETUP_LAYERS = (
    "ab.platform",
    "data.settings",
    "core.rdrp",
    "core.drp",
    "core.calibration",
    "core.conformal",
    "core.roi_star",
    "metrics.aucc",
)

def layer_of(label: str) -> str:
    return "nn.network" if label in (NN_FORWARD, NN_FIT) else label


def targets():
    """``(owner, attribute, label, options)`` for every traced entry point.

    Module-level functions are patched in each module that looks them up
    (``greedy_allocation`` in the simulator, ``aucc`` in the calibration
    module), besides their home module where the benchmark calls them.
    """
    from repro.ab.platform import Platform
    from repro.core.calibration import HeuristicCalibration
    from repro.core.conformal import ConformalCalibrator
    from repro.core.drp import DRPModel
    from repro.core.rdrp import RobustDRP
    from repro.core.roi_star import RoiStarEstimator
    from repro.nn.network import Network
    from repro.runtime.clock import DeadlineLoop
    from repro.serving.engine import ScoringEngine
    from repro.serving.pacing import BudgetPacer
    from repro.serving.promotion import AutoPromoter
    from repro.serving.registry import ModelRegistry
    from repro.serving.retraining import Retrainer
    from repro.serving.simulator import TrafficReplay

    module = importlib.import_module  # repro.metrics re-exports aucc over its module name
    return [
        (Platform, "daily_cohort", "ab.platform", {}),
        (TrafficReplay, "replay_days", "serving.simulator", {}),
        (ScoringEngine, "flush", "serving.engine", {"keep_durations": True}),
        *[
            (ScoringEngine, name, "serving.engine", {})
            for name in ("submit", "poll", "has_result", "take", "version_of", "join")
        ],
        (ModelRegistry, "route", "serving.registry", {}),
        (BudgetPacer, "offer", "serving.pacing", {}),
        (BudgetPacer, "observe_outcome", "serving.pacing", {}),
        (AutoPromoter, "observe", "serving.promotion", {}),
        (AutoPromoter, "poll", "serving.promotion", {}),
        (Retrainer, "observe", "serving.retraining", {}),
        (Retrainer, "poll", "serving.retraining", {}),
        (DeadlineLoop, "poll", "runtime.clock", {}),
        *[(RobustDRP, name, "core.rdrp", {}) for name in ("fit", "calibrate", "predict_roi")],
        *[(DRPModel, name, "core.drp", {}) for name in ("fit", "predict_roi", "predict_roi_mc")],
        (Network, "forward_stochastic", NN_FORWARD, {"rows": True}),
        (Network, "predict", NN_FORWARD, {}),
        (Network, "fit", NN_FIT, {}),
        (HeuristicCalibration, "select", "core.calibration", {}),
        (HeuristicCalibration, "transform", "core.calibration", {}),
        (ConformalCalibrator, "calibrate", "core.conformal", {}),
        (RoiStarEstimator, "estimate", "core.roi_star", {}),
        (module("repro.core.allocation"), "greedy_allocation", "core.allocation", {}),
        (module("repro.serving.simulator"), "greedy_allocation", "core.allocation", {}),
        (module("repro.data.settings"), "make_setting", "data.settings", {}),
        (module("repro.metrics.aucc"), "aucc", "metrics.aucc", {}),
        (module("repro.core.calibration"), "aucc", "metrics.aucc", {}),
    ]


def _self_by_layer(stats: dict) -> dict[str, list]:
    layers = {layer: [0, 0.0] for layer in LAYERS}
    for label, (calls, self_s) in stats.items():
        entry = layers[layer_of(label)]
        entry[0] += calls
        entry[1] += self_s
    return layers


def per_layer_metrics(setup_stats: dict, timed_stats: dict, timed_wall: float) -> dict[str, float]:
    """Layer calls, self time and share of the traced timed phase, plus
    the set-up phase's self time for the layers set-up calls."""
    out: dict[str, float] = {}
    timed_wall = max(timed_wall, 1e-12)
    timed = _self_by_layer(timed_stats)
    for layer, (calls, self_s) in timed.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / timed_wall
    out["nn.network.forward_self_s"] = timed_stats.get(NN_FORWARD, (0, 0.0))[1]
    out["nn.network.fit_self_s"] = timed_stats.get(NN_FIT, (0, 0.0))[1]
    setup = _self_by_layer(setup_stats)
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_s"] = setup[layer][1]
    out["setup.nn.network.forward_self_s"] = setup_stats.get(NN_FORWARD, (0, 0.0))[1]
    out["setup.nn.network.fit_self_s"] = setup_stats.get(NN_FIT, (0, 0.0))[1]
    out["trace_coverage"] = sum(self_s for _c, self_s in timed.values()) / timed_wall
    return out


def flush_ms_p99(durations: list[float]) -> float:
    """p99 of traced ``ScoringEngine.flush`` span durations, in wall ms."""
    return float(np.quantile(durations, 0.99)) * 1000.0 if durations else 0.0
