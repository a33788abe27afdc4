"""Section IV-D: time-complexity profile of rDRP vs DRP.

The paper's claims, reproduced empirically:

* Training phase: identical (rDRP *is* DRP at train time).
* Calibration phase: rDRP-only, O(N_cali (k + log N_cali)) — the bench
  shows near-linear scaling in the calibration size.
* Inference phase: rDRP costs T MC passes per sample vs 1 for DRP
  (parallelisable in production); the layers before the dropout run
  once per call, so each MC pass costs less than a full forward pass.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _harness import MC_SAMPLES, get_rdrp, get_setting, print_header, record_result
from repro.core.rdrp import RobustDRP

# metrics accumulated across the three phase tests; the last test in
# file order records the lot as one trajectory run
_METRICS: dict[str, dict] = {}


def test_calibration_phase_scaling(benchmark) -> None:
    """Calibration wall-clock vs N_cali (paper: quasi-linear)."""

    def run() -> list[tuple[int, float]]:
        data = get_setting("criteo", "SuNo")
        base = get_rdrp("criteo", "SuNo")
        rows = []
        sizes = (300, 600, min(1200, data.calibration.n))
        for n_cali in sizes:
            ca = data.calibration.subset(np.arange(n_cali))
            model = RobustDRP(drp=base.drp, mc_samples=MC_SAMPLES)
            start = time.perf_counter()
            model.calibrate(ca.x, ca.t, ca.y_r, ca.y_c)
            rows.append((n_cali, time.perf_counter() - start))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("§IV-D — calibration phase scaling")
    for n_cali, seconds in rows:
        print(f"  N_cali={n_cali:<6d} {seconds * 1000:8.1f} ms")
    # quasi-linear: 4x the data should cost well under ~10x the time
    assert rows[-1][1] < rows[0][1] * 10 + 0.5
    _METRICS["calibration_scaling_ratio"] = {
        "value": rows[-1][1] / max(rows[0][1], 1e-9),
        "unit": "x",
        "direction": "lower",
    }


def _best_of(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` wall-clock runs of ``fn()``.

    A single timing of a ~10 ms call swings 2x on a shared machine; the
    fastest of a few is steady enough to gate the inference ratio.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_inference_phase_overhead(benchmark) -> None:
    """rDRP inference: T MC passes, but each network's layers before its
    dropout run once per call; DRP inference = 1 pass per restart."""

    def run() -> dict[str, float]:
        data = get_setting("criteo", "SuNo")
        model = get_rdrp("criteo", "SuNo")
        x = data.test.x
        return {
            "DRP": _best_of(lambda: model.drp.predict_roi(x)),
            "rDRP": _best_of(lambda: model.predict_roi(x)),
        }

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("§IV-D — inference phase (seconds, full test split)")
    ratio = timings["rDRP"] / max(timings["DRP"], 1e-9)
    for name, seconds in timings.items():
        print(f"  {name:<6s} {seconds * 1000:8.1f} ms")
    print(f"  ratio rDRP/DRP = {ratio:.1f}x (T = {MC_SAMPLES} MC passes)")
    # a full-stack pass per MC sample read 7.6-11x (T = 20, 2 CPUs);
    # running only the layers from the dropout on per pass reads 3.6-4.2x
    assert ratio < MC_SAMPLES / 3
    _METRICS["inference_ratio_rdrp_drp"] = {
        "value": ratio,
        "unit": "x",
        "direction": "lower",
        "gated": True,
        "tolerance": 0.5,
    }


def test_training_phase_identical(benchmark, smoke) -> None:
    """rDRP adds nothing at training time — it trains the same DRP."""

    def run() -> dict[str, float]:
        data = get_setting("criteo", "InNo")
        tr = data.train
        from repro.core.drp import DRPModel

        start = time.perf_counter()
        DRPModel(hidden=32, epochs=20, n_restarts=1, random_state=0).fit(
            tr.x, tr.t, tr.y_r, tr.y_c
        )
        drp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        RobustDRP(hidden=32, epochs=20, n_restarts=1, random_state=0).fit(
            tr.x, tr.t, tr.y_r, tr.y_c
        )
        rdrp_seconds = time.perf_counter() - start
        return {"DRP": drp_seconds, "rDRP": rdrp_seconds}

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("§IV-D — training phase (seconds, InNo split)")
    for name, seconds in timings.items():
        print(f"  {name:<6s} {seconds:8.3f} s")
    assert timings["rDRP"] == pytest.approx(timings["DRP"], rel=1.0)

    # the train-phase ratio is pinned near 1 by construction, so it is
    # machine-portable enough to gate (at the same loose band the
    # assertion above uses); the calibration scaling ratio rides along
    # ungated
    _METRICS["training_ratio_rdrp_drp"] = {
        "value": timings["rDRP"] / max(timings["DRP"], 1e-9),
        "unit": "x",
        "direction": "lower",
        "gated": True,
        "tolerance": 1.0,
    }
    record_result("timing_complexity", dict(_METRICS), smoke=smoke)
    _METRICS.clear()
