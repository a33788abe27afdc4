"""Tests of the benchmark itself: tiny runs, span accounting, wait folding,
signature-safe wrappers, set-up placement and the host-speed helper."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from hostspeed import HostSpeed
from spans import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Run the benchmark command at test sizes."""
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])


def _run(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(capsys, tiny, workload, trace):
    code, result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert code == 0 and result["correct"], result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace_coverage"]["value"] > 0.95
        if workload.startswith("campaign"):  # one cohort a simulated day
            assert result["metrics"]["ab.platform.calls"]["value"] == workloads.SIZES["tiny"].days


def test_failed_check_exits_nonzero(capsys, tiny, monkeypatch):
    def nan_scores(self, model, x):
        self.rows += len(x)
        self.nonfinite += len(x)
        return np.full(len(x), np.nan)

    monkeypatch.setattr(workloads.FiniteScores, "score_batch", nan_scores)
    code, result = _run(capsys, "--workload", "campaign_rdrp", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert code == 1 and result["correct"] is False


def test_missing_source_tree_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_rdrp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode != 0 and out.stdout == ""


class _Toy:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        self.inner()
        return "done"

    def inner(self):
        self.clock.now += 4.0


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.installed([(_Toy, "outer", "outer", {}), (_Toy, "inner", "inner", {})]):
        assert _Toy(clock).outer() == "done"
    assert tracer.stats["outer"] == [1, 3.0]
    assert tracer.stats["inner"] == [2, 8.0]
    assert sum(self_s for _calls, self_s in tracer.stats.values()) == 11.0  # the outer span's duration


def test_restore_after_exception():
    original = vars(_Toy)["inner"]
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer.installed([(_Toy, "inner", "inner", {})]):
        assert vars(_Toy)["inner"] is not original
        raise RuntimeError
    assert vars(_Toy)["inner"] is original


@pytest.mark.parametrize(("extra", "steps"), [(8, 30), (8, 36), (1, 1), (3, 2)])
def test_extra_setups_spread_over_the_run(extra, steps):
    before = workloads.Timing(None, extra=extra).before(steps)
    assert len(before) == steps and sum(before) == extra
    if steps > extra:
        assert max(before) == 1 and before[0] == 0


def test_host_speed_helper_stops():
    speed = HostSpeed()
    try:
        assert speed.factor() > 0
    finally:
        speed.close()
    assert speed._helper.poll() == 0


def test_wait_fold_counts_cache_hits_as_zero():
    p50, p99, n = workloads.fold_waits([0.010] * 10, cache_hits=30)
    assert (p50, n) == (0.0, 40)
    assert p99 == pytest.approx(10.0)
    waits = np.linspace(0.001, 0.05, 101)
    p50, p99, n = workloads.fold_waits(waits, cache_hits=0)
    assert p50 == pytest.approx(np.quantile(waits, 0.5) * 1000) and n == 101


def test_refit_model_dispatches_through_wrapped_fit():
    from repro.causal.base import refit_model
    from repro.core.drp import DRPModel

    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4))
    t = np.arange(200) % 2
    y_r = (rng.random(200) < 0.3).astype(float)
    y_c = (rng.random(200) < 0.2).astype(float)
    original = inspect.signature(DRPModel.fit)
    tracer = Tracer()
    with tracer.installed([(DRPModel, "fit", "core.drp", {})]):
        assert inspect.signature(DRPModel.fit) == original
        model = refit_model(DRPModel(hidden=10, epochs=1, n_restarts=1, random_state=0), x, t, y_r, y_c)
    assert tracer.stats["core.drp"][0] == 1
    assert np.all(np.isfinite(model.predict_roi(x)))
    assert "__wrapped__" not in vars(DRPModel.fit)
