"""Shared experiment harness for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at a
scaled-down size (the real corpora are 5M–13.9M rows; the analogs run
thousands).  Expensive artifacts — setting splits and fitted models —
are cached per ``(dataset, setting)`` cell so Table II / Fig. 5 reuse
Table I's models instead of retraining, and the two cells of a
dataset and size that share a training split share one fit.

Absolute AUCC values will not match the paper (different substrate);
what the benches check and print is the *shape*: method ordering,
setting ordering, and the rDRP-vs-DRP deltas.  See EXPERIMENTS.md.

The harness is itself instrumented: both artifact caches are bounded
LRU :class:`BenchCache`\\ s counting hits/misses/evictions into
:data:`BENCH_METRICS`, and :func:`record_result` appends a run to the
committed ``BENCH_<area>.json`` trajectory (opt-in: set
``REPRO_BENCH_RECORD=1`` to write at the repo root, or
``REPRO_BENCH_DIR=<dir>`` to write elsewhere, as CI does).
"""

from __future__ import annotations

import cProfile
import os
import pickle
import pstats
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.causal.tpm import TPM_VARIANTS, make_tpm
from repro.core.calibration import combine_point_and_std
from repro.core.direct_rank import DirectRank
from repro.core.rdrp import RobustDRP
from repro.data.settings import SETTING_NAMES, SettingData, make_setting
from repro.metrics.aucc import aucc
from repro.obs import MetricsRegistry
from repro.obs.trajectory import append_run, bench_path

# ---------------------------------------------------------------------------
# scaled-down experiment configuration
# ---------------------------------------------------------------------------
N_SUFFICIENT = 9000
SEED = 0
DRP_PARAMS = dict(hidden=48, epochs=80, n_restarts=2)
MC_SAMPLES = 20
DATASETS = ("criteo", "meituan", "alibaba")

#: one registry shared by every bench process-wide (cache counters,
#: plus whatever the bench itself adopts into it)
BENCH_METRICS = MetricsRegistry()


class BenchCache:
    """A bounded LRU mapping with hit/miss/eviction counters.

    The harness used to keep plain module-level dicts: fine for one
    bench, unbounded for a long bench session that walks every
    ``(dataset, setting, model)`` cell.  ``maxsize`` bounds the resident
    artifacts (LRU eviction); the counters land in
    :data:`BENCH_METRICS` as ``bench.cache.<name>.{hits,misses,
    evictions}`` and a ``bench.cache.<name>.size`` gauge.
    """

    def __init__(self, name: str, maxsize: int = 32, metrics: MetricsRegistry | None = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.metrics = metrics if metrics is not None else BENCH_METRICS
        self._data: OrderedDict = OrderedDict()
        self._c_hits = self.metrics.counter(f"bench.cache.{name}.hits")
        self._c_misses = self.metrics.counter(f"bench.cache.{name}.misses")
        self._c_evictions = self.metrics.counter(f"bench.cache.{name}.evictions")
        self._g_size = self.metrics.gauge(f"bench.cache.{name}.size")

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get_or_build(self, key, build):
        """Return the cached value, building (and possibly evicting) on miss."""
        if key in self._data:
            self._data.move_to_end(key)
            self._c_hits.inc()
            return self._data[key]
        self._c_misses.inc()
        value = self._data[key] = build()
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._c_evictions.inc()
        self._g_size.set(len(self._data))
        return value

    def clear(self) -> None:
        """Drop every cached artifact (counters keep their totals)."""
        self._data.clear()
        self._g_size.set(0)


_setting_cache = BenchCache("settings", maxsize=24)
_model_cache = BenchCache("models", maxsize=48)
_fit_cache = BenchCache("fits", maxsize=24)  # pickled fits, one per training split


def clear_caches() -> None:
    """Release every cached setting and model (e.g. between bench areas)."""
    _setting_cache.clear()
    _model_cache.clear()
    _fit_cache.clear()


def get_setting(dataset: str, setting: str) -> SettingData:
    """Cached train/calibration/test triple for one Table-I cell."""
    return _setting_cache.get_or_build(
        (dataset, setting),
        lambda: make_setting(
            dataset, setting, n_sufficient=N_SUFFICIENT, random_state=SEED
        ),
    )


def _fitted(dataset: str, setting: str, kind: str, fit):
    """A private copy of the model ``fit`` trains on this cell's
    training split.

    The "No" and "Co" cells of one dataset and size draw byte-identical
    training splits at the harness seed (pinned in
    ``tests/test_data_settings.py``), so each pair is fitted once and
    every cell unpickles its own copy.  The copy carries the fitted
    model's generator state, so the draws a cell makes afterwards (MC
    masks in calibration and scoring) match a fit of its own.
    """
    def build() -> bytes:
        return pickle.dumps(fit(get_setting(dataset, setting).train))

    return pickle.loads(_fit_cache.get_or_build((dataset, setting[:2], kind), build))


def get_rdrp(dataset: str, setting: str) -> RobustDRP:
    """Cached fitted+calibrated rDRP (its ``.drp`` is the DRP arm)."""

    def fit(train) -> RobustDRP:
        model = RobustDRP(random_state=SEED, mc_samples=MC_SAMPLES, **DRP_PARAMS)
        return model.fit(train.x, train.t, train.y_r, train.y_c)

    def build() -> RobustDRP:
        data = get_setting(dataset, setting)
        model = _fitted(dataset, setting, "rdrp", fit)
        model.calibrate(
            data.calibration.x,
            data.calibration.t,
            data.calibration.y_r,
            data.calibration.y_c,
        )
        return model

    return _model_cache.get_or_build((dataset, setting, "rdrp"), build)


def get_dr(dataset: str, setting: str) -> DirectRank:
    """Cached fitted Direct Rank baseline."""

    def fit(train) -> DirectRank:
        model = DirectRank(hidden=48, epochs=60, random_state=SEED)
        return model.fit(train.x, train.t, train.y_r, train.y_c)

    return _model_cache.get_or_build(
        (dataset, setting, "dr"), lambda: _fitted(dataset, setting, "dr", fit)
    )


def evaluate(roi_pred: np.ndarray, data: SettingData) -> float:
    """Test-set AUCC of a ranking."""
    te = data.test
    return aucc(roi_pred, te.t, te.y_r, te.y_c)


# ---------------------------------------------------------------------------
# the ten Table-I methods
# ---------------------------------------------------------------------------
def run_tpm_variant(variant: str, dataset: str, setting: str) -> float:
    data = get_setting(dataset, setting)
    tr = data.train
    tpm = make_tpm(variant, random_state=SEED, fast=True)
    tpm.fit(tr.x, tr.y_r, tr.y_c, tr.t)
    return evaluate(tpm.predict_roi(data.test.x), data)


def run_dr(dataset: str, setting: str) -> float:
    data = get_setting(dataset, setting)
    return evaluate(get_dr(dataset, setting).predict_roi(data.test.x), data)


def run_drp(dataset: str, setting: str) -> float:
    data = get_setting(dataset, setting)
    return evaluate(get_rdrp(dataset, setting).drp.predict_roi(data.test.x), data)


def run_rdrp(dataset: str, setting: str) -> float:
    data = get_setting(dataset, setting)
    return evaluate(get_rdrp(dataset, setting).predict_roi(data.test.x), data)


# ---------------------------------------------------------------------------
# Table II ablation arms
# ---------------------------------------------------------------------------
def run_dr_mc(dataset: str, setting: str) -> float:
    """DR w/ MC: MC-dropout model averaging of the DR scores."""
    data = get_setting(dataset, setting)
    mean, std = get_dr(dataset, setting).predict_roi_mc(
        data.test.x, n_samples=MC_SAMPLES
    )
    return evaluate(combine_point_and_std(mean, std, how="mean"), data)


def run_drp_mc(dataset: str, setting: str) -> float:
    """DRP w/ MC: MC-dropout model averaging of the DRP ROI estimates."""
    data = get_setting(dataset, setting)
    mean, std = get_rdrp(dataset, setting).drp.predict_roi_mc(
        data.test.x, n_samples=MC_SAMPLES
    )
    return evaluate(combine_point_and_std(mean, std, how="mean"), data)


def run_drp_mc_cp(dataset: str, setting: str) -> float:
    """DRP w/ MC w/ CP == rDRP (Table II's full method)."""
    return run_rdrp(dataset, setting)


TABLE1_METHODS = tuple(f"TPM-{v}" for v in TPM_VARIANTS) + ("DR", "DRP", "rDRP")


def run_table1_method(method: str, dataset: str, setting: str) -> float:
    if method.startswith("TPM-"):
        return run_tpm_variant(method[4:], dataset, setting)
    if method == "DR":
        return run_dr(dataset, setting)
    if method == "DRP":
        return run_drp(dataset, setting)
    if method == "rDRP":
        return run_rdrp(dataset, setting)
    raise ValueError(f"Unknown Table-I method {method!r}")


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


# ---------------------------------------------------------------------------
# benchmark trajectory recording (ROADMAP item 4)
# ---------------------------------------------------------------------------
def record_result(
    area: str,
    metrics: dict[str, dict],
    smoke: bool,
    snapshot: dict | None = None,
) -> Path | None:
    """Append one bench run to the area's ``BENCH_<area>.json`` trajectory.

    Opt-in so casual bench runs never dirty the committed files:
    recording happens only when ``REPRO_BENCH_DIR`` names a target
    directory (CI: a scratch dir whose files are diffed against the
    committed baseline and uploaded as artifacts) or
    ``REPRO_BENCH_RECORD=1`` (write at the repo root, refreshing the
    committed trajectory itself).  Returns the path written, or None
    when recording is off.
    """
    bench_dir = os.environ.get("REPRO_BENCH_DIR")
    if not bench_dir and os.environ.get("REPRO_BENCH_RECORD") != "1":
        return None
    root = Path(bench_dir) if bench_dir else Path(__file__).resolve().parent.parent
    root.mkdir(parents=True, exist_ok=True)
    path = bench_path(root, area)
    append_run(
        path,
        area=area,
        metrics=metrics,
        mode="smoke" if smoke else "full",
        snapshot=snapshot,
    )
    print(f"[trajectory] recorded {'smoke' if smoke else 'full'} run -> {path}")
    return path


# ---------------------------------------------------------------------------
# profiling (--profile)
# ---------------------------------------------------------------------------
def profile_dir() -> Path:
    """Where profile dumps land: ``$REPRO_PROFILE_DIR`` or ``profiles/``."""
    return Path(os.environ.get("REPRO_PROFILE_DIR", "profiles"))


@contextmanager
def profile_to(name: str):
    """Run the body under :mod:`cProfile`, writing two artifacts.

    ``<name>.pstats`` is the binary dump (load with
    ``pstats.Stats(path)`` or feed to snakeviz/gprof2dot);
    ``<name>.txt`` is the top of the cumulative-time table for eyeballs
    and CI artifact browsers.  ``name`` should be filesystem-safe —
    the conftest fixture passes the sanitised test id.
    """
    out = profile_dir()
    out.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        dump = out / f"{name}.pstats"
        profiler.dump_stats(dump)
        with open(out / f"{name}.txt", "w") as fh:
            stats = pstats.Stats(str(dump), stream=fh)
            stats.sort_stats("cumulative").print_stats(40)
        print(f"[profile] wrote {dump}")


__all__ = [
    "BENCH_METRICS",
    "BenchCache",
    "DATASETS",
    "MC_SAMPLES",
    "SETTING_NAMES",
    "TABLE1_METHODS",
    "clear_caches",
    "evaluate",
    "get_dr",
    "get_rdrp",
    "get_setting",
    "print_header",
    "profile_dir",
    "profile_to",
    "record_result",
    "run_dr",
    "run_dr_mc",
    "run_drp",
    "run_drp_mc",
    "run_drp_mc_cp",
    "run_rdrp",
    "run_table1_method",
    "run_tpm_variant",
]
