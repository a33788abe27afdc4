"""Tests for the four experimental settings (SuNo/SuCo/InNo/InCo)."""

import numpy as np
import pytest

from repro.data.settings import (
    DATASET_NAMES,
    INSUFFICIENT_RATE,
    SETTING_NAMES,
    iter_dataset_chunks,
    load_dataset,
    make_setting,
)
from repro.data.shift import shift_direction
from repro.runtime import ProcessBackend


class TestIterDatasetChunks:
    def test_chunks_bounded_and_total_covers_n(self):
        chunks = list(iter_dataset_chunks("criteo", 1000, chunk_size=300, random_state=0))
        assert all(c.n <= 300 for c in chunks)
        assert sum(c.n for c in chunks) >= 1000
        # criteo yields every requested row: exact coverage, no waste
        assert sum(c.n for c in chunks) == 1000

    def test_low_yield_generator_adapts(self):
        """meituan keeps ~40% of rows; the request size must adapt."""
        chunks = list(iter_dataset_chunks("meituan", 800, chunk_size=400, random_state=0))
        assert sum(c.n for c in chunks) >= 800
        assert all(c.n <= 400 for c in chunks)

    def test_tiny_tail_shortfall_on_low_yield_generator(self):
        """Regression: a few-row tail shortfall used to request fewer
        rows than meituan's 25-row generator minimum and crash."""
        for seed in range(8):
            chunks = list(
                iter_dataset_chunks("meituan", 5000, chunk_size=250, random_state=seed)
            )
            assert sum(c.n for c in chunks) >= 5000

    def test_consumer_can_stop_early(self):
        got = 0
        for chunk in iter_dataset_chunks("criteo", 10_000, chunk_size=200, random_state=0):
            got += chunk.n
            if got >= 500:
                break
        assert 500 <= got <= 700  # one chunk of overshoot at most

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="n must be"):
            list(iter_dataset_chunks("criteo", 0))
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_dataset_chunks("criteo", 100, chunk_size=5))
        with pytest.raises(ValueError, match="Unknown dataset"):
            list(iter_dataset_chunks("nope", 100))

    def test_chunks_independent_of_consumption_order(self):
        """Chunk i is a pure function of its substream, not of i-1's rows."""
        first = list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=3))
        again = list(iter_dataset_chunks("criteo", 900, chunk_size=300, random_state=3))
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.x, b.x)


def _bench_harness():
    """``benchmarks/_harness.py``, imported from its directory."""
    import importlib
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    try:
        return importlib.import_module("_harness")
    finally:
        sys.path.pop(0)


def _assert_datasets_equal(a, b):
    assert a.n == b.n
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.y_r, b.y_r)
    np.testing.assert_array_equal(a.y_c, b.y_c)
    np.testing.assert_array_equal(a.tau_r, b.tau_r)
    np.testing.assert_array_equal(a.tau_c, b.tau_c)
    np.testing.assert_array_equal(a.roi, b.roi)


class TestParallelChunks:
    """The worker-pool path must be byte-for-byte the serial path."""

    @pytest.fixture
    def backend(self):
        with ProcessBackend(2) as backend:
            yield backend

    @pytest.mark.parametrize("dataset", ["criteo", "meituan"])
    def test_parallel_bit_identical_to_serial(self, dataset, backend):
        # meituan's ~40% yield exercises the adaptive-tail recompute
        # path (the speculated full-size request is wrong at the tail)
        serial = list(
            iter_dataset_chunks(dataset, 1200, chunk_size=300, random_state=7)
        )
        parallel = list(
            iter_dataset_chunks(dataset, 1200, chunk_size=300, random_state=7, backend=backend)
        )
        assert [c.n for c in serial] == [c.n for c in parallel]
        for a, b in zip(serial, parallel):
            _assert_datasets_equal(a, b)

    def test_parallel_leaves_caller_stream_where_serial_does(self, backend):
        """Speculative extra substream seeds must not consume extra
        draws from a shared caller generator (exactly one draw total)."""
        g_serial = np.random.default_rng(5)
        list(iter_dataset_chunks("criteo", 700, chunk_size=300, random_state=g_serial))
        g_parallel = np.random.default_rng(5)
        list(
            iter_dataset_chunks(
                "criteo", 700, chunk_size=300, random_state=g_parallel, backend=backend
            )
        )
        assert g_serial.random() == g_parallel.random()

    def test_parallel_single_chunk_falls_back_to_serial(self, backend):
        """n <= chunk_size: nothing to fan out, identical output."""
        serial = list(iter_dataset_chunks("criteo", 200, chunk_size=300, random_state=1))
        parallel = list(
            iter_dataset_chunks("criteo", 200, chunk_size=300, random_state=1, backend=backend)
        )
        assert len(serial) == len(parallel) == 1
        assert backend.start_count == 0  # nothing to fan out: the pool never started
        _assert_datasets_equal(serial[0], parallel[0])


class TestLoadDataset:
    def test_all_names(self):
        for name in DATASET_NAMES:
            data = load_dataset(name, 600, random_state=0)
            assert data.n >= 200

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="Unknown dataset"):
            load_dataset("kaggle", 100)


class TestMakeSetting:
    def test_setting_names_complete(self):
        assert SETTING_NAMES == ("SuNo", "SuCo", "InNo", "InCo")

    def test_no_and_co_cells_share_the_table1_training_split(self):
        """The Table I harness fits one model per dataset and size and
        hands the "No" and "Co" cells a copy each; that is sound only
        while their training splits are byte-equal at its size and seed."""
        harness = _bench_harness()
        for dataset in harness.DATASETS:
            for size in ("Su", "In"):
                no, co = (
                    make_setting(dataset, size + shift, n_sufficient=harness.N_SUFFICIENT, random_state=harness.SEED)
                    for shift in ("No", "Co")
                )
                _assert_datasets_equal(no.train, co.train)

    def test_insufficient_is_015_subsample(self):
        su = make_setting("criteo", "SuNo", n_sufficient=4000, random_state=0)
        in_ = make_setting("criteo", "InNo", n_sufficient=4000, random_state=0)
        ratio = in_.train.n / su.train.n
        assert ratio == pytest.approx(INSUFFICIENT_RATE, abs=0.02)

    def test_calibration_and_test_same_size_across_shift(self):
        no = make_setting("criteo", "SuNo", n_sufficient=4000, random_state=0)
        co = make_setting("criteo", "SuCo", n_sufficient=4000, random_state=0)
        assert abs(no.calibration.n - co.calibration.n) <= 2
        assert abs(no.test.n - co.test.n) <= 2

    def test_shift_applied_to_calibration_and_test_only(self):
        data = make_setting("criteo", "SuCo", n_sufficient=6000, random_state=0)
        direction = shift_direction(data.train)
        train_proj = float((data.train.x @ direction).mean())
        calib_proj = float((data.calibration.x @ direction).mean())
        test_proj = float((data.test.x @ direction).mean())
        # calibration/test tilted upward; train stays near the origin
        assert calib_proj > train_proj + 0.2
        assert test_proj > train_proj + 0.2

    def test_no_shift_setting_unshifted(self):
        data = make_setting("criteo", "SuNo", n_sufficient=6000, random_state=0)
        direction = shift_direction(data.train)
        train_proj = float((data.train.x @ direction).mean())
        test_proj = float((data.test.x @ direction).mean())
        assert abs(test_proj - train_proj) < 0.2

    def test_calibration_matches_test_distribution(self):
        """Assumption 6: calibration and test share the (shifted) law."""
        data = make_setting("criteo", "InCo", n_sufficient=6000, random_state=0)
        direction = shift_direction(data.train)
        calib_proj = float((data.calibration.x @ direction).mean())
        test_proj = float((data.test.x @ direction).mean())
        assert calib_proj == pytest.approx(test_proj, abs=0.25)

    def test_flags(self):
        data = make_setting("criteo", "InCo", n_sufficient=3000, random_state=0)
        assert data.has_shift is True
        assert data.is_sufficient is False
        assert data.setting == "InCo"
        assert data.dataset == "criteo"

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="Unknown setting"):
            make_setting("criteo", "SuX")

    def test_invalid_fractions(self):
        with pytest.raises(ValueError, match="must be < 1"):
            make_setting("criteo", "SuNo", calibration_fraction=0.6, test_fraction=0.6)

    def test_splits_disjoint(self):
        data = make_setting("criteo", "SuNo", n_sufficient=3000, random_state=0)
        train_rows = {tuple(np.round(r, 9)) for r in data.train.x}
        test_rows = {tuple(np.round(r, 9)) for r in data.test.x}
        assert not (train_rows & test_rows)

    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_all_datasets_all_settings_construct(self, dataset):
        for setting in SETTING_NAMES:
            data = make_setting(dataset, setting, n_sufficient=2500, random_state=0)
            assert data.train.n > 50
            assert data.calibration.n > 50
            assert data.test.n > 50
