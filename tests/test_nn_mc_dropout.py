"""Tests for repro.nn.mc_dropout."""

import pickle

import numpy as np
import pytest

from repro.core.drp import DRPModel
from repro.core.rdrp import RobustDRP
from repro.nn.activations import sigmoid
from repro.nn.layers import Dropout
from repro.nn.mc_dropout import MCDropoutPredictor, mc_dropout_statistics
from repro.nn.network import mlp


@pytest.fixture
def dropout_net():
    return mlp(3, [32], dropout=0.3, rng=0)


class TestMcDropoutStatistics:
    def test_shapes(self, dropout_net):
        x = np.random.default_rng(0).normal(size=(7, 3))
        mean, std = mc_dropout_statistics(dropout_net, x, n_samples=10)
        assert mean.shape == (7,)
        assert std.shape == (7,)

    def test_std_positive_with_dropout(self, dropout_net):
        x = np.random.default_rng(0).normal(size=(5, 3))
        _, std = mc_dropout_statistics(dropout_net, x, n_samples=20)
        assert np.all(std > 0)
        assert np.any(std > 1e-5)  # genuinely varying, not just the floor

    def test_std_floor_without_dropout(self):
        net = mlp(3, [8], dropout=0.0, rng=0)
        x = np.ones((4, 3))
        _, std = mc_dropout_statistics(net, x, n_samples=10, std_floor=1e-6)
        np.testing.assert_allclose(std, 1e-6)

    def test_mean_close_to_deterministic(self, dropout_net):
        x = np.random.default_rng(1).normal(size=(6, 3))
        mean, _ = mc_dropout_statistics(dropout_net, x, n_samples=400)
        deterministic = dropout_net.predict(x)[:, 0]
        # inverted dropout preserves expectation
        np.testing.assert_allclose(mean, deterministic, atol=0.3)

    def test_transform_applied_per_pass(self, dropout_net):
        x = np.random.default_rng(2).normal(size=(5, 3))
        mean, _ = mc_dropout_statistics(dropout_net, x, n_samples=10, transform=sigmoid)
        assert np.all((mean > 0) & (mean < 1))

    def test_n_samples_validation(self, dropout_net):
        with pytest.raises(ValueError, match="n_samples"):
            mc_dropout_statistics(dropout_net, np.ones((2, 3)), n_samples=1)

    def test_std_floor_validation(self, dropout_net):
        with pytest.raises(ValueError, match="std_floor"):
            mc_dropout_statistics(dropout_net, np.ones((2, 3)), std_floor=0.0)

    def test_multi_output_shapes(self):
        net = mlp(3, [8], output_dim=2, dropout=0.2, rng=0)
        mean, std = mc_dropout_statistics(net, np.ones((4, 3)), n_samples=5)
        assert mean.shape == (4, 2)
        assert std.shape == (4, 2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="network"):
            mc_dropout_statistics([], np.ones((2, 3)))


class TestMCDropoutPredictor:
    def test_callable(self, dropout_net):
        predictor = MCDropoutPredictor(dropout_net, transform=sigmoid, n_samples=10)
        mean, std = predictor(np.ones((3, 3)))
        assert mean.shape == std.shape == (3,)
        assert np.all((mean > 0) & (mean < 1))
        assert np.all(std > 0)


def reference_mc(networks, x, n_samples, transform=None, std_floor=1e-6):
    """The per-pass full-stack loop: every layer of pass ``i``'s network
    runs on every pass, dropout layers in training mode."""
    draws = []
    for i in range(n_samples):
        out = np.asarray(x, dtype=float)
        for layer in networks[i % len(networks)].layers:
            out = layer.forward(out, training=isinstance(layer, Dropout))
        if transform is not None:
            out = transform(out)
        draws.append(out.reshape(out.shape[0], -1))
    stacked = np.stack(draws, axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0, ddof=1), std_floor)
    if mean.shape[1] == 1:
        return mean[:, 0], std[:, 0]
    return mean, std


def _rng_states(networks):
    return [
        layer._rng.bit_generator.state
        for net in networks
        for layer in net.layers
        if isinstance(layer, Dropout)
    ]


def _twins(obj):
    """Two independent copies with identical weights and generator states."""
    blob = pickle.dumps(obj)
    return pickle.loads(blob), pickle.loads(blob)


def _assert_same(new, ref):
    for a, b in zip(new, ref):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def drp_zoo():
    """Small fitted DRP restart ensembles, keyed by ``n_restarts``."""
    gen = np.random.default_rng(5)
    n = 400
    x = gen.normal(size=(n, 4))
    t = np.arange(n) % 2
    y_r = (gen.random(n) < 0.3).astype(float)
    y_c = (gen.random(n) < 0.5).astype(float)
    return {
        k: DRPModel(hidden=16, epochs=2, n_restarts=k, random_state=k).fit(x, t, y_r, y_c)
        for k in (1, 2, 3)
    }


class TestBitIdentity:
    """The head-once path reproduces the per-pass full-stack loop byte
    for byte and leaves every generator in the same state."""

    @pytest.mark.parametrize("n_restarts", [1, 2, 3])
    @pytest.mark.parametrize("n_samples", [2, 7, 20])
    def test_drp_restart_ensemble(self, drp_zoo, n_restarts, n_samples):
        new_model, ref_model = _twins(drp_zoo[n_restarts])
        x = np.random.default_rng(1).normal(size=(33, 4))
        new = new_model.predict_roi_mc(x, n_samples=n_samples)
        ref = reference_mc(ref_model.networks_, x, n_samples, sigmoid, std_floor=1e-4)
        _assert_same(new, ref)
        assert _rng_states(new_model.networks_) == _rng_states(ref_model.networks_)

    def test_two_hidden_layers(self):
        new_net, ref_net = _twins(mlp(5, [16, 8], dropout=0.2, rng=3))
        x = np.random.default_rng(2).normal(size=(21, 5))
        _assert_same(
            mc_dropout_statistics(new_net, x, n_samples=9, transform=sigmoid),
            reference_mc([ref_net], x, 9, sigmoid),
        )
        assert _rng_states([new_net]) == _rng_states([ref_net])

    def test_no_dropout(self):
        net = mlp(3, [8], output_dim=2, dropout=0.0, rng=0)
        x = np.random.default_rng(3).normal(size=(6, 3))
        _assert_same(
            mc_dropout_statistics(net, x, n_samples=4),
            reference_mc([net], x, 4),
        )

    def test_pickled_model_with_shared_generator(self, drp_zoo):
        model = pickle.loads(pickle.dumps(drp_zoo[3]))
        gens = {
            id(layer._rng)
            for net in model.networks_
            for layer in net.layers
            if isinstance(layer, Dropout)
        }
        assert len(gens) == 1  # the restarts draw from one generator
        new_model, ref_model = _twins(model)
        x = np.random.default_rng(4).normal(size=(17, 4))
        _assert_same(
            new_model.predict_roi_mc(x, n_samples=8),
            reference_mc(ref_model.networks_, x, 8, sigmoid, std_floor=1e-4),
        )
        assert _rng_states(new_model.networks_) == _rng_states(ref_model.networks_)

    def test_robust_drp_calibrate_and_predict(self, tiny_rct, monkeypatch):
        data = tiny_rct
        fit, ca, te = (data.subset(np.arange(a, b)) for a, b in ((0, 150), (150, 250), (250, 300)))
        model = RobustDRP(hidden=16, epochs=3, n_restarts=2, mc_samples=7, random_state=0)
        model.fit(fit.x, fit.t, fit.y_r, fit.y_c)
        new_model, ref_model = _twins(model)

        def run(m):
            m.calibrate(ca.x, ca.t, ca.y_r, ca.y_c)
            return (m.predict_roi(te.x), *m.predict_interval(te.x))

        new = run(new_model)
        monkeypatch.setattr(
            DRPModel,
            "predict_roi_mc",
            lambda self, x, n_samples=30, std_floor=1e-4: reference_mc(
                self.networks_, x, n_samples, sigmoid, std_floor
            ),
        )
        _assert_same(new, run(ref_model))
        assert new_model.q_hat == ref_model.q_hat


class TestHeadOnce:
    @staticmethod
    def _count_forward(monkeypatch, layer):
        calls = []
        original = layer.forward

        def counted(x, training=False):
            calls.append(x.shape[0])
            return original(x, training=training)

        monkeypatch.setattr(layer, "forward", counted)
        return calls

    def test_first_dense_runs_once_per_network(self, drp_zoo, monkeypatch):
        model = pickle.loads(pickle.dumps(drp_zoo[3]))
        counts = [self._count_forward(monkeypatch, net.layers[0]) for net in model.networks_]
        model.predict_roi_mc(np.zeros((5, 4)), n_samples=7)
        assert counts == [[5], [5], [5]]

    def test_head_stops_at_first_dropout(self, monkeypatch):
        net = mlp(5, [16, 8], dropout=0.2, rng=3)
        # Dense, ELU, Dropout, Dense, ELU, Dropout, Dense
        first, second = (self._count_forward(monkeypatch, net.layers[i]) for i in (0, 3))
        mc_dropout_statistics(net, np.zeros((4, 5)), n_samples=6)
        assert len(first) == 1
        assert len(second) == 6

    def test_unused_restarts_skip_their_head(self, drp_zoo, monkeypatch):
        model = pickle.loads(pickle.dumps(drp_zoo[3]))
        counts = [self._count_forward(monkeypatch, net.layers[0]) for net in model.networks_]
        model.predict_roi_mc(np.zeros((5, 4)), n_samples=2)
        assert [len(c) for c in counts] == [1, 1, 0]


class TestNoMaskKept:
    def test_scoring_leaves_no_mask_and_pickle_size_unchanged(self, drp_zoo):
        model = pickle.loads(pickle.dumps(drp_zoo[2]))
        before = len(pickle.dumps(model))
        model.predict_roi_mc(np.random.default_rng(6).normal(size=(5000, 4)), n_samples=4)
        assert all(
            layer._mask is None
            for net in model.networks_
            for layer in net.layers
            if isinstance(layer, Dropout)
        )
        # unchanged up to the generator state, whose integers may pickle a
        # byte shorter or longer; one kept mask alone would add 640 KB
        assert abs(len(pickle.dumps(model)) - before) < 64

    def test_training_mask_not_pickled(self):
        layer = Dropout(0.5, rng=0)
        layer.forward(np.ones((100, 10)), training=True)
        assert layer._mask is not None  # kept for backward
        assert pickle.loads(pickle.dumps(layer))._mask is None
