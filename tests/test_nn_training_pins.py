"""Training is bit-identical to the path it replaced.

Every model that trains through :meth:`repro.nn.network.Network.fit` or
:class:`repro.causal.neural.base.NeuralUpliftBase` is trained twice:
once as the code stands, and once with the earlier training path
patched back in (``tests/_parent_training.py``: the two-branch
activations, the per-array Adam, clip and zeroing).  The SHA-256 over
every weight, every :class:`~repro.nn.network.TrainingHistory` field
and the predictions must match.

The sizes are tiny (a few epochs on a few hundred rows), so these run in
the fast test set, which deselects the slow neural-model tests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import _parent_training
from repro.causal.neural import DragonNet, OffsetNet, SNet, TARNet
from repro.core.direct_rank import DirectRank
from repro.core.drp import DRPModel
from repro.nn.gradcheck import check_network_gradients
from repro.nn.network import _ParameterBuffer, mlp
from repro.nn.optimizers import SGD, Adam
from repro.serving import ModelRegistry, Retrainer

N, D = 300, 6


@pytest.fixture(scope="module")
def rct():
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(N, D))
    t = rng.integers(0, 2, N)
    y_r = (rng.random(N) < 0.3 + 0.2 * t * (x[:, 0] > 0)).astype(float)
    y_c = (rng.random(N) < 0.2 + 0.2 * t).astype(float)
    return x, t, y_r, y_c, rng.normal(size=(40, D))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            h.update(f"[{len(part)}]".encode())
            for item in part:
                h.update(_digest(item).encode())
        elif part is None:
            h.update(b"None")
        else:
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return h.hexdigest()


def _history(history) -> list:
    return [history.train_loss, history.val_loss, history.stopped_epoch, history.best_epoch]


def _drp_digest(model: DRPModel, x_eval) -> str:
    return _digest(
        [net.parameters() for net in model.networks_],
        [_history(h) for h in model.histories_],
        model.predict_roi(x_eval),
        model.predict_roi_mc(x_eval, n_samples=4),
    )


def _on_both_paths(monkeypatch, train):
    """``train()`` as the code stands, then with the earlier path installed."""
    got = train()
    with monkeypatch.context() as patch:
        _parent_training.install(patch)
        want = train()
    return got, want


class TestNetworkFitPins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("early_stopping", [True, False], ids=["early-stop", "retrain-style"])
    def test_drp(self, monkeypatch, rct, seed, early_stopping):
        x, t, y_r, y_c, x_eval = rct
        params = dict(hidden=16, epochs=6, batch_size=64, n_restarts=2, random_state=seed)
        if not early_stopping:
            params.update(patience=None, val_fraction=0.0)
        else:
            params.update(patience=2)

        def train():
            return _drp_digest(DRPModel(**params).fit(x, t, y_r, y_c), x_eval)

        got, want = _on_both_paths(monkeypatch, train)
        assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direct_rank(self, monkeypatch, rct, seed):
        x, t, y_r, y_c, x_eval = rct

        def train():
            model = DirectRank(hidden=16, epochs=5, batch_size=64, random_state=seed)
            model.fit(x, t, y_r, y_c)
            return _digest(model.network_.parameters(), model.predict_roi(x_eval))

        got, want = _on_both_paths(monkeypatch, train)
        assert got == want

    def test_early_stopping_restores_best_epoch(self, monkeypatch, rct):
        # a long patience-1 run that stops early: the best-weights copy
        # and restore go through the flat buffer
        x, t, y_r, y_c, x_eval = rct
        params = dict(hidden=16, epochs=40, batch_size=32, n_restarts=1, patience=1, random_state=7)

        def train():
            model = DRPModel(**params).fit(x, t, y_r, y_c)
            assert model.history_.stopped_epoch is not None
            return _drp_digest(model, x_eval)

        got, want = _on_both_paths(monkeypatch, train)
        assert got == want


@pytest.mark.parametrize(
    "build",
    [
        lambda seed: TARNet(hidden=8, epochs=3, batch_size=64, random_state=seed),
        lambda seed: DragonNet(hidden=8, epochs=3, batch_size=64, random_state=seed),
        lambda seed: DragonNet(
            hidden=8, epochs=3, batch_size=64, targeted_weight=0.0, random_state=seed
        ),
        lambda seed: OffsetNet(hidden=8, epochs=3, batch_size=64, random_state=seed),
        lambda seed: SNet(hidden=8, epochs=3, batch_size=64, random_state=seed),
    ],
    ids=["tarnet", "dragonnet", "dragonnet-untargeted", "offsetnet", "snet"],
)
def test_neural_uplift_pin(monkeypatch, rct, build):
    x, t, y_r, y_c, x_eval = rct

    def train():
        model = build(3).fit(x, y_r - y_c, t)
        weights = [net.parameters() for net in model._networks]
        epsilon = model._epsilon.value if isinstance(model, DragonNet) else None
        return _digest(weights, epsilon, model.loss_history_, model.predict_outcomes(x_eval))

    got, want = _on_both_paths(monkeypatch, train)
    assert got == want


class _Champion:
    """Module-level scorer stub for the registry's first version."""

    def predict_roi(self, x):
        return np.full(np.asarray(x).shape[0], 0.5)


def test_retrainer_refit_pin(monkeypatch, rct):
    x, t, y_r, y_c, x_eval = rct
    window = 200

    def train():
        registry = ModelRegistry(random_state=0)
        registry.register(_Champion(), name="champ", promote=True)
        template = DRPModel(
            hidden=12, epochs=4, batch_size=64, n_restarts=2, patience=None,
            val_fraction=0.0, random_state=11,
        )
        retrainer = Retrainer(
            registry, template=template, every_outcomes=window, window=window, min_outcomes=window
        )
        for i in range(window):
            retrainer.observe(x[i], t[i], y_r[i], y_c[i])
        assert retrainer.n_staged == 1
        return _drp_digest(registry.challenger.model, x_eval)

    got, want = _on_both_paths(monkeypatch, train)
    assert got == want


def test_network_fit_with_active_clipping(monkeypatch, rct):
    # DRP's gradients rarely reach the default clip norm; a tight clip
    # makes every step scale the gradients
    x, *_ = rct
    target = np.sin(x[:, :2])

    def loss(pred, batch):
        diff = pred - batch
        return float(np.mean(diff**2)), 2.0 * diff / diff.size

    def train():
        net = mlp(D, [7, 5], output_dim=2, dropout=0.2, rng=4)
        history = net.fit(x, target, loss, epochs=3, batch_size=50, rng=4, clip_norm=1e-3)
        return _digest(net.parameters(), _history(history))

    got, want = _on_both_paths(monkeypatch, train)
    assert got == want


@pytest.mark.parametrize(
    "make_optimizer", [lambda: Adam(1e-2), lambda: SGD(1e-2, momentum=0.9)], ids=["adam", "sgd"]
)
def test_reused_optimizer_fits_like_a_fresh_one(rct, make_optimizer):
    # each fit steps a new flat buffer, so it starts the optimizer afresh:
    # moments or a step count left by an earlier fit would belong to
    # arrays this fit no longer trains
    x, *_ = rct
    target = np.sin(x[:, :1])

    def loss(pred, batch):
        diff = pred - batch
        return float(np.mean(diff**2)), 2.0 * diff / diff.size

    def two_fits(reuse: bool):
        net = mlp(D, [5], rng=0)
        shared = make_optimizer()
        for seed in (1, 2, 3):
            optimizer = shared if reuse else make_optimizer()
            net.fit(x, target, loss, optimizer=optimizer, epochs=2, batch_size=64, rng=seed)
        return [p.tobytes() for p in net.parameters()], shared

    got, shared = two_fits(reuse=True)
    want, _ = two_fits(reuse=False)
    assert got == want
    # the optimizer holds the state of the last fit's buffer only
    state = shared._m if isinstance(shared, Adam) else shared._velocity
    assert len(state) == 1


class TestFlatBuffer:
    def test_layers_train_through_views_of_one_buffer(self, rct):
        x, t, y_r, y_c, _ = rct
        model = DRPModel(hidden=12, epochs=2, n_restarts=1, random_state=0).fit(x, t, y_r, y_c)
        params = model.network_.parameters()
        assert params[0].base is not None
        assert {id(p.base) for p in params} == {id(params[0].base)}

    def test_gradcheck_on_flat_buffer_views(self):
        net = mlp(3, [5], output_dim=1, activation="tanh", rng=0)
        buffer = _ParameterBuffer(net.layers)
        assert all(np.shares_memory(p, buffer.params) for p in net.parameters())
        assert all(np.shares_memory(g, buffer.grads) for g in net.gradients())
        x = np.random.default_rng(1).normal(size=(4, 3))
        target = np.random.default_rng(2).normal(size=(4, 1))

        def loss(pred):
            diff = pred - target
            return float(np.mean(diff**2)), 2.0 * diff / diff.size

        check_network_gradients(net, x, loss)

    def test_bind_copies_values_and_gradients(self):
        net = mlp(4, [3], rng=0)
        before = [p.copy() for p in net.parameters()]
        for g in net.gradients():
            g[...] = 1.5
        _ParameterBuffer(net.layers)
        for old, new in zip(before, net.parameters()):
            assert old.tobytes() == new.tobytes()
        assert all(np.all(g == 1.5) for g in net.gradients())

    @pytest.mark.parametrize("seed", range(5))
    def test_clip_matches_per_array_clip(self, seed):
        net = mlp(4, [3, 6, 5], rng=0)
        buffer = _ParameterBuffer(net.layers)
        rng = np.random.default_rng(seed)
        # magnitudes spread over decades, so the order of the per-array
        # terms shows in the last bits of the norm
        buffer.grads[...] = rng.normal(size=buffer.grads.size) * 10.0 ** rng.uniform(-8, 8, buffer.grads.size)
        want = [g.copy() for g in net.gradients()]
        total = np.sqrt(sum(float(np.sum(g * g)) for g in want))
        for g in want:
            g *= 1.0 / total
        buffer.clip_grad_norm(1.0)
        assert [g.tobytes() for g in net.gradients()] == [g.tobytes() for g in want]


class TestInputGradient:
    def test_backward_still_returns_first_layer_input_gradient(self):
        net = mlp(3, [4], output_dim=1, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        net.forward(x, training=True)
        grad_out = np.ones((5, 1))
        got = net.backward(grad_out)
        # chain rule by hand: dL/dx = ((grad_out W2^T) * elu'(h)) W1^T
        first, _, second = net.layers
        h = x @ first.weight + first.bias
        want = ((grad_out @ second.weight.T) * np.exp(np.minimum(h, 0.0))) @ first.weight.T
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=1e-12)
