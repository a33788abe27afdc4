"""The training path as it was before the fused kernels and the flat buffer.

Verbatim copies of the functions and methods that the fused
activations, the in-place Adam and the flat parameter buffer replaced.
:func:`install` patches them back into ``repro`` (through a pytest
``monkeypatch``), so a test can train the same model twice, once on
each path, and compare digests on whatever numpy and CPU it runs on.  A recorded hex digest would pin
the BLAS kernels and numpy's SIMD ``exp`` too; a live reference pins
only the training code.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, x, alpha * np.expm1(np.minimum(x, 0.0)))


def elu_grad(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def adam_step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    self._t += 1
    lr_t = self.learning_rate * (
        np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
    )
    for p, g in zip(params, grads):
        g = g + self.weight_decay * p
        m = self._m.setdefault(id(p), np.zeros_like(p))
        v = self._v.setdefault(id(p), np.zeros_like(p))
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        p -= lr_t * m / (np.sqrt(v) + self.eps)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def dense_forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[1] != self.in_features:
        raise ValueError(
            f"Dense expected input with {self.in_features} features, got {x.shape[1]}"
        )
    self._x = x if training else None
    return x @ self.weight + self.bias


def activation_backward(self, grad_out: np.ndarray) -> np.ndarray:
    if self._x is None:
        raise RuntimeError("backward() called before a training-mode forward()")
    return grad_out * self._grad_fn(self._x)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _slice_target(target, idx: np.ndarray):
    if isinstance(target, Mapping):
        return {k: np.asarray(v)[idx] for k, v in target.items()}
    return np.asarray(target)[idx]


def network_fit(
    self,
    x,
    target,
    loss,
    optimizer=None,
    epochs: int = 100,
    batch_size: int = 256,
    shuffle: bool = True,
    rng=None,
    validation_data=None,
    patience=None,
    min_delta: float = 1e-6,
    clip_norm=5.0,
    verbose: bool = False,
):
    from repro.nn.network import TrainingHistory
    from repro.nn.optimizers import Adam
    from repro.utils.rng import as_generator

    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n = x.shape[0]
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    gen = as_generator(rng)
    opt = optimizer if optimizer is not None else Adam()
    history = TrainingHistory()
    best_loss = np.inf
    best_weights = None
    epochs_without_improvement = 0

    for epoch in range(epochs):
        order = gen.permutation(n) if shuffle else np.arange(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch_x = x[idx]
            batch_target = _slice_target(target, idx)
            self.zero_grad()
            pred = self.forward(batch_x, training=True)
            value, grad = loss(pred, batch_target)
            self.backward(grad)
            if clip_norm is not None:
                _clip_gradients(self, clip_norm)
            opt.step(self.parameters(), self.gradients())
            epoch_loss += value
            n_batches += 1
        mean_loss = epoch_loss / max(n_batches, 1)
        history.train_loss.append(mean_loss)

        monitored = mean_loss
        if validation_data is not None:
            val_x, val_target = validation_data
            val_pred = self.forward(np.asarray(val_x, dtype=float), training=False)
            val_value, _ = loss(val_pred, val_target)
            history.val_loss.append(val_value)
            monitored = val_value

        if patience is not None:
            if monitored < best_loss - min_delta:
                best_loss = monitored
                best_weights = self.get_weights()
                history.best_epoch = epoch
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= patience:
                    history.stopped_epoch = epoch
                    break

    if patience is not None and best_weights is not None:
        self.set_weights(best_weights)
    return history


def _clip_gradients(self, max_norm: float) -> None:
    grads = self.gradients()
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale


def neural_fit(self, x, y, t):
    from repro.causal.base import validate_uplift_inputs
    from repro.nn.optimizers import Adam
    from repro.utils.rng import as_generator

    # DragonNet appended its epsilon when targeted regularisation was on
    targeted = getattr(self, "targeted_weight", 0.0) > 0

    def all_parameters():
        params = [p for net in self._networks for p in net.parameters()]
        return [*params, self._epsilon.value] if targeted else params

    def all_gradients():
        grads = [g for net in self._networks for g in net.gradients()]
        return [*grads, self._epsilon.grad] if targeted else grads

    x, y, t = validate_uplift_inputs(x, y, t)
    self._n_features = x.shape[1]
    rng = as_generator(self.random_state)
    self._build(x.shape[1], rng)
    optimizer = Adam(self.learning_rate, weight_decay=self.weight_decay)
    n = x.shape[0]
    self.loss_history_ = []
    for _ in range(self.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            for g in all_gradients():
                g[...] = 0.0
            loss = self._train_batch(x[idx], y[idx], t[idx])
            optimizer.step(all_parameters(), all_gradients())
            epoch_loss += loss
            n_batches += 1
        self.loss_history_.append(epoch_loss / max(n_batches, 1))
    return self


# ---------------------------------------------------------------------------
# the DRP loss adapter
# ---------------------------------------------------------------------------


def _group_weights(t: np.ndarray) -> np.ndarray:
    n1 = max(int(np.sum(t == 1)), 1)
    n0 = max(int(np.sum(t == 0)), 1)
    return np.where(t == 1, 1.0 / n1, -1.0 / n0)


def drp_loss(s: np.ndarray, t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray) -> float:
    from repro.nn.activations import softplus

    s = np.asarray(s, dtype=float).ravel()
    w = _group_weights(np.asarray(t).ravel())
    contrib = np.asarray(y_r, dtype=float) * s - np.asarray(y_c, dtype=float) * softplus(s)
    return float(-np.sum(w * contrib))


def drp_loss_gradient(
    s: np.ndarray, t: np.ndarray, y_r: np.ndarray, y_c: np.ndarray
) -> np.ndarray:
    s = np.asarray(s, dtype=float).ravel()
    w = _group_weights(np.asarray(t).ravel())
    return -w * (np.asarray(y_r, dtype=float) - np.asarray(y_c, dtype=float) * sigmoid(s))


def drp_batch_loss(pred: np.ndarray, batch: dict) -> tuple[float, np.ndarray]:
    s = pred[:, 0]
    t = batch["t"]
    y_r = batch["y_r"]
    y_c = batch["y_c"]
    value = drp_loss(s, t, y_r, y_c)
    grad = drp_loss_gradient(s, t, y_r, y_c).reshape(-1, 1)
    return value, grad


# ---------------------------------------------------------------------------


def install(monkeypatch) -> None:
    """Put the old training path back in place for the monkeypatch's scope.

    Models built afterwards train and predict exactly as before the
    change: their activations, Dense layers, Adam, DRP loss and both
    training loops are the copies above.
    """
    import sys

    from repro.causal.neural.base import NeuralUpliftBase
    from repro.core import drp
    from repro.nn import activations, layers
    from repro.nn.network import Network
    from repro.nn.optimizers import Adam

    kernels = {
        activations.sigmoid: sigmoid,
        activations.elu: elu,
        activations.elu_grad: elu_grad,
    }
    # every ``from repro.nn.activations import sigmoid`` binding
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                for new, old in kernels.items():
                    if value is new:
                        monkeypatch.setattr(module, attr, old)
    for name, (fn, grad_fn) in list(layers._ACTIVATIONS.items()):
        monkeypatch.setitem(layers._ACTIVATIONS, name, (kernels.get(fn, fn), kernels.get(grad_fn, grad_fn)))

    monkeypatch.setattr(Adam, "step", adam_step)
    monkeypatch.setattr(layers.Dense, "forward", dense_forward)
    monkeypatch.setattr(layers.Activation, "backward", activation_backward)
    monkeypatch.setattr(Network, "fit", network_fit)
    monkeypatch.setattr(NeuralUpliftBase, "fit", neural_fit)
    monkeypatch.setattr(drp, "_group_weights", _group_weights)
    monkeypatch.setattr(drp, "_drp_batch_loss", drp_batch_loss)
