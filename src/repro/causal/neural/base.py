"""Shared machinery for neural uplift models.

TARNet, DragonNet, OffsetNet and SNet are all "representation +
heads" architectures.  They differ in how the heads are wired, but
share the same training skeleton: shuffled mini-batches, a joint Adam
step over every sub-network's parameters (one flat parameter buffer
for the whole model), and masked per-arm losses (each sample only
supervises the head of the arm it was actually assigned — the factual
outcome).
"""

from __future__ import annotations

import numpy as np

from repro.causal.base import UpliftModel, validate_uplift_inputs
from repro.nn.layers import Activation, Dense, Dropout, Layer
from repro.nn.network import Network, _ParameterBuffer
from repro.nn.optimizers import Adam
from repro.utils.rng import as_generator
from repro.utils.validation import check_2d

__all__ = ["NeuralUpliftBase", "representation_block", "head_block"]


def representation_block(
    input_dim: int,
    hidden: int,
    depth: int = 1,
    dropout: float = 0.1,
    rng: int | np.random.Generator | None = None,
) -> Network:
    """Build a shared representation ``φ(x)``: stacked Dense+ELU+Dropout."""
    gen = as_generator(rng)
    net = Network()
    prev = input_dim
    for _ in range(max(1, depth)):
        net.add(Dense(prev, hidden, init="he", rng=gen))
        net.add(Activation("elu"))
        if dropout > 0:
            net.add(Dropout(dropout, rng=gen))
        prev = hidden
    return net


def head_block(
    input_dim: int,
    hidden: int,
    rng: int | np.random.Generator | None = None,
    output_dim: int = 1,
) -> Network:
    """Build an outcome head: Dense+ELU -> Dense(linear)."""
    gen = as_generator(rng)
    net = Network()
    net.add(Dense(input_dim, hidden, init="he", rng=gen))
    net.add(Activation("elu"))
    net.add(Dense(hidden, output_dim, init="glorot", rng=gen))
    return net


class NeuralUpliftBase(UpliftModel):
    """Training skeleton shared by the neural uplift models.

    Sub-classes implement

    * ``_build(input_dim)`` — create sub-networks and register them in
      ``self._networks``;
    * ``_train_batch(xb, yb, tb)`` — one forward/backward pass,
      returning the batch loss (gradients left in the layers);
    * ``predict_outcomes(x)`` — per-arm predictions.

    Parameters
    ----------
    hidden:
        Width of the representation and head layers.
    epochs, batch_size, learning_rate, weight_decay:
        Optimisation controls (shared Adam across all sub-networks).
    dropout:
        Dropout rate inside the representation block.
    random_state:
        Seed/generator for weights, dropout and batch shuffling.
    """

    def __init__(
        self,
        hidden: int = 32,
        epochs: int = 60,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        dropout: float = 0.1,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.dropout = float(dropout)
        self.random_state = random_state
        self._networks: list[Network] = []
        self._n_features: int | None = None
        self.loss_history_: list[float] = []

    # -- sub-class hooks -------------------------------------------------
    def _build(self, input_dim: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _train_batch(self, xb: np.ndarray, yb: np.ndarray, tb: np.ndarray) -> float:
        raise NotImplementedError

    # -- shared plumbing ---------------------------------------------------
    def _trainable_layers(self) -> list[Layer]:
        """Every layer the joint Adam step trains."""
        return [layer for net in self._networks for layer in net.layers]

    def _check_fitted_input(self, x) -> np.ndarray:
        if self._n_features is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")
        x = check_2d(x)
        if x.shape[1] != self._n_features:
            raise ValueError(
                f"X has {x.shape[1]} features but the model was fitted with {self._n_features}"
            )
        return x

    def fit(self, x, y, t) -> "NeuralUpliftBase":
        x, y, t = validate_uplift_inputs(x, y, t)
        self._n_features = x.shape[1]
        rng = as_generator(self.random_state)
        self._build(x.shape[1], rng)
        optimizer = Adam(self.learning_rate, weight_decay=self.weight_decay)
        buffer = _ParameterBuffer(self._trainable_layers())
        params, grads = [buffer.params], [buffer.grads]
        n = x.shape[0]
        self.loss_history_ = []
        for _ in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                buffer.zero_grad()
                loss = self._train_batch(x[idx], y[idx], t[idx])
                optimizer.step(params, grads)
                epoch_loss += loss
                n_batches += 1
            self.loss_history_.append(epoch_loss / max(n_batches, 1))
        return self

    def predict_uplift(self, x) -> np.ndarray:
        mu0, mu1 = self.predict_outcomes(x)
        return mu1 - mu0
