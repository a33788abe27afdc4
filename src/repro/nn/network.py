"""Sequential network container and training loop.

:class:`Network` chains :class:`~repro.nn.layers.Layer` objects and
exposes ``forward``/``backward``/``parameters`` so composite
architectures (TARNet's shared representation + per-arm heads,
DragonNet's propensity head, SNet's factored representations) can be
built by wiring several ``Network`` instances together and chaining
their backward passes manually.

``fit`` implements the standard mini-batch loop used by every model in
the paper: shuffled batches, an arbitrary ``(pred, target) -> (value,
grad)`` loss, optional validation-based early stopping with
best-weights restoration, and gradient-norm clipping (small RCT
datasets make uplift losses noisy, cf. §IV-B2 of the paper).

A training loop keeps the model in a private ``_ParameterBuffer``: one
flat parameter array and one flat gradient array, which every layer's
weights and gradients are views of.  Zeroing, clipping and the
optimizer step then each run once per batch over one array.  All three
are elementwise, so the weights are bit-identical to updating array by
array.  Each fit resets its optimizer, whose state belongs to that
fit's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.nn.layers import Activation, Dense, Dropout, Layer
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.rng import as_generator

__all__ = ["Network", "TrainingHistory", "mlp"]

# A loss consumes (predictions, batch_target) and returns (value, grad).
LossFn = Callable[[np.ndarray, object], tuple[float, np.ndarray]]


@dataclass
class TrainingHistory:
    """Per-epoch record of a :meth:`Network.fit` run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None
    best_epoch: int | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def _slice_target(target, idx: np.ndarray):
    """Slice a target that may be an array or a mapping of arrays."""
    if isinstance(target, Mapping):
        return {k: np.asarray(v)[idx] for k, v in target.items()}
    return np.asarray(target)[idx]


class _ParameterBuffer:
    """One flat parameter buffer and one flat gradient buffer for a training loop.

    Copies every parameter and gradient array of ``layers``, in order,
    into :attr:`params` and :attr:`grads`, then rebinds each layer to
    same-shaped views of them (:meth:`~repro.nn.layers.Layer.bind`).
    The layers keep training and predicting through those views after
    the loop ends.

    Parameters
    ----------
    layers:
        The layers to train; those without parameters are skipped.
    """

    def __init__(self, layers: Iterable[Layer]) -> None:
        layers = [layer for layer in layers if layer.parameters()]
        size = sum(p.size for layer in layers for p in layer.parameters())
        self.params = np.empty(size)
        self.grads = np.empty(size)
        self._squares = np.empty(size)
        # one view per parameter array, so the clip norm sums the same
        # per-array terms in the same order as an array-by-array clip
        self._square_views: list[np.ndarray] = []
        offset = 0
        for layer in layers:
            params, grads = [], []
            for p, g in zip(layer.parameters(), layer.gradients()):
                span = slice(offset, offset + p.size)
                params.append(self.params[span].reshape(p.shape))
                grads.append(self.grads[span].reshape(p.shape))
                self._square_views.append(self._squares[span].reshape(p.shape))
                params[-1][...] = p
                grads[-1][...] = g
                offset += p.size
            layer.bind(params, grads)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def clip_grad_norm(self, max_norm: float) -> None:
        """Scale the gradients down to global L2 norm ``max_norm`` if above it."""
        np.multiply(self.grads, self.grads, out=self._squares)
        total = np.sqrt(sum([float(sq.sum()) for sq in self._square_views]))
        if total > max_norm and total > 0:
            self.grads *= max_norm / total


class Network:
    """A sequential stack of layers with manual backprop.

    Parameters
    ----------
    layers:
        Ordered layer list.  May be empty and extended with :meth:`add`.
    """

    def __init__(self, layers: Sequence[Layer] | None = None) -> None:
        self.layers: list[Layer] = list(layers) if layers is not None else []

    def add(self, layer: Layer) -> "Network":
        self.layers.append(layer)
        return self

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack.  ``training=True`` enables caching + dropout."""
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def forward_stochastic(self, x: np.ndarray) -> np.ndarray:
        """Inference pass with dropout *active* (one MC-dropout draw).

        Each :class:`Dropout` layer multiplies by a fresh mask
        (:meth:`Dropout.sample`); every other layer runs in inference
        mode.  Nothing is cached, the masks included, so this pass
        cannot be backpropagated — it exists purely to sample from the
        approximate posterior predictive.
        :func:`repro.nn.mc_dropout.mc_dropout_statistics` calls it with
        the layers from the first Dropout on.
        """
        out = np.asarray(x, dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        for layer in self.layers:
            if isinstance(layer, Dropout):
                out = layer.sample(out)
            else:
                out = layer.forward(out, training=False)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate dL/d(output); returns dL/d(input)."""
        grad = np.asarray(grad_out, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic inference pass (dropout disabled)."""
        return self.forward(x, training=False)

    # ------------------------------------------------------------------
    # parameter bookkeeping
    # ------------------------------------------------------------------
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def get_weights(self) -> list[np.ndarray]:
        """Deep copies of all parameters."""
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"Expected {len(params)} weight arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.shape != w.shape:
                raise ValueError(f"Shape mismatch: {p.shape} vs {w.shape}")
            p[...] = w

    # ------------------------------------------------------------------
    # training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        target,
        loss: LossFn,
        optimizer: Optimizer | None = None,
        epochs: int = 100,
        batch_size: int = 256,
        shuffle: bool = True,
        rng: int | np.random.Generator | None = None,
        validation_data: tuple | None = None,
        patience: int | None = None,
        min_delta: float = 1e-6,
        clip_norm: float | None = 5.0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Mini-batch training.

        Parameters
        ----------
        x:
            Training inputs, shape ``(n, d)``.
        target:
            Loss target: an array or a mapping of arrays (all sliced
            per-batch along axis 0), e.g. ``{"t": ..., "yr": ..., "yc": ...}``
            for causal losses.
        loss:
            Callable ``(pred, batch_target) -> (value, grad_wrt_pred)``.
        optimizer:
            Defaults to :class:`~repro.nn.optimizers.Adam` at 1e-3.  It
            is reset first: it steps this fit's flat parameter buffer,
            so moments from an earlier fit would belong to other arrays.
        validation_data:
            Optional ``(x_val, target_val)`` monitored every epoch.
        patience:
            If set, stop after this many epochs without ``min_delta``
            improvement on the monitored loss (validation if provided,
            else training) and restore the best weights.
        clip_norm:
            Global gradient-norm clip; ``None`` disables.

        Returns
        -------
        TrainingHistory
        """
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
        opt.reset()
        buffer = _ParameterBuffer(self.layers)
        params, grads = [buffer.params], [buffer.grads]
        history = TrainingHistory()
        best_loss = np.inf
        best_weights: np.ndarray | None = None
        epochs_without_improvement = 0

        for epoch in range(epochs):
            order = gen.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                batch_x = x[idx]
                batch_target = _slice_target(target, idx)
                buffer.zero_grad()
                pred = self.forward(batch_x, training=True)
                value, grad = loss(pred, batch_target)
                self.backward(grad)
                if clip_norm is not None:
                    buffer.clip_grad_norm(clip_norm)
                opt.step(params, grads)
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

            if verbose:
                msg = f"epoch {epoch + 1}/{epochs} loss={mean_loss:.6f}"
                if validation_data is not None:
                    msg += f" val={history.val_loss[-1]:.6f}"
                print(msg)

            if patience is not None:
                if monitored < best_loss - min_delta:
                    best_loss = monitored
                    best_weights = buffer.params.copy()
                    history.best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= patience:
                        history.stopped_epoch = epoch
                        break

        if patience is not None and best_weights is not None:
            buffer.params[...] = best_weights
        return history


def mlp(
    input_dim: int,
    hidden: Sequence[int],
    output_dim: int = 1,
    activation: str = "elu",
    dropout: float = 0.0,
    rng: int | np.random.Generator | None = None,
    output_activation: str | None = None,
) -> Network:
    """Build a standard MLP: ``Dense -> act -> [Dropout] -> ... -> Dense``.

    The paper's DRP network is ``mlp(d, [h], 1)`` with ``h`` in 10–100
    and a dropout layer used only at inference (MC dropout); we place
    the dropout after each hidden activation, which reduces to the
    paper's configuration for a single hidden layer.
    """
    if input_dim <= 0:
        raise ValueError(f"input_dim must be positive, got {input_dim}")
    gen = as_generator(rng)
    init = "he" if activation in ("relu", "elu") else "glorot"
    net = Network()
    prev = input_dim
    for width in hidden:
        net.add(Dense(prev, width, init=init, rng=gen))
        net.add(Activation(activation))
        if dropout > 0:
            net.add(Dropout(dropout, rng=gen))
        prev = width
    net.add(Dense(prev, output_dim, init="glorot", rng=gen))
    if output_activation is not None:
        net.add(Activation(output_activation))
    return net
