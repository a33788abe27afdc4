"""Layer primitives with manual backpropagation.

Each layer implements

* ``forward(x, training)`` — compute the output, caching whatever the
  backward pass needs;
* ``backward(grad_out)`` — given dL/d(output), accumulate parameter
  gradients and return dL/d(input);
* ``parameters()`` / ``gradients()`` — flat lists consumed by the
  optimizers in :mod:`repro.nn.optimizers`;
* ``bind(params, grads)`` — rebind those arrays to same-shaped views.
  A training loop uses it to place every layer in one flat parameter
  buffer and one flat gradient buffer.

Training caches (a layer's batch input, a dropout mask) are not model
state: every layer drops them when pickled.

Gradient correctness for every layer is verified by finite differences
in ``tests/test_nn_gradcheck.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import activations as act
from repro.nn.initializers import glorot_uniform, he_normal
from repro.utils.rng import as_generator

__all__ = ["Layer", "Dense", "Dropout", "Activation"]

def _identity_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(x, dtype=float))


# every entry must hold module-level callables: Activation layers pickle
# by name (fitted networks ship to scoring-shard worker processes)
_ACTIVATIONS = {
    "relu": (act.relu, act.relu_grad),
    "elu": (act.elu, act.elu_grad),
    "tanh": (act.tanh, act.tanh_grad),
    "sigmoid": (act.sigmoid, act.sigmoid_grad),
    "linear": (act.identity, _identity_grad),
}


class Layer:
    """Abstract layer interface."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (updated in place by optimizers)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradient arrays aligned with :meth:`parameters`."""
        return []

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Replace :meth:`parameters`/:meth:`gradients` by same-shaped views.

        The caller has already copied the values into the views.  A
        layer with parameters must override this, or a flat-buffer
        optimizer step would update copies the layer never reads.
        """
        if params:
            raise NotImplementedError(f"{type(self).__name__} has parameters but no bind()")

    def zero_grad(self) -> None:
        for g in self.gradients():
            g[...] = 0.0


class Dense(Layer):
    """Fully connected affine layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    init:
        ``"glorot"`` (default, for tanh/sigmoid nets) or ``"he"`` (for
        ReLU-family nets).
    rng:
        Seed or generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "glorot",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if init == "glorot":
            self.weight = glorot_uniform(in_features, out_features, rng)
        elif init == "he":
            self.weight = he_normal(in_features, out_features, rng)
        else:
            raise ValueError(f"Unknown init {init!r}; expected 'glorot' or 'he'")
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input with {self.in_features} features, got {x.shape[1]}"
            )
        self._x = x if training else None
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.weight, self.bias = params
        self.grad_weight, self.grad_bias = grads

    def __getstate__(self) -> dict:
        # the cached batch input is one batch's backprop cache, not model
        # state (and would ship raw training rows with the model)
        state = self.__dict__.copy()
        state["_x"] = None
        return state


class Dropout(Layer):
    """Inverted dropout.

    During training, each unit is kept with probability ``1 - rate`` and
    scaled by ``1/(1-rate)``; the mask is kept for :meth:`backward`.
    During plain inference the layer is the identity.  :meth:`sample`
    applies a fresh mask at inference without keeping it, realising Gal
    & Ghahramani's Bayesian approximation — the mechanism rDRP uses for
    ``r(x)`` through :func:`repro.nn.mc_dropout.mc_dropout_statistics`.
    """

    def __init__(self, rate: float, rng: int | np.random.Generator | None = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = self._draw_mask(x.shape)
        return x * self._mask

    def sample(self, x: np.ndarray) -> np.ndarray:
        """``x`` times a fresh mask, keeping no state (one MC-dropout draw)."""
        x = np.asarray(x, dtype=float)
        if self.rate == 0.0:
            return x
        return x * self._draw_mask(x.shape)

    def _draw_mask(self, shape: tuple[int, ...]) -> np.ndarray:
        keep = 1.0 - self.rate
        return (self._rng.random(shape) < keep) / keep

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def __getstate__(self) -> dict:
        # a training mask is one batch's backprop cache, not model state
        state = self.__dict__.copy()
        state["_mask"] = None
        return state


class Activation(Layer):
    """Element-wise activation layer.

    Parameters
    ----------
    name:
        One of ``"relu"``, ``"elu"``, ``"tanh"``, ``"sigmoid"``,
        ``"linear"``.
    """

    def __init__(self, name: str) -> None:
        if name not in _ACTIVATIONS:
            raise ValueError(f"Unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")
        self.name = name
        self._fn, self._grad_fn = _ACTIVATIONS[name]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._x = x if training else None
        return self._fn(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        grad = self._grad_fn(self._x)
        grad *= grad_out
        return grad

    def __getstate__(self) -> dict:
        # the function pair is looked up from the name on load, and the
        # training cache has no business crossing a process boundary
        state = self.__dict__.copy()
        state.pop("_fn", None)
        state.pop("_grad_fn", None)
        state["_x"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fn, self._grad_fn = _ACTIVATIONS[self.name]
