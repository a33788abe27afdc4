"""First-order optimizers operating on ``(parameters, gradients)`` pairs.

Parameters are updated **in place** so layers keep owning their arrays.
Weight decay is added to the gradient (plain L2, not AdamW's decoupled
form), matching the L2-regularised training the uplift-modelling
literature uses for small RCT datasets.

The training loops (:meth:`repro.nn.network.Network.fit` and the neural
uplift models) hand :meth:`Adam.step` a single pair: the flat parameter
and gradient buffers that hold the whole model, so the step runs once
per batch.  Each fit starts from an empty optimizer state
(:meth:`~repro.nn.network.Network.fit` resets the one it is given).
The step works in place, in per-parameter scratch buffers kept between
steps, with the same operands in the same order as the textbook
expression, so its result is bit-identical to it (pinned in
``tests/test_nn_optimizers.py``).

State is keyed by ``id(p)`` beside a reference to ``p`` itself: an
entry serves only the array that created it, and holding the array
keeps its id from passing to a new one while the entry lives.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer interface."""

    def __init__(self, learning_rate: float = 1e-3, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state (momentum/moment buffers)."""


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        learning_rate: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[int, np.ndarray] = {}
        self._params: dict[int, np.ndarray] = {}  # the array each entry serves

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads):
            update = g + self.weight_decay * p
            if self.momentum > 0:
                if self._params.get(id(p)) is not p:
                    self._params[id(p)] = p
                    self._velocity[id(p)] = np.zeros_like(p)
                v = self._velocity[id(p)]
                v *= self.momentum
                v += update
                update = v
            p -= self.learning_rate * update

    def reset(self) -> None:
        self._velocity.clear()
        self._params.clear()


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected moment estimates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._scratch: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._params: dict[int, np.ndarray] = {}  # the array each entry serves
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """``p -= lr_t * m / (sqrt(v) + eps)`` after the moment updates.

        Computed in place: ``g' = g + wd * p``, ``m = b1 * m + (1 - b1) * g'``
        and ``v = b2 * v + (1 - b2) * g' * g'``, each rounded exactly as
        the expression reads.
        """
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
        )
        for p, g in zip(params, grads):
            key = id(p)
            if self._params.get(key) is not p:
                self._params[key] = p
                self._m[key] = np.zeros_like(p)
                self._v[key] = np.zeros_like(p)
                self._scratch[key] = (np.empty_like(p), np.empty_like(p))
            m, v = self._m[key], self._v[key]
            g_eff, tmp = self._scratch[key]
            np.multiply(p, self.weight_decay, out=g_eff)
            g_eff += g
            m *= self.beta1
            np.multiply(g_eff, 1.0 - self.beta1, out=tmp)
            m += tmp
            v *= self.beta2
            np.multiply(g_eff, 1.0 - self.beta2, out=tmp)
            tmp *= g_eff
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += self.eps
            np.multiply(m, lr_t, out=g_eff)
            g_eff /= tmp
            p -= g_eff

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._scratch.clear()
        self._params.clear()
        self._t = 0
