"""DragonNet (Shi, Blei & Veitch, 2019).

TARNet plus a propensity head ``g(φ)`` trained with cross-entropy, and
an optional *targeted regularisation* term with a trainable scalar
perturbation ``ε``:

    ỹ = ŷ_t + ε · (t/g − (1−t)/(1−g)),   L += β · mean((y − ỹ)²)

Under RCT data the propensity head converges to the treated fraction;
its gradient pressure on ``φ`` acts as a regulariser that preserves
treatment-relevant information in the representation.
"""

from __future__ import annotations

import numpy as np

from repro.causal.neural.base import NeuralUpliftBase, head_block, representation_block
from repro.nn.activations import sigmoid
from repro.nn.layers import Dense, Layer
from repro.nn.network import Network

__all__ = ["DragonNet"]


class _Epsilon(Layer):
    """The trainable scalar ``ε`` of targeted regularisation.

    A parameter-only layer, so the joint Adam step trains it in the
    same flat buffer as the networks; it has no forward pass.
    """

    def __init__(self) -> None:
        self.value = np.zeros(1)
        self.grad = np.zeros(1)

    def parameters(self) -> list[np.ndarray]:
        return [self.value]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad]

    def bind(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        [self.value], [self.grad] = params, grads


class DragonNet(NeuralUpliftBase):
    """DragonNet with propensity head and targeted regularisation.

    Parameters
    ----------
    propensity_weight:
        Weight ``α`` on the propensity cross-entropy term.
    targeted_weight:
        Weight ``β`` on the targeted-regularisation term; 0 disables
        it (and freezes ``ε`` at 0).
    Remaining parameters as in :class:`NeuralUpliftBase`.
    """

    def __init__(
        self,
        hidden: int = 32,
        epochs: int = 60,
        batch_size: int = 256,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        dropout: float = 0.1,
        propensity_weight: float = 1.0,
        targeted_weight: float = 0.1,
        random_state=None,
    ) -> None:
        super().__init__(
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            weight_decay=weight_decay,
            dropout=dropout,
            random_state=random_state,
        )
        if propensity_weight < 0 or targeted_weight < 0:
            raise ValueError("propensity_weight and targeted_weight must be >= 0")
        self.propensity_weight = float(propensity_weight)
        self.targeted_weight = float(targeted_weight)

    def _build(self, input_dim: int, rng: np.random.Generator) -> None:
        self.repr_ = representation_block(
            input_dim, self.hidden, depth=1, dropout=self.dropout, rng=rng
        )
        self.head0_ = head_block(self.hidden, self.hidden, rng=rng)
        self.head1_ = head_block(self.hidden, self.hidden, rng=rng)
        # propensity head: single linear logit on top of φ
        self.prop_head_ = Network([Dense(self.hidden, 1, init="glorot", rng=rng)])
        self._epsilon = _Epsilon()
        self._networks = [self.repr_, self.head0_, self.head1_, self.prop_head_]

    def _trainable_layers(self) -> list[Layer]:
        layers = super()._trainable_layers()
        if self.targeted_weight > 0:
            layers.append(self._epsilon)
        return layers

    def _train_batch(self, xb: np.ndarray, yb: np.ndarray, tb: np.ndarray) -> float:
        n = xb.shape[0]
        phi = self.repr_.forward(xb, training=True)
        pred0 = self.head0_.forward(phi, training=True)[:, 0]
        pred1 = self.head1_.forward(phi, training=True)[:, 0]
        logit_g = self.prop_head_.forward(phi, training=True)[:, 0]
        g = np.clip(sigmoid(logit_g), 0.01, 0.99)

        treated = tb == 1
        n1 = max(int(treated.sum()), 1)
        n0 = max(int((~treated).sum()), 1)
        err0 = np.where(~treated, pred0 - yb, 0.0)
        err1 = np.where(treated, pred1 - yb, 0.0)
        outcome_loss = float(np.sum(err0**2) / n0 + np.sum(err1**2) / n1)

        # propensity cross-entropy on the logits
        tb_f = tb.astype(float)
        prop_loss = float(
            np.mean(np.maximum(logit_g, 0) - logit_g * tb_f + np.log1p(np.exp(-np.abs(logit_g))))
        )
        grad_logit = (sigmoid(logit_g) - tb_f) / n * self.propensity_weight

        grad0 = 2.0 * err0 / n0
        grad1 = 2.0 * err1 / n1

        targeted_loss = 0.0
        if self.targeted_weight > 0:
            eps = float(self._epsilon.value[0])
            pred_factual = np.where(treated, pred1, pred0)
            h = tb_f / g - (1.0 - tb_f) / (1.0 - g)
            resid = yb - (pred_factual + eps * h)
            targeted_loss = float(np.mean(resid**2)) * self.targeted_weight
            common = -2.0 * self.targeted_weight * resid / n
            # d/d eps
            self._epsilon.grad[0] += float(np.sum(common * h))
            # d/d pred_factual routes to the factual head only
            grad1 = grad1 + np.where(treated, common, 0.0)
            grad0 = grad0 + np.where(~treated, common, 0.0)
            # d/d g: h depends on g; treated: dh/dg = -t/g^2 ; control: +(1-t)/(1-g)^2
            dh_dg = np.where(treated, -1.0 / g**2, 1.0 / (1.0 - g) ** 2)
            dg_dlogit = g * (1.0 - g)
            grad_logit = grad_logit + common * eps * dh_dg * dg_dlogit

        grad_phi = (
            self.head0_.backward(grad0.reshape(-1, 1))
            + self.head1_.backward(grad1.reshape(-1, 1))
            + self.prop_head_.backward(grad_logit.reshape(-1, 1))
        )
        self.repr_.backward(grad_phi)
        return outcome_loss + self.propensity_weight * prop_loss + targeted_loss

    def predict_outcomes(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = self._check_fitted_input(x)
        phi = self.repr_.forward(x, training=False)
        mu0 = self.head0_.forward(phi, training=False)[:, 0]
        mu1 = self.head1_.forward(phi, training=False)[:, 0]
        return mu0, mu1

    def predict_propensity(self, x) -> np.ndarray:
        """Estimated treatment probability ``ĝ(x)``."""
        x = self._check_fitted_input(x)
        phi = self.repr_.forward(x, training=False)
        return sigmoid(self.prop_head_.forward(phi, training=False)[:, 0])
