"""Numerically stable activation functions and their derivatives.

The DRP loss (Eq. 2 of the paper) expands into ``y_r * s - y_c *
softplus(s)`` terms, so :func:`sigmoid`, :func:`softplus` and
:func:`log_sigmoid` are written in the branch-free stable forms that
never overflow for large ``|s|``.

:func:`sigmoid`, :func:`elu` and :func:`elu_grad` run on every training
batch, so they are written without boolean fancy indexing, and the ELU
pair without ``np.where``.  Each fused form gives the same bytes as the
plain two-branch form on every finite and infinite input (pinned by
Hypothesis in ``tests/test_nn_activations.py``); the one exception is
:func:`elu` at ``alpha != 1``, where ``alpha * expm1(x)`` can round a
negative subnormal to ``-0.0`` and the sum then gives ``+0.0``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "sigmoid_grad",
    "softplus",
    "log_sigmoid",
    "relu",
    "relu_grad",
    "elu",
    "elu_grad",
    "tanh",
    "tanh_grad",
    "identity",
    "softmax",
]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function ``1 / (1 + exp(-x))``.

    With ``e = exp(-|x|)``, which never overflows, this is ``1 / (1 + e)``
    for ``x >= 0`` and ``e / (1 + e)`` otherwise.  NaN maps to NaN.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.divide(e, d, out=np.empty_like(x))
    return np.divide(1.0, d, out=out, where=x >= 0)


def sigmoid_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`sigmoid` with respect to its input."""
    s = sigmoid(x)
    return s * (1.0 - s)


def softplus(x: np.ndarray) -> np.ndarray:
    """Stable ``log(1 + exp(x)) = max(x, 0) + log1p(exp(-|x|))``."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable ``log(sigmoid(x)) = -softplus(-x)``."""
    return -softplus(-np.asarray(x, dtype=float))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit ``max(x, 0)``."""
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Sub-gradient of :func:`relu` (0 at the kink)."""
    return (np.asarray(x, dtype=float) > 0).astype(float)


def elu(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Exponential linear unit: ``x`` if positive else ``alpha*(e^x-1)``.

    Computed as ``alpha * expm1(min(x, 0)) + max(x, 0)``: one term is
    zero wherever the other is not.  The product is skipped at the
    default ``alpha == 1``.
    """
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(out, out=out)
    if alpha != 1.0:
        out *= alpha
    out += np.maximum(x, 0.0)
    return out


def elu_grad(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Derivative of :func:`elu`: 1 if ``x > 0`` else ``alpha*e^x``.

    Computed as ``exp(min(x, 0))``, which is exactly 1.0 for ``x > 0``
    because ``exp(0) == 1.0``; ``alpha`` scales only the other entries.
    """
    x = np.asarray(x, dtype=float)
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    if alpha != 1.0:
        np.multiply(out, alpha, out=out, where=x <= 0)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x, dtype=float))


def tanh_grad(x: np.ndarray) -> np.ndarray:
    """Derivative ``1 - tanh(x)^2``."""
    t = np.tanh(np.asarray(x, dtype=float))
    return 1.0 - t * t


def identity(x: np.ndarray) -> np.ndarray:
    """Pass-through activation (linear output head)."""
    return np.asarray(x, dtype=float)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    x = np.asarray(x, dtype=float)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)
