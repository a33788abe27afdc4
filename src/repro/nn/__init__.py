"""Neural-network substrate.

A small, from-scratch feed-forward framework built on numpy with manual
backpropagation.  The paper's models (DRP, DR, TARNet, DragonNet,
OffsetNet, SNet) are all shallow MLPs — DRP itself is a single hidden
layer of 10–100 units — so this substrate reproduces exactly the
function class and training dynamics the paper relies on, including
inference-time (Monte Carlo) dropout.

Design notes
------------
* Layers expose ``forward(x, training)`` / ``backward(grad)`` and
  accumulate parameter gradients; optimizers consume
  ``(parameters, gradients)`` pairs.  A training loop keeps the whole
  model in one flat parameter array and one flat gradient array, so
  Adam, zeroing and clipping run once per batch.
* Losses return ``(value, grad_wrt_predictions)`` so composite causal
  losses (Eq. 2 of the paper, DragonNet's targeted regularisation, the
  Direct Rank ratio loss) plug in uniformly.
* ``mc_dropout_statistics`` keeps dropout active at inference to produce
  the per-sample std ``r(x)`` used by the rDRP conformal score; it runs
  the layers before a network's first dropout once per call and the
  rest once per pass.  ``MCDropoutPredictor`` binds it to one network.
"""

from repro.nn.activations import (
    elu,
    elu_grad,
    identity,
    log_sigmoid,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad,
    softmax,
    softplus,
    tanh,
    tanh_grad,
)
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Activation, Dense, Dropout, Layer
from repro.nn.losses import (
    BinaryCrossEntropy,
    Loss,
    MeanSquaredError,
)
from repro.nn.gradcheck import check_network_gradients, numeric_gradient
from repro.nn.mc_dropout import MCDropoutPredictor, mc_dropout_statistics
from repro.nn.network import Network, TrainingHistory, mlp
from repro.nn.optimizers import SGD, Adam, Optimizer

__all__ = [
    "Activation",
    "Adam",
    "BinaryCrossEntropy",
    "Dense",
    "Dropout",
    "Layer",
    "Loss",
    "MCDropoutPredictor",
    "MeanSquaredError",
    "Network",
    "Optimizer",
    "SGD",
    "TrainingHistory",
    "check_network_gradients",
    "mlp",
    "numeric_gradient",
    "elu",
    "elu_grad",
    "glorot_uniform",
    "he_normal",
    "identity",
    "log_sigmoid",
    "mc_dropout_statistics",
    "relu",
    "relu_grad",
    "sigmoid",
    "sigmoid_grad",
    "softmax",
    "softplus",
    "tanh",
    "tanh_grad",
    "zeros_init",
]
