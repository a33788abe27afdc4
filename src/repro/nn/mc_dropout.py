"""Monte Carlo dropout inference (Gal & Ghahramani, 2016).

rDRP needs a per-sample standard deviation ``r(x)`` of the DRP point
estimate without retraining or ensembling (§IV-C2 of the paper).  MC
dropout provides it: run ``T`` stochastic forward passes with dropout
masks *active at inference* and take the empirical mean/std of the
transformed outputs.

:func:`mc_dropout_statistics` is the one MC-dropout loop; every model
that reports ``r(x)`` calls it.  The layers before a network's first
:class:`~repro.nn.layers.Dropout` do not depend on the mask, so they
run once per call; only the rest of the stack runs once per pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.layers import Dropout
from repro.nn.network import Network

__all__ = ["mc_dropout_statistics", "MCDropoutPredictor"]


def _split_at_first_dropout(network: Network) -> tuple[Network, Network]:
    """``(head, tail)``: the layers before the first Dropout, and the rest."""
    layers = network.layers
    k = next((i for i, layer in enumerate(layers) if isinstance(layer, Dropout)), len(layers))
    return Network(layers[:k]), Network(layers[k:])


def mc_dropout_statistics(
    network: Network | Sequence[Network],
    x: np.ndarray,
    n_samples: int = 30,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
    std_floor: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over ``n_samples`` stochastic forward passes.

    Parameters
    ----------
    network:
        One network, or an ensemble whose members take the passes in
        turn (pass ``i`` runs ``networks[i % len(networks)]``), as DRP's
        restart ensemble does.
    x:
        Input batch, shape ``(n, d)``.
    n_samples:
        Number of MC passes ``T`` (the paper uses 10–100).
    transform:
        Optional output transform applied per pass *before* the
        statistics (DRP applies ``sigmoid`` so the std is of the ROI,
        not the logit).
    std_floor:
        Lower bound on the returned std — Eq. 3 divides by ``r(x)``, so
        a hard floor keeps the conformal score finite even for inputs
        the dropout mask never perturbs.

    Returns
    -------
    (mean, std):
        Arrays of shape ``(n,)`` (single-output networks are squeezed).

    Each network that takes a pass runs its head (its layers before the
    first Dropout, or the whole stack if it has none) once; each pass
    runs the tail through :meth:`Network.forward_stochastic`.  Masks are
    drawn in pass order from each Dropout's own generator, so the result
    is the same as running the full stack ``n_samples`` times.
    """
    networks = [network] if isinstance(network, Network) else list(network)
    if not networks:
        raise ValueError("at least one network is required")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 to estimate a std, got {n_samples}")
    if std_floor <= 0:
        raise ValueError(f"std_floor must be > 0, got {std_floor}")
    stages = []
    for net in networks[:n_samples]:
        head, tail = _split_at_first_dropout(net)
        stages.append((head.forward(x), tail))
    draws = None
    for i in range(n_samples):
        features, tail = stages[i % len(stages)]
        out = tail.forward_stochastic(features)
        if transform is not None:
            out = transform(out)
        out = np.asarray(out, dtype=float).reshape(out.shape[0], -1)
        if draws is None:
            draws = np.empty((n_samples, *out.shape))  # (T, n, k)
        draws[i] = out
    mean = draws.mean(axis=0)
    std = np.maximum(draws.std(axis=0, ddof=1), std_floor)
    if mean.shape[1] == 1:
        return mean[:, 0], std[:, 0]
    return mean, std


class MCDropoutPredictor:
    """Bind a network + output transform into an ``r(x)`` estimator.

    Example
    -------
    >>> predictor = MCDropoutPredictor(net, transform=sigmoid, n_samples=50)
    >>> mean, std = predictor(x_test)
    """

    def __init__(
        self,
        network: Network,
        transform: Callable[[np.ndarray], np.ndarray] | None = None,
        n_samples: int = 30,
        std_floor: float = 1e-6,
    ) -> None:
        self.network = network
        self.transform = transform
        self.n_samples = int(n_samples)
        self.std_floor = float(std_floor)

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return mc_dropout_statistics(
            self.network,
            x,
            n_samples=self.n_samples,
            transform=self.transform,
            std_floor=self.std_floor,
        )
