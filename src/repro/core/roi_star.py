"""Algorithm 2: obtain ``roi*`` by binary search on the DRP loss derivative.

The DRP loss is convex in a shared score ``s``, and its pooled
derivative at ``roi = σ(s)`` is ``L'(roi) = −τ̂_r + τ̂_c · roi`` (see
:func:`repro.core.drp.drp_pooled_derivative`), monotone increasing in
``roi`` under Assumption 4 (``τ_c > 0``).  Bisection on ``roi ∈ (0, 1)``
therefore converges to the loss minimiser, which Assumption 5 treats as
the *true* ROI of the pooled sample — the surrogate label conformal
prediction needs.  ``L'`` is affine in ``roi``, so the search takes the
pooled uplifts ``(τ̂_r, τ̂_c)`` once and bisects the line they define,
evaluating exactly what :func:`~repro.core.drp.drp_pooled_derivative`
would at every step.

Two granularities are provided (see DESIGN.md):

* ``mode="global"`` — one pooled search over the whole calibration set
  (the literal reading of Algorithm 2's pseudo-code);
* ``mode="binned"`` — sort by the model's predicted ROI, slice into K
  quantile bins, and search within each bin (the per-sample reading of
  §IV-D, giving each calibration sample the ``roi*`` of its bin).
"""

from __future__ import annotations

import numpy as np

from typing import Callable

from repro.core.drp import _pooled_uplifts
from repro.utils.validation import check_1d, check_binary, check_consistent_length

__all__ = ["bisect_monotone", "binary_search_roi_star", "RoiStarEstimator"]


def bisect_monotone(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    eps: float = 1e-3,
) -> float:
    """Bisect a monotone-increasing ``fn`` to its zero crossing on ``[lo, hi]``.

    The generic threshold search underlying Algorithm 2 — and reused by
    :mod:`repro.serving.pacing` to locate admission thresholds on
    streaming traffic.  Stops when either the bracket width or ``|fn|``
    at the midpoint falls below ``eps`` and returns the midpoint.  When
    the zero lies outside ``[lo, hi]`` the search converges to the
    nearer endpoint, which is the correct clamped threshold.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    mid = 0.5 * (lo + hi)
    value = fn(mid)
    while abs(hi - lo) > eps:
        if abs(value) < eps:
            break
        if value > 0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
        value = fn(mid)
    return float(mid)


def binary_search_roi_star(
    t: np.ndarray,
    y_r: np.ndarray,
    y_c: np.ndarray,
    eps: float = 1e-3,
    clip: float = 1e-3,
) -> float:
    """Algorithm 2 verbatim: bisect ``L'`` over ``roi ∈ (0, 1)``.

    Parameters
    ----------
    t, y_r, y_c:
        Calibration samples (both arms required).
    eps:
        Convergence tolerance on both the interval width and ``|L'|``.
    clip:
        The returned value is clipped into ``[clip, 1 − clip]`` —
        Assumption 3 constrains ROI to the open unit interval, and a
        pooled difference-in-means estimate on a small bin can fall
        outside it.

    Returns
    -------
    float
        The convergence-point ROI of the pooled sample.
    """
    tau_r, tau_c = _pooled_uplifts(t, y_r, y_c)
    return _roi_star_of_uplifts(tau_r, tau_c, eps=eps, clip=clip)


def _roi_star_of_uplifts(
    tau_r: float, tau_c: float, eps: float = 1e-3, clip: float = 1e-3
) -> float:
    """:func:`binary_search_roi_star` on uplifts already taken.

    Each step evaluates the same expression, in the same operand order,
    as :func:`~repro.core.drp.drp_pooled_derivative`.
    """
    roi_star = bisect_monotone(lambda roi: -tau_r + tau_c * float(roi), 0.0, 1.0, eps=eps)
    return float(np.clip(roi_star, clip, 1.0 - clip))


class RoiStarEstimator:
    """Per-sample ``roi*`` labels for the conformal score (Eq. 3).

    Parameters
    ----------
    mode:
        ``"binned"`` (default) or ``"global"``; see module docstring.
    n_bins:
        Number of quantile bins in binned mode.
    min_arm_per_bin:
        A bin must contain at least this many treated *and* control
        samples for its own search; thinner bins fall back to the
        global estimate.
    eps:
        Bisection tolerance (Algorithm 2's ε).
    """

    def __init__(
        self,
        mode: str = "binned",
        n_bins: int = 20,
        min_arm_per_bin: int = 10,
        eps: float = 1e-3,
    ) -> None:
        if mode not in ("binned", "global"):
            raise ValueError(f"mode must be 'binned' or 'global', got {mode!r}")
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        self.mode = mode
        self.n_bins = int(n_bins)
        self.min_arm_per_bin = int(min_arm_per_bin)
        self.eps = float(eps)

    def estimate(
        self,
        roi_hat: np.ndarray,
        t: np.ndarray,
        y_r: np.ndarray,
        y_c: np.ndarray,
    ) -> np.ndarray:
        """Return a ``roi*`` value aligned with each calibration sample.

        Parameters
        ----------
        roi_hat:
            The DRP point estimates on the calibration set (used only
            to form the quantile bins in binned mode).
        t, y_r, y_c:
            Calibration outcomes.
        """
        roi_hat = check_1d(roi_hat, "roi_hat")
        t = check_binary(t)
        y_r = check_1d(y_r, "y_r")
        y_c = check_1d(y_c, "y_c")
        check_consistent_length(roi_hat, t, y_r, y_c, names=("roi_hat", "t", "y_r", "y_c"))

        global_star = binary_search_roi_star(t, y_r, y_c, eps=self.eps)
        if self.mode == "global" or self.n_bins == 1:
            return np.full(roi_hat.shape[0], global_star)

        n = roi_hat.shape[0]
        n_bins = min(self.n_bins, max(1, n // max(2 * self.min_arm_per_bin, 1)))
        if n_bins <= 1:
            return np.full(n, global_star)
        # quantile bin edges over the predicted ROI ranking
        order = np.argsort(roi_hat, kind="stable")
        bin_of = np.empty(n, dtype=np.int64)
        bin_of[order] = (np.arange(n) * n_bins) // n
        out = np.full(n, global_star)
        for b in range(n_bins):
            members = bin_of == b
            tb = t[members]
            n1 = int(np.sum(tb == 1))
            n0 = int(np.sum(tb == 0))
            if n1 < self.min_arm_per_bin or n0 < self.min_arm_per_bin:
                continue  # thin bin: keep the global fallback
            tau_c = float(y_c[members][tb == 1].mean() - y_c[members][tb == 0].mean())
            if tau_c <= 0:
                continue  # Assumption 4 violated in-bin: unreliable, fall back
            out[members] = binary_search_roi_star(tb, y_r[members], y_c[members], eps=self.eps)
        return out
