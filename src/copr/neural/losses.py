"""Encoder training losses: triplet, relative-pose, and distance-based.

Each function takes a batch of rows and returns the batch-mean loss and
its gradients with respect to the inputs, which is what the encoder
training loop feeds back through the network. Subgradient 0 is used at
the non-differentiable kinks (active hinge boundary, zero residuals).
"""

from __future__ import annotations

import numpy as np

from ..errors import DimMismatch, ZeroVector

_EPS = 1e-15


def _normalize_rows_with_grad(f: np.ndarray):
    """Row-normalize; returns (units, function mapping dL/du to dL/df)."""
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    if np.any(norms <= _EPS):
        raise ZeroVector("cannot L2-normalize a zero descriptor")
    u = f / norms

    def backprop(g: np.ndarray) -> np.ndarray:
        # d u / d f = (I - u u^T) / ||f||, applied row-wise.
        proj = np.sum(g * u, axis=1, keepdims=True)
        return (g - proj * u) / norms

    return u, backprop


def triplet_grads(f_q: np.ndarray, f_p: np.ndarray, f_n: np.ndarray, margin: float):
    """Batched triplet loss and input gradients.

    Per row: max(d(q, p) - d(q, n) + margin, 0), where d is Euclidean
    distance and all three descriptors are normalized to unit length first.
    Inputs are (batch, dim) raw descriptors; returns (mean loss, g_q, g_p,
    g_n) where each gradient is dMeanLoss/dInput.
    """
    if not (f_q.shape == f_p.shape == f_n.shape):
        raise DimMismatch("triplet descriptors must share one shape")
    b = f_q.shape[0]
    u_q, back_q = _normalize_rows_with_grad(f_q)
    u_p, back_p = _normalize_rows_with_grad(f_p)
    u_n, back_n = _normalize_rows_with_grad(f_n)
    diff_p = u_q - u_p
    diff_n = u_q - u_n
    d_p = np.linalg.norm(diff_p, axis=1)
    d_n = np.linalg.norm(diff_n, axis=1)
    raw = d_p - d_n + margin
    active = raw > 0.0
    loss = float(np.mean(np.maximum(raw, 0.0)))

    w = active.astype(np.float64) / b
    safe_p = np.maximum(d_p, _EPS)[:, None]
    safe_n = np.maximum(d_n, _EPS)[:, None]
    g_dp = w[:, None] * diff_p / safe_p
    g_dn = -w[:, None] * diff_n / safe_n
    g_uq = g_dp + g_dn
    g_up = -g_dp
    g_un = -g_dn
    return loss, back_q(g_uq), back_p(g_up), back_n(g_un)


def relative_grads(dp_hat: np.ndarray, dp_gt: np.ndarray):
    """Batched relative-pose loss and gradient w.r.t. the estimate.

    Per row: the Euclidean norm of the 7-component relative-pose residual.
    """
    if dp_hat.shape != dp_gt.shape or dp_hat.shape[1:] != (7,):
        raise DimMismatch("relative-pose rows must have exactly 7 components")
    resid = dp_hat - dp_gt
    norms = np.linalg.norm(resid, axis=1)
    loss = float(np.mean(norms))
    safe = np.maximum(norms, _EPS)[:, None]
    g = np.where(norms[:, None] > 0.0, resid / safe, 0.0) / dp_hat.shape[0]
    return loss, g


def distance_grads(f_1: np.ndarray, f_2: np.ndarray, t_1: np.ndarray, t_2: np.ndarray):
    """Batched distance loss and gradients w.r.t. both descriptors.

    Per row: | descriptor distance - physical distance |, the gap between
    the Euclidean feature distance and the translation distance of the pair.
    """
    if f_1.shape != f_2.shape:
        raise DimMismatch("descriptor pair must share one shape")
    diff = f_1 - f_2
    df = np.linalg.norm(diff, axis=1)
    dt = np.linalg.norm(t_1 - t_2, axis=1)
    gap = df - dt
    loss = float(np.mean(np.abs(gap)))
    b = f_1.shape[0]
    safe = np.maximum(df, _EPS)[:, None]
    sign = np.sign(gap)[:, None]
    g1 = np.where(df[:, None] > 0.0, sign * diff / safe, 0.0) / b
    return loss, g1, -g1
