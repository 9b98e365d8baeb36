"""Setwise contrastive learning: index shuffling, set pooling, InfoNCE loss.

The loss contrasts pooled representations of K-document sets: the positive
term pairs a min-pooled anchor with its positive view, negative terms pair
the max-pooled anchor with every other set's negative view.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray

DEFAULT_POOL_POSITIVE = "min"
DEFAULT_POOL_NEGATIVE = "max"
POOL_MODES = ("min", "max", "mean", "sum")


def build_index_matrix(B: int, S: int, rng_seed) -> Array:
    """S rows, each a permutation of 0..B-1; row 0 is always the identity."""
    if B < 1 or S < 1:
        raise ValueError(f"build_index_matrix: need B >= 1 and S >= 1, got B={B}, S={S}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    M = np.empty((S, B), dtype=np.int64)
    M[0] = np.arange(B)
    for s in range(1, S):
        M[s] = rng.permutation(B)
    return M


def build_sets(M: Array, K: int) -> Array:
    """Consecutive non-overlapping K-blocks per shuffle row; tails are dropped.

    Returns the [S*(B//K), K] member matrix; row s*(B//K) + j holds
    M[s, j*K:(j+1)*K].
    """
    S, B = M.shape
    if not (1 <= K <= B):
        raise ValueError(f"set size K={K} must satisfy 1 <= K <= B={B}")
    return M[:, :B // K * K].reshape(S * (B // K), K)


def members_matrix(sets) -> Array:
    """The output of build_sets (or any nested sequence) as an int64 array."""
    return np.asarray(sets, dtype=np.int64)


def _row_norms(X: Array) -> Array:
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise NumericError("setwise InfoNCE: zero-norm pooled vector")
    return norms


def _loss_from_pooled(s_phip: Array, s_plus: Array, s_phim: Array, s_min: Array,
                      tau: float, include_own_negative: bool, want_grads: bool):
    """Loss and, optionally, gradients w.r.t. the pooled vectors."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    N = s_phip.shape[0]
    nu_p = _row_norms(s_phip)
    nv_p = _row_norms(s_plus)
    nu_m = _row_norms(s_phim)
    nv_m = _row_norms(s_min)
    Uh_p = s_phip / nu_p[:, None]
    Vh_p = s_plus / nv_p[:, None]
    Uh_m = s_phim / nu_m[:, None]
    Vh_m = s_min / nv_m[:, None]
    f_pos = (Uh_p * Vh_p).sum(axis=1) / tau                    # [N]
    C_neg = Uh_m @ Vh_m.T                                      # cosines [N,N]
    F_neg = C_neg / tau
    mask = np.ones((N, N), dtype=bool)
    if not include_own_negative:
        np.fill_diagonal(mask, False)
    neg_filled = np.where(mask, F_neg, -np.inf)
    m = np.maximum(f_pos, neg_filled.max(axis=1, initial=-np.inf))
    e_pos = np.exp(f_pos - m)
    E_neg = np.where(mask, np.exp(neg_filled - m[:, None]), 0.0)
    denom = e_pos + E_neg.sum(axis=1)
    loss = float(np.sum(m + np.log(denom) - f_pos))
    if not np.isfinite(loss):
        raise NumericError("setwise InfoNCE loss is non-finite")
    if not want_grads:
        return loss, None
    p_pos = e_pos / denom
    W = E_neg / denom[:, None]                                 # dL/dF_neg
    g_pos = p_pos - 1.0                                        # dL/df_pos
    cos_pos = f_pos * tau
    d_phip = (g_pos / (nu_p * tau))[:, None] * (Vh_p - cos_pos[:, None] * Uh_p)
    d_plus = (g_pos / (nv_p * tau))[:, None] * (Uh_p - cos_pos[:, None] * Vh_p)
    d_phim = (W @ Vh_m - (W * C_neg).sum(axis=1)[:, None] * Uh_m) / (nu_m[:, None] * tau)
    d_min = (W.T @ Uh_m - (W * C_neg).sum(axis=0)[:, None] * Vh_m) / (nv_m[:, None] * tau)
    return loss, (d_phip, d_plus, d_phim, d_min)


def _pool_members(Zv: Array, members: Array, mode: str):
    """Pool members [N,K] of view Zv [B,T] -> ([N,T], routing argindices or None)."""
    A = Zv[members]  # [N,K,T]
    if mode in ("min", "max"):
        arg = A.argmin(axis=1) if mode == "min" else A.argmax(axis=1)
        return np.take_along_axis(A, arg[:, None, :], axis=1)[:, 0, :], arg
    if mode == "mean":
        return A.mean(axis=1), None
    if mode == "sum":
        return A.sum(axis=1), None
    raise ValueError(f"unknown pool mode {mode!r}, expected one of {POOL_MODES}")


def _route_back(dZv: Array, members: Array, arg, dS: Array, mode: str) -> None:
    N, K = members.shape
    T = dS.shape[1]
    if mode in ("min", "max"):
        rows = np.take_along_axis(members[:, :, None].repeat(T, axis=2),
                                  arg[:, None, :], axis=1)[:, 0, :]  # [N,T]
        np.add.at(dZv, (rows, np.broadcast_to(np.arange(T), (N, T))), dS)
    elif mode == "mean":
        np.add.at(dZv, members, np.broadcast_to(dS[:, None, :] / K, (N, K, T)))
    else:  # sum
        np.add.at(dZv, members, np.broadcast_to(dS[:, None, :], (N, K, T)))


def infonce_with_grads(Z: Array, Zp: Array, Zm: Array, members: Array, tau: float,
                       pool_positive: str = DEFAULT_POOL_POSITIVE,
                       pool_negative: str = DEFAULT_POOL_NEGATIVE,
                       include_own_negative: bool = False,
                       want_grads: bool = True):
    """Setwise InfoNCE over a batch, returning (loss, dZ, dZp, dZm).

    Z, Zp, Zm are the [B,T] topic vectors of the anchor, positive, and
    negative views; members is the [N,K] set membership matrix.
    """
    s_phim, arg_phim = _pool_members(Z, members, pool_negative)
    s_phip, arg_phip = _pool_members(Z, members, pool_positive)
    s_min, arg_min = _pool_members(Zm, members, pool_negative)
    s_plus, arg_plus = _pool_members(Zp, members, pool_positive)
    loss, grads = _loss_from_pooled(s_phip, s_plus, s_phim, s_min, tau,
                                    include_own_negative, want_grads)
    if not want_grads:
        return loss, None, None, None
    d_phip, d_plus, d_phim, d_min = grads
    dZ = np.zeros_like(Z)
    dZp = np.zeros_like(Zp)
    dZm = np.zeros_like(Zm)
    _route_back(dZ, members, arg_phim, d_phim, pool_negative)
    _route_back(dZ, members, arg_phip, d_phip, pool_positive)
    _route_back(dZm, members, arg_min, d_min, pool_negative)
    _route_back(dZp, members, arg_plus, d_plus, pool_positive)
    return loss, dZ, dZp, dZm
