"""Setwise contrastive learning: index shuffling, set pooling, InfoNCE loss.

The loss contrasts pooled representations of K-document sets: the positive
term pairs a min-pooled anchor with its positive view, negative terms pair
the max-pooled anchor with every other set's negative view. Pooling records
the batch rows each pooled entry came from, and the pooled gradients return
to those rows. The cosine backward is one unit-vector backward per pooled
array, applied to dL/d(cosine) times the other side's unit vectors.
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


def _unit(X: Array) -> tuple[Array, Array]:
    """Rows of X scaled to unit length, and their lengths."""
    n = np.linalg.norm(X, axis=1)
    if np.any(n == 0.0):
        raise NumericError("setwise InfoNCE: zero-norm pooled vector")
    return X / n[:, None], n


def _unit_backward(Xh: Array, n: Array, dXh: Array) -> Array:
    """dL/dX for Xh = X / ||X|| (row-wise), given dL/dXh."""
    return (dXh - (dXh * Xh).sum(axis=1)[:, None] * Xh) / n[:, None]


def _loss_from_pooled(s_phim: Array, s_phip: Array, s_min: Array, s_plus: Array,
                      tau: float, include_own_negative: bool, want_grads: bool):
    """Loss and, optionally, gradients w.r.t. the pooled vectors, in the
    order of the arguments."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    (Um, nu_m), (Up, nu_p), (Vm, nv_m), (Vp, nv_p) = map(_unit, (s_phim, s_phip, s_min, s_plus))
    f_pos = (Up * Vp).sum(axis=1) / tau                        # [N]
    F_neg = Um @ Vm.T / tau                                    # [N,N]
    if not include_own_negative:
        np.fill_diagonal(F_neg, -np.inf)  # exponentiates to exactly 0 below
    m = np.maximum(f_pos, F_neg.max(axis=1))
    e_pos = np.exp(f_pos - m)
    E_neg = np.exp(F_neg - m[:, None])
    denom = e_pos + E_neg.sum(axis=1)
    loss = float(np.sum(m + np.log(denom) - f_pos))
    if not np.isfinite(loss):
        raise NumericError("setwise InfoNCE loss is non-finite")
    if not want_grads:
        return loss, None
    g = ((e_pos / denom - 1.0) / tau)[:, None]                 # dL/d cos_pos
    W = E_neg / (denom * tau)[:, None]                         # dL/d cos_neg
    return loss, (_unit_backward(Um, nu_m, W @ Vm), _unit_backward(Up, nu_p, g * Vp),
                  _unit_backward(Vm, nv_m, W.T @ Um), _unit_backward(Vp, nv_p, g * Up))


def _pool_members(A: Array, members: Array, mode: str):
    """Pool gathered members A [N,K,T] of the sets ``members`` [N,K].

    Returns the pooled [N,T] vectors, the batch rows each pooled entry came
    from ([N,1,T] for min/max, [N,K,1] for mean/sum) and the divisor of the
    gradient each of those rows receives.
    """
    if mode in ("min", "max"):
        arg = A.argmin(axis=1) if mode == "min" else A.argmax(axis=1)  # [N,T]
        n = np.arange(A.shape[0])[:, None]
        return A[n, arg, np.arange(A.shape[2])], members[n, arg][:, None, :], 1
    if mode == "mean":
        return A.mean(axis=1), members[:, :, None], members.shape[1]
    if mode == "sum":
        return A.sum(axis=1), members[:, :, None], 1
    raise ValueError(f"unknown pool mode {mode!r}, expected one of {POOL_MODES}")


def infonce_with_grads(Z: Array, Zp: Array, Zm: Array, members: Array, tau: float,
                       pool_positive: str = DEFAULT_POOL_POSITIVE,
                       pool_negative: str = DEFAULT_POOL_NEGATIVE,
                       include_own_negative: bool = False,
                       want_grads: bool = True):
    """Setwise InfoNCE over a batch, returning (loss, dZ, dZp, dZm).

    Z, Zp, Zm are the [B,T] topic vectors of the anchor, positive, and
    negative views; members is the [N,K] set membership matrix.
    """
    A = Z[members]  # [N,K,T], pooled twice
    pools = (_pool_members(A, members, pool_negative), _pool_members(A, members, pool_positive),
             _pool_members(Zm[members], members, pool_negative),
             _pool_members(Zp[members], members, pool_positive))
    loss, grads = _loss_from_pooled(*(p[0] for p in pools), tau, include_own_negative,
                                    want_grads)
    if not want_grads:
        return loss, None, None, None
    dZ, dZp, dZm = np.zeros_like(Z), np.zeros_like(Zp), np.zeros_like(Zm)
    t = np.arange(Z.shape[1])
    for dZv, (_, rows, div), dS in zip((dZ, dZ, dZm, dZp), pools, grads):
        np.add.at(dZv, (rows, t), dS[:, None, :] / div)
    return loss, dZ, dZp, dZm
