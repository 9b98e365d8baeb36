"""Setwise contrastive learning: index shuffling, set pooling, InfoNCE loss.

The loss contrasts pooled representations of K-document sets: the positive
term pairs a min-pooled anchor with its positive view, negative terms pair
the max-pooled anchor with every other set's negative view. Pooling records
the batch rows each pooled entry came from, and the pooled gradients return
to those rows. The cosine backward is one unit-vector backward over the
four pooled arrays stacked, applied to dL/d(cosine) times the other side's
unit vectors.

The pooling is fixed: a 20-seed sweep of the planted fit found mean pooling
no better than min/max on NPMI, topic diversity or macro-F1 (CHANGES.md).
Sum pooling needs no run of its own: it is mean pooling times K, and cosine
similarity is scale-invariant, so the two give the same loss and gradients
(bit-identical at K=2 and K=4 on random batches, within 1.4e-15 relative at
K=3 and K=5).
"""
from __future__ import annotations

import numpy as np

from .diffnet import buffer
from .errors import NumericError

Array = np.ndarray


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
    """Rows of X (along its last axis) scaled to unit length, and their lengths."""
    n = np.linalg.norm(X, axis=-1)
    if np.any(n == 0.0):
        raise NumericError("setwise InfoNCE: zero-norm pooled vector")
    return X / n[..., None], n


def _unit_backward(Xh: Array, n: Array, dXh: Array) -> Array:
    """dL/dX for Xh = X / ||X|| (row-wise), given dL/dXh."""
    return (dXh - (dXh * Xh).sum(axis=-1)[..., None] * Xh) / n[..., None]


def _loss_from_pooled(s_phim: Array, s_phip: Array, s_min: Array, s_plus: Array,
                      tau: float, want_grads: bool, ws: dict | None = None):
    """Loss and, optionally, gradients w.r.t. the pooled vectors, in the
    order of the arguments, as one [4, N, T] array. The four run as one stack
    through the unit vectors and their backward. One [N, N] buffer holds, in
    turn, the negative logits, their exponentials and dL/d cos_neg. A set's
    own negative view is not among its negatives."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    U, norms = _unit(np.stack((s_phim, s_phip, s_min, s_plus)))
    Um, Up, Vm, Vp = U
    f_pos = (Up * Vp).sum(axis=1) / tau                        # [N]
    N = len(f_pos)
    F = np.matmul(Um, Vm.T, out=buffer(ws, "infonce.negatives", (N, N)))
    F /= tau
    np.fill_diagonal(F, -np.inf)  # exponentiates to exactly 0 below
    m = np.maximum(f_pos, F.max(axis=1))
    e_pos = np.exp(f_pos - m)
    F -= m[:, None]
    np.exp(F, out=F)
    denom = e_pos + F.sum(axis=1)
    loss = float(np.sum(m + np.log(denom) - f_pos))
    if not np.isfinite(loss):
        raise NumericError("setwise InfoNCE loss is non-finite")
    if not want_grads:
        return loss, None
    g = ((e_pos / denom - 1.0) / tau)[:, None]                 # dL/d cos_pos
    F /= (denom * tau)[:, None]                                # dL/d cos_neg
    dU = np.empty_like(U)  # dL/d of each unit vector
    np.matmul(F, Vm, out=dU[0])
    np.multiply(g, Vp, out=dU[1])
    np.matmul(F.T, Um, out=dU[2])
    np.multiply(g, Up, out=dU[3])
    return loss, _unit_backward(U, norms, dU)


def _pool_members(A: Array, members: Array, mode: str):
    """Min- or max-pool gathered members A [N,K,T] of the sets ``members`` [N,K].

    Returns the pooled [N,T] vectors and the batch row each pooled entry came
    from, as [N,T].
    """
    arg = A.argmin(axis=1) if mode == "min" else A.argmax(axis=1)  # [N,T]
    n = np.arange(A.shape[0])[:, None]
    return A[n, arg, np.arange(A.shape[2])], members[n, arg]


def infonce_with_grads(Z: Array, Zp: Array, Zm: Array, members: Array, tau: float,
                       want_grads: bool = True, ws: dict | None = None):
    """Setwise InfoNCE over a batch, returning (loss, dZ, dZp, dZm).

    Z, Zp, Zm are the [B,T] topic vectors of the anchor, positive, and
    negative views; members is the [N,K] set membership matrix.
    """
    A = Z[members]  # [N,K,T], pooled twice
    pools = (_pool_members(A, members, "max"), _pool_members(A, members, "min"),
             _pool_members(Zm[members], members, "max"), _pool_members(Zp[members], members, "min"))
    loss, grads = _loss_from_pooled(*(p[0] for p in pools), tau, want_grads, ws)
    if not want_grads:
        return loss, None, None, None
    B, T = Z.shape
    # per pool: the flat [B,T] position each pooled entry came from
    index = [(rows * T + np.arange(T)).ravel() for _, rows in pools]

    def scatter(*which):  # sums in the order given, as sequential adds would
        return np.bincount(np.concatenate([index[i] for i in which]),
                           np.concatenate([grads[i].ravel() for i in which]),
                           minlength=B * T).reshape(B, T)
    return loss, scatter(0, 1), scatter(3), scatter(2)
