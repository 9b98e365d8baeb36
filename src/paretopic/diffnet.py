"""Dense float64 numeric primitives, their backward functions, and a
finite-difference gradient checker.

Each backward is validated against central finite differences in the test
suite; reference primitives used only by the tests live in tests/oracles.py.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def affine(x: Array, W: Array, b: Array) -> Array:
    """y = x @ W + b for x [B,n], W [n,m], b [1,m] (or [m])."""
    x, W, b = _as_f64(x), _as_f64(W), _as_f64(b)
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[0]:
        raise ValueError(f"affine shape mismatch: x {x.shape} vs W {W.shape}")
    b = b.reshape(-1)
    if b.shape[0] != W.shape[1]:
        raise ValueError(f"affine bias mismatch: W {W.shape} vs b {b.shape}")
    return x @ W + b


def sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x), from e = exp(-|x|) <= 1 so neither branch overflows."""
    x = _as_f64(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x: Array) -> Array:
    x = _as_f64(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_backward(x: Array, dy: Array) -> Array:
    return dy * sigmoid(x)


def softmax(x: Array) -> Array:
    """Rowwise softmax, stabilized by max subtraction."""
    x = _as_f64(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: Array, dy: Array) -> Array:
    """Backward through softmax given its output y."""
    return y * (dy - (y * dy).sum(axis=-1, keepdims=True))


def log_softmax(x: Array) -> Array:
    x = _as_f64(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def grad_check(loss_and_grad, params: Array, h: float = 1e-5,
               n_probes: int = 100, rng_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grad(p) must return (scalar loss, gradient array of p's shape).
    Probes n_probes random coordinates; relative error is
    |a - f| / max(1e-8, |a| + |f|).
    """
    params = _as_f64(params).copy()
    loss0, grad = loss_and_grad(params)
    if not np.isfinite(loss0) or not np.all(np.isfinite(grad)):
        raise NumericError("grad_check: non-finite loss or gradient at the base point")
    rng = np.random.default_rng(rng_seed)
    n = params.size
    coords = rng.choice(n, size=min(n_probes, n), replace=False)
    flat = params.ravel()
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = loss_and_grad(params)
        flat[i] = orig - h
        lm, _ = loss_and_grad(params)
        flat[i] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError(f"grad_check: non-finite loss at probe coordinate {i}")
        fd = (lp - lm) / (2.0 * h)
        a = grad.ravel()[i]
        err = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
        worst = max(worst, err)
    return worst
