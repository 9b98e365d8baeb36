"""Dense float64 numeric primitives, their backward functions, and a
finite-difference gradient checker.

Each backward is validated against central finite differences in the test
suite; reference primitives used only by the tests live in tests/oracles.py.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray


def buffer(ws: dict | None, name: str, shape: tuple, dtype=np.float64) -> Array:
    """An uninitialised array of shape and dtype, kept in the workspace ws under
    (name, shape, dtype) and handed out again on every later request, or fresh when
    ws is None. A loop that passes one ws to same-shaped calls allocates on its first
    pass only; an array from ws is valid until the next call that asks for it."""
    if ws is None:
        return np.empty(shape, dtype)
    key = (name, shape, dtype)
    if key not in ws:
        ws[key] = np.empty(shape, dtype)
    return ws[key]


def sigmoid(x: Array) -> Array:
    """1 / (1 + e^-x), as softplus_and_sigmoid derives it."""
    return softplus_and_sigmoid(x)[1]


def softplus_and_sigmoid(x: Array, ws: dict | None = None) -> tuple[Array, Array]:
    """softplus(x) = max(x, 0) + log1p(e) and its derivative sigmoid(x), 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere, from one e = exp(-|x|) <= 1, so neither
    overflows."""
    e = np.abs(x, out=buffer(ws, "softplus.e", x.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    sp = np.log1p(e, out=buffer(ws, "softplus", x.shape))
    sig = np.maximum(x, 0.0, out=buffer(ws, "sigmoid", x.shape))
    sp += sig
    # sigmoid's numerator: max(e, 1) = 1 where x >= 0, max(e, 0) = e elsewhere
    np.greater_equal(x, 0.0, out=sig)
    np.maximum(e, sig, out=sig)
    e += 1.0
    sig /= e
    return sp, sig


def softmax(x: Array) -> Array:
    """Rowwise softmax, stabilized by max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: Array, dy: Array) -> Array:
    """Backward through softmax given its output y."""
    return y * (dy - (y * dy).sum(axis=-1, keepdims=True))


def grad_check(loss_and_grad, params: Array, h: float = 1e-5,
               n_probes: int = 100, rng_seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grad(p) must return (scalar loss, gradient array of p's shape).
    Probes n_probes random coordinates; relative error is
    |a - f| / max(1e-8, |a| + |f|).
    """
    params = np.array(params, dtype=np.float64)
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
