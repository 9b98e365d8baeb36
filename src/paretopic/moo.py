"""Two-task gradient blending: the min-norm Pareto solver and a fixed linear weighting.

Every decision is read off the pair's Gram matrix G = [[g1.g1, g1.g2],
[g1.g2, g2.g2]]: three numpy sums rather than BLAS dot products, whose
rounding depends on the BLAS thread count. ``mgda`` solves the min-norm
problem on loss-scaled gradients g_i / c_i, c_i = L_i * ||g_i||, the
``loss+`` normaliser of Sener & Koltun (2018, "Multi-Task Learning as
Multi-Objective Optimization"), since the source paper's own choice is not
at hand. Without it the solver follows whichever raw gradient is shorter,
and the raw scales come from arbitrary reductions (InfoNCE summed over sets,
ELBO averaged over documents). The scaled pair's Gram matrix is
G_ij / (c_i c_j), and its min-norm point, rescaled to a convex combination
of the raw gradients, is still a common descent direction of both losses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffnet import buffer

Array = np.ndarray

TIE_EPS = 1e-12  # a pair closer than this (||g1 - g2||^2) is a tie
STRATEGIES = ("mgda", "linear")


@dataclass
class BlendDecision:
    alpha: float
    direction: Array
    diagnostics: dict = field(default_factory=dict)


def _check_pair(g1: Array, g2: Array):
    g1 = np.asarray(g1, dtype=np.float64).ravel()
    g2 = np.asarray(g2, dtype=np.float64).ravel()
    if g1.shape != g2.shape:
        raise ValueError(f"gradient length mismatch: {g1.size} vs {g2.size}")
    return g1, g2


def _dot(a: Array, b: Array, ws: dict | None = None) -> float:
    """Inner product by numpy's own summation, independent of BLAS threads."""
    return float(np.multiply(a, b, out=buffer(ws, "moo.product", a.shape)).sum())


def _gram(g1: Array, g2: Array, ws: dict | None = None) -> tuple[float, float, float]:
    """The pair's Gram entries (g1.g1, g1.g2, g2.g2)."""
    return _dot(g1, g1, ws), _dot(g1, g2, ws), _dot(g2, g2, ws)


def _min_norm(g11: float, g12: float, g22: float):
    """Min-norm weights (a, 1 - a) from the Gram entries, and ||g1 - g2||^2;
    1 - a has its own numerator, so it keeps its digits when a is near 1."""
    denom = g11 - 2.0 * g12 + g22
    if denom < TIE_EPS:
        return 0.5, 0.5, denom
    a, b = (g22 - g12) / denom, (g11 - g12) / denom
    if min(a, b) <= 0.0:  # the min-norm point is an endpoint
        a, b = (0.0, 1.0) if a <= 0.0 else (1.0, 0.0)
    return a, b, denom


def alpha_min_norm(g1: Array, g2: Array) -> float:
    """Exact minimizer of ||a g1 + (1-a) g2||^2 over a in [0, 1].

    a* = clip((g2.g2 - g1.g2) / ||g1 - g2||^2, 0, 1); near-identical pairs
    (||g1 - g2||^2 < TIE_EPS) return 0.5, where any a gives the same direction.
    """
    return _min_norm(*_gram(*_check_pair(g1, g2)))[0]


def alpha_grid_oracle(g1: Array, g2: Array, steps: int = 10_000) -> float:
    """Brute-force minimizer of ||a g1 + (1-a) g2||^2 over a uniform grid."""
    if steps < 100:
        raise ValueError(f"grid oracle needs steps >= 100, got {steps}")
    g1, g2 = _check_pair(g1, g2)
    # h(a) = a^2|g1|^2 + 2a(1-a) g1.g2 + (1-a)^2|g2|^2, evaluated on the grid
    alphas = np.linspace(0.0, 1.0, steps + 1)
    n1 = g1 @ g1
    n2 = g2 @ g2
    dot = g1 @ g2
    h = alphas ** 2 * n1 + 2 * alphas * (1 - alphas) * dot + (1 - alphas) ** 2 * n2
    return float(alphas[int(h.argmin())])


def strategy_dispatch(name: str, g1: Array, g2: Array, linear_alpha: float = 0.5,
                      losses: tuple[float, float] | None = None,
                      ws: dict | None = None) -> BlendDecision:
    """Pick a blend direction for (g1, g2) = (contrastive, ELBO) gradients:
    each strategy picks a convex pair (alpha, 1 - alpha) with alpha in [0, 1],
    and the direction is alpha g1 + (1 - alpha) g2.

    ``linear`` takes ``linear_alpha`` and ignores ``losses``. ``mgda`` needs
    the two losses for its loss+ scaling:
    with c_i = L_i sqrt(g_ii), it solves the Gram entries g_ij / (c_i c_j) for
    a. The min-norm point a g1/c1 + (1-a) g2/c2 is a positive multiple of
    beta g1 + (1-beta) g2 with beta = (a/c1) / (a/c1 + (1-a)/c2), and alpha is
    beta. If ``losses`` is None or either c_i is not positive (a zero loss or
    gradient) the solve runs on G itself and beta = a. The diagnostics flag
    a ``degenerate_pair`` when the solved pair is closer than TIE_EPS.
    """
    g1, g2 = _check_pair(g1, g2)
    g11, g12, g22 = _gram(g1, g2, ws)
    n1, n2 = float(np.sqrt(g11)), float(np.sqrt(g22))
    if name == "mgda":
        c1 = c2 = 0.0
        if losses is not None:
            c1, c2 = float(losses[0]) * n1, float(losses[1]) * n2
        if c1 > 0.0 and c2 > 0.0:
            a, b, denom = _min_norm(g11 / (c1 * c1), g12 / (c1 * c2), g22 / (c2 * c2))
            alpha = (a / c1) / (a / c1 + b / c2)
        else:
            alpha, _, denom = _min_norm(g11, g12, g22)
    elif name == "linear":
        alpha = float(linear_alpha)
    else:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    direction = np.multiply(g1, alpha, out=buffer(ws, "moo.direction", g1.shape))
    direction += np.multiply(g2, 1.0 - alpha, out=buffer(ws, "moo.product", g2.shape))
    diagnostics = {
        "g1_norm": n1,
        "g2_norm": n2,
        "direction_norm": float(np.sqrt(_dot(direction, direction, ws))),
        "g1_dot_g2": g12,
    }
    if name == "mgda" and denom < TIE_EPS:
        diagnostics["degenerate_pair"] = True
    return BlendDecision(alpha=alpha, direction=direction, diagnostics=diagnostics)
