"""Two-task gradient blending: min-norm Pareto solver and baseline strategies.

The ``mgda`` strategy solves the min-norm problem on loss-scaled gradients,
g_i / (L_i * ||g_i||), the ``loss+`` normaliser of Sener & Koltun (2018,
"Multi-Task Learning as Multi-Objective Optimization"), since the text of
the source paper, and so its own choice, is not at hand. Without it the
solver simply follows whichever raw gradient happens to be shorter, and the
raw scales here come from arbitrary reductions (InfoNCE summed over sets,
ELBO averaged over documents). The min-norm point of the scaled pair is
rescaled back to a convex combination of the raw gradients, so the step is
still a common descent direction of both losses.

Every reduction that feeds a decision or a diagnostic is a numpy sum rather
than a BLAS dot product, whose rounding depends on the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

DEFAULT_TIE_EPS = 1e-12
STRATEGIES = ("mgda", "linear", "random", "pcgrad")


@dataclass
class BlendDecision:
    alpha: float | None  # None for pcgrad (direction only)
    direction: Array
    strategy: str
    diagnostics: dict = field(default_factory=dict)


def _check_pair(g1: Array, g2: Array):
    g1 = np.asarray(g1, dtype=np.float64).ravel()
    g2 = np.asarray(g2, dtype=np.float64).ravel()
    if g1.shape != g2.shape:
        raise ValueError(f"gradient length mismatch: {g1.size} vs {g2.size}")
    return g1, g2


def _dot(a: Array, b: Array) -> float:
    """Inner product by numpy's own summation, independent of BLAS threads."""
    return float((a * b).sum())


def _norm(a: Array) -> float:
    return float(np.sqrt(_dot(a, a)))


def _min_norm(g1: Array, g2: Array, tie_eps: float) -> tuple[float, float]:
    """alpha_min_norm's weight and its denominator ||g1 - g2||^2."""
    diff = g1 - g2
    denom = _dot(diff, diff)
    if denom < tie_eps:
        return 0.5, denom
    return float(np.clip(-_dot(diff, g2) / denom, 0.0, 1.0)), denom


def alpha_min_norm(g1: Array, g2: Array, tie_eps: float = DEFAULT_TIE_EPS) -> float:
    """Exact minimizer of ||a g1 + (1-a) g2||^2 over a in [0, 1].

    a* = clip((g2 - g1) . g2 / ||g1 - g2||^2, 0, 1); near-identical gradients
    (||g1 - g2||^2 < tie_eps) return 0.5, where any a gives the same direction.
    """
    return _min_norm(*_check_pair(g1, g2), tie_eps)[0]


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


def blend(g1: Array, g2: Array, alpha: float) -> Array:
    """Elementwise convex combination alpha*g1 + (1-alpha)*g2."""
    g1, g2 = _check_pair(g1, g2)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return g2.copy()
    if alpha == 1.0:
        return g1.copy()
    return alpha * g1 + (1.0 - alpha) * g2


def _pcgrad_direction(g1: Array, g2: Array) -> Array:
    dot = _dot(g1, g2)
    if dot >= 0.0:
        return g1 + g2
    p1 = g1 - dot / _dot(g2, g2) * g2
    p2 = g2 - dot / _dot(g1, g1) * g1
    return p1 + p2


def strategy_dispatch(name: str, g1: Array, g2: Array, params: dict | None = None,
                      rng: np.random.Generator | None = None,
                      losses: tuple[float, float] | None = None) -> BlendDecision:
    """Pick a blend direction for (g1, g2) = (contrastive, ELBO) gradients.

    ``mgda`` needs the two losses for its loss+ scaling. With
    c_i = L_i * ||g_i||, the solver sees g_i / c_i and returns a; its
    min-norm point a g1/c1 + (1-a) g2/c2 is a positive multiple of
    beta g1 + (1-beta) g2 with beta = (a/c1) / (a/c1 + (1-a)/c2). The
    returned alpha is beta and the direction is blend(g1, g2, beta). If
    ``losses`` is None or either c_i is not positive (a zero loss or
    gradient) the solve runs on the raw pair and beta = a. The diagnostics
    flag a ``degenerate_pair`` when the solved pair is closer than tie_eps.
    ``linear``, ``random`` and ``pcgrad`` work on the raw gradients and
    ignore ``losses``.
    """
    g1, g2 = _check_pair(g1, g2)
    params = params or {}
    tie_eps = params.get("tie_eps", DEFAULT_TIE_EPS)
    n1, n2 = _norm(g1), _norm(g2)
    if name == "mgda":
        c1 = c2 = 0.0
        if losses is not None:
            c1, c2 = float(losses[0]) * n1, float(losses[1]) * n2
        if c1 > 0.0 and c2 > 0.0:
            a, denom = _min_norm(g1 / c1, g2 / c2, tie_eps)
            w1, w2 = a / c1, (1.0 - a) / c2
            alpha = w1 / (w1 + w2)
        else:
            alpha, denom = _min_norm(g1, g2, tie_eps)
        direction = blend(g1, g2, alpha)
    elif name == "linear":
        alpha = float(params.get("linear_alpha", 0.5))
        direction = blend(g1, g2, alpha)
    elif name == "random":
        if rng is None:
            raise ValueError("random strategy requires a seeded rng")
        alpha = float(rng.uniform(0.0, 1.0))
        direction = blend(g1, g2, alpha)
    elif name == "pcgrad":
        alpha = None
        direction = _pcgrad_direction(g1, g2)
    else:
        raise ValueError(f"unknown strategy {name!r}, expected one of {STRATEGIES}")
    diagnostics = {
        "g1_norm": n1,
        "g2_norm": n2,
        "direction_norm": _norm(direction),
        "g1_dot_g2": _dot(g1, g2),
    }
    if name == "mgda" and denom < tie_eps:
        diagnostics["degenerate_pair"] = True
    return BlendDecision(alpha=alpha, direction=direction, strategy=name,
                         diagnostics=diagnostics)
