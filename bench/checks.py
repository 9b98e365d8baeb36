"""Correctness checks, computed apart from the program.

Each check either recomputes a figure from the generator's own token counts
(never from the program's vocabulary vectors or metrics code), or tests a
property the method must have. None compares against a stored copy of an
earlier output.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

import inputs

NPMI_EPS = 1e-12  # the smoothing in the NPMI definition the program documents


def read_topics(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


def npmi_reference(topics: list[list[str]], counts: np.ndarray) -> float:
    """Mean NPMI of the topics over whole-document co-occurrence.

    Document frequencies come from a binary document-term matrix of the
    generated reference counts, and every pair count from one product of
    its topic-word columns.
    """
    present = counts > 0
    present = present[present.any(axis=1)]
    D = present.shape[0]
    per_topic = []
    for words in topics:
        cols = present[:, [int(w[1:]) for w in words]].astype(np.float64)
        co = cols.T @ cols
        vals = []
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                pi, pj, pij = co[i, i] / D, co[j, j] / D, co[i, j] / D
                if pi == 0.0 or pj == 0.0:
                    vals.append(-1.0)
                else:
                    vals.append(math.log((pij + NPMI_EPS) / (pi * pj))
                                / -math.log(pij + NPMI_EPS))
        per_topic.append(sum(vals) / len(vals))
    return sum(per_topic) / len(per_topic)


def diversity_reference(topics: list[list[str]]) -> float:
    return len({w for t in topics for w in t}) / sum(len(t) for t in topics)


def blocks_covered(topics: list[list[str]], min_in_block: int = 6) -> int:
    """Planted blocks that some topic puts >= min_in_block of its top words in."""
    covered = set()
    for words in topics:
        blocks = np.bincount([inputs.block_of(w) for w in words])
        if blocks.max() >= min_in_block:
            covered.add(int(blocks.argmax()))
    return len(covered)


def theta_rows_ok(path: str, n_rows: int, T: int) -> bool:
    """Every row of the classify CSV is a distribution over T topics."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n_rows:
        return False
    theta = np.array([[float(v) for v in row[:T]] for row in rows])
    return bool(np.all(theta >= 0.0) and np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-9))


def alignment_is(path: str, perm: np.ndarray) -> bool:
    """``align`` matched every topic t of a model to topic perm[t] of its copy."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    pairs = {(r["topic_a"], r["topic_b"]) for r in report}
    return pairs == {(t, int(perm[t])) for t in range(len(perm))}


def log_is_sane(path: str) -> bool:
    """Every training record is finite, with alpha in [0, 1]."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        values = [v for k, v in rec.items() if k != "step"]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return False
        if not 0.0 <= rec["alpha"] <= 1.0:
            return False
    return bool(records)


def epoch_mean_elbo(path: str, steps_per_epoch: int) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        elbo = [json.loads(line)["elbo"] for line in fh]
    return [float(np.mean(elbo[i:i + steps_per_epoch]))
            for i in range(0, len(elbo), steps_per_epoch)]


def directional_gradient_errors(loss_and_grad, params: np.ndarray, rng,
                                h: float = 1e-5) -> list[float]:
    """Relative gap between g.u and the central difference along unit u.

    The directions are the analytic gradient g and g plus a random vector of
    the same length. Both touch every coordinate, so the probe covers the
    whole gradient rather than a sample of coordinates, and both keep g.u
    near |g|, so the rounding error of the difference stays far below the
    tolerance; a purely random direction can make g.u arbitrarily small.
    """
    _, grad = loss_and_grad(params)
    g_hat = grad / np.linalg.norm(grad)
    r = rng.standard_normal(params.size)
    errors = []
    for u in (g_hat, g_hat + r / np.linalg.norm(r)):
        u = u / np.linalg.norm(u)
        fd = (loss_and_grad(params + h * u)[0] - loss_and_grad(params - h * u)[0]) / (2 * h)
        analytic = float(grad @ u)
        errors.append(abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-12))
    return errors


def encoder_gradient_errors(state, X_views, rng, set_size=4, shuffles=2, tau=0.2):
    """Central-difference probe of the ELBO and setwise InfoNCE encoder gradients.

    X_views holds the count matrices of the anchor, positive and negative
    views of one batch. The InfoNCE gradient is assembled here by the chain
    rule through the reparameterised sample of each view; the program
    supplies only the per-function forward and backward passes.
    """
    from paretopic import ntm, setcl

    V, H, T = state.V, state.H, state.T
    B = X_views[0].shape[0]
    eps = [rng.standard_normal((B, T)) for _ in X_views]
    members = np.concatenate(
        [rng.permutation(B)[:B // set_size * set_size].reshape(-1, set_size)
         for _ in range(shuffles)])

    def elbo(flat):
        enc = ntm.unpack_encoder(flat, V, H, T)
        res = ntm.elbo_with_grads(X_views[0], enc, state.dec, eps[0])
        return res.loss, res.g_enc

    def infonce(flat):
        enc = ntm.unpack_encoder(flat, V, H, T)
        caches = [ntm.encode_batch(X, enc) for X in X_views]
        zs = [c.mu + np.exp(c.logvar / 2.0) * e for c, e in zip(caches, eps)]
        loss, *dzs = setcl.infonce_with_grads(*zs, members, tau)
        grad = sum(ntm.encoder_backward(c, enc, dz, dz * e * 0.5 * np.exp(c.logvar / 2.0))
                   for c, e, dz in zip(caches, eps, dzs))
        return loss, grad

    flat = ntm.pack_encoder(state.enc)
    return (directional_gradient_errors(elbo, flat, rng),
            directional_gradient_errors(infonce, flat, rng))
