"""Reference implementations used only as test oracles: each restates a
computation of the package one set, document or vector pair at a time, or
as the original pure-Python loop."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from paretopic import diffnet, setcl
from paretopic.corpus import BowDocument, Corpus
from paretopic.errors import DataError, NumericError

Array = np.ndarray


def affine_backward(x: Array, W: Array, dy: Array):
    """Given upstream dL/dy of y = x @ W + b, return (dL/dx, dL/dW, dL/db)."""
    dx = dy @ W.T
    dW = x.T @ dy
    db = dy.sum(axis=0)
    return dx, dW, db


def sigmoid(x: Array) -> Array:
    """Logistic function by boolean-mask indexing, one branch per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax_backward(lp: Array, dy: Array) -> Array:
    return dy - np.exp(lp) * dy.sum(axis=-1, keepdims=True)


def pool(rows: Array, mode: str) -> Array:
    """Elementwise reduction of rows [K,T] -> [T]."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"pool expects a nonempty [K,T] array, got shape {rows.shape}")
    if mode == "min":
        return rows.min(axis=0)
    if mode == "max":
        return rows.max(axis=0)
    if mode == "mean":
        return rows.mean(axis=0)
    if mode == "sum":
        return rows.sum(axis=0)
    raise ValueError(f"unknown pool mode {mode!r}, expected one of {setcl.POOL_MODES}")


def pool_backward(rows: Array, mode: str, dy: Array) -> Array:
    """Subgradient routing for pool: full credit to the first attaining row."""
    K, T = rows.shape
    drows = np.zeros_like(rows)
    if mode in ("min", "max"):
        idx = rows.argmin(axis=0) if mode == "min" else rows.argmax(axis=0)
        drows[idx, np.arange(T)] = dy
    elif mode == "mean":
        drows[:] = dy / K
    elif mode == "sum":
        drows[:] = dy
    else:
        raise ValueError(f"unknown pool mode {mode!r}")
    return drows


def cosine_sim_tau(u: Array, v: Array, tau: float) -> float:
    """Temperature-scaled cosine: (u.v) / (|u||v| tau)."""
    u, v = np.ravel(u).astype(np.float64), np.ravel(v).astype(np.float64)
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise NumericError("cosine_sim_tau: zero-norm vector")
    return float(u @ v / (nu * nv * tau))


def cosine_sim_tau_backward(u: Array, v: Array, tau: float, dout: float):
    """Return (dL/du, dL/dv) for f = (u.v)/(|u||v| tau)."""
    u, v = np.ravel(u).astype(np.float64), np.ravel(v).astype(np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise NumericError("cosine_sim_tau_backward: zero-norm vector")
    uh, vh = u / nu, v / nv
    c = uh @ vh
    du = dout * (vh - c * uh) / (nu * tau)
    dv = dout * (uh - c * vh) / (nv * tau)
    return du, dv


def theta_from_z(z: Array) -> Array:
    return diffnet.softmax(z)


def reconstruction_loss(x: Array, theta_doc: Array, dec) -> float:
    """-sum_v x_v log_softmax(theta beta + b_dec)_v for one document."""
    lp = diffnet.log_softmax(theta_doc.reshape(1, -1) @ dec.beta + dec.b_dec)
    return float(-(x * lp.ravel()).sum())


def kl_loss(mu: Array, logvar: Array) -> float:
    """Closed-form KL(q || N(0, I)) for one diagonal Gaussian."""
    return float(0.5 * np.sum(mu ** 2 + np.exp(logvar) - logvar - 1.0))


@dataclass
class SetRepresentation:
    s_phi_minus: Array  # anchor view under the negative-side pooling
    s_phi_plus: Array   # anchor view under the positive-side pooling
    s_minus: Array      # pooled negative-augmented members
    s_plus: Array       # pooled positive-augmented members


def set_representations(members, Z: Array, Zp: Array, Zm: Array,
                        pool_positive: str = setcl.DEFAULT_POOL_POSITIVE,
                        pool_negative: str = setcl.DEFAULT_POOL_NEGATIVE) -> SetRepresentation:
    """Pool one set's member topic vectors (row indices) from the three views."""
    idx = np.asarray(members)
    if idx.max() >= Z.shape[0] or idx.max() >= Zp.shape[0] or idx.max() >= Zm.shape[0]:
        raise ValueError(f"set member index {int(idx.max())} has no topic vector")
    return SetRepresentation(
        s_phi_minus=pool(Z[idx], pool_negative),
        s_phi_plus=pool(Z[idx], pool_positive),
        s_minus=pool(Zm[idx], pool_negative),
        s_plus=pool(Zp[idx], pool_positive),
    )


def setwise_infonce(reps: list[SetRepresentation], tau: float,
                    include_own_negative: bool = False) -> float:
    """Loss over precomputed set representations."""
    if not reps:
        raise ValueError("setwise_infonce: need at least one set")
    s_phip = np.stack([r.s_phi_plus for r in reps])
    s_plus = np.stack([r.s_plus for r in reps])
    s_phim = np.stack([r.s_phi_minus for r in reps])
    s_min = np.stack([r.s_minus for r in reps])
    loss, _ = setcl._loss_from_pooled(s_phip, s_plus, s_phim, s_min, tau,
                                      include_own_negative, want_grads=False)
    return loss


def tfidf_augment(aug, doc: BowDocument, polarity: str, replace_frac: float,
                  rng_seed: int) -> BowDocument:
    """``TfidfAugmenter.augment`` as a per-word Python loop with ``rng.choice``."""
    nnz = len(doc.counts)
    if nnz == 1:
        if polarity == "related":
            return BowDocument(counts=dict(doc.counts), label=doc.label)
        n_replace = 1
    else:
        n_replace = math.ceil(replace_frac * nnz)
    scored = sorted(aug.scores(doc).items(), key=lambda kv: (kv[1], kv[0]))
    if polarity == "related":
        victims = [w for w, _ in scored[:n_replace]]
    else:
        victims = [w for w, _ in scored[-n_replace:]]
    rng = np.random.default_rng(rng_seed)
    keep = set(doc.counts) - set(victims)
    new_counts = {w: doc.counts[w] for w in keep}
    candidates = [w for w in range(aug.vocab.size) if w not in doc.counts]
    for victim in victims:
        if candidates:
            pick = int(rng.choice(len(candidates)))
            repl = candidates.pop(pick)
        else:
            repl = victim
        new_counts[repl] = new_counts.get(repl, 0) + doc.counts[victim]
    return BowDocument(counts=new_counts, label=doc.label)


def cooccurrence_counts(corpus: Corpus) -> tuple[int, dict[int, int], dict[tuple[int, int], int]]:
    """``CooccurrenceStats.from_corpus`` as the original loop over every word
    pair of every document: (doc_count, word_doc_freq, pair_doc_freq)."""
    word_df: dict[int, int] = {}
    pair_df: dict[tuple[int, int], int] = {}
    D = 0
    for doc in corpus.documents:
        if doc.is_empty:
            continue
        D += 1
        words = sorted(doc.counts)
        for w in words:
            word_df[w] = word_df.get(w, 0) + 1
        for a, b in combinations(words, 2):
            pair_df[(a, b)] = pair_df.get((a, b), 0) + 1
    if D == 0:
        raise DataError("reference corpus has no nonempty documents")
    return D, word_df, pair_df
