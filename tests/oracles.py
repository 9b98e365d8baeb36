"""Reference implementations used only as test oracles: each restates a
computation of the package one set, document or vector pair at a time, or
as the original pure-Python loop."""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from paretopic import diffnet, evaluate, moo, ntm, setcl, trainer
from paretopic.corpus import BowDocument, Corpus, Vocabulary, vectorize
from paretopic.errors import DataError, NumericError

Array = np.ndarray

POOL_MODES = ("min", "max", "mean", "sum")  # the reference pooling's; setcl pools by min/max


def sigmoid(x: Array) -> Array:
    """Logistic function by boolean-mask indexing, one branch per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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
    raise ValueError(f"unknown pool mode {mode!r}, expected one of {POOL_MODES}")


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


def pool_members(A: Array, mode: str):
    """Pool gathered set members A [N,K,T] -> ([N,T], argindices [N,T] for
    min/max, else None): ``setcl``'s pooling before it returned the rows."""
    if mode in ("min", "max"):
        arg = A.argmin(axis=1) if mode == "min" else A.argmax(axis=1)
        return np.take_along_axis(A, arg[:, None, :], axis=1)[:, 0, :], arg
    if mode == "mean":
        return A.mean(axis=1), None
    if mode == "sum":
        return A.sum(axis=1), None
    raise ValueError(f"unknown pool mode {mode!r}")


def route_back(dZv: Array, members: Array, arg, dS: Array, mode: str) -> None:
    """Scatter pooled gradients dS [N,T] into dZv, one branch per pool mode."""
    N, K = members.shape
    T = dS.shape[1]
    if mode in ("min", "max"):
        rows = np.take_along_axis(members, arg, axis=1)  # [N,T] batch rows
        np.add.at(dZv, (rows, np.broadcast_to(np.arange(T), (N, T))), dS)
    elif mode == "mean":
        np.add.at(dZv, members, np.broadcast_to(dS[:, None, :] / K, (N, K, T)))
    else:  # sum
        np.add.at(dZv, members, np.broadcast_to(dS[:, None, :], (N, K, T)))


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


def min_norm(g1: Array, g2: Array, tie_eps: float):
    """The min-norm weights (a, 1 - a) and their denominator ||g1 - g2||^2,
    from the difference vector in ``np.longdouble``; 1 - a is solved from its
    own numerator, so it keeps its digits when a is close to 1."""
    diff = g1.astype(np.longdouble) - g2
    denom = (diff * diff).sum()
    if denom < tie_eps:
        return 0.5, 0.5, denom
    a, b = -(diff * g2).sum() / denom, (diff * g1).sum() / denom
    if min(a, b) <= 0.0:  # the min-norm point is an endpoint
        a, b = (0.0, 1.0) if a <= 0.0 else (1.0, 0.0)
    return a, b, denom


def mgda_beta(g1: Array, g2: Array, losses, tie_eps: float) -> tuple[float, float]:
    """``mgda``'s (beta, denominator) solved in ``np.longdouble`` on explicitly
    scaled copies g_i / c_i, c_i = L_i ||g_i||, or on the raw pair when losses
    is None."""
    g1, g2 = g1.astype(np.longdouble), g2.astype(np.longdouble)
    if losses is None:
        a, _, denom = min_norm(g1, g2, tie_eps)
        return float(a), float(denom)
    c1 = np.longdouble(losses[0]) * np.sqrt((g1 * g1).sum())
    c2 = np.longdouble(losses[1]) * np.sqrt((g2 * g2).sum())
    a, b, denom = min_norm(g1 / c1, g2 / c2, tie_eps)
    w1, w2 = a / c1, b / c2
    return float(w1 / (w1 + w2)), float(denom)


def blend(g1: Array, g2: Array, alpha: float) -> Array:
    """The convex combination alpha g1 + (1 - alpha) g2, written out."""
    return alpha * g1 + (1.0 - alpha) * g2


def align_topics(scores: list[list[float]], threshold: float) -> list[tuple[int, int, float]]:
    """``evaluate.align_topics`` on precomputed JS scores as the original loop:
    each round scans the free rows and columns for the lowest score, ties
    going to the first (i, j)."""
    free_a, free_b = set(range(len(scores))), set(range(len(scores[0]) if scores else 0))
    matching: list[tuple[int, int, float]] = []
    while free_a and free_b:
        best = None
        for i in sorted(free_a):
            for j in sorted(free_b):
                if best is None or scores[i][j] < best[2]:
                    best = (i, j, scores[i][j])
        if best[2] > threshold:
            break
        matching.append(best)
        free_a.discard(best[0])
        free_b.discard(best[1])
    return matching


def ridge_proxy_f1(features: Array, y: Array, seed: int) -> float:
    """``evaluate.ridge_proxy_f1`` for integer labels 0..C-1 on the same seeded
    split, its ridge problem solved as the stacked least-squares system
    [[X 1], [√λ I]] W = [[Y], [0]] over the training rows."""
    n, d = features.shape
    C = int(y.max()) + 1
    order = np.random.default_rng(seed).permutation(n)
    n_test = max(1, int(evaluate.PROXY_HOLDOUT_FRAC * n))
    test, train = order[:n_test], order[n_test:]
    X1 = np.hstack([features, np.ones((n, 1))])
    A = np.vstack([X1[train], math.sqrt(evaluate.PROXY_L2) * np.eye(d + 1)])
    Y = np.vstack([np.eye(C)[y[train]], np.zeros((d + 1, C))])
    W = np.linalg.lstsq(A, Y, rcond=None)[0]
    return evaluate.macro_f1(y[test], (X1[test] @ W).argmax(axis=1), C)


def theta_from_z(z: Array) -> Array:
    return diffnet.softmax(z)


def reconstruction_loss(x: Array, theta_doc: Array, dec) -> float:
    """-sum_v x_v log_softmax(theta beta + b_dec)_v for one document."""
    lp = log_softmax(theta_doc.reshape(1, -1) @ dec.beta + dec.b_dec)
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
                        pool_positive: str = "min",
                        pool_negative: str = "max") -> SetRepresentation:
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


def setwise_infonce(reps: list[SetRepresentation], tau: float) -> float:
    """Loss over precomputed set representations."""
    if not reps:
        raise ValueError("setwise_infonce: need at least one set")
    pooled = (np.stack([getattr(r, name) for r in reps])
              for name in ("s_phi_minus", "s_phi_plus", "s_minus", "s_plus"))
    loss, _ = setcl._loss_from_pooled(*pooled, tau, want_grads=False)
    return loss


def setwise_infonce_grads(Z: Array, Zp: Array, Zm: Array, members, tau: float,
                          pool_positive: str, pool_negative: str):
    """(dL/dZ, dL/dZp, dL/dZm) of the setwise InfoNCE, one set and one cosine
    pair at a time, through ``cosine_sim_tau_backward`` and ``pool_backward``."""
    reps = [set_representations(m, Z, Zp, Zm, pool_positive, pool_negative) for m in members]
    N, T = len(reps), Z.shape[1]
    d_phim, d_phip, d_min, d_plus = (np.zeros((N, T)) for _ in range(4))
    for n, r in enumerate(reps):
        negs = [j for j in range(N) if j != n]
        f = np.array([cosine_sim_tau(r.s_phi_plus, r.s_plus, tau)]
                     + [cosine_sim_tau(r.s_phi_minus, reps[j].s_minus, tau) for j in negs])
        p = np.exp(f - f.max())
        p /= p.sum()
        du, dv = cosine_sim_tau_backward(r.s_phi_plus, r.s_plus, tau, p[0] - 1.0)
        d_phip[n] += du
        d_plus[n] += dv
        for j, p_j in zip(negs, p[1:]):
            du, dv = cosine_sim_tau_backward(r.s_phi_minus, reps[j].s_minus, tau, p_j)
            d_phim[n] += du
            d_min[j] += dv
    dZ, dZp, dZm = np.zeros_like(Z), np.zeros_like(Zp), np.zeros_like(Zm)
    for n, m in enumerate(np.asarray(members)):
        dZ[m] += pool_backward(Z[m], pool_negative, d_phim[n])
        dZ[m] += pool_backward(Z[m], pool_positive, d_phip[n])
        dZm[m] += pool_backward(Zm[m], pool_negative, d_min[n])
        dZp[m] += pool_backward(Zp[m], pool_positive, d_plus[n])
    return dZ, dZp, dZm


def tfidf_idf(corpus) -> Array:
    """``TfidfAugmenter``'s idf from document frequencies counted word by word."""
    docfreq = np.zeros(corpus.vocabulary.size)
    n_docs = 0
    for doc in corpus.documents:
        if doc.counts:
            n_docs += 1
            for w in doc.counts:
                docfreq[w] += 1
    return np.log(n_docs / np.maximum(docfreq, 1.0))


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


def top_words(beta: Array, vocab_words: list[str], n: int) -> list[list[int]]:
    """``ntm.top_words`` as one Python sort per topic on (-beta, word)."""
    T, V = beta.shape
    return [sorted(range(V), key=lambda w: (-beta[t, w], vocab_words[w]))[:n]
            for t in range(T)]


def doc_theta(corpus: Corpus, enc) -> tuple[Array, list[int]]:
    """``ntm.doc_theta`` as one encode of every nonempty document at once."""
    keep = [i for i, doc in enumerate(corpus.documents) if not doc.is_empty]
    X = docs_to_matrix([corpus.documents[i] for i in keep], corpus.vocabulary.size)
    return diffnet.softmax(ntm.encode_batch(X, enc).mu), keep


def tokenize(text: str) -> list[str]:
    """The package's tokens as one regex pass over the whole text: lowercased
    runs of [0-9a-z], without one-character and all-digit tokens."""
    tokens = re.findall(r"[0-9a-z]+", text.lower())
    return [t for t in tokens if len(t) >= 2 and not re.fullmatch(r"[0-9]+", t)]


def document_frequencies(texts: list[str]) -> Counter:
    """Number of texts each token occurs in, from each text's set of tokens,
    before any df filter."""
    return Counter(t for text in texts for t in set(tokenize(text)))


def vectorize_counts(text: str, vocab: Vocabulary) -> dict[int, int]:
    """``vectorize(text, vocab).counts`` as the original loop over every token."""
    counts: dict[int, int] = {}
    for tok in tokenize(text):
        idx = vocab.index.get(tok)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return counts


def docs_to_matrix(docs: list[BowDocument], V: int) -> Array:
    """Float64 count matrix [B, V], one Python assignment per entry."""
    X = np.zeros((len(docs), V))
    for i, doc in enumerate(docs):
        if doc.is_empty:
            raise DataError(f"document {i} has no in-vocabulary tokens")
        for w, c in doc.counts.items():
            X[i, w] = c
    return X


def prepare_training_data(corpus: Corpus, triples) -> trainer.TrainData:
    """``trainer.prepare_training_data`` with float64 counts, every view
    vectorised or looked up word by word and held before one per-entry fill."""
    vocab = corpus.vocabulary
    by_anchor = {t.anchor_id: t for t in triples}
    doc_ids = corpus.trainable_indices()
    docs = [corpus.documents[i] for i in doc_ids]
    for field in ("positive_text", "negative_text"):
        for i in doc_ids:
            view = getattr(by_anchor[i], field)
            if isinstance(view, str):
                docs.append(vectorize(view, vocab))
            else:
                counts: dict[int, int] = {}
                for word, c in view.items():
                    counts[vocab.words.index(word)] = c
                docs.append(BowDocument(counts=counts))
    X = docs_to_matrix(docs, vocab.size)
    return trainer.TrainData(doc_ids=doc_ids, X=X.reshape(3, len(doc_ids), vocab.size))


def train_step_per_view(batch_rows: Array, state, data, config, step: int) -> dict:
    """``trainer.train_step`` one view at a time: three encodes and four
    encoder backwards on fresh arrays, the reparameterisation written out."""
    B = len(batch_rows)
    rng = state.rng
    Xb = data.Xc[batch_rows].astype(np.float64)
    views = []  # (cache, eps, z) of the anchor, positive and negative views
    for X in (Xb, data.Xp[batch_rows], data.Xm[batch_rows]):
        cache = ntm.encode_batch(X, state.enc)
        eps = rng.standard_normal(cache.mu.shape)
        views.append((cache, eps, cache.mu + np.exp(cache.logvar / 2.0) * eps))

    members = setcl.build_sets(setcl.build_index_matrix(B, config.shuffle_count, rng),
                               config.set_size)
    inf_loss, *dzs = setcl.infonce_with_grads(*(z for _, _, z in views), members,
                                              config.temperature)
    g_inf, g_pos, g_neg = (
        ntm.encoder_backward(cache, state.enc, dz,
                             dz * eps * 0.5 * np.exp(cache.logvar / 2.0))
        for (cache, eps, _), dz in zip(views, dzs))
    g_inf += g_pos
    g_inf += g_neg

    cache_x, eps_x, _ = views[0]
    elbo = ntm.elbo_with_grads(Xb, state.enc, state.dec, eps_x, cache=cache_x)
    decision = moo.strategy_dispatch(config.moo_strategy, g_inf, elbo.g_enc,
                                     linear_alpha=config.linear_alpha,
                                     losses=(inf_loss, elbo.loss))
    np.subtract(state.enc.flat, config.learning_rate * decision.direction, out=state.enc.flat)
    np.subtract(state.dec.flat, config.learning_rate * elbo.g_dec, out=state.dec.flat)
    return {
        "step": step,
        "elbo": elbo.loss,
        "recon": elbo.recon,
        "kl": elbo.kl,
        "infonce": inf_loss,
        "alpha": decision.alpha,
        "g_infonce_norm": decision.diagnostics["g1_norm"],
        "g_elbo_norm": decision.diagnostics["g2_norm"],
        "direction_norm": decision.diagnostics["direction_norm"],
    }
