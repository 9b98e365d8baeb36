"""VAE-style neural topic model: encoder, reparameterization, decoder, ELBO.

Forward passes cache intermediates so the hand-written backward passes in
elbo_with_grads / encoder_backward can run without recomputation.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from . import diffnet
from .corpus import BowDocument, Corpus
from .errors import DataError, NumericError

Array = np.ndarray

LOGVAR_CLAMP = 8.0
INIT_SCALE = 0.05
DEFAULT_HIDDEN = 100
# Documents per encode in doc_theta; the last block takes fewer than twice this.
THETA_BLOCK_ROWS = 256


def _views(flat: Array, shapes) -> list[Array]:
    """Views of the 1-D vector flat, one per shape, laid out back to back."""
    offsets = [0, *accumulate(math.prod(shape) for shape in shapes)]
    if flat.ndim != 1 or flat.size != offsets[-1]:
        raise ValueError(f"flat vector of shape {flat.shape} does not fit layout ({offsets[-1]})")
    return [flat[a:b].reshape(shape) for shape, a, b in zip(shapes, offsets, offsets[1:])]


class _Params:
    """Named float64 arrays, each a view of one vector `flat`, in field order. The fields
    are frozen: a write into one is a write into `flat`; rebinding one would detach it."""

    def __post_init__(self):
        flat = np.concatenate([np.ravel(a) for a in self.arrays()], dtype=np.float64)
        for f, view in zip(fields(self), _views(flat, [np.shape(a) for a in self.arrays()])):
            object.__setattr__(self, f.name, view)
        object.__setattr__(self, "flat", flat)

    def __reduce__(self):  # copy, deepcopy and pickle rebuild the views of a new vector
        return type(self), tuple(self.arrays())

    def arrays(self) -> list[Array]:
        return [getattr(self, f.name) for f in fields(self)]

    def copy(self):
        return type(self)(*self.arrays())


@dataclass(frozen=True)
class EncoderParams(_Params):
    W1: Array
    b1: Array
    W_mu: Array
    b_mu: Array
    W_lv: Array
    b_lv: Array


@dataclass(frozen=True)
class DecoderParams(_Params):
    beta: Array
    b_dec: Array


def encoder_shapes(V: int, H: int, T: int):
    return [(V, H), (H,), (H, T), (T,), (H, T), (T,)]


def decoder_shapes(V: int, T: int):
    return [(T, V), (V,)]


def init_params(V: int, H: int, T: int, rng: np.random.Generator):
    """Uniform [-0.05, 0.05] weights, zero biases."""
    def init(shapes):
        return [rng.uniform(-INIT_SCALE, INIT_SCALE, size=s) if len(s) == 2 else np.zeros(s)
                for s in shapes]

    return EncoderParams(*init(encoder_shapes(V, H, T))), DecoderParams(*init(decoder_shapes(V, T)))


def pack_encoder(enc: EncoderParams) -> Array:
    return enc.flat.copy()


def unpack_encoder(flat: Array, V: int, H: int, T: int) -> EncoderParams:
    return EncoderParams(*_views(np.asarray(flat), encoder_shapes(V, H, T)))


def pack_decoder(dec: DecoderParams) -> Array:
    return dec.flat.copy()


def unpack_decoder(flat: Array, V: int, T: int) -> DecoderParams:
    return DecoderParams(*_views(np.asarray(flat), decoder_shapes(V, T)))


def docs_to_matrix(docs: Iterable[BowDocument], V: int) -> Array:
    """Counts [B, V] of docs (a list or a generator) in the narrowest unsigned dtype
    that holds them, filled by one scatter; raises on an empty (untrainable) document."""
    lengths, words, counts = [], [], []
    for i, doc in enumerate(docs):
        if doc.is_empty:
            raise DataError(f"document {i} has no in-vocabulary tokens")
        lengths.append(len(doc.counts))
        words.extend(doc.counts)
        counts.extend(doc.counts.values())
    X = np.zeros((len(lengths), V), dtype=np.min_scalar_type(max(counts, default=0)))
    X[np.repeat(np.arange(len(lengths)), lengths), words] = counts
    return X


@dataclass
class EncodeCache:
    Xn: Array       # L1-normalized counts [B,V]
    a1: Array       # pre-activation of the hidden layer [B,H]
    h: Array        # softplus(a1)
    mu: Array       # [B,T]
    lv_raw: Array   # pre-clamp log-variance
    logvar: Array   # clamped to [-8, 8]


def encode_batch(Xc: Array, enc: EncoderParams) -> EncodeCache:
    sums = Xc.sum(axis=1, keepdims=True)
    if np.any(sums <= 0):
        raise DataError("encode: batch contains an empty document")
    Xn = Xc / sums
    a1 = Xn @ enc.W1 + enc.b1
    h = diffnet.softplus(a1)
    mu = h @ enc.W_mu + enc.b_mu
    lv_raw = h @ enc.W_lv + enc.b_lv
    logvar = np.clip(lv_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    return EncodeCache(Xn=Xn, a1=a1, h=h, mu=mu, lv_raw=lv_raw, logvar=logvar)


def encoder_backward(cache: EncodeCache, enc: EncoderParams,
                     dmu: Array, dlogvar: Array) -> Array:
    """Backward through the encoder; returns the gradient in the layout of enc.flat."""
    grad = np.empty(enc.flat.size)
    dW1, db1, dW_mu, db_mu, dW_lv, db_lv = _views(grad, [a.shape for a in enc.arrays()])
    mask = (np.abs(cache.lv_raw) < LOGVAR_CLAMP).astype(float)
    dlv_raw = dlogvar * mask
    np.matmul(cache.h.T, dmu, out=dW_mu)
    dmu.sum(axis=0, out=db_mu)
    np.matmul(cache.h.T, dlv_raw, out=dW_lv)
    dlv_raw.sum(axis=0, out=db_lv)
    dh = dmu @ enc.W_mu.T + dlv_raw @ enc.W_lv.T
    da1 = diffnet.softplus_backward(cache.a1, dh)
    np.matmul(cache.Xn.T, da1, out=dW1)
    da1.sum(axis=0, out=db1)
    return grad


def reparameterize(mu: Array, logvar: Array, eps: Array) -> Array:
    """z = mu + exp(logvar/2) * eps, with eps held constant for differentiation."""
    return mu + np.exp(logvar / 2.0) * eps


def reparameterize_backward(dz: Array, eps: Array, logvar: Array):
    """Map dL/dz to (dL/dmu, dL/dlogvar); dL/dmu is dz itself, not a copy."""
    return dz, dz * eps * 0.5 * np.exp(logvar / 2.0)


@dataclass
class ElboResult:
    loss: float
    recon: float
    kl: float
    g_enc: Array
    g_dec: Array


def elbo_with_grads(Xc: Array, enc: EncoderParams, dec: DecoderParams,
                    eps: Array, cache: EncodeCache | None = None) -> ElboResult:
    """Mean over the batch of (reconstruction + KL), with gradients laid out as enc.flat, dec.flat.

    eps is the fixed standard-normal draw for the reparameterized sample.
    """
    B = Xc.shape[0]
    if cache is None:
        cache = encode_batch(Xc, enc)
    mu, logvar = cache.mu, cache.logvar
    z = reparameterize(mu, logvar, eps)
    theta = diffnet.softmax(z)
    logits = theta @ dec.beta + dec.b_dec
    lp = diffnet.log_softmax(logits)
    recon = float(-(Xc * lp).sum() / B)
    var = np.exp(logvar)
    kl = float(0.5 * np.sum(mu ** 2 + var - logvar - 1.0) / B)
    loss = recon + kl
    if not np.isfinite(loss):
        raise NumericError("elbo_loss is non-finite")

    # reconstruction backward
    row_tot = Xc.sum(axis=1, keepdims=True)
    dlogits = (np.exp(lp) * row_tot - Xc) / B
    g_dec = np.empty(dec.flat.size)
    dbeta, db_dec = _views(g_dec, [a.shape for a in dec.arrays()])
    np.matmul(theta.T, dlogits, out=dbeta)
    dlogits.sum(axis=0, out=db_dec)
    dtheta = dlogits @ dec.beta.T
    dz = diffnet.softmax_backward(theta, dtheta)
    dmu, dlogvar = reparameterize_backward(dz, eps, logvar)
    # KL backward
    dmu += mu / B
    dlogvar += 0.5 * (var - 1.0) / B
    g_enc = encoder_backward(cache, enc, dmu, dlogvar)
    return ElboResult(loss=loss, recon=recon, kl=kl, g_enc=g_enc, g_dec=g_dec)


def top_words(dec: DecoderParams, vocab_words: list[str], n: int) -> list[list[int]]:
    """Top-n word indices per topic by beta weight, lexicographic tiebreak:
    one stable sort of -beta over the columns taken in lexicographic order."""
    T, V = dec.beta.shape
    if n > V:
        raise ValueError(f"top_words: n={n} exceeds vocabulary size {V}")
    lex = np.array(sorted(range(V), key=vocab_words.__getitem__), dtype=np.int64)
    order = np.argsort(-dec.beta[:, lex], axis=1, kind="stable")[:, :n]
    return lex[order].tolist()


def doc_theta(corpus: Corpus, enc: EncoderParams) -> tuple[Array, list[int]]:
    """Mean-path (eps = 0) theta_doc for every nonempty document.

    Encodes THETA_BLOCK_ROWS documents at a time, so memory holds one
    block's counts, never documents × vocabulary. The remainder joins the
    last block: a product over a few rows can round differently from one over
    many, while blocks this tall round as one whole-corpus encode does
    (tested at 1 and 2 BLAS threads).
    """
    keep = corpus.trainable_indices()
    if not keep:
        raise DataError("corpus has no nonempty documents")
    starts = range(0, max(len(keep) // THETA_BLOCK_ROWS, 1) * THETA_BLOCK_ROWS,
                   THETA_BLOCK_ROWS)
    theta = np.empty((len(keep), enc.b_mu.size))
    for lo, hi in zip(starts, [*starts[1:], len(keep)]):
        Xc = docs_to_matrix((corpus.documents[i] for i in keep[lo:hi]),
                            corpus.vocabulary.size)
        theta[lo:hi] = diffnet.softmax(encode_batch(Xc, enc).mu)
    return theta, keep
