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


def _views(flat: Array, shapes, ndim: int = 1) -> list[Array]:
    """Views of the last axis of flat, one per shape, laid out back to back; flat has
    ndim axes, and every view keeps the leading ones."""
    offsets = [0, *accumulate(math.prod(shape) for shape in shapes)]
    if flat.ndim != ndim or flat.shape[-1] != offsets[-1]:
        raise ValueError(f"flat vector of shape {flat.shape} does not fit layout ({offsets[-1]})")
    return [flat[..., a:b].reshape(*flat.shape[:-1], *shape)
            for shape, a, b in zip(shapes, offsets, offsets[1:])]


def _gradient(params, rows: tuple, ws: dict | None, name: str):
    """A gradient [*rows, params.flat.size] laid out as params.flat, and its views, one
    per named array of params, each keeping the leading rows. With a workspace ws both
    are made on the first call only, as diffnet.buffer makes its arrays."""
    key = (name, (*rows, params.flat.size))
    if ws is not None and key in ws:
        return ws[key]
    grad = np.empty(key[1])
    made = grad, _views(grad, [a.shape for a in params.arrays()], grad.ndim)
    if ws is not None:
        ws[key] = made
    return made


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
    """One encode's intermediates, [..., B, ·]: a leading view axis is kept."""
    Xn: Array       # L1-normalized counts [..., B, V]
    h: Array        # softplus of the hidden layer's pre-activation a1 [..., B, H]
    sig: Array      # sigmoid(a1), the derivative of h
    mu: Array       # [..., B, T]
    lv_raw: Array   # pre-clamp log-variance
    logvar: Array   # clamped to [-8, 8]
    inside: Array   # bool, |lv_raw| < 8: where logvar passes its gradient on
    std: Array      # exp(logvar / 2)

    def __getitem__(self, view: int) -> EncodeCache:
        """The cache of one view of a stacked encode."""
        return EncodeCache(*(getattr(self, f.name)[view] for f in fields(self)))


def encode_batch(Xc: Array, enc: EncoderParams, ws: dict | None = None) -> EncodeCache:
    """Encode counts [B, V], or a stack [views, B, V] of them. A stack's products are
    numpy's batched matmul, one GEMM per view, so each view rounds as its own [B, V]
    encode does. One [views·B, ·] product would not: its reductions over the rows
    round differently at 1 and 2 BLAS threads."""
    sums = Xc.sum(axis=-1, keepdims=True)
    if np.any(sums <= 0):
        raise DataError("encode: batch contains an empty document")

    def buf(name, width, dtype=np.float64):
        return diffnet.buffer(ws, "encode." + name, (*Xc.shape[:-1], width), dtype)
    H, T = enc.b1.size, enc.b_mu.size
    Xn = np.divide(Xc, sums, out=buf("Xn", Xc.shape[-1]))
    a1 = np.matmul(Xn, enc.W1, out=buf("a1", H))
    a1 += enc.b1
    h, sig = diffnet.softplus_and_sigmoid(a1, ws)
    mu = np.matmul(h, enc.W_mu, out=buf("mu", T))
    mu += enc.b_mu
    lv_raw = np.matmul(h, enc.W_lv, out=buf("lv_raw", T))
    lv_raw += enc.b_lv
    logvar = np.clip(lv_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP, out=buf("logvar", T))
    std = np.abs(lv_raw, out=buf("std", T))  # |lv_raw| until the mask is taken
    inside = np.less(std, LOGVAR_CLAMP, out=buf("inside", T, bool))
    np.divide(logvar, 2.0, out=std)
    np.exp(std, out=std)
    return EncodeCache(Xn=Xn, h=h, sig=sig, mu=mu, lv_raw=lv_raw, logvar=logvar,
                       inside=inside, std=std)


def encoder_backward(cache: EncodeCache, enc: EncoderParams,
                     dmu: Array, dlogvar: Array, ws: dict | None = None) -> Array:
    """Backward through the encoder: the gradient in the layout of enc.flat, or for a
    stacked cache one such row per view ([views, enc.flat.size]), its products batched
    as in encode_batch."""
    grad, (dW1, db1, dW_mu, db_mu, dW_lv, db_lv) = _gradient(
        enc, dmu.shape[:-2], ws, "encoder_backward.grad")
    dlv_raw = np.multiply(dlogvar, cache.inside,
                          out=diffnet.buffer(ws, "encoder_backward.dlv_raw", dmu.shape))
    hT = np.swapaxes(cache.h, -1, -2)
    np.matmul(hT, dmu, out=dW_mu)
    dmu.sum(axis=-2, out=db_mu)
    np.matmul(hT, dlv_raw, out=dW_lv)
    dlv_raw.sum(axis=-2, out=db_lv)
    dh_shape = (*dmu.shape[:-1], enc.b1.size)
    da1 = np.matmul(dmu, enc.W_mu.T, out=diffnet.buffer(ws, "encoder_backward.da1", dh_shape))
    da1 += np.matmul(dlv_raw, enc.W_lv.T,
                     out=diffnet.buffer(ws, "encoder_backward.dh_lv", dh_shape))
    da1 *= cache.sig
    np.matmul(np.swapaxes(cache.Xn, -1, -2), da1, out=dW1)
    da1.sum(axis=-2, out=db1)
    return grad


def reparameterize(cache: EncodeCache, eps: Array, ws: dict | None = None) -> Array:
    """z = mu + exp(logvar/2) * eps, with eps held constant for differentiation."""
    z = np.multiply(cache.std, eps, out=diffnet.buffer(ws, "reparameterize", eps.shape))
    return np.add(cache.mu, z, out=z)


def reparameterize_backward(dz: Array, eps: Array, cache: EncodeCache,
                            ws: dict | None = None):
    """Map dL/dz to (dL/dmu, dL/dlogvar); dL/dmu is dz itself, not a copy."""
    dlogvar = np.multiply(dz, eps, out=diffnet.buffer(ws, "reparameterize_backward", dz.shape))
    dlogvar *= 0.5
    dlogvar *= cache.std
    return dz, dlogvar


@dataclass
class ElboResult:
    loss: float
    recon: float
    kl: float
    g_enc: Array
    g_dec: Array


def elbo_with_grads(Xc: Array, enc: EncoderParams, dec: DecoderParams,
                    eps: Array, cache: EncodeCache | None = None,
                    ws: dict | None = None) -> ElboResult:
    """Mean over the batch of (reconstruction + KL), with gradients laid out as enc.flat, dec.flat.

    eps is the fixed standard-normal draw for the reparameterized sample.
    """
    B = Xc.shape[0]
    if cache is None:
        cache = encode_batch(Xc, enc, ws)
    mu, logvar = cache.mu, cache.logvar
    theta = diffnet.softmax(reparameterize(cache, eps, ws))
    lp = np.matmul(theta, dec.beta, out=diffnet.buffer(ws, "elbo.lp", Xc.shape))
    lp += dec.b_dec
    lp -= lp.max(axis=1, keepdims=True)  # the log-softmax of the logits, in place
    scratch = np.exp(lp, out=diffnet.buffer(ws, "elbo.scratch", Xc.shape))
    lp -= np.log(scratch.sum(axis=1, keepdims=True))
    recon = float(-np.multiply(Xc, lp, out=scratch).sum() / B)
    var = np.exp(logvar)
    kl = float(0.5 * np.sum(mu ** 2 + var - logvar - 1.0) / B)
    loss = recon + kl
    if not np.isfinite(loss):
        raise NumericError("elbo_loss is non-finite")

    # reconstruction backward
    dlogits = np.exp(lp, out=scratch)
    dlogits *= Xc.sum(axis=1, keepdims=True)
    dlogits -= Xc
    dlogits /= B
    g_dec, (dbeta, db_dec) = _gradient(dec, (), ws, "elbo.g_dec")
    np.matmul(theta.T, dlogits, out=dbeta)
    dlogits.sum(axis=0, out=db_dec)
    dtheta = dlogits @ dec.beta.T
    dz = diffnet.softmax_backward(theta, dtheta)
    dmu, dlogvar = reparameterize_backward(dz, eps, cache, ws)
    # KL backward
    dmu += mu / B
    dlogvar += 0.5 * (var - 1.0) / B
    g_enc = encoder_backward(cache, enc, dmu, dlogvar, ws)
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
