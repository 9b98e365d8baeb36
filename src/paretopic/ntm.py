"""VAE-style neural topic model: encoder, reparameterization, decoder, ELBO.

Forward passes cache intermediates so the hand-written backward passes in
elbo_with_grads / encoder_backward can run without recomputation.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import diffnet
from .corpus import BowDocument, Corpus
from .errors import DataError, NumericError

Array = np.ndarray

LOGVAR_CLAMP = 8.0
INIT_SCALE = 0.05
DEFAULT_HIDDEN = 100


class _Params:
    """Named float64 arrays; the field order is the flat (packed) layout."""

    def arrays(self) -> list[Array]:
        return [getattr(self, f.name) for f in fields(self)]

    def copy(self):
        return type(self)(*(a.copy() for a in self.arrays()))

    def subtract_flat(self, flat: Array) -> None:
        """In place: subtract from each array its slice of the flat vector."""
        pos = 0
        for a in self.arrays():
            a -= flat[pos:pos + a.size].reshape(a.shape)
            pos += a.size
        if pos != flat.size:
            raise ValueError(f"flat vector length {flat.size} does not match layout ({pos})")


@dataclass
class EncoderParams(_Params):
    W1: Array
    b1: Array
    W_mu: Array
    b_mu: Array
    W_lv: Array
    b_lv: Array


@dataclass
class DecoderParams(_Params):
    beta: Array
    b_dec: Array


def encoder_shapes(V: int, H: int, T: int):
    return [(V, H), (H,), (H, T), (T,), (H, T), (T,)]


def decoder_shapes(V: int, T: int):
    return [(T, V), (V,)]


def init_params(V: int, H: int, T: int, rng: np.random.Generator):
    """Uniform [-0.05, 0.05] weights, zero biases."""
    def w(shape):
        return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)

    enc = EncoderParams(W1=w((V, H)), b1=np.zeros(H),
                        W_mu=w((H, T)), b_mu=np.zeros(T),
                        W_lv=w((H, T)), b_lv=np.zeros(T))
    dec = DecoderParams(beta=w((T, V)), b_dec=np.zeros(V))
    return enc, dec


def pack(arrays) -> Array:
    return np.concatenate([np.asarray(a).ravel() for a in arrays])


def unpack(flat: Array, shapes) -> list[Array]:
    out, pos = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(flat[pos:pos + n].reshape(shape).copy())
        pos += n
    if pos != flat.size:
        raise ValueError(f"flat vector length {flat.size} does not match layout ({pos})")
    return out


def pack_encoder(enc: EncoderParams) -> Array:
    return pack(enc.arrays())


def unpack_encoder(flat: Array, V: int, H: int, T: int) -> EncoderParams:
    return EncoderParams(*unpack(flat, encoder_shapes(V, H, T)))


def pack_decoder(dec: DecoderParams) -> Array:
    return pack(dec.arrays())


def unpack_decoder(flat: Array, V: int, T: int) -> DecoderParams:
    return DecoderParams(*unpack(flat, decoder_shapes(V, T)))


def docs_to_matrix(docs: list[BowDocument], V: int) -> Array:
    """Dense count matrix [B, V]; raises on an empty (untrainable) document."""
    X = np.zeros((len(docs), V))
    for i, doc in enumerate(docs):
        if doc.is_empty:
            raise DataError(f"document {i} has no in-vocabulary tokens")
        for w, c in doc.counts.items():
            X[i, w] = c
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
    a1 = diffnet.affine(Xn, enc.W1, enc.b1)
    h = diffnet.softplus(a1)
    mu = diffnet.affine(h, enc.W_mu, enc.b_mu)
    lv_raw = diffnet.affine(h, enc.W_lv, enc.b_lv)
    logvar = np.clip(lv_raw, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    return EncodeCache(Xn=Xn, a1=a1, h=h, mu=mu, lv_raw=lv_raw, logvar=logvar)


def encoder_backward(cache: EncodeCache, enc: EncoderParams,
                     dmu: Array, dlogvar: Array) -> Array:
    """Backward through the encoder; returns the flat encoder gradient."""
    mask = (np.abs(cache.lv_raw) < LOGVAR_CLAMP).astype(float)
    dlv_raw = dlogvar * mask
    dW_mu = cache.h.T @ dmu
    db_mu = dmu.sum(axis=0)
    dW_lv = cache.h.T @ dlv_raw
    db_lv = dlv_raw.sum(axis=0)
    dh = dmu @ enc.W_mu.T + dlv_raw @ enc.W_lv.T
    da1 = diffnet.softplus_backward(cache.a1, dh)
    dW1 = cache.Xn.T @ da1
    db1 = da1.sum(axis=0)
    return pack([dW1, db1, dW_mu, db_mu, dW_lv, db_lv])


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
    g_enc: Array | None = None
    g_dec: Array | None = None


def elbo_with_grads(Xc: Array, enc: EncoderParams, dec: DecoderParams,
                    eps: Array, want_grads: bool = True,
                    cache: EncodeCache | None = None) -> ElboResult:
    """Mean over the batch of (reconstruction + KL), with flat gradients.

    eps is the fixed standard-normal draw for the reparameterized sample.
    """
    B = Xc.shape[0]
    if cache is None:
        cache = encode_batch(Xc, enc)
    mu, logvar = cache.mu, cache.logvar
    z = reparameterize(mu, logvar, eps)
    theta = diffnet.softmax(z)
    logits = diffnet.affine(theta, dec.beta, dec.b_dec)
    lp = diffnet.log_softmax(logits)
    recon = float(-(Xc * lp).sum() / B)
    var = np.exp(logvar)
    kl = float(0.5 * np.sum(mu ** 2 + var - logvar - 1.0) / B)
    loss = recon + kl
    if not np.isfinite(loss):
        raise NumericError("elbo_loss is non-finite")
    if not want_grads:
        return ElboResult(loss=loss, recon=recon, kl=kl)

    # reconstruction backward
    row_tot = Xc.sum(axis=1, keepdims=True)
    dlogits = (np.exp(lp) * row_tot - Xc) / B
    dbeta = theta.T @ dlogits
    db_dec = dlogits.sum(axis=0)
    dtheta = dlogits @ dec.beta.T
    dz = diffnet.softmax_backward(theta, dtheta)
    dmu, dlogvar = reparameterize_backward(dz, eps, logvar)
    # KL backward
    dmu += mu / B
    dlogvar += 0.5 * (var - 1.0) / B
    g_enc = encoder_backward(cache, enc, dmu, dlogvar)
    g_dec = pack([dbeta, db_dec])
    return ElboResult(loss=loss, recon=recon, kl=kl, g_enc=g_enc, g_dec=g_dec)


def top_words(dec: DecoderParams, vocab_words: list[str], n: int) -> list[list[int]]:
    """Top-n word indices per topic by beta weight, lexicographic tiebreak."""
    T, V = dec.beta.shape
    if n > V:
        raise ValueError(f"top_words: n={n} exceeds vocabulary size {V}")
    topics = []
    for t in range(T):
        order = sorted(range(V), key=lambda w: (-dec.beta[t, w], vocab_words[w]))
        topics.append(order[:n])
    return topics


def doc_theta(corpus: Corpus, enc: EncoderParams) -> tuple[Array, list[int]]:
    """Mean-path (eps = 0) theta_doc for every nonempty document."""
    keep = corpus.trainable_indices()
    if not keep:
        raise DataError("corpus has no nonempty documents")
    Xc = docs_to_matrix([corpus.documents[i] for i in keep], corpus.vocabulary.size)
    cache = encode_batch(Xc, enc)
    return diffnet.softmax(cache.mu), keep
