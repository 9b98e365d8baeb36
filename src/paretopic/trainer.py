"""Training loop: per-batch three-view encoding, both losses, gradient blending, SGD.

The encoder receives the blended gradient (contrastive + ELBO); the decoder
always receives the plain ELBO gradient.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import diffnet, moo, ntm, setcl
from .augment import AugmentedTriple, view_document
from .corpus import Corpus
from .errors import ConfigError, DataError, NumericError, output_file, read_json

Array = np.ndarray

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class TrainConfig:
    seed: int
    num_topics: int = 50
    hidden: int = ntm.DEFAULT_HIDDEN
    set_size: int = 4
    shuffle_count: int = 8
    temperature: float = 0.2
    learning_rate: float = 0.002
    batch_size: int = 200
    epochs: int = 200
    moo_strategy: str = "mgda"
    linear_alpha: float = 0.5
    pool_positive: str = setcl.DEFAULT_POOL_POSITIVE
    pool_negative: str = setcl.DEFAULT_POOL_NEGATIVE
    include_own_negative: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed}")
        if self.num_topics < 1 or self.hidden < 1:
            raise ConfigError("num_topics and hidden must be positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be positive and epochs nonnegative")
        if not (1 <= self.set_size <= self.batch_size):
            raise ConfigError(
                f"set size K={self.set_size} must satisfy 1 <= K <= batch size B={self.batch_size}")
        if self.shuffle_count < 1:
            raise ConfigError("shuffle_count must be >= 1")
        for name in ("temperature", "learning_rate", "linear_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.temperature <= 0 or self.learning_rate <= 0:
            raise ConfigError("temperature and learning_rate must be positive")
        if not 0.0 <= self.linear_alpha <= 1.0:
            raise ConfigError(f"linear_alpha must lie in [0, 1], got {self.linear_alpha}")
        if self.moo_strategy not in moo.STRATEGIES:
            raise ConfigError(
                f"unknown moo strategy {self.moo_strategy!r}, expected one of {moo.STRATEGIES}")
        if self.pool_positive not in setcl.POOL_MODES \
                or self.pool_negative not in setcl.POOL_MODES:
            raise ConfigError("pooling modes must be one of min|max|mean|sum")


@dataclass
class ModelState:
    enc: ntm.EncoderParams
    dec: ntm.DecoderParams
    V: int
    H: int
    T: int
    vocab_hash: str
    rng: np.random.Generator


@dataclass
class TrainData:
    """Counts [3, N, V] of the anchors and their positive and negative views, in the
    narrowest unsigned dtype that holds them; a step casts its batch to float64, exactly."""
    doc_ids: list[int]
    X: Array

    def __post_init__(self):
        self.Xc, self.Xp, self.Xm = self.X  # views, not copies


def init_state(V: int, config: TrainConfig, vocab_hash: str) -> ModelState:
    rng = np.random.default_rng(config.seed)
    enc, dec = ntm.init_params(V, config.hidden, config.num_topics, rng)
    return ModelState(enc=enc, dec=dec, V=V, H=config.hidden,
                      T=config.num_topics, vocab_hash=vocab_hash, rng=rng)


def prepare_training_data(corpus: Corpus, triples: list[AugmentedTriple]) -> TrainData:
    vocab = corpus.vocabulary
    by_anchor = {t.anchor_id: t for t in triples}
    doc_ids = corpus.trainable_indices()
    for i in doc_ids:
        if i not in by_anchor:
            raise DataError(f"augmentation cache does not cover document {i}")
    # build_augmentation_cache writes no record for an anchor without
    # in-vocabulary tokens: such a record comes from another corpus or vocabulary
    stray = sorted(by_anchor.keys() - set(doc_ids))
    if stray:
        raise DataError(f"augmentation cache has a record for document {stray[0]}, which has "
                        "no in-vocabulary tokens: was it built for another corpus or vocabulary?")
    if not doc_ids:
        raise DataError("no trainable documents with augmentations")
    vocab_hash = vocab.content_hash()
    for t in triples:
        if t.vocab_hash not in (None, vocab_hash):
            raise DataError(f"augmentation for document {t.anchor_id} was built against "
                            "another vocabulary (vocab_hash mismatch)")

    def views(field: str):  # one at a time: docs_to_matrix keeps only ids and counts
        return (view_document(getattr(by_anchor[i], field), vocab, i) for i in doc_ids)
    X = ntm.docs_to_matrix(chain((corpus.documents[i] for i in doc_ids),
                                 views("positive_text"), views("negative_text")), vocab.size)
    return TrainData(doc_ids=doc_ids, X=X.reshape(3, len(doc_ids), vocab.size))


def train_step(batch_rows: Array, state: ModelState, data: TrainData,
               config: TrainConfig, step: int, workspace: dict | None = None) -> dict:
    """One Algorithm-style update; mutates state in place, returns a log record.

    The anchor, positive and negative views run as one [3, B, ·] stack. The step's
    arrays are buffers of ``workspace`` (see ``diffnet.buffer``): passing one
    workspace to every step of a fit allocates them on the first step only, and
    without one every array is fresh.
    """
    B = len(batch_rows)
    if B < config.set_size:
        raise ConfigError(f"batch of {B} documents is smaller than set size {config.set_size}")
    rng = state.rng
    # the batch's counts as float64: each is a small integer, so the cast is exact
    X = diffnet.buffer(workspace, "counts", (3, B, data.X.shape[-1]))
    np.copyto(X, data.X[:, batch_rows])
    cache = ntm.encode_batch(X, state.enc, workspace)
    eps = rng.standard_normal(out=diffnet.buffer(workspace, "eps", cache.mu.shape))
    z = ntm.reparameterize(cache, eps, workspace)

    members = setcl.build_sets(setcl.build_index_matrix(B, config.shuffle_count, rng),
                               config.set_size)

    inf_loss, *dzs = setcl.infonce_with_grads(
        *z, members, config.temperature,
        pool_positive=config.pool_positive, pool_negative=config.pool_negative,
        include_own_negative=config.include_own_negative, ws=workspace)
    dz = np.stack(dzs, out=diffnet.buffer(workspace, "dz", z.shape))
    dmu, dlogvar = ntm.reparameterize_backward(dz, eps, cache, workspace)
    g_views = ntm.encoder_backward(cache, state.enc, dmu, dlogvar, workspace)
    g_inf = g_views.sum(axis=0, out=diffnet.buffer(workspace, "g_infonce", g_views.shape[1:]))

    elbo = ntm.elbo_with_grads(X[0], state.enc, state.dec, eps[0], cache=cache[0], ws=workspace)

    decision = moo.strategy_dispatch(config.moo_strategy, g_inf, elbo.g_enc,
                                     linear_alpha=config.linear_alpha, rng=rng,
                                     losses=(inf_loss, elbo.loss), ws=workspace)

    for params, grad in ((state.enc, decision.direction), (state.dec, elbo.g_dec)):
        update = np.multiply(grad, config.learning_rate,
                             out=diffnet.buffer(workspace, "update", grad.shape))
        np.subtract(params.flat, update, out=params.flat)

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


def fit(corpus: Corpus, triples: list[AugmentedTriple], config: TrainConfig,
        checkpoint_dir: str | None = None,
        state: ModelState | None = None,
        start_epoch: int = 0) -> tuple[ModelState, list[dict]]:
    """Epoch loop over full batches; the ragged tail of each epoch is dropped."""
    config.validate()
    data = prepare_training_data(corpus, triples)
    if state is None:
        state = init_state(corpus.vocabulary.size, config,
                           corpus.vocabulary.content_hash())
    if state.vocab_hash != corpus.vocabulary.content_hash():
        raise DataError("model state was built against a different vocabulary")
    n = len(data.doc_ids)
    if n < config.batch_size:
        raise ConfigError(
            f"corpus has only {n} trainable documents for batch size {config.batch_size}")
    records: list[dict] = []
    workspace: dict = {}
    step = start_epoch * (n // config.batch_size)
    for epoch in range(start_epoch, config.epochs):
        order = state.rng.permutation(n)
        for b in range(n // config.batch_size):
            batch = order[b * config.batch_size:(b + 1) * config.batch_size]
            try:
                records.append(train_step(batch, state, data, config, step, workspace))
            except NumericError as exc:
                raise NumericError(f"{exc} (epoch {epoch}, step {step})") from exc
            step += 1
        if checkpoint_dir is not None:
            save_checkpoint(state, os.path.join(checkpoint_dir, f"epoch_{epoch:04d}.json"))
    return state, records


def write_train_log(records: list[dict], path: str) -> None:
    with output_file(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _params_to_json(params) -> dict:
    return {f.name: getattr(params, f.name).tolist() for f in fields(params)}


def _params_from_json(cls, obj: dict, shapes, path: str):
    """Build cls from its JSON arrays, each checked against the header's shape."""
    arrays = []
    for f, shape in zip(fields(cls), shapes):
        a = np.array(obj[f.name], dtype=np.float64)
        if a.shape != shape:
            raise DataError(f"checkpoint {path}: {f.name} has shape {a.shape}, "
                            f"expected {shape} from the header's V, H and T")
        if not np.isfinite(a).all():
            raise DataError(f"checkpoint {path}: {f.name} holds non-finite values")
        arrays.append(a)
    return cls(*arrays)


def save_checkpoint(state: ModelState, path: str) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "V": state.V,
        "H": state.H,
        "T": state.T,
        "vocab_hash": state.vocab_hash,
        "encoder": _params_to_json(state.enc),
        "decoder": _params_to_json(state.dec),
        "rng_state": state.rng.bit_generator.state,
    }
    with output_file(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True))  # the C encoder; json.dump is pure Python


def load_checkpoint(path: str, expect_vocab_hash: str | None = None) -> ModelState:
    doc = read_json(path, "checkpoint")
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is malformed: not a JSON object")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"checkpoint {path}: unsupported format_version {doc.get('format_version')}")
    if expect_vocab_hash is not None and doc.get("vocab_hash") != expect_vocab_hash:
        raise DataError(f"checkpoint {path}: vocabulary hash mismatch")
    try:
        V, H, T = int(doc["V"]), int(doc["H"]), int(doc["T"])
        enc = _params_from_json(ntm.EncoderParams, doc["encoder"],
                                ntm.encoder_shapes(V, H, T), path)
        dec = _params_from_json(ntm.DecoderParams, doc["decoder"],
                                ntm.decoder_shapes(V, T), path)
        rng_state = doc["rng_state"]
        bitgen = getattr(np.random, rng_state["bit_generator"], None)
        if not (isinstance(bitgen, type) and issubclass(bitgen, np.random.BitGenerator)):
            raise DataError(f"checkpoint {path}: rng_state names no numpy bit generator")
        rng = np.random.Generator(bitgen())
        rng.bit_generator.state = rng_state
        return ModelState(enc=enc, dec=dec, V=V, H=H, T=T,
                          vocab_hash=doc["vocab_hash"], rng=rng)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} is malformed: {exc}") from exc
