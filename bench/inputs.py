"""Synthetic inputs for the benchmark, made from the workload seed alone.

Two generators, both with topics planted on disjoint 40-word blocks, so the
right answers (which words belong together, which topic a document is
about) are known without asking the program:

- ``planted_docs``: the generator of ``tests/conftest.py`` (V=200, T=5,
  Zipf 1.5 within a block, Dirichlet(0.1) mixtures, 6,000-token
  documents), returning token counts instead of a ``Corpus``.
- ``wide_docs``: V=2,000 words in 50 blocks. A document is 200 tokens:
  75% drawn from a peaked Dirichlet(0.02) topic mixture (Zipf 1.5 within a
  block), 25% uniformly from the whole vocabulary, which gives about 90
  distinct words per document (4.5% density), as in real short texts with
  a long tail of rare words.

``closed_form_checkpoint`` writes a model whose parameters are set from the
planted topics rather than trained.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

BLOCK = 40

PLANTED_V = 200
PLANTED_T = 5
PLANTED_DOC_LEN = 6000
PLANTED_ZIPF = 1.5
PLANTED_ALPHA = 0.1

WIDE_V = 2000
WIDE_T = 50
WIDE_DOC_LEN = 200
WIDE_ZIPF = 1.5
WIDE_BACKGROUND = 0.25
WIDE_ALPHA = 0.02


def word_name(i: int, V: int) -> str:
    return f"w{i:0{len(str(V - 1))}d}"


def block_of(word: str) -> int:
    """Planted block of a generated word, from its name alone."""
    return int(word[1:]) // BLOCK


def _topic_word(V: int, T: int, zipf: float) -> np.ndarray:
    within = np.arange(1.0, BLOCK + 1.0) ** -zipf
    within /= within.sum()
    topic_word = np.zeros((T, V))
    for t in range(T):
        topic_word[t, t * BLOCK:(t + 1) * BLOCK] = within
    return topic_word


def _mixture_docs(rng, n_docs, V, T, doc_len, zipf, alpha, background):
    topic_word = _topic_word(V, T, zipf)
    uniform = np.full(V, 1.0 / V)
    counts = np.empty((n_docs, V), dtype=np.int32)
    labels = np.empty(n_docs, dtype=np.int64)
    for d in range(n_docs):
        theta = rng.dirichlet([alpha] * T)
        mix = (1.0 - background) * (theta @ topic_word) + background * uniform
        counts[d] = rng.multinomial(doc_len, mix / mix.sum())
        labels[d] = int(theta.argmax())
    return counts, labels


def planted_docs(rng, n_docs):
    """(counts [n, 200], labels) from the conftest planted generator."""
    return _mixture_docs(rng, n_docs, PLANTED_V, PLANTED_T, PLANTED_DOC_LEN,
                         PLANTED_ZIPF, PLANTED_ALPHA, 0.0)


def wide_docs(rng, n_docs):
    """(counts [n, 2000], labels) for the wide-vocabulary corpus."""
    return _mixture_docs(rng, n_docs, WIDE_V, WIDE_T, WIDE_DOC_LEN,
                         WIDE_ZIPF, WIDE_ALPHA, WIDE_BACKGROUND)


def pure_topic_docs(rng, n_docs, topic):
    """Wide-corpus documents about one topic only (probe texts)."""
    topic_word = _topic_word(WIDE_V, WIDE_T, WIDE_ZIPF)[topic]
    mix = (1.0 - WIDE_BACKGROUND) * topic_word + WIDE_BACKGROUND / WIDE_V
    return rng.multinomial(WIDE_DOC_LEN, mix / mix.sum(), size=n_docs)


def doc_text(row: np.ndarray, words: list[str]) -> str:
    nz = np.flatnonzero(row)
    return " ".join(" ".join([words[w]] * int(row[w])) for w in nz)


def write_jsonl(path: str, counts: np.ndarray, labels: np.ndarray) -> list[str]:
    """Write one {"text", "label"} record per document; returns the texts."""
    V = counts.shape[1]
    words = [word_name(i, V) for i in range(V)]
    texts = [doc_text(row, words) for row in counts]
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in zip(texts, labels.tolist()):
            fh.write(json.dumps({"text": text, "label": label}) + "\n")
    return texts


def read_vocab_words(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["words"]


def closed_form_checkpoint(path: str, vocab_words: list[str], T: int, H: int,
                           seed: int) -> None:
    """A checkpoint, in the program's JSON format, built from the planted topics.

    Decoder row t is the log of topic t's generating distribution (block
    words) over a floor for every other word, so each topic's top words are
    its block's Zipf head. Hidden unit t of the encoder sums the share of a
    document's tokens that fall in block t, and mu_t reads that unit alone,
    so theta peaks on the block a document draws most tokens from.
    """
    V = len(vocab_words)
    within = np.arange(1.0, BLOCK + 1.0) ** -WIDE_ZIPF
    within /= within.sum()
    beta = np.full((T, V), -20.0)
    W1 = np.zeros((V, H))
    for v, word in enumerate(vocab_words):
        idx = int(word[1:])
        t = idx // BLOCK
        beta[t, v] = np.log(within[idx % BLOCK])
        W1[v, t] = 10.0
    W_mu = np.zeros((H, T))
    W_mu[np.arange(T), np.arange(T)] = 5.0
    doc = {
        "format_version": 1, "V": V, "H": H, "T": T,
        "vocab_hash": hashlib.sha256("\n".join(vocab_words).encode("utf-8")).hexdigest(),
        "encoder": {"W1": W1.tolist(), "b1": [0.0] * H,
                    "W_mu": W_mu.tolist(), "b_mu": [0.0] * T,
                    "W_lv": np.zeros((H, T)).tolist(), "b_lv": [0.0] * T},
        "decoder": {"beta": beta.tolist(), "b_dec": [0.0] * V},
        "rng_state": np.random.default_rng(seed).bit_generator.state,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def permuted_checkpoint(src: str, dst: str, perm: np.ndarray) -> None:
    """Copy a checkpoint with topic t moved to position perm[t]."""
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    inv = np.argsort(perm)
    enc, dec = doc["encoder"], doc["decoder"]
    dec["beta"] = np.asarray(dec["beta"])[inv].tolist()
    for key in ("W_mu", "W_lv"):
        enc[key] = np.asarray(enc[key])[:, inv].tolist()
    for key in ("b_mu", "b_lv"):
        enc[key] = np.asarray(enc[key])[inv].tolist()
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def tfidf_cache(path: str, counts: np.ndarray, vocab_words: list[str],
                rng: np.random.Generator, replace_frac: float = 0.3) -> None:
    """An augmentation cache in the format ``augment`` writes.

    The views follow the rule of ``augment --mode tfidf``: the positive view
    replaces the ceil(replace_frac * nnz) lowest-TF-IDF words of a document
    with words it does not contain, keeping their counts; the negative view
    replaces the highest-scoring ones.
    """
    V = counts.shape[1]
    names = [word_name(i, V) for i in range(V)]
    index = {w: i for i, w in enumerate(vocab_words)}
    cols = np.array([index.get(names[i], -1) for i in range(V)])
    X = np.zeros((counts.shape[0], len(vocab_words)), dtype=np.int64)
    X[:, cols[cols >= 0]] = counts[:, cols >= 0]
    present = X > 0
    idf = np.log(X.shape[0] / np.maximum(present.sum(axis=0), 1))
    with open(path, "w", encoding="utf-8") as fh:
        for d, row in enumerate(X):
            nz = np.flatnonzero(row)
            order = nz[np.lexsort((nz, row[nz] * idf[nz]))]
            n_replace = int(np.ceil(replace_frac * len(nz)))
            absent = np.flatnonzero(row == 0)
            views = []
            for victims in (order[:n_replace], order[len(order) - n_replace:]):
                view = row.copy()
                view[rng.choice(absent, size=n_replace, replace=False)] = row[victims]
                view[victims] = 0
                views.append(doc_text(view, vocab_words))
            fh.write(json.dumps({"anchor_id": d, "positive_text": views[0],
                                 "negative_text": views[1], "method": "tfidf"}) + "\n")
