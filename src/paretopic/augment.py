"""Positive/negative document augmentation: LLM endpoint, TF-IDF and dropout fallbacks.

LLM augmentation is an offline preprocessing step; results are cached to a
JSONL file so training stays reproducible and offline-runnable.
"""
from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, asdict

import numpy as np
import requests

from .corpus import BowDocument, Corpus
from .errors import DataError, read_lines

log = logging.getLogger(__name__)

API_KEY_ENV = "PARETOPIC_API_KEY"
PROMPT_TEMPLATE = "A sentence that is <{polarity}> to this text: {text}"

DEFAULT_REPLACE_FRAC = 0.3
DEFAULT_DROP_FRAC = 0.3


@dataclass
class AugmentedTriple:
    """A document's positive and negative views: LLM text, or a {word: count} bag of
    words from the TF-IDF and dropout augmentations, built against vocab_hash."""
    anchor_id: int
    positive_text: str | dict[str, int]
    negative_text: str | dict[str, int]
    method: str  # llm | tfidf | dropout
    vocab_hash: str | None = None

    def __post_init__(self):
        if type(self.anchor_id) is not int:
            raise DataError(f"augmented triple: anchor_id {self.anchor_id!r} is not an integer")
        for view in (self.positive_text, self.negative_text):
            if not (isinstance(view, (str, dict)) and view):
                raise DataError(f"augmented triple {self.anchor_id}: an augmentation must be "
                                "a nonempty string or {word: count} object")
            if isinstance(view, dict) and not all(
                    isinstance(w, str) and type(c) is int and c > 0 for w, c in view.items()):
                raise DataError(f"augmented triple {self.anchor_id}: a bag-of-words view "
                                "needs positive integer counts")


class LlmAugmentError(DataError):
    """LLM endpoint failure after retries; carries the document id if known."""

    def __init__(self, message, doc_id=None):
        super().__init__(message)
        self.doc_id = doc_id


def llm_augment(doc_text: str, polarity: str, endpoint: str,
                api_key: str | None = None, timeout: float = 30.0,
                model: str = "gpt-3.5-turbo", doc_id=None,
                max_attempts: int = 3, backoff: float = 1.0) -> str:
    """One completion from a chat-completions-style endpoint.

    Retries with exponential backoff (max_attempts total) before raising.
    """
    if polarity not in ("related", "unrelated"):
        raise ValueError(f"polarity must be 'related' or 'unrelated', got {polarity!r}")
    if not doc_text:
        raise DataError("llm_augment: empty document text")
    if api_key is None:
        api_key = os.environ.get(API_KEY_ENV, "")
    prompt = PROMPT_TEMPLATE.format(polarity=polarity, text=doc_text)
    payload = {
        "model": model,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Authorization": f"Bearer {api_key}"}
    last_error = None
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
            resp.raise_for_status()
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
        except (requests.RequestException, ValueError, KeyError, IndexError, TypeError) as exc:
            last_error = exc
            log.warning("llm_augment attempt %d/%d failed for doc %s: %s",
                        attempt + 1, max_attempts, doc_id, exc)
            continue
        if not isinstance(text, str) or not text.strip():
            raise LlmAugmentError(f"non-text completion for doc {doc_id}", doc_id=doc_id)
        return text
    raise LlmAugmentError(
        f"llm_augment failed after {max_attempts} attempts for doc {doc_id}: {last_error}",
        doc_id=doc_id)


class TfidfAugmenter:
    """TF-IDF-guided word replacement, fitted on the training split only.

    related: replaces the ceil(frac * nnz) lowest-TF-IDF words with random
    vocabulary words, keeping counts. unrelated: replaces the highest ones.
    """

    def __init__(self, corpus: Corpus):
        self.vocab = corpus.vocabulary
        V = self.vocab.size
        docfreq = np.zeros(V)
        n_docs = 0
        for doc in corpus.documents:
            if doc.is_empty:
                continue
            n_docs += 1
            for w in doc.counts:
                docfreq[w] += 1
        if n_docs == 0:
            raise DataError("TfidfAugmenter: corpus has no nonempty documents")
        self.idf = np.log(n_docs / np.maximum(docfreq, 1.0))

    def scores(self, doc: BowDocument) -> dict[int, float]:
        return {w: c * self.idf[w] for w, c in doc.counts.items()}

    def augment(self, doc: BowDocument, polarity: str,
                replace_frac: float = DEFAULT_REPLACE_FRAC,
                rng_seed: int = 0) -> BowDocument:
        if doc.is_empty:
            raise DataError("tfidf_augment: empty document")
        if not (0.0 < replace_frac < 1.0):
            raise ValueError(f"replace_frac must be in (0, 1), got {replace_frac}")
        if polarity not in ("related", "unrelated"):
            raise ValueError(f"unknown polarity {polarity!r}")
        nnz = len(doc.counts)
        if nnz == 1:
            if polarity == "related":
                return BowDocument(counts=dict(doc.counts), label=doc.label)
            n_replace = 1
        else:
            n_replace = math.ceil(replace_frac * nnz)
        scored = sorted(self.scores(doc).items(), key=lambda kv: (kv[1], kv[0]))
        chosen = scored[:n_replace] if polarity == "related" else scored[-n_replace:]
        victims = [w for w, _ in chosen]
        rng = np.random.default_rng(rng_seed)
        keep = set(doc.counts) - set(victims)
        new_counts = {w: doc.counts[w] for w in keep}
        fresh = np.ones(self.vocab.size, dtype=bool)
        fresh[list(doc.counts)] = False
        candidates = np.flatnonzero(fresh).tolist()  # ascending word ids
        for victim in victims:
            if candidates:
                # same draw as rng.choice(len(candidates)), without its overhead
                repl = candidates.pop(int(rng.integers(len(candidates))))
            else:  # vocab too small for fresh words; reuse the victim slot
                repl = victim
            new_counts[repl] = new_counts.get(repl, 0) + doc.counts[victim]
        return BowDocument(counts=new_counts, label=doc.label)


def dropout_augment(doc: BowDocument, drop_frac: float = DEFAULT_DROP_FRAC,
                    rng_seed: int = 0) -> BowDocument:
    """Remove floor(drop_frac * nnz) uniformly chosen entries, never all of them."""
    if not (0.0 < drop_frac < 1.0):
        raise ValueError(f"drop_frac must be in (0, 1), got {drop_frac}")
    if doc.is_empty:
        raise DataError("dropout_augment: empty document")
    nnz = len(doc.counts)
    n_drop = min(int(drop_frac * nnz), nnz - 1)
    if n_drop <= 0:
        return BowDocument(counts=dict(doc.counts), label=doc.label)
    rng = np.random.default_rng(rng_seed)
    keys = sorted(doc.counts)
    dropped = set(rng.choice(len(keys), size=n_drop, replace=False).tolist())
    counts = {w: doc.counts[w] for i, w in enumerate(keys) if i not in dropped}
    return BowDocument(counts=counts, label=doc.label)


def bow_to_text(doc: BowDocument, vocab) -> str:
    """Render a bag of words back to a token string (count copies per word)."""
    parts = []
    for w in sorted(doc.counts):
        parts.extend([vocab.words[w]] * doc.counts[w])
    return " ".join(parts)


def cache_augmentations(triples: list[AugmentedTriple], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for triple in triples:
            fh.write(json.dumps(asdict(triple)) + "\n")


def load_augmentations(path: str, corpus_size: int) -> list[AugmentedTriple]:
    triples = []
    line_of: dict[int, int] = {}
    for lineno, line in read_lines(path, "augmentation cache"):
        try:
            obj = json.loads(line)
            triple = AugmentedTriple(**obj)
        except (json.JSONDecodeError, TypeError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: malformed augmentation record: {exc}") from exc
        if not (0 <= triple.anchor_id < corpus_size):
            raise DataError(
                f"{path}:{lineno}: anchor_id {triple.anchor_id} out of range "
                f"for corpus of size {corpus_size}")
        if triple.anchor_id in line_of:
            raise DataError(
                f"{path}:{lineno}: duplicate anchor_id {triple.anchor_id}, "
                f"first seen on line {line_of[triple.anchor_id]}")
        line_of[triple.anchor_id] = lineno
        triples.append(triple)
    return triples


def build_augmentation_cache(corpus: Corpus, method: str = "tfidf",
                             replace_frac: float = DEFAULT_REPLACE_FRAC,
                             drop_frac: float = DEFAULT_DROP_FRAC,
                             rng_seed: int = 0,
                             llm_options: dict | None = None) -> list[AugmentedTriple]:
    """Produce one (positive, negative) pair of views per nonempty document:
    LLM completions as text, every other view as a {word: count} bag of words.

    Any augmentation that is, or would vectorize to, an empty document is
    regenerated with the dropout fallback.
    """
    from .corpus import vectorize

    if method not in ("llm", "tfidf", "dropout"):
        raise ValueError(f"unknown augmentation method {method!r}: expected llm, tfidf or dropout")
    vocab = corpus.vocabulary
    vocab_hash = vocab.content_hash()
    tfidf = TfidfAugmenter(corpus) if method in ("tfidf", "llm") else None
    triples = []
    for i, doc in enumerate(corpus.documents):
        if doc.is_empty:
            continue
        used = method
        if method == "llm":
            opts = llm_options or {}
            text = doc.raw_text or bow_to_text(doc, vocab)
            try:
                texts = [llm_augment(text, "related", doc_id=i, **opts),
                         llm_augment(text, "unrelated", doc_id=i, **opts)]
            except LlmAugmentError:
                log.warning("doc %d: LLM augmentation failed, falling back to tfidf", i)
                used = "tfidf"
            else:
                # free text: only its in-vocabulary tokens reach training
                views = [None if vectorize(t, vocab).is_empty else t for t in texts]
        if used == "tfidf":
            views = [tfidf.augment(doc, "related", replace_frac, rng_seed + 2 * i),
                     tfidf.augment(doc, "unrelated", replace_frac, rng_seed + 2 * i + 1)]
        elif used == "dropout":
            views = [dropout_augment(doc, drop_frac, rng_seed + 2 * i),
                     tfidf_negative_fallback(corpus, doc, rng_seed + 2 * i + 1)]
        for k, view in enumerate(views):
            if view is None or isinstance(view, BowDocument) and view.is_empty:
                views[k] = dropout_augment(doc, drop_frac, rng_seed + 2 * i + k)
                used = "dropout"
        pos, neg = (v if isinstance(v, str) else
                    {vocab.words[w]: c for w, c in sorted(v.counts.items())} for v in views)
        triples.append(AugmentedTriple(anchor_id=i, positive_text=pos, negative_text=neg,
                                       method=used, vocab_hash=vocab_hash))
    return triples


def tfidf_negative_fallback(corpus: Corpus, doc: BowDocument, rng_seed: int) -> BowDocument:
    """Negative view for dropout mode: random words not in the document."""
    rng = np.random.default_rng(rng_seed)
    vocab_size = corpus.vocabulary.size
    candidates = [w for w in range(vocab_size) if w not in doc.counts]
    if not candidates:
        candidates = list(range(vocab_size))
    n = min(len(doc.counts), len(candidates))
    picks = rng.choice(len(candidates), size=n, replace=False)
    return BowDocument(counts={candidates[int(p)]: 1 for p in picks}, label=doc.label)
