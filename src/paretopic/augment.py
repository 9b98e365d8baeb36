"""Positive/negative document augmentation in two modes: LLM endpoint and TF-IDF word
replacement. A document whose LLM views are unusable gets the TF-IDF pair.

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
from itertools import chain
from urllib.parse import urlsplit

import numpy as np

from .corpus import BowDocument, Corpus, Vocabulary, vectorize
from .errors import DataError, output_file, read_lines

log = logging.getLogger(__name__)

API_KEY_ENV = "PARETOPIC_API_KEY"
PROMPT_TEMPLATE = "A sentence that is <{polarity}> to this text: {text}"

DEFAULT_REPLACE_FRAC = 0.3
_DEFAULT_PORTS = {"http": 80, "https": 443}


@dataclass
class AugmentedTriple:
    """A document's positive and negative views: LLM text, or a {word: count} bag of
    words from the TF-IDF augmentation, built against vocab_hash. method is informational:
    a cache of any method loads and trains."""
    anchor_id: int
    positive_text: str | dict[str, int]
    negative_text: str | dict[str, int]
    method: str  # llm | tfidf
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
    """LLM endpoint failure after retries, or a completion that is not text."""


def check_endpoint(endpoint: str) -> None:
    """Refuse a URL urlopen would not send over HTTP (a file:// one reads a local file)."""
    if not endpoint.lower().startswith(("http://", "https://")):
        raise ValueError(f"endpoint must be an http:// or https:// URL, got {endpoint!r}")


def forwards_api_key(old_url: str, new_url: str) -> bool:
    """Whether a redirect from old_url to new_url keeps the API key (requests' rule): the
    host is unchanged, and so are the scheme and port, or it is http:80 -> https:443."""
    old, new = urlsplit(old_url), urlsplit(new_url)
    ends = [(u.scheme, u.port or _DEFAULT_PORTS.get(u.scheme)) for u in (old, new)]
    upgrade = ends == [("http", 80), ("https", 443)]
    return old.hostname == new.hostname and (ends[0] == ends[1] or upgrade)


def _opener():
    """An opener that re-sends a POST and its body on 307 and 308, which urllib follows
    for GET and HEAD only, and passes the API key on where forwards_api_key allows."""
    from urllib.request import HTTPRedirectHandler, Request, build_opener

    class Redirect(HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if code in (307, 308):
                new = Request(newurl, req.data, req.headers,
                              origin_req_host=req.origin_req_host, unverifiable=True)
            else:
                new = super().redirect_request(req, fp, code, msg, headers, newurl)
            if forwards_api_key(req.full_url, newurl):
                new.add_unredirected_header("Authorization", req.unredirected_hdrs["Authorization"])
            return new

    return build_opener(Redirect)


def llm_augment(doc_text: str, polarity: str, endpoint: str,
                api_key: str | None = None, timeout: float = 30.0,
                model: str = "gpt-3.5-turbo", doc_id=None,
                max_attempts: int = 3, backoff: float = 1.0) -> str:
    """One completion from a chat-completions-style endpoint.

    Retries with exponential backoff (max_attempts total) before raising.
    """
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request  # only llm mode loads the HTTP client

    if polarity not in ("related", "unrelated"):
        raise ValueError(f"polarity must be 'related' or 'unrelated', got {polarity!r}")
    check_endpoint(endpoint)
    if not doc_text:
        raise DataError("llm_augment: empty document text")
    if api_key is None:
        api_key = os.environ.get(API_KEY_ENV, "")
    prompt = PROMPT_TEMPLATE.format(polarity=polarity, text=doc_text)
    payload = json.dumps({"model": model, "messages": [{"role": "user", "content": prompt}]})
    request = Request(endpoint, payload.encode(), {"Content-Type": "application/json"})  # a POST
    request.add_unredirected_header("Authorization", f"Bearer {api_key}")  # see _opener
    opener = _opener()
    last_error = None
    for attempt in range(max_attempts):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:  # the opener raises HTTPError, an OSError, for every status >= 400
            with opener.open(request, timeout=timeout) as resp:
                body = json.load(resp)
            text = body["choices"][0]["message"]["content"]
        except (OSError, HTTPException, ValueError, KeyError, IndexError, TypeError) as exc:
            last_error = exc
            if isinstance(exc, HTTPError):
                exc.close()  # an error status keeps its response, and its socket, open
            log.warning("llm_augment attempt %d/%d failed for doc %s: %s",
                        attempt + 1, max_attempts, doc_id, exc)
            continue
        if not isinstance(text, str) or not text.strip():
            raise LlmAugmentError(f"non-text completion for doc {doc_id}")
        return text
    raise LlmAugmentError(
        f"llm_augment failed after {max_attempts} attempts for doc {doc_id}: {last_error}")


class TfidfAugmenter:
    """TF-IDF-guided word replacement, fitted on the training split only.

    related: replaces the ceil(frac * nnz) lowest-TF-IDF words with random
    vocabulary words, keeping counts. unrelated: replaces the highest ones.
    """

    def __init__(self, corpus: Corpus):
        self.vocab = corpus.vocabulary
        docs = [doc.counts for doc in corpus.documents if not doc.is_empty]
        if not docs:
            raise DataError("TfidfAugmenter: corpus has no nonempty documents")
        docfreq = np.bincount(np.fromiter(chain.from_iterable(docs), dtype=np.int64),
                              minlength=self.vocab.size)
        self.idf = np.log(len(docs) / np.maximum(docfreq, 1.0))

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
        if nnz == 1 and polarity == "related":
            return BowDocument(counts=dict(doc.counts), label=doc.label)
        n_replace = math.ceil(replace_frac * nnz)
        scored = sorted(self.scores(doc).items(), key=lambda kv: (kv[1], kv[0]))
        chosen = scored[:n_replace] if polarity == "related" else scored[-n_replace:]
        victims = [w for w, _ in chosen]
        rng = np.random.default_rng(rng_seed)
        keep = set(doc.counts) - set(victims)
        new_counts = {w: doc.counts[w] for w in keep}
        candidates = _absent_words(doc, self.vocab.size)
        for victim in victims:
            if candidates:
                # same draw as rng.choice(len(candidates)), without its overhead
                repl = candidates.pop(int(rng.integers(len(candidates))))
            else:  # vocab too small for fresh words; reuse the victim slot
                repl = victim
            new_counts[repl] = new_counts.get(repl, 0) + doc.counts[victim]
        return BowDocument(counts=new_counts, label=doc.label)


def bow_to_text(doc: BowDocument, vocab) -> str:
    """Render a bag of words back to a token string (count copies per word)."""
    parts = []
    for w in sorted(doc.counts):
        parts.extend([vocab.words[w]] * doc.counts[w])
    return " ".join(parts)


def cache_augmentations(triples: list[AugmentedTriple], path: str) -> None:
    with output_file(path) as fh:
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
                             rng_seed: int = 0,
                             llm_options: dict | None = None) -> list[AugmentedTriple]:
    """Produce one (positive, negative) pair of views per nonempty document:
    LLM completions as text, TF-IDF views as {word: count} bags of words.

    A document whose LLM call fails or yields a completion view_document refuses gets
    the TF-IDF pair; the TF-IDF views of a nonempty document are never empty.
    """
    if method not in ("llm", "tfidf"):
        raise ValueError(f"unknown augmentation method {method!r}: expected llm or tfidf")
    vocab = corpus.vocabulary
    vocab_hash = vocab.content_hash()
    tfidf = TfidfAugmenter(corpus)
    triples = []
    for i, doc in enumerate(corpus.documents):
        if doc.is_empty:
            continue
        used = method
        if method == "llm":
            text = doc.raw_text or bow_to_text(doc, vocab)
            try:
                views = [llm_augment(text, polarity, doc_id=i, **(llm_options or {}))
                         for polarity in ("related", "unrelated")]
                for view in views:  # free text: only its in-vocabulary tokens reach training
                    view_document(view, vocab, i)
            except DataError as exc:  # an LlmAugmentError, or a completion with no vocabulary word
                log.warning("doc %d: LLM augmentation unusable, falling back to tfidf: %s", i, exc)
                used = "tfidf"
        if used == "tfidf":
            views = [tfidf.augment(doc, "related", replace_frac, rng_seed + 2 * i),
                     tfidf.augment(doc, "unrelated", replace_frac, rng_seed + 2 * i + 1)]
        pos, neg = (v if isinstance(v, str) else
                    {vocab.words[w]: c for w, c in sorted(v.counts.items())} for v in views)
        triples.append(AugmentedTriple(anchor_id=i, positive_text=pos, negative_text=neg,
                                       method=used, vocab_hash=vocab_hash))
    return triples


def view_document(view: str | dict[str, int], vocab: Vocabulary, anchor_id: int) -> BowDocument:
    """A cached view of document anchor_id as a BowDocument over vocab, or a DataError."""
    if isinstance(view, str):  # an LLM completion, or a cache written as text
        doc = vectorize(view, vocab)
        if doc.is_empty:
            raise DataError(f"augmentation for document {anchor_id} vectorizes to an "
                            "empty document")
        return doc
    unknown = view.keys() - vocab.index.keys()
    if unknown:
        raise DataError(f"augmentation for document {anchor_id} holds a word that is "
                        f"not in the vocabulary: {min(unknown)!r}")
    return BowDocument(counts={vocab.index[w]: c for w, c in view.items()})


def _absent_words(doc: BowDocument, vocab_size: int) -> list[int]:
    """Ascending ids of the vocabulary words the document does not hold."""
    fresh = np.ones(vocab_size, dtype=bool)
    fresh[list(doc.counts)] = False
    return np.flatnonzero(fresh).tolist()
