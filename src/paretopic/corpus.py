"""Corpus ingestion: tokenization, vocabulary building, bag-of-words vectors.

A token is a lowercased run of [0-9a-z] of at least two characters that is
not all digits. No token spans whitespace, so the one tokeniser splits the
lowercased text on whitespace and handles each distinct chunk once
(``_chunk_tokens``): a chunk that is one ASCII alphanumeric run is a token
candidate as it stands, and only the others go through the regex. A word
that no text can yield is never counted, even when a loaded vocabulary holds
it: "a" (one character), "12" (all digits), and any word with an uppercase
letter, punctuation or a non-ASCII character ("Ab", "a-b").
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, output_file, read_json, read_lines

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[0-9a-z]+")

DEFAULT_MIN_DF = 5
DEFAULT_MAX_DF_FRAC = 0.7
DEFAULT_MAX_SIZE = 2000
MAX_MALFORMED_FRAC = 0.01  # load_corpus fails above this share of bad lines


def _chunk_tokens(chunk: str) -> list[str]:
    """The [0-9a-z] runs of one lowercased whitespace chunk, before the length
    and digit filter; a chunk that is one ASCII alphanumeric run is its own run."""
    return [chunk] if chunk.isascii() and chunk.isalnum() else _TOKEN_RE.findall(chunk)


def _is_token(word: str) -> bool:
    """Whether the tokeniser can produce word: [0-9a-z]+, two or more
    characters, not all digits."""
    return len(word) >= 2 and not word.isdigit() and _TOKEN_RE.fullmatch(word) is not None


@dataclass
class Vocabulary:
    words: list[str]
    df: list[int]
    index: dict[str, int] = field(init=False)
    # index without the words no text can yield ("a", "12", "Ab", "a-b"), so a
    # whitespace chunk found here is one whole in-vocabulary token
    token_ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise DataError("vocabulary contains duplicate tokens")
        self.token_ids = {w: i for w, i in self.index.items() if _is_token(w)}

    @property
    def size(self) -> int:
        return len(self.words)

    def content_hash(self) -> str:
        payload = "\n".join(self.words).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path: str) -> None:
        with output_file(path) as fh:
            json.dump({"words": self.words, "df": self.df}, fh)

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        obj = read_json(path, "vocabulary file")
        words, df = (obj.get("words"), obj.get("df")) if isinstance(obj, dict) else (None, None)
        if not (isinstance(words, list) and isinstance(df, list) and len(words) == len(df)
                and all(isinstance(w, str) for w in words) and all(type(c) is int for c in df)):
            raise DataError(f"vocabulary file {path} needs 'words' and 'df': lists of "
                            "strings and integers of the same length")
        return cls(words=words, df=df)


@dataclass
class BowDocument:
    counts: dict[int, int]
    label: object = None
    raw_text: str | None = None

    @property
    def is_empty(self) -> bool:
        return not self.counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class Corpus:
    documents: list[BowDocument]
    vocabulary: Vocabulary

    def __len__(self) -> int:
        return len(self.documents)

    def trainable_indices(self) -> list[int]:
        return [i for i, d in enumerate(self.documents) if not d.is_empty]


def build_vocabulary(texts: list[str], min_df: int = DEFAULT_MIN_DF,
                     max_df_frac: float = DEFAULT_MAX_DF_FRAC,
                     max_size: int = DEFAULT_MAX_SIZE) -> Vocabulary:
    """Document-frequency filtered vocabulary.

    A token's df is the number of texts it occurs in. Each text is reduced to
    its set of distinct whitespace chunks, and only a chunk that is not one
    ASCII alphanumeric run is split further; the length and digit filter runs
    once, on the corpus-wide df table, so no word comes out that vectorize
    cannot count ("a", "12", "Ab", "a-b"). Keeps tokens with
    min_df <= df <= max_df_frac * len(texts), truncated to the max_size
    highest-df tokens. Order is df descending with lexicographic tiebreak, so
    the result is independent of input order.
    """
    if not texts:
        raise DataError("build_vocabulary: empty text list")
    if not (0.0 < max_df_frac <= 1.0):
        raise DataError(f"max_df_frac must be in (0, 1], got {max_df_frac}")
    df: Counter[str] = Counter()
    for text in texts:
        df.update({t for chunk in set(text.lower().split()) for t in _chunk_tokens(chunk)})
    ceiling = max_df_frac * len(texts)
    kept = [(w, c) for w, c in df.items() if min_df <= c <= ceiling and _is_token(w)]
    if not kept:
        raise DataError(
            f"vocabulary empty after filtering: min_df={min_df}, "
            f"max_df_frac={max_df_frac} over {len(texts)} documents")
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    kept = kept[:max_size]
    return Vocabulary(words=[w for w, _ in kept], df=[c for _, c in kept])


def vectorize(text: str, vocab: Vocabulary, label: object = None) -> BowDocument:
    """Count in-vocabulary tokens; OOV tokens are dropped silently.

    Each distinct whitespace chunk of the lowercased text is looked up once in
    vocab.token_ids; only a chunk not found there is split into its [0-9a-z]
    runs, each looked up in turn. counts is keyed by vocabulary id in order of
    first occurrence. A vocabulary word the tokeniser never produces is never
    counted: "a" (one character), "12" (all digits), and any word with an
    uppercase letter, punctuation or a non-ASCII character ("Ab", "a-b"). A
    document with zero in-vocabulary tokens comes back with empty counts
    (is_empty); the trainer skips those.
    """
    ids = vocab.token_ids
    counts: dict[int, int] = {}
    for chunk, n in Counter(text.lower().split()).items():
        i = ids.get(chunk)
        if i is not None:  # the common case: the chunk is one in-vocabulary token
            counts[i] = counts.get(i, 0) + n
            continue
        for t in _chunk_tokens(chunk):
            i = ids.get(t)
            if i is not None:
                counts[i] = counts.get(i, 0) + n
    return BowDocument(counts=counts, label=label, raw_text=text)


def load_corpus(path: str) -> list[tuple[str, object]]:
    """Read a JSONL corpus of {"text": ..., "label": optional}.

    Malformed lines (bad JSON, no string "text", a list or object "label")
    are reported by line number; the whole load fails if more than
    MAX_MALFORMED_FRAC of lines are bad.
    """
    entries: list[tuple[str, object]] = []
    malformed: list[int] = []
    for lineno, line in read_lines(path, "corpus file"):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            malformed.append(lineno)
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str) \
                or isinstance(obj.get("label"), (list, dict)):
            malformed.append(lineno)
            continue
        entries.append((obj["text"], obj.get("label")))
    total = len(entries) + len(malformed)
    if malformed:
        log.warning("%s: %d malformed line(s) at %s", path, len(malformed), malformed[:20])
        if len(malformed) > MAX_MALFORMED_FRAC * total:
            raise DataError(
                f"{path}: {len(malformed)}/{total} malformed JSONL lines "
                f"(lines {malformed[:20]}{'...' if len(malformed) > 20 else ''})")
    if not entries:
        log.warning("%s: corpus file is empty", path)
    return entries


def make_corpus(entries: list[tuple[str, object]], vocab: Vocabulary) -> Corpus:
    docs = [vectorize(text, vocab, label=label) for text, label in entries]
    n_empty = sum(d.is_empty for d in docs)
    if n_empty:
        log.warning("%d/%d documents have no in-vocabulary tokens and will be "
                    "skipped during training", n_empty, len(docs))
    return Corpus(documents=docs, vocabulary=vocab)
