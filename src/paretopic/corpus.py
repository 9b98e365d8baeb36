"""Corpus ingestion: tokenization, vocabulary building, bag-of-words vectors."""
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


def _token_counts(text: str) -> dict[str, int]:
    """Counts of the tokens of text, in order of first occurrence: the lowercased
    runs of [0-9a-z], without one-character and all-digit tokens.

    No token spans whitespace, so the text is split on whitespace first and each
    distinct chunk is tokenised once; a chunk that is one ASCII alphanumeric run
    is one whole token, and only the others go through the regex.
    """
    counts: dict[str, int] = {}
    for chunk, n in Counter(text.lower().split()).items():
        for t in (chunk,) if chunk.isascii() and chunk.isalnum() else _TOKEN_RE.findall(chunk):
            counts[t] = counts.get(t, 0) + n
    return {t: c for t, c in counts.items() if len(t) >= 2 and not t.isdigit()}


@dataclass
class Vocabulary:
    words: list[str]
    df: list[int]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise DataError("vocabulary contains duplicate tokens")

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

    Keeps tokens with min_df <= df <= max_df_frac * len(texts), truncated to
    the max_size highest-df tokens. Order is df descending with lexicographic
    tiebreak, so the result is independent of input order.
    """
    if not texts:
        raise DataError("build_vocabulary: empty text list")
    if not (0.0 < max_df_frac <= 1.0):
        raise DataError(f"max_df_frac must be in (0, 1], got {max_df_frac}")
    df: Counter[str] = Counter()
    for text in texts:
        df.update(_token_counts(text).keys())
    ceiling = max_df_frac * len(texts)
    kept = [(w, c) for w, c in df.items() if min_df <= c <= ceiling]
    if not kept:
        raise DataError(
            f"vocabulary empty after filtering: min_df={min_df}, "
            f"max_df_frac={max_df_frac} over {len(texts)} documents")
    kept.sort(key=lambda wc: (-wc[1], wc[0]))
    kept = kept[:max_size]
    return Vocabulary(words=[w for w, _ in kept], df=[c for _, c in kept])


def vectorize(text: str, vocab: Vocabulary, label: object = None) -> BowDocument:
    """Count in-vocabulary tokens; OOV tokens are dropped silently.

    A document with zero in-vocabulary tokens comes back with empty counts
    (is_empty); the trainer skips those.
    """
    counts = {vocab.index[t]: c for t, c in _token_counts(text).items() if t in vocab.index}
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
