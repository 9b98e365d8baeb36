"""Topic-quality and downstream evaluation: NPMI, diversity, alignment, features."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations

import numpy as np

from . import diffnet, ntm
from .corpus import Corpus, Vocabulary, vectorize
from .errors import DataError, output_file, read_lines

Array = np.ndarray

DEFAULT_NPMI_EPS = 1e-12
DEFAULT_ALIGN_THRESHOLD = 0.5
DEFAULT_TOP_N = 10
# the ridge proxy's penalty λ and held-out share
PROXY_L2 = 1e-4
PROXY_HOLDOUT_FRAC = 0.2


@dataclass
class CooccurrenceStats:
    """Whole-document co-occurrence counts from a reference corpus."""
    doc_count: int
    word_doc_freq: dict[int, int]
    pair_doc_freq: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def from_corpus(cls, corpus: Corpus,
                    topics: list[list[int]] | None = None) -> "CooccurrenceStats":
        """Document frequency of every word, and of every pair (a, b), a < b,
        of words that share a document and a topic (any two words when
        topics is None).

        A topic's pair counts are the upper triangle of BᵀB, B the binary
        document × word matrix over its words' columns, cut from one matrix
        over all topics' words. Its entries are 0/1, so the float64 sums are
        exact integers whatever the summation order.
        """
        docs = [doc.counts for doc in corpus.documents if not doc.is_empty]
        if not docs:
            raise DataError("reference corpus has no nonempty documents")
        lengths = [len(counts) for counts in docs]
        cols = np.fromiter(chain.from_iterable(docs), dtype=np.int64, count=sum(lengths))
        rows = np.repeat(np.arange(len(docs)), lengths)
        df = np.bincount(cols)
        present = np.flatnonzero(df)
        groups = [present] if topics is None else [
            np.intersect1d(present, np.asarray(t, dtype=np.int64)) for t in topics]
        columns = reduce(np.union1d, groups, present[:0])
        hit = np.isin(cols, columns)
        B = np.zeros((len(docs), len(columns)), dtype=bool)
        B[rows[hit], np.searchsorted(columns, cols[hit])] = True
        pair_doc_freq: dict[tuple[int, int], int] = {}
        for words in groups:
            Bw = B[:, np.searchsorted(columns, words)].astype(np.float64)
            co = np.triu(Bw.T @ Bw, 1).astype(np.int64)
            a, b = np.nonzero(co)
            pair_doc_freq.update(zip(zip(words[a].tolist(), words[b].tolist()),
                                     co[a, b].tolist()))
        return cls(doc_count=len(docs),
                   word_doc_freq=dict(zip(present.tolist(), df[present].tolist())),
                   pair_doc_freq=pair_doc_freq)

    def p_word(self, w: int) -> float:
        return self.word_doc_freq.get(w, 0) / self.doc_count

    def p_pair(self, a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        return self.pair_doc_freq.get(key, 0) / self.doc_count


def npmi(topics: list[list[int]], stats: CooccurrenceStats,
         eps: float = DEFAULT_NPMI_EPS) -> tuple[list[float], float]:
    """Per-topic mean NPMI over all top-word pairs, plus the overall mean.

    Pairs whose either word never occurs in the reference corpus contribute
    the metric minimum of -1.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if stats.doc_count <= 0:
        raise DataError("empty co-occurrence stats")
    per_topic = []
    for words in topics:
        vals = []
        for a, b in combinations(words, 2):
            pi, pj = stats.p_word(a), stats.p_word(b)
            if pi == 0.0 or pj == 0.0:
                vals.append(-1.0)
                continue
            pij = stats.p_pair(a, b)
            vals.append(math.log((pij + eps) / (pi * pj)) / (-math.log(pij + eps)))
        per_topic.append(sum(vals) / len(vals) if vals else 0.0)
    return per_topic, sum(per_topic) / len(per_topic)


def topic_diversity(topics: list[list[int]]) -> float:
    """Fraction of distinct words among all topics' top-N words."""
    total = sum(len(t) for t in topics)
    if total == 0:
        raise ValueError("topic_diversity: empty topic list")
    return len({w for t in topics for w in t}) / total


def _kl(p: Array, q: Array) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _check_distribution(name: str, d: Array) -> None:
    if np.any(d < 0) or abs(d.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability vector (sum={d.sum()})")


def _js(p: Array, q: Array) -> float:
    m = (p + q) / 2.0
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def js_divergence(p: Array, q: Array) -> float:
    """Jensen-Shannon divergence, natural log; bounded by ln 2."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"distribution shape mismatch: {p.shape} vs {q.shape}")
    _check_distribution("p", p)
    _check_distribution("q", q)
    return _js(p, q)


def align_topics(A: list[Array], B: list[Array],
                 threshold: float = DEFAULT_ALIGN_THRESHOLD) -> list[tuple[int, int, float]]:
    """Competitive linking: repeatedly match the globally lowest-JS pair.

    Stops once the lowest remaining JS exceeds the threshold; ties break by
    (i, j) order. Emitted pairs have nondecreasing JS. Each distribution is
    checked once, before any pair is scored.
    """
    A = [np.asarray(a, dtype=np.float64) for a in A]
    B = [np.asarray(b, dtype=np.float64) for b in B]
    shapes = {d.shape for d in A + B}
    if len(shapes) > 1:
        raise DataError(
            f"topic distributions are over different vocabularies: {sorted(shapes)}")
    for name, dists in (("A", A), ("B", B)):
        for k, d in enumerate(dists):
            _check_distribution(f"{name}[{k}]", d)
    scored = sorted((_js(a, b), i, j) for i, a in enumerate(A) for j, b in enumerate(B))
    used_a, used_b = set(), set()
    matching: list[tuple[int, int, float]] = []
    for js, i, j in scored:
        if js > threshold:
            break
        if i not in used_a and j not in used_b:
            matching.append((i, j, js))
            used_a.add(i)
            used_b.add(j)
    return matching


def macro_f1(y_true: Array, y_pred: Array, n_classes: int) -> float:
    f1s = []
    for c in range(n_classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(f1s))


def ridge_proxy_f1(features: Array, labels: Array, seed: int = 0) -> float:
    """Macro-F1 of a ridge classifier on a deterministic held-out split.

    W is the exact minimiser of ‖[X 1]W − Y‖²_F + λ‖W‖²_F over the training
    rows X, Y their one-hot labels and λ = PROXY_L2: one (d+1)×(d+1) solve.
    A held-out row x is predicted as the argmax of [x 1]W. A lightweight
    proxy for external classifiers fed from the exported feature table.
    """
    n, d = features.shape
    # ordered by type name first, so mixed scalar labels such as 0 and "a" sort
    classes = sorted(set(labels.tolist()), key=lambda l: (type(l).__name__, l))
    y = np.array([classes.index(l) for l in labels.tolist()])
    C = len(classes)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = max(1, int(PROXY_HOLDOUT_FRAC * n))
    test_idx, train_idx = order[:n_test], order[n_test:]
    X1 = np.hstack([features, np.ones((n, 1))])
    Xtr = X1[train_idx]
    W = np.linalg.solve(Xtr.T @ Xtr + PROXY_L2 * np.eye(d + 1), Xtr.T @ np.eye(C)[y[train_idx]])
    pred = (X1[test_idx] @ W).argmax(axis=1)
    return macro_f1(y[test_idx], pred, C)


def classification_features(corpus: Corpus, enc: ntm.EncoderParams,
                            csv_path: str | None = None,
                            seed: int = 0) -> tuple[Array, list, float | None]:
    """Mean-path theta_doc per document, optionally exported as CSV.

    Returns (features, labels, proxy macro-F1); the F1 is None when the
    corpus carries no labels.
    """
    theta, keep = ntm.doc_theta(corpus, enc)
    labels = [corpus.documents[i].label for i in keep]
    if csv_path is not None:
        T = theta.shape[1]
        with output_file(csv_path) as fh:
            writer = csv.writer(fh)
            writer.writerow([f"theta_{t}" for t in range(T)] + ["label"])
            for row, label in zip(theta, labels):
                writer.writerow([repr(v) for v in row.tolist()] + ["" if label is None else label])
    if any(l is None for l in labels):
        return theta, labels, None
    f1 = ridge_proxy_f1(theta, np.array(labels, dtype=object), seed=seed)
    return theta, labels, f1


def similarity_probe(text_a: str, text_b: str, enc: ntm.EncoderParams,
                     vocab: Vocabulary) -> float:
    """Cosine similarity of the two texts' mean-path theta_doc vectors."""
    thetas = []
    for name, text in (("first", text_a), ("second", text_b)):
        doc = vectorize(text, vocab)
        if doc.is_empty:
            raise DataError(f"the {name} probe text has no in-vocabulary tokens: {text!r}")
        mu = ntm.encode_batch(ntm.docs_to_matrix([doc], vocab.size), enc).mu
        thetas.append(diffnet.softmax(mu).ravel())
    a, b = thetas
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def save_topics(topics: list[list[int]], vocab: Vocabulary, path: str) -> None:
    with output_file(path) as fh:
        for words in topics:
            fh.write(" ".join(vocab.words[w] for w in words) + "\n")


def load_topics(path: str, vocab: Vocabulary) -> list[list[int]]:
    topics = []
    for lineno, line in read_lines(path, "topics file"):
        row = []
        for w in line.split():
            if w not in vocab.index:
                raise DataError(f"{path}:{lineno}: word {w!r} is not in the vocabulary")
            if vocab.index[w] in row:  # NPMI scores only pairs of distinct words
                raise DataError(f"{path}:{lineno}: word {w!r} appears twice")
            row.append(vocab.index[w])
        if len(row) < 2:
            raise DataError(f"{path}:{lineno}: a topic needs at least two words for NPMI, "
                            f"got {len(row)}")
        topics.append(row)
    if not topics:
        raise DataError(f"topics file {path} holds no topic line")
    return topics
