import csv
import itertools
import math

import numpy as np
import pytest

import oracles
from paretopic import diffnet, evaluate, ntm
from paretopic.corpus import BowDocument, Corpus, Vocabulary
from paretopic.errors import DataError


def corpus_from_count_rows(rows, V):
    vocab = Vocabulary(words=[f"w{i}" for i in range(V)], df=[1] * V)
    docs = [BowDocument(counts={w: c for w, c in enumerate(r) if c}) for r in rows]
    return Corpus(documents=docs, vocabulary=vocab)


class TestCooccurrenceStats:
    def test_counts(self):
        corpus = corpus_from_count_rows([[1, 1, 0], [1, 0, 1], [0, 1, 0]], 3)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        assert stats.doc_count == 3
        assert stats.p_word(0) == pytest.approx(2 / 3)
        assert stats.p_pair(0, 1) == pytest.approx(1 / 3)
        assert stats.p_pair(1, 0) == pytest.approx(1 / 3)  # order-insensitive
        assert stats.p_pair(1, 2) == 0.0

    def test_presence_not_frequency(self):
        corpus = corpus_from_count_rows([[5, 9]], 2)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        assert stats.p_word(0) == 1.0
        assert stats.p_pair(0, 1) == 1.0

    def test_all_empty_raises(self):
        corpus = corpus_from_count_rows([[0, 0]], 2)
        with pytest.raises(DataError):
            evaluate.CooccurrenceStats.from_corpus(corpus)
        with pytest.raises(DataError):
            evaluate.CooccurrenceStats.from_corpus(corpus, topics=[[0, 1]])

    def test_matches_pair_loop_oracle_on_word_subsets(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            V = int(rng.integers(2, 25))
            D = int(rng.integers(1, 30))
            rows = rng.integers(0, 4, (D, V)) * (rng.random((D, V)) < rng.random())
            rows[0, rng.integers(V)] = 1  # at least one nonempty document
            corpus = corpus_from_count_rows(rows.tolist(), V)
            D_ref, word_df, pair_df = oracles.cooccurrence_counts(corpus)
            full = evaluate.CooccurrenceStats.from_corpus(corpus)
            assert (full.doc_count, full.word_doc_freq, full.pair_doc_freq) == (
                D_ref, word_df, pair_df)
            # topics may name words absent from the corpus, and ids past V
            topics = [rng.choice(V + 3, size=int(rng.integers(0, min(V + 3, 8) + 1)),
                                 replace=False).tolist()
                      for _ in range(int(rng.integers(0, 5)))]
            within = {(a, b) for t in topics for a, b in itertools.combinations(sorted(t), 2)}
            stats = evaluate.CooccurrenceStats.from_corpus(corpus, topics=topics)
            assert stats.doc_count == D_ref
            assert stats.word_doc_freq == word_df
            assert stats.pair_doc_freq == {
                pair: n for pair, n in pair_df.items() if pair in within}
            scored = [t for t in topics if len(t) >= 2]
            if scored:
                assert evaluate.npmi(scored, stats) == evaluate.npmi(scored, full)


class TestNpmi:
    def test_perfect_cooccurrence_is_one(self):
        # words 0,1 appear only together, in half the docs:
        # p_i = p_j = p_ij = 1/2 so pmi = log 2 = -log p_ij, NPMI = 1
        corpus = corpus_from_count_rows([[1, 1, 0], [0, 0, 1]], 3)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        per_topic, mean = evaluate.npmi([[0, 1]], stats)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert per_topic == [mean]

    def test_independent_words_zero(self):
        # p_0 = p_1 = 1/2, p_01 = 1/4: pmi = 0
        corpus = corpus_from_count_rows(
            [[1, 1, 1], [1, 0, 1], [0, 1, 1], [0, 0, 1]], 3)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        _, mean = evaluate.npmi([[0, 1]], stats)
        assert mean == pytest.approx(0.0, abs=1e-9)

    def test_never_cooccur_approaches_minus_one(self):
        corpus = corpus_from_count_rows([[1, 0]] * 3 + [[0, 1]] * 3, 2)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        _, mean = evaluate.npmi([[0, 1]], stats)
        # approaches -1 at rate 1/log(eps) as eps shrinks
        assert mean == pytest.approx(-1.0, abs=0.06)
        _, tighter = evaluate.npmi([[0, 1]], stats, eps=1e-300)
        assert tighter == pytest.approx(-1.0, abs=3e-3)

    def test_absent_word_contributes_minimum(self):
        corpus = corpus_from_count_rows([[1, 1, 0]], 3)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        per_topic, _ = evaluate.npmi([[0, 2]], stats)
        assert per_topic == [-1.0]

    @pytest.mark.parametrize("short", [[2], []], ids=["one-word", "no-word"])
    def test_topic_of_fewer_than_two_words_raises(self, short):
        # no word pair to average over; a 0.0 in its place would lower the mean
        corpus = corpus_from_count_rows([[1, 1, 1], [1, 0, 1]], 3)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        with pytest.raises(ValueError, match=rf"topic 1 has {len(short)} word\(s\)"):
            evaluate.npmi([[0, 1], short], stats)

    def test_matches_independent_recount(self):
        """Oracle: recount NPMI from raw presence sets on a random corpus."""
        rng = np.random.default_rng(0)
        V, D = 12, 40
        rows = (rng.random((D, V)) < 0.3).astype(int)
        rows[rows.sum(axis=1) == 0, 0] = 1
        corpus = corpus_from_count_rows(rows.tolist(), V)
        stats = evaluate.CooccurrenceStats.from_corpus(corpus)
        topics = [[0, 3, 7], [1, 2, 11]]
        per_topic, mean = evaluate.npmi(topics, stats)
        eps = 1e-12
        expect = []
        for words in topics:
            vals = []
            for a, b in itertools.combinations(words, 2):
                pi = rows[:, a].mean()
                pj = rows[:, b].mean()
                pij = (rows[:, a] & rows[:, b]).mean()
                vals.append(math.log((pij + eps) / (pi * pj)) / -math.log(pij + eps))
            expect.append(sum(vals) / len(vals))
        np.testing.assert_allclose(per_topic, expect, rtol=1e-12)
        assert mean == pytest.approx(sum(expect) / 2)


class TestTopicDiversity:
    def test_disjoint_topics(self):
        assert evaluate.topic_diversity([[0, 1], [2, 3]]) == 1.0

    def test_identical_topics(self):
        T = 4
        assert evaluate.topic_diversity([[0, 1, 2]] * T) == pytest.approx(1 / T)

    def test_partial_overlap(self):
        assert evaluate.topic_diversity([[0, 1], [1, 2]]) == pytest.approx(0.75)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate.topic_diversity([])


class TestJsDivergence:
    def test_identical_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert evaluate.js_divergence(p, p.copy()) == 0.0

    def test_disjoint_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert evaluate.js_divergence(p, q) == pytest.approx(math.log(2))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert evaluate.js_divergence(p, q) == pytest.approx(
            evaluate.js_divergence(q, p), rel=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            evaluate.js_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate.js_divergence(np.array([1.0]), np.array([0.5, 0.5]))


def lexmin_matching_oracle(scores):
    """Perfect matching whose sorted weight sequence is lexicographically
    smallest; with distinct weights this is what greedy lowest-first finds."""
    n = len(scores)
    best_key, best = None, None
    for perm in itertools.permutations(range(n)):
        weights = tuple(sorted(scores[i][j] for i, j in enumerate(perm)))
        if best_key is None or weights < best_key:
            best_key, best = weights, perm
    return {(i, j) for i, j in enumerate(best)}


class TestAlignTopics:
    def make_dists(self, rng, n, V=6):
        return [rng.dirichlet(np.ones(V)) for _ in range(n)]

    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(2)
        A = self.make_dists(rng, 4)
        matching = evaluate.align_topics(A, [a.copy() for a in A], threshold=0.5)
        assert {(i, j) for i, j, _ in matching} == {(i, i) for i in range(4)}
        assert all(js == 0.0 for _, _, js in matching)

    def test_threshold_prunes(self):
        A = [np.array([1.0, 0.0])]
        B = [np.array([0.0, 1.0])]  # JS = ln 2 > 0.5
        assert evaluate.align_topics(A, B, threshold=0.5) == []

    def test_emitted_js_nondecreasing(self):
        rng = np.random.default_rng(3)
        A = self.make_dists(rng, 5)
        B = self.make_dists(rng, 5)
        matching = evaluate.align_topics(A, B, threshold=1.0)
        js = [m[2] for m in matching]
        assert js == sorted(js)

    def test_greedy_equals_lexmin_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            A = self.make_dists(rng, 3)
            B = self.make_dists(rng, 3)
            scores = [[evaluate.js_divergence(a, b) for b in B] for a in A]
            assert len({w for row in scores for w in row}) == 9  # distinct
            matching = evaluate.align_topics(A, B, threshold=float("inf"))
            assert {(i, j) for i, j, _ in matching} == lexmin_matching_oracle(scores)

    def test_vocabulary_mismatch(self):
        with pytest.raises(DataError):
            evaluate.align_topics([np.array([1.0])], [np.array([0.5, 0.5])])

    def test_negative_entry_raises(self):
        # sums to 1, so only the sign check can catch it
        good = [np.array([0.5, 0.5]), np.array([0.2, 0.8])]
        bad = np.array([1.25, -0.25])
        for A, B in (([bad], good), (good, good + [bad])):
            with pytest.raises(ValueError):
                evaluate.align_topics(A, B, threshold=float("inf"))

    def test_sorted_pass_matches_free_set_loop(self):
        # duplicated distributions give tied scores; the (i, j) order breaks them
        rng = np.random.default_rng(9)
        for _ in range(400):
            A = self.make_dists(rng, int(rng.integers(1, 6)), V=4)
            B = self.make_dists(rng, int(rng.integers(1, 6)), V=4)
            if rng.random() < 0.5:
                A.append(B[0].copy())
                B.append(A[0].copy())
            threshold = float(rng.choice([0.05, 0.1, 0.2, 0.4, float("inf")]))
            scores = [[evaluate.js_divergence(a, b) for b in B] for a in A]
            assert evaluate.align_topics(A, B, threshold) == \
                oracles.align_topics(scores, threshold)


class TestClassification:
    def test_macro_f1_perfect(self):
        y = np.array([0, 1, 2, 0])
        assert evaluate.macro_f1(y, y.copy(), 3) == 1.0

    def test_macro_f1_known_value(self):
        # class 0: tp=1 fp=1 fn=0 -> f1 = 2/3; class 1: tp=1 fp=0 fn=1 -> 2/3
        y_true = np.array([0, 1, 1])
        y_pred = np.array([0, 0, 1])
        assert evaluate.macro_f1(y_true, y_pred, 2) == pytest.approx(2 / 3)

    def test_logistic_proxy_separable(self):
        rng = np.random.default_rng(5)
        n = 120
        X = np.zeros((n, 2))
        y = np.array([i % 2 for i in range(n)])
        X[:, 0] = y + 0.01 * rng.standard_normal(n)
        X[:, 1] = 1 - y + 0.01 * rng.standard_normal(n)
        assert evaluate.ridge_proxy_f1(X, y) == 1.0

    def test_logistic_proxy_uninformative_features(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 3))
        y = np.array([i % 2 for i in range(200)])
        f1 = evaluate.ridge_proxy_f1(X, y)
        assert f1 < 0.75  # around chance, far from separable

    def test_logistic_proxy_mixed_label_types(self):
        # classes are ordered by type name, then value: 0 and "a" need not compare
        rng = np.random.default_rng(5)
        n = 120
        y = np.array([i % 2 for i in range(n)])
        X = np.stack([y, 1 - y], axis=1) + 0.01 * rng.standard_normal((n, 2))
        mixed = np.array([0 if v == 0 else "a" for v in y], dtype=object)
        assert evaluate.ridge_proxy_f1(X, mixed) == evaluate.ridge_proxy_f1(X, y)

    def test_ridge_proxy_matches_least_squares_oracle(self):
        # theta-like rows: T=50 topic mixtures, 20 overlapping classes, 2,000 rows
        rng = np.random.default_rng(11)
        y = rng.integers(0, 20, 2000)
        centers = rng.standard_normal((20, 50))
        X = diffnet.softmax(centers[y] + rng.standard_normal((2000, 50)))
        for seed in (0, 1):
            f1 = evaluate.ridge_proxy_f1(X, y, seed=seed)
            assert 0.5 < f1 < 1.0  # neither trivial nor perfect
            assert f1 == oracles.ridge_proxy_f1(X, y, seed)

    def test_feature_export(self, tmp_path):
        rng = np.random.default_rng(7)
        V, T = 8, 3
        vocab = Vocabulary(words=[f"w{i}" for i in range(V)], df=[1] * V)
        docs = [BowDocument(counts={i % V: 2}, label=i % 2) for i in range(10)]
        corpus = Corpus(documents=docs, vocabulary=vocab)
        enc, _ = ntm.init_params(V, 4, T, rng)
        path = tmp_path / "features.csv"
        theta, labels, f1 = evaluate.classification_features(corpus, enc,
                                                             csv_path=str(path))
        assert theta.shape == (10, T)
        assert f1 is not None
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta_0", "theta_1", "theta_2", "label"]
        assert len(rows) == 11
        np.testing.assert_allclose([float(v) for v in rows[1][:3]], theta[0])

    def test_unlabeled_corpus_skips_f1(self):
        rng = np.random.default_rng(8)
        vocab = Vocabulary(words=["aa", "bb"], df=[1, 1])
        docs = [BowDocument(counts={0: 1}), BowDocument(counts={1: 1})]
        corpus = Corpus(documents=docs, vocabulary=vocab)
        enc, _ = ntm.init_params(2, 3, 2, rng)
        _, _, f1 = evaluate.classification_features(corpus, enc)
        assert f1 is None


class TestSimilarityProbe:
    def test_identical_texts_cosine_one(self):
        rng = np.random.default_rng(9)
        vocab = Vocabulary(words=["aa", "bb", "cc"], df=[1, 1, 1])
        enc, _ = ntm.init_params(3, 4, 2, rng)
        sim = evaluate.similarity_probe("aa bb", "aa bb", enc, vocab)
        assert sim == pytest.approx(1.0)

    def test_oov_probe_raises(self):
        rng = np.random.default_rng(10)
        vocab = Vocabulary(words=["aa"], df=[1])
        enc, _ = ntm.init_params(1, 2, 2, rng)
        with pytest.raises(DataError, match="second"):
            evaluate.similarity_probe("aa", "zz", enc, vocab)


class TestTopicsIo:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(words=["aa", "bb", "cc"], df=[1, 1, 1])
        topics = [[2, 0], [1, 2]]
        path = tmp_path / "topics.txt"
        evaluate.save_topics(topics, vocab, str(path))
        assert evaluate.load_topics(str(path), vocab) == topics

    def test_one_word_topic_rejected(self, tmp_path):
        vocab = Vocabulary(words=["aa", "bb"], df=[1, 1])
        path = tmp_path / "topics.txt"
        path.write_text("aa bb\nbb\n")
        with pytest.raises(DataError, match=r"topics\.txt:2: a topic needs at least two words"):
            evaluate.load_topics(str(path), vocab)

    def test_oov_word_rejected(self, tmp_path):
        vocab = Vocabulary(words=["aa"], df=[1])
        path = tmp_path / "topics.txt"
        path.write_text("aa zz\n")
        with pytest.raises(DataError, match="zz"):
            evaluate.load_topics(str(path), vocab)

    def test_repeated_word_rejected(self, tmp_path):
        vocab = Vocabulary(words=["aa", "bb"], df=[1, 1])
        path = tmp_path / "topics.txt"
        path.write_text("aa bb\nbb aa bb\n")
        with pytest.raises(DataError, match=r"topics\.txt:2: word 'bb' appears twice$"):
            evaluate.load_topics(str(path), vocab)
