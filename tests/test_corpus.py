import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import oracles
from paretopic.corpus import (BowDocument, Vocabulary, _token_counts, build_vocabulary,
                              load_corpus, make_corpus, vectorize)
from paretopic.errors import DataError


class TestTokenize:
    def test_lowercase_and_split(self):
        assert _token_counts("Apple, BANANA! cherry apple") == {"apple": 2, "banana": 1,
                                                               "cherry": 1}

    def test_drops_short_and_digit_tokens(self):
        assert list(_token_counts("a 42 ok x9 2nd")) == ["ok", "x9", "2nd"]


class TestBuildVocabulary:
    def test_min_df_filter(self):
        # dfs: aa=2, bb=1, cc=1; only aa survives min_df=2
        vocab = build_vocabulary(["aa bb", "aa cc"], min_df=2, max_df_frac=1.0, max_size=10)
        assert vocab.words == ["aa"]
        assert vocab.df == [2]

    def test_single_token(self):
        vocab = build_vocabulary(["xx"], min_df=1, max_df_frac=1.0, max_size=10)
        assert vocab.words == ["xx"]
        assert vocab.size == 1

    def test_all_filtered_raises(self):
        with pytest.raises(DataError, match="min_df"):
            build_vocabulary(["aa aa aa", "aa"], min_df=1, max_df_frac=0.4, max_size=10)

    def test_order_df_desc_then_lex(self):
        texts = ["bb cc dd", "cc dd", "dd"]
        vocab = build_vocabulary(texts, min_df=1, max_df_frac=1.0, max_size=10)
        assert vocab.words == ["dd", "cc", "bb"]

    def test_max_size_truncates(self):
        texts = ["aa bb cc dd"] * 2
        vocab = build_vocabulary(texts, min_df=1, max_df_frac=1.0, max_size=2)
        assert vocab.size == 2
        assert vocab.words == ["aa", "bb"]

    def test_empty_texts_raises(self):
        with pytest.raises(DataError):
            build_vocabulary([], min_df=1, max_df_frac=1.0, max_size=10)

    @given(st.permutations(["aa bb", "bb cc", "cc aa", "aa bb cc"]))
    def test_permutation_invariant(self, texts):
        vocab = build_vocabulary(list(texts), min_df=1, max_df_frac=1.0, max_size=10)
        ref = build_vocabulary(["aa bb", "bb cc", "cc aa", "aa bb cc"],
                               min_df=1, max_df_frac=1.0, max_size=10)
        assert vocab.words == ref.words
        assert vocab.df == ref.df


class TestVectorize:
    @pytest.fixture
    def vocab(self):
        return Vocabulary(words=["aa", "bb"], df=[2, 1])

    def test_counts(self, vocab):
        doc = vectorize("aa bb aa", vocab)
        assert doc.counts == {0: 2, 1: 1}

    def test_all_oov_flagged(self, vocab):
        doc = vectorize("zz zz", vocab)
        assert doc.counts == {}
        assert doc.is_empty

    def test_identity(self, vocab):
        assert vectorize("aa", vocab).counts == {0: 1}

    def test_deterministic(self, vocab):
        assert vectorize("aa bb bb", vocab).counts == vectorize("aa bb bb", vocab).counts

    # Punctuation, digits, and characters that str.split takes for whitespace
    # (\x1c-\x1f, \x85, \xa0, \u3000) or that change under lower() (the Kelvin
    # sign lowers to ASCII "k", "İ" to "i" and a combining dot); "ﬁ" and "²" are
    # alphanumeric but not ASCII.
    PIECES = ["aa", "Bb", "BB", "a", "12", "7", "x9", "zz", "a1", ",", " ", "-", ".", "'",
              "0", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",
              "\u212a", "\u0130", "\ufb01", "\xb2", "é"]

    @given(st.lists(st.sampled_from(PIECES), max_size=60))
    def test_matches_per_token_count(self, pieces):
        """Same counts, in the same order, as counting the regex's tokens one by
        one; words a loaded vocabulary may hold but the tokeniser drops ("a",
        "12") stay out."""
        vocab = Vocabulary(words=["12", "bb", "a", "x9", "aa", "a1", "kk", "ia", "zz"],
                           df=[1] * 9)
        text = "".join(pieces)
        assert list(_token_counts(text).items()) == list(Counter(oracles.tokenize(text)).items())
        counts = vectorize(text, vocab).counts
        assert list(counts.items()) == list(oracles.vectorize_counts(text, vocab).items())
        assert 0 not in counts and 2 not in counts

    @given(st.lists(st.sampled_from(["aa", "bb", "zz", "qq"]), max_size=30))
    def test_total_count_equals_in_vocab_tokens(self, tokens):
        vocab = Vocabulary(words=["aa", "bb"], df=[1, 1])
        text = " ".join(tokens)
        doc = vectorize(text, vocab)
        assert doc.total == sum(1 for t in tokens if t in ("aa", "bb"))


class TestLoadCorpus:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "aa bb", "label": "x"}\n{"text": "cc"}\n')
        entries = load_corpus(str(path))
        assert entries == [("aa bb", "x"), ("cc", None)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(str(path)) == []

    def test_missing_text_counts_as_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"label": "x"}\n')
        with pytest.raises(DataError, match="malformed"):
            load_corpus(str(path))

    @pytest.mark.parametrize("label", [[1], {"a": 1}])
    def test_unhashable_label_counts_as_malformed(self, tmp_path, label):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"text": f"doc {i}", "label": i}) for i in range(200)]
        lines.insert(50, json.dumps({"text": "doc x", "label": label}))
        path.write_text("\n".join(lines) + "\n")
        entries = load_corpus(str(path))  # one bad line in 201 is tolerated
        assert len(entries) == 200 and all(isinstance(l, int) for _, l in entries)
        path.write_text(json.dumps({"text": "doc x", "label": label}) + "\n")
        with pytest.raises(DataError, match="malformed"):
            load_corpus(str(path))

    def test_few_malformed_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"text": f"doc {i}"}) for i in range(200)]
        lines.insert(50, "not json {")
        path.write_text("\n".join(lines) + "\n")
        entries = load_corpus(str(path))
        assert len(entries) == 200

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(str(tmp_path / "missing.jsonl"))


class TestVocabularyIo:
    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary(["aa bb", "aa cc"], min_df=1, max_df_frac=1.0, max_size=10)
        path = tmp_path / "vocab.json"
        vocab.save(str(path))
        loaded = Vocabulary.load(str(path))
        assert loaded.words == vocab.words
        assert loaded.df == vocab.df
        assert loaded.content_hash() == vocab.content_hash()

    def test_duplicate_words_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(words=["aa", "aa"], df=[1, 1])


def test_make_corpus_flags_empty(tiny_texts):
    vocab = build_vocabulary(tiny_texts, min_df=1, max_df_frac=1.0, max_size=100)
    corpus = make_corpus([(t, None) for t in tiny_texts] + [("zzz qqq", None)], vocab)
    assert len(corpus) == 7
    assert corpus.trainable_indices() == list(range(6))
