import itertools
import json
from unittest import mock

import numpy as np
import pytest
import requests

import oracles
from paretopic import augment
from paretopic.augment import (AugmentedTriple, LlmAugmentError, TfidfAugmenter,
                               bow_to_text, build_augmentation_cache,
                               cache_augmentations, dropout_augment,
                               llm_augment, load_augmentations)
from paretopic.corpus import BowDocument, Vocabulary, build_vocabulary, make_corpus
from paretopic.errors import DataError


@pytest.fixture
def corpus(tiny_texts):
    vocab = build_vocabulary(tiny_texts, min_df=1, max_df_frac=1.0, max_size=100)
    return make_corpus([(t, None) for t in tiny_texts], vocab)


class TestAugmentedTriple:
    def test_rejects_empty_texts(self):
        with pytest.raises(DataError):
            AugmentedTriple(anchor_id=0, positive_text="", negative_text="x",
                            method="tfidf")

    @pytest.mark.parametrize("view", [{}, {"aa": 0}, {"aa": -1}, {"aa": True},
                                      {"aa": 1.5}, {"aa": "2"}, {3: 1}, ["aa"]])
    def test_rejects_malformed_bag_of_words(self, view):
        with pytest.raises(DataError):
            AugmentedTriple(anchor_id=0, positive_text={"aa": 1}, negative_text=view,
                            method="tfidf")


def fake_response(status=200, body=None, bad_json=False):
    resp = mock.Mock()
    resp.status_code = status
    if status >= 400:
        resp.raise_for_status.side_effect = requests.HTTPError(f"{status}")
    else:
        resp.raise_for_status.return_value = None
    if bad_json:
        resp.json.side_effect = ValueError("not json")
    else:
        resp.json.return_value = body
    return resp


def chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


class TestLlmAugment:
    def test_success_first_attempt(self):
        with mock.patch.object(augment.requests, "post",
                               return_value=fake_response(body=chat_body("a cat"))) as post:
            out = llm_augment("dog text", "related", endpoint="http://x", api_key="k")
        assert out == "a cat"
        assert post.call_count == 1
        payload = post.call_args.kwargs["json"]
        assert "related" in payload["messages"][0]["content"]
        assert "dog text" in payload["messages"][0]["content"]
        assert post.call_args.kwargs["headers"]["Authorization"] == "Bearer k"

    def test_retries_then_succeeds(self):
        responses = [fake_response(status=500),
                     fake_response(body=chat_body("ok"))]
        with mock.patch.object(augment.requests, "post", side_effect=responses) as post, \
                mock.patch.object(augment.time, "sleep") as sleep:
            out = llm_augment("t", "unrelated", endpoint="http://x", backoff=2.0)
        assert out == "ok"
        assert post.call_count == 2
        sleep.assert_called_once_with(2.0)

    def test_exponential_backoff_then_failure(self):
        with mock.patch.object(augment.requests, "post",
                               return_value=fake_response(status=503)) as post, \
                mock.patch.object(augment.time, "sleep") as sleep:
            with pytest.raises(LlmAugmentError) as exc:
                llm_augment("t", "related", endpoint="http://x", doc_id=17,
                            max_attempts=3, backoff=1.0)
        assert post.call_count == 3
        assert [c.args[0] for c in sleep.call_args_list] == [1.0, 2.0]
        assert exc.value.doc_id == 17

    def test_non_text_completion_raises_without_retry(self):
        with mock.patch.object(augment.requests, "post",
                               return_value=fake_response(body=chat_body("  "))) as post:
            with pytest.raises(LlmAugmentError):
                llm_augment("t", "related", endpoint="http://x")
        assert post.call_count == 1

    def test_malformed_body_retries(self):
        responses = [fake_response(body={"nope": 1}),
                     fake_response(bad_json=True),
                     fake_response(body=chat_body("fine"))]
        with mock.patch.object(augment.requests, "post", side_effect=responses), \
                mock.patch.object(augment.time, "sleep"):
            assert llm_augment("t", "related", endpoint="http://x") == "fine"

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            llm_augment("t", "sideways", endpoint="http://x")

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(augment.API_KEY_ENV, "envkey")
        with mock.patch.object(augment.requests, "post",
                               return_value=fake_response(body=chat_body("x"))) as post:
            llm_augment("t", "related", endpoint="http://x")
        assert post.call_args.kwargs["headers"]["Authorization"] == "Bearer envkey"


class TestTfidfAugmenter:
    def test_related_replaces_lowest_scoring(self, corpus):
        aug = TfidfAugmenter(corpus)
        doc = corpus.documents[0]
        out = aug.augment(doc, "related", replace_frac=0.3, rng_seed=1)
        scored = sorted(aug.scores(doc).items(), key=lambda kv: (kv[1], kv[0]))
        victim = scored[0][0]
        assert victim not in out.counts
        # the highest-scoring word is untouched for the related view
        assert scored[-1][0] in out.counts
        assert sum(out.counts.values()) == doc.total

    def test_unrelated_replaces_highest_scoring(self, corpus):
        aug = TfidfAugmenter(corpus)
        doc = corpus.documents[0]
        out = aug.augment(doc, "unrelated", replace_frac=0.3, rng_seed=1)
        scored = sorted(aug.scores(doc).items(), key=lambda kv: (kv[1], kv[0]))
        assert scored[-1][0] not in out.counts

    def test_replacements_come_from_outside_doc(self, corpus):
        aug = TfidfAugmenter(corpus)
        doc = corpus.documents[2]
        out = aug.augment(doc, "unrelated", replace_frac=0.5, rng_seed=3)
        fresh = set(out.counts) - set(doc.counts)
        assert fresh
        assert all(w not in doc.counts for w in fresh)

    def test_single_word_doc(self, corpus):
        doc = BowDocument(counts={0: 4})
        aug = TfidfAugmenter(corpus)
        related = aug.augment(doc, "related", rng_seed=0)
        assert related.counts == doc.counts
        unrelated = aug.augment(doc, "unrelated", rng_seed=0)
        assert 0 not in unrelated.counts
        assert sum(unrelated.counts.values()) == 4

    def test_seed_reproducible(self, corpus):
        aug = TfidfAugmenter(corpus)
        doc = corpus.documents[1]
        a = aug.augment(doc, "unrelated", rng_seed=9)
        b = aug.augment(doc, "unrelated", rng_seed=9)
        assert a.counts == b.counts

    def test_empty_doc_rejected(self, corpus):
        with pytest.raises(DataError):
            TfidfAugmenter(corpus).augment(BowDocument(counts={}), "related")

    def test_bad_replace_frac(self, corpus):
        with pytest.raises(ValueError):
            TfidfAugmenter(corpus).augment(corpus.documents[0], "related",
                                           replace_frac=1.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        words = [f"w{i:03d}" for i in range(120)]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 60))))
                 for _ in range(30)]
        wide = make_corpus([(t, None) for t in texts], Vocabulary(words=words, df=[1] * 120))
        # 4 words, a document with 3 of them: once the one fresh word is
        # taken, further victims keep their own slot
        small = make_corpus([("aa bb bb cc cc cc", None), ("aa dd", None)],
                            Vocabulary(words=["aa", "bb", "cc", "dd"], df=[1] * 4))
        for corpus in (wide, small):
            aug = TfidfAugmenter(corpus)
            docs = [d for d in corpus.documents if not d.is_empty]
            docs.append(BowDocument(counts={0: 3}))  # the nnz == 1 branch
            for seed, doc, polarity, frac in itertools.product(
                    range(6), docs, ("related", "unrelated"), (0.3, 0.9)):
                got = aug.augment(doc, polarity, frac, rng_seed=seed)
                want = oracles.tfidf_augment(aug, doc, polarity, frac, seed)
                assert list(got.counts.items()) == list(want.counts.items())


class TestDropoutAugment:
    def test_drops_expected_count(self):
        doc = BowDocument(counts={i: 1 for i in range(10)})
        out = dropout_augment(doc, drop_frac=0.3, rng_seed=0)
        assert len(out.counts) == 7
        assert set(out.counts) <= set(doc.counts)

    def test_never_drops_everything(self):
        doc = BowDocument(counts={0: 1, 1: 1})
        out = dropout_augment(doc, drop_frac=0.9, rng_seed=0)
        assert len(out.counts) == 1

    def test_small_doc_unchanged(self):
        doc = BowDocument(counts={3: 2})
        out = dropout_augment(doc, drop_frac=0.3, rng_seed=0)
        assert out.counts == {3: 2}


class TestBowToText:
    def test_repeats_counts(self, corpus):
        vocab = corpus.vocabulary
        doc = BowDocument(counts={0: 2, 1: 1})
        text = bow_to_text(doc, vocab)
        assert text.split().count(vocab.words[0]) == 2
        assert text.split().count(vocab.words[1]) == 1


class TestCacheIo:
    def test_round_trip(self, tmp_path):
        triples = [AugmentedTriple(anchor_id=0, positive_text="aa",
                                   negative_text="bb", method="llm"),
                   AugmentedTriple(anchor_id=1, positive_text={"aa": 2, "bb": 1},
                                   negative_text={"cc": 3}, method="tfidf",
                                   vocab_hash="f" * 64)]
        path = tmp_path / "aug.jsonl"
        cache_augmentations(triples, str(path))
        assert load_augmentations(str(path), corpus_size=2) == triples

    def test_out_of_range_anchor(self, tmp_path):
        path = tmp_path / "aug.jsonl"
        path.write_text(json.dumps({"anchor_id": 5, "positive_text": "a",
                                    "negative_text": "b", "method": "tfidf"}) + "\n")
        with pytest.raises(DataError, match="out of range"):
            load_augmentations(str(path), corpus_size=2)

    def test_duplicate_anchor_names_both_lines(self, tmp_path):
        path = tmp_path / "aug.jsonl"
        recs = [{"anchor_id": a, "positive_text": f"p{n}", "negative_text": "b",
                 "method": "tfidf"} for n, a in enumerate([0, 1, 0])]
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(DataError, match=rf"aug.jsonl:3: duplicate anchor_id 0, "
                                            rf"first seen on line 1"):
            load_augmentations(str(path), corpus_size=2)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "aug.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(DataError, match="malformed"):
            load_augmentations(str(path), corpus_size=2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_augmentations(str(tmp_path / "nope.jsonl"), corpus_size=1)


class TestBuildCache:
    def test_tfidf_covers_all_nonempty_docs(self, corpus):
        triples = build_augmentation_cache(corpus, method="tfidf", rng_seed=0)
        assert [t.anchor_id for t in triples] == corpus.trainable_indices()
        assert all(t.method == "tfidf" for t in triples)
        assert all(t.vocab_hash == corpus.vocabulary.content_hash() for t in triples)

    def test_unknown_method_is_rejected(self, corpus):
        with pytest.raises(ValueError, match="'tfdif': expected llm, tfidf or dropout"):
            build_augmentation_cache(corpus, method="tfdif")

    def test_views_are_the_augmented_bags_of_words(self, corpus):
        """A TF-IDF view is written as the augmenter's counts, keyed by word."""
        vocab = corpus.vocabulary
        aug = TfidfAugmenter(corpus)
        for t in build_augmentation_cache(corpus, method="tfidf", rng_seed=5):
            doc = corpus.documents[t.anchor_id]
            for view, polarity, seed in ((t.positive_text, "related", 5 + 2 * t.anchor_id),
                                         (t.negative_text, "unrelated", 6 + 2 * t.anchor_id)):
                counts = aug.augment(doc, polarity, rng_seed=seed).counts
                assert view == {vocab.words[w]: c for w, c in counts.items()}

    def test_llm_failure_falls_back_to_tfidf(self, corpus):
        with mock.patch.object(augment, "llm_augment",
                               side_effect=LlmAugmentError("down")):
            triples = build_augmentation_cache(
                corpus, method="llm",
                llm_options={"endpoint": "http://x"})
        assert all(t.method == "tfidf" for t in triples)

    def test_llm_success_used(self, corpus):
        with mock.patch.object(augment, "llm_augment",
                               return_value="apple banana"):
            triples = build_augmentation_cache(
                corpus, method="llm", llm_options={"endpoint": "http://x"})
        assert all(t.method == "llm" for t in triples)
        assert triples[0].positive_text == "apple banana"

    def test_empty_tfidf_view_regenerated_by_dropout(self, corpus):
        with mock.patch.object(TfidfAugmenter, "augment",
                               return_value=BowDocument(counts={})):
            triples = build_augmentation_cache(corpus, method="tfidf", rng_seed=0)
        assert all(t.method == "dropout" for t in triples)
        assert all(t.positive_text and t.negative_text for t in triples)

    def test_oov_llm_output_regenerated_by_dropout(self, corpus):
        # completions full of OOV words would vectorize empty; the cache
        # builder must swap in the dropout fallback
        with mock.patch.object(augment, "llm_augment",
                               return_value="zzz qqq vvv"):
            triples = build_augmentation_cache(
                corpus, method="llm", llm_options={"endpoint": "http://x"})
        assert all(t.method == "dropout" for t in triples)
        for t in triples:
            for view in (t.positive_text, t.negative_text):
                assert isinstance(view, dict) and view
                assert view.keys() <= set(corpus.vocabulary.words)
