import contextlib
import gc
import io
import itertools
import json
import logging
import os
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from paretopic import augment
from paretopic.augment import (AugmentedTriple, LlmAugmentError, TfidfAugmenter,
                               bow_to_text, build_augmentation_cache,
                               cache_augmentations, llm_augment, load_augmentations)
from paretopic.corpus import BowDocument, Corpus, Vocabulary, build_vocabulary, make_corpus
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
    """What the opener returns for a chat body, or raises for an HTTP status >= 400."""
    if status >= 400:
        return urllib.error.HTTPError("http://x", status, "error", {}, io.BytesIO())
    return io.BytesIO(b"{not json" if bad_json else json.dumps(body).encode())


@contextlib.contextmanager
def stub_opener(*responses):
    """Patch the opener llm_augment builds to answer each call with the next response,
    raising it if an error; yields the opener's open."""
    opener = mock.Mock()
    opener.open.side_effect = responses
    with mock.patch.object(augment, "_opener", return_value=opener):
        yield opener.open


def chat_body(text):
    return {"choices": [{"message": {"content": text}}]}


class TestLlmAugment:
    def test_success_first_attempt(self):
        with stub_opener(fake_response(body=chat_body("a cat"))) as send:
            out = llm_augment("dog text", "related", endpoint="http://x", api_key="k",
                              timeout=7.0)
        assert out == "a cat"
        assert send.call_count == 1
        request = send.call_args.args[0]
        assert request.get_method() == "POST"
        assert send.call_args.kwargs["timeout"] == 7.0
        payload = json.loads(request.data)
        assert "related" in payload["messages"][0]["content"]
        assert "dog text" in payload["messages"][0]["content"]
        assert request.get_header("Authorization") == "Bearer k"
        assert request.get_header("Content-type") == "application/json"

    def test_retries_then_succeeds(self):
        with stub_opener(fake_response(status=500),
                          fake_response(body=chat_body("ok"))) as send, \
                mock.patch.object(augment.time, "sleep") as sleep:
            out = llm_augment("t", "unrelated", endpoint="http://x", backoff=2.0)
        assert out == "ok"
        assert send.call_count == 2
        sleep.assert_called_once_with(2.0)

    def test_exponential_backoff_then_failure(self):
        with stub_opener(*(fake_response(status=503) for _ in range(3))) as send, \
                mock.patch.object(augment.time, "sleep") as sleep:
            with pytest.raises(LlmAugmentError) as exc:
                llm_augment("t", "related", endpoint="http://x", doc_id=17,
                            max_attempts=3, backoff=1.0)
        assert send.call_count == 3
        assert [c.args[0] for c in sleep.call_args_list] == [1.0, 2.0]
        assert "for doc 17: " in str(exc.value)

    def test_non_text_completion_raises_without_retry(self):
        with stub_opener(fake_response(body=chat_body("  "))) as send:
            with pytest.raises(LlmAugmentError):
                llm_augment("t", "related", endpoint="http://x")
        assert send.call_count == 1

    def test_malformed_body_retries(self):
        with stub_opener(fake_response(body={"nope": 1}), fake_response(bad_json=True),
                          fake_response(body=chat_body("fine"))), \
                mock.patch.object(augment.time, "sleep"):
            assert llm_augment("t", "related", endpoint="http://x") == "fine"

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            llm_augment("t", "sideways", endpoint="http://x")

    def test_file_endpoint_is_refused_before_any_attempt(self):
        # urllib would read a local file for a file:// URL
        with stub_opener() as send:
            with pytest.raises(ValueError, match="http:// or https://"):
                llm_augment("t", "related", endpoint="file:///chat.json")
        assert send.call_count == 0

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv(augment.API_KEY_ENV, "envkey")
        with stub_opener(fake_response(body=chat_body("x"))) as send:
            llm_augment("t", "related", endpoint="http://x")
        assert send.call_args.args[0].get_header("Authorization") == "Bearer envkey"

    @pytest.mark.filterwarnings("error")  # an unclosed socket is a ResourceWarning
    def test_loopback_request(self, no_proxy, caplog):
        """The real request against a local server: a 503 first, then a chat body."""
        caplog.set_level(logging.ERROR, augment.__name__)  # a kept log record holds the error
        seen = []

        class Handler(QuietHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                seen.append((self.headers, json.loads(self.rfile.read(length))))
                if len(seen) == 1:
                    self.send_error(503)
                    return
                send_json(self, chat_body("a served view"))

        with serve(Handler) as url:
            out = llm_augment("dog text", "unrelated", api_key="k", backoff=0, timeout=10,
                              endpoint=f"{url}/v1/chat")
        gc.collect()  # an unclosed error response is freed here, and its warning fails the test
        assert out == "a served view"
        assert len(seen) == 2
        headers, payload = seen[1]
        assert payload["messages"][0]["content"] == augment.PROMPT_TEMPLATE.format(
            polarity="unrelated", text="dog text")
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer k"

    @pytest.mark.filterwarnings("error")
    def test_redirect_target_gets_no_api_key(self, no_proxy):
        """A 302 to a second server is followed without the Authorization header."""
        posted, redirected = [], []

        class Target(QuietHandler):
            def do_GET(self):  # urllib follows a 302 after a POST with a GET
                redirected.append(self.headers)
                send_json(self, chat_body("a redirected view"))

        with serve(Target) as target_url:
            class Redirect(QuietHandler):
                def do_POST(self):
                    posted.append(self.headers)
                    self.rfile.read(int(self.headers["Content-Length"]))
                    redirect(self, 302, f"{target_url}/elsewhere")

            with serve(Redirect) as url:
                out = llm_augment("t", "related", api_key="secret", backoff=0, timeout=10,
                                  endpoint=url)
        gc.collect()
        assert out == "a redirected view"
        assert [h["Authorization"] for h in posted] == ["Bearer secret"]
        assert len(redirected) == 1
        assert "Authorization" not in redirected[0]

    @pytest.mark.filterwarnings("error")
    def test_307_to_the_same_server_resends_body_and_key(self, no_proxy):
        seen = []

        class Handler(QuietHandler):
            def do_POST(self):
                seen.append((self.path, self.headers,
                             self.rfile.read(int(self.headers["Content-Length"]))))
                if self.path == "/v1/chat":
                    redirect(self, 307, "/v2/chat")
                else:
                    send_json(self, chat_body("a moved view"))

        with serve(Handler) as url:
            out = llm_augment("dog text", "related", api_key="k", backoff=0, timeout=10,
                              endpoint=f"{url}/v1/chat")
        gc.collect()
        assert out == "a moved view"
        assert [path for path, _, _ in seen] == ["/v1/chat", "/v2/chat"]
        assert seen[1][2] == seen[0][2] and b"dog text" in seen[1][2]
        assert [h["Authorization"] for _, h, _ in seen] == ["Bearer k", "Bearer k"]
        assert seen[1][1]["Content-Type"] == "application/json"

    @pytest.mark.filterwarnings("error")
    def test_308_to_another_port_resends_body_without_key(self, no_proxy):
        posted, moved = [], []

        class Target(QuietHandler):
            def do_POST(self):
                moved.append((self.headers, self.rfile.read(int(self.headers["Content-Length"]))))
                send_json(self, chat_body("a moved view"))

        with serve(Target) as target_url:
            class Redirect(QuietHandler):
                def do_POST(self):
                    posted.append(self.rfile.read(int(self.headers["Content-Length"])))
                    redirect(self, 308, f"{target_url}/v1/chat")

            with serve(Redirect) as url:
                out = llm_augment("dog text", "related", api_key="secret", backoff=0,
                                  timeout=10, endpoint=url)
        gc.collect()
        assert out == "a moved view"
        assert len(posted) == len(moved) == 1
        headers, body = moved[0]
        assert body == posted[0] and b"dog text" in body
        assert "Authorization" not in headers

    @pytest.mark.parametrize("old, new, keeps", [
        ("http://api.example/v1", "http://api.example/v2", True),
        ("http://api.example/v1", "http://api.example:80/v2", True),
        ("https://api.example:443/v1", "https://API.example/v2", True),
        ("http://api.example/v1", "https://api.example/v1", True),
        ("http://api.example:80/v1", "https://api.example:443/v1", True),
        ("http://api.example:8080/v1", "https://api.example/v1", False),
        ("http://api.example/v1", "https://api.example:8443/v1", False),
        ("https://api.example/v1", "http://api.example/v1", False),
        ("http://127.0.0.1:8000/v1", "http://127.0.0.1:8001/v1", False),
        ("http://api.example/v1", "http://other.example/v1", False),
        ("http://api.example/v1", "https://other.example/v1", False),
    ])
    def test_api_key_rule(self, old, new, keeps):
        assert augment.forwards_api_key(old, new) is keeps


@pytest.fixture
def no_proxy(monkeypatch):
    """Requests to the loopback servers go straight to them, not to a proxy."""
    for name in [n for n in os.environ if n.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)


class QuietHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass


def send_json(handler, body):
    reply = json.dumps(body).encode()
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(reply)))
    handler.end_headers()
    handler.wfile.write(reply)


def redirect(handler, code, location):
    handler.send_response(code)
    handler.send_header("Location", location)
    handler.send_header("Content-Length", "0")
    handler.end_headers()


@contextlib.contextmanager
def serve(handler):
    """Serve handler from a thread on a free loopback port; yields the base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


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
            np.testing.assert_array_equal(aug.idf, oracles.tfidf_idf(corpus))
            docs = [d for d in corpus.documents if not d.is_empty]
            docs.append(BowDocument(counts={0: 3}))  # the nnz == 1 branch
            for seed, doc, polarity, frac in itertools.product(
                    range(6), docs, ("related", "unrelated"), (0.3, 0.9)):
                got = aug.augment(doc, polarity, frac, rng_seed=seed)
                want = oracles.tfidf_augment(aug, doc, polarity, frac, seed)
                assert list(got.counts.items()) == list(want.counts.items())


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


@st.composite
def corpus_and_doc(draw):
    """A corpus of nonempty documents over a small vocabulary, and one nonempty document."""
    V = draw(st.integers(1, 12))
    bag = st.dictionaries(st.integers(0, V - 1), st.integers(1, 5), min_size=1)
    vocab = Vocabulary(words=[f"w{i}" for i in range(V)], df=[1] * V)
    docs = [BowDocument(counts=counts) for counts in draw(st.lists(bag, min_size=1, max_size=4))]
    return Corpus(documents=docs, vocabulary=vocab), BowDocument(counts=draw(bag))


class TestBuildCache:
    def test_tfidf_covers_all_nonempty_docs(self, corpus):
        triples = build_augmentation_cache(corpus, method="tfidf", rng_seed=0)
        assert [t.anchor_id for t in triples] == corpus.trainable_indices()
        assert all(t.method == "tfidf" for t in triples)
        assert all(t.vocab_hash == corpus.vocabulary.content_hash() for t in triples)

    def test_unknown_method_is_rejected(self, corpus):
        with pytest.raises(ValueError, match="'tfdif': expected llm or tfidf"):
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

    @given(corpus_and_doc(), st.integers(0, 2 ** 63),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_tfidf_views_are_never_empty(self, case, seed, frac):
        """So a TF-IDF cache needs no fallback: only an LLM completion can be
        unusable, and the cache builder then takes the TF-IDF pair."""
        corpus, doc = case
        aug = TfidfAugmenter(corpus)
        views = [aug.augment(doc, "related", frac, seed), aug.augment(doc, "unrelated", frac, seed)]
        assert all(view.counts for view in views)

    def test_oov_llm_output_gets_the_tfidf_pair(self, corpus):
        """Completions full of OOV words vectorize empty, so each document gets the
        TF-IDF pair a tfidf cache holds: seeds seed + 2i and seed + 2i + 1, method tfidf."""
        with mock.patch.object(augment, "llm_augment", return_value="zzz qqq vvv"):
            triples = build_augmentation_cache(
                corpus, method="llm", rng_seed=3, llm_options={"endpoint": "http://x"})
        assert triples == build_augmentation_cache(corpus, method="tfidf", rng_seed=3)

    def test_oov_unrelated_completion_gets_the_tfidf_pair(self, corpus):
        """A usable related completion does not keep its document's LLM views when the
        unrelated one has no vocabulary word: both views come from TF-IDF, and no
        negative view is made of its anchor's own words."""
        def complete(text, polarity, **kwargs):
            return "apple banana" if polarity == "related" else "zzz qqq vvv"

        with mock.patch.object(augment, "llm_augment", side_effect=complete):
            triples = build_augmentation_cache(
                corpus, method="llm", rng_seed=3, llm_options={"endpoint": "http://x"})
        assert triples == build_augmentation_cache(corpus, method="tfidf", rng_seed=3)
        words = corpus.vocabulary.words
        for t in triples:
            anchor = {words[w] for w in corpus.documents[t.anchor_id].counts}
            assert not t.negative_text.keys() <= anchor
