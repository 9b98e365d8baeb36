import copy
import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from paretopic import diffnet, ntm
from paretopic.corpus import BowDocument, Corpus, Vocabulary, vectorize
from paretopic.errors import DataError


def sparse_batch(rng, B, V, nnz=6):
    """Modest counts keep ELBO small enough for tight finite-difference checks."""
    X = np.zeros((B, V))
    for i in range(B):
        cols = rng.choice(V, size=nnz, replace=False)
        X[i, cols] = rng.integers(1, 4, size=nnz)
    return X


class TestParamsLayout:
    def test_init_ranges(self):
        enc, dec = ntm.init_params(V=20, H=7, T=3, rng=np.random.default_rng(0))
        assert enc.W1.shape == (20, 7)
        assert np.all(np.abs(enc.W1) <= ntm.INIT_SCALE)
        assert np.all(enc.b1 == 0.0) and np.all(dec.b_dec == 0.0)
        assert dec.beta.shape == (3, 20)

    def test_pack_unpack_round_trip(self):
        enc, dec = ntm.init_params(V=11, H=5, T=4, rng=np.random.default_rng(1))
        enc2 = ntm.unpack_encoder(ntm.pack_encoder(enc), 11, 5, 4)
        for a, b in zip(enc.arrays(), enc2.arrays()):
            np.testing.assert_array_equal(a, b)
        dec2 = ntm.unpack_decoder(ntm.pack_decoder(dec), 11, 4)
        np.testing.assert_array_equal(dec.beta, dec2.beta)

    def test_unpack_length_mismatch(self):
        with pytest.raises(ValueError):
            ntm.unpack_encoder(np.zeros(10), 3, 2, 1)

    def test_unpack_rejects_2d_input(self):
        n = sum(math.prod(s) for s in ntm.decoder_shapes(4, 2))
        with pytest.raises(ValueError, match=rf"shape \(1, {n}\) does not fit"):
            ntm.unpack_decoder(np.zeros((1, n)), 4, 2)

    def test_unpack_returns_a_copy(self):
        enc, _ = ntm.init_params(V=5, H=3, T=2, rng=np.random.default_rng(3))
        flat = ntm.pack_encoder(enc)
        enc2 = ntm.unpack_encoder(flat, 5, 3, 2)
        assert not np.shares_memory(enc2.flat, flat)
        flat[0] = 99.0
        assert enc2.W1[0, 0] != 99.0 and enc.W1[0, 0] != 99.0

    def test_copy_is_deep(self):
        enc, _ = ntm.init_params(V=4, H=3, T=2, rng=np.random.default_rng(2))
        clone = enc.copy()
        clone.W1[0, 0] = 99.0
        assert enc.W1[0, 0] != 99.0

    def test_fields_are_views_of_flat(self):
        for params in ntm.init_params(V=6, H=4, T=3, rng=np.random.default_rng(4)):
            assert params.flat.ndim == 1 and params.flat.dtype == np.float64
            assert params.flat.size == sum(a.size for a in params.arrays())
            pos = 0
            for a in params.arrays():
                assert np.shares_memory(a, params.flat)
                a.reshape(-1)[-1] = 7.0  # a write through the field shows in flat
                assert params.flat[pos + a.size - 1] == 7.0
                params.flat[pos] = -3.0  # and a write through flat in the field
                assert a.reshape(-1)[0] == -3.0
                pos += a.size

    def test_rebinding_a_field_raises(self):
        enc, dec = ntm.init_params(V=4, H=3, T=2, rng=np.random.default_rng(5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dec.beta = dec.beta + 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            enc.W1 = np.zeros((4, 3))

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "method"])
    def test_copies_own_their_flat(self, how):
        clone_of = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
                    "method": lambda p: p.copy()}[how]
        for params in ntm.init_params(V=5, H=3, T=2, rng=np.random.default_rng(6)):
            clone = clone_of(params)
            assert type(clone) is type(params)
            np.testing.assert_array_equal(clone.flat, params.flat)
            assert not np.shares_memory(clone.flat, params.flat)
            for a, b in zip(clone.arrays(), params.arrays()):
                assert a.shape == b.shape and np.shares_memory(a, clone.flat)
            clone.arrays()[0][0, 0] = 99.0
            assert clone.flat[0] == 99.0 and params.flat[0] != 99.0


class TestDocsToMatrix:
    def test_counts_placed(self):
        docs = [BowDocument(counts={0: 2, 3: 1}), BowDocument(counts={1: 4})]
        X = ntm.docs_to_matrix(docs, 5)
        np.testing.assert_array_equal(X, [[2, 0, 0, 1, 0], [0, 4, 0, 0, 0]])

    def test_empty_doc_rejected(self):
        with pytest.raises(DataError):
            ntm.docs_to_matrix([BowDocument(counts={})], 5)
        docs = (BowDocument(counts=c) for c in ({0: 1}, {}, {1: 1}))  # a generator
        with pytest.raises(DataError, match="document 1"):
            ntm.docs_to_matrix(docs, 5)

    @pytest.mark.parametrize("top, dtype", [(1, np.uint8), (255, np.uint8),
                                            (256, np.uint16), (65535, np.uint16),
                                            (65536, np.uint32)])
    def test_narrowest_unsigned_dtype(self, top, dtype):
        docs = [BowDocument(counts={0: 2, 3: top}), BowDocument(counts={4: 1, 1: 7})]
        X = ntm.docs_to_matrix(docs, 5)
        assert X.dtype == dtype
        np.testing.assert_array_equal(X, oracles.docs_to_matrix(docs, 5))

    def test_long_document_of_one_word(self):
        vocab = Vocabulary(words=["ab", "cd"], df=[1, 1])
        doc = vectorize("ab " * 70_000, vocab)
        X = ntm.docs_to_matrix([doc, BowDocument(counts={1: 3})], vocab.size)
        assert X.dtype == np.uint32
        np.testing.assert_array_equal(X, [[70_000, 0], [0, 3]])


class TestEncode:
    def test_shapes_and_clamp(self):
        rng = np.random.default_rng(3)
        enc, _ = ntm.init_params(V=10, H=6, T=4, rng=rng)
        enc.b_lv[:] = 50.0  # force the clamp
        X = sparse_batch(rng, 3, 10, nnz=4)
        cache = ntm.encode_batch(X, enc)
        assert cache.mu.shape == (3, 4)
        assert np.all(cache.logvar <= ntm.LOGVAR_CLAMP)
        assert np.all(cache.lv_raw > ntm.LOGVAR_CLAMP)

    def test_input_is_l1_normalized(self):
        rng = np.random.default_rng(4)
        enc, _ = ntm.init_params(V=8, H=5, T=3, rng=rng)
        doc = BowDocument(counts={0: 1, 1: 1})
        scaled = BowDocument(counts={0: 7, 1: 7})
        mu_a, mu_b = (ntm.encode_batch(ntm.docs_to_matrix([d], 8), enc).mu for d in (doc, scaled))
        np.testing.assert_allclose(mu_a, mu_b, rtol=1e-12)

    def test_empty_batch_rejected(self):
        enc, _ = ntm.init_params(V=4, H=3, T=2, rng=np.random.default_rng(5))
        with pytest.raises(DataError):
            ntm.encode_batch(np.zeros((2, 4)), enc)


class TestElbo:
    def test_kl_zero_at_prior(self):
        assert oracles.kl_loss(np.zeros(5), np.zeros(5)) == 0.0

    def test_kl_closed_form(self):
        # mu=1, logvar=0 in 1d: 0.5 * (1 + 1 - 0 - 1) = 0.5
        assert oracles.kl_loss(np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)

    def test_reconstruction_uniform_decoder(self):
        # zero beta and bias give log p = -log V for every word
        dec = ntm.DecoderParams(beta=np.zeros((2, 4)), b_dec=np.zeros(4))
        x = np.array([3.0, 0.0, 1.0, 0.0])
        r = oracles.reconstruction_loss(x, np.array([0.5, 0.5]), dec)
        assert r == pytest.approx(4 * math.log(4))

    def test_loss_decomposition(self):
        rng = np.random.default_rng(6)
        enc, dec = ntm.init_params(V=12, H=5, T=3, rng=rng)
        X = sparse_batch(rng, 4, 12, nnz=5)
        eps = rng.standard_normal((4, 3))
        res = ntm.elbo_with_grads(X, enc, dec, eps, want_grads=False)
        assert res.loss == pytest.approx(res.recon + res.kl)
        assert res.g_enc is None

    def test_matches_per_document_reference(self):
        rng = np.random.default_rng(7)
        enc, dec = ntm.init_params(V=12, H=5, T=3, rng=rng)
        X = sparse_batch(rng, 4, 12, nnz=5)
        eps = rng.standard_normal((4, 3))
        res = ntm.elbo_with_grads(X, enc, dec, eps, want_grads=False)
        cache = ntm.encode_batch(X, enc)
        z = ntm.reparameterize(cache.mu, cache.logvar, eps)
        theta = oracles.theta_from_z(z)
        total = sum(oracles.reconstruction_loss(X[i], theta[i], dec)
                    + oracles.kl_loss(cache.mu[i], cache.logvar[i])
                    for i in range(4))
        assert res.loss == pytest.approx(total / 4, rel=1e-12)

    def test_encoder_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        V, H, T, B = 15, 6, 4, 5
        enc, dec = ntm.init_params(V, H, T, rng=rng)
        X = sparse_batch(rng, B, V, nnz=5)
        eps = rng.standard_normal((B, T))

        def loss_and_grad(flat):
            e = ntm.unpack_encoder(flat, V, H, T)
            r = ntm.elbo_with_grads(X, e, dec, eps)
            return r.loss, r.g_enc

        err = diffnet.grad_check(loss_and_grad, ntm.pack_encoder(enc),
                                 n_probes=60, rng_seed=1)
        assert err < 1e-4

    def test_decoder_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        V, H, T, B = 15, 6, 4, 5
        enc, dec = ntm.init_params(V, H, T, rng=rng)
        X = sparse_batch(rng, B, V, nnz=5)
        eps = rng.standard_normal((B, T))

        def loss_and_grad(flat):
            d = ntm.unpack_decoder(flat, V, T)
            r = ntm.elbo_with_grads(X, enc, d, eps)
            return r.loss, r.g_dec

        err = diffnet.grad_check(loss_and_grad, ntm.pack_decoder(dec),
                                 n_probes=60, rng_seed=2)
        assert err < 1e-4

    def test_clamped_logvar_gets_zero_gradient(self):
        rng = np.random.default_rng(10)
        V, H, T, B = 10, 4, 3, 3
        enc, dec = ntm.init_params(V, H, T, rng=rng)
        enc.b_lv[:] = 100.0  # every logvar saturates the clamp
        X = sparse_batch(rng, B, V, nnz=4)
        eps = rng.standard_normal((B, T))
        res = ntm.elbo_with_grads(X, enc, dec, eps)
        grads = ntm.unpack_encoder(res.g_enc, V, H, T)
        np.testing.assert_array_equal(grads.W_lv, np.zeros((H, T)))
        np.testing.assert_array_equal(grads.b_lv, np.zeros(T))


class TestTopWords:
    def test_orders_by_beta(self):
        dec = ntm.DecoderParams(beta=np.array([[0.1, 0.9, 0.5]]), b_dec=np.zeros(3))
        assert ntm.top_words(dec, ["aa", "bb", "cc"], n=2) == [[1, 2]]

    def test_tie_breaks_lexicographically(self):
        dec = ntm.DecoderParams(beta=np.array([[0.5, 0.5, 0.5]]), b_dec=np.zeros(3))
        assert ntm.top_words(dec, ["cc", "aa", "bb"], n=3) == [[1, 2, 0]]

    def test_n_exceeds_vocab(self):
        dec = ntm.DecoderParams(beta=np.zeros((1, 2)), b_dec=np.zeros(2))
        with pytest.raises(ValueError):
            ntm.top_words(dec, ["aa", "bb"], n=3)

    def test_matches_per_topic_sort_oracle(self):
        # few distinct weights, with 0.0 and -0.0 among them, force ties
        rng = np.random.default_rng(12)
        values = np.array([0.0, -0.0, 0.25, -0.25, 1e-300, 3.5])
        letters = list("abcdefghij")
        for _ in range(300):
            T, V = int(rng.integers(1, 7)), int(rng.integers(1, 40))
            words = set()
            while len(words) < V:
                words.add("".join(rng.choice(letters, size=int(rng.integers(1, 4)))))
            words = rng.permutation(sorted(words)).tolist()
            beta = rng.choice(values, size=(T, V))
            if rng.random() < 0.3:
                beta = beta + rng.standard_normal((T, V)) * (rng.random((T, V)) < 0.5)
            dec = ntm.DecoderParams(beta=beta, b_dec=np.zeros(V))
            n = int(rng.integers(1, V + 1))
            assert ntm.top_words(dec, words, n) == oracles.top_words(beta, words, n)


class TestDocTheta:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(11)
        vocab = Vocabulary(words=[f"w{i}" for i in range(9)], df=[1] * 9)
        docs = [BowDocument(counts={0: 2, 4: 1}), BowDocument(counts={}),
                BowDocument(counts={8: 3})]
        corpus = Corpus(documents=docs, vocabulary=vocab)
        enc, _ = ntm.init_params(V=9, H=4, T=3, rng=rng)
        theta, keep = ntm.doc_theta(corpus, enc)
        assert keep == [0, 2]
        np.testing.assert_allclose(theta.sum(axis=1), [1.0, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blocks_match_one_whole_encode(self, threads):
        # in a subprocess, because the BLAS thread count is fixed at import
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-c", BLOCKED_THETA], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["515", "2", "515", "2", "100", "1"]


# doc_theta on 2R + 3 and on fewer than R nonempty documents, with empty
# documents interleaved, against one encode_batch of all of them; prints
# each corpus's row count and number of encode blocks.
BLOCKED_THETA = """
import numpy as np
import oracles
from paretopic import ntm
from paretopic.corpus import BowDocument, Corpus, Vocabulary

R = ntm.THETA_BLOCK_ROWS
encode_batch = ntm.encode_batch
rows = []


def counted(X, enc):
    rows.append(len(X))
    return encode_batch(X, enc)


rng = np.random.default_rng(5)
for V, n in ((200, 2 * R + 3), (2000, 2 * R + 3), (200, 100)):
    docs = []
    for _ in range(n):
        words = rng.choice(V, size=int(rng.integers(1, 40)), replace=False)
        docs.append(BowDocument(counts=dict(zip(words.tolist(),
                                                rng.integers(1, 6, len(words)).tolist()))))
        if rng.random() < 0.1:
            docs.append(BowDocument(counts={}))
    corpus = Corpus(documents=docs, vocabulary=Vocabulary(words=[f"w{i}" for i in range(V)],
                                                          df=[1] * V))
    enc, _ = ntm.init_params(V, 100, 50, rng)
    ref, ref_keep = oracles.doc_theta(corpus, enc)
    rows.clear()
    ntm.encode_batch = counted
    theta, keep = ntm.doc_theta(corpus, enc)
    ntm.encode_batch = encode_batch
    assert keep == ref_keep
    assert min(rows) >= min(R, len(keep)) and sum(rows) == len(keep), rows
    assert np.array_equal(theta, ref), (V, n)
    print(len(keep), len(rows))
"""
