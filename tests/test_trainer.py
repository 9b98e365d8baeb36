import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import planted_corpus
from paretopic import augment, moo, ntm, trainer
from paretopic.augment import AugmentedTriple, bow_to_text
from paretopic.corpus import BowDocument, build_vocabulary, make_corpus
from paretopic.errors import ConfigError, DataError
from paretopic.trainer import TrainConfig


def tiny_setup(tiny_texts, seed=0, **overrides):
    vocab = build_vocabulary(tiny_texts, min_df=1, max_df_frac=1.0, max_size=100)
    corpus = make_corpus([(t, None) for t in tiny_texts], vocab)
    triples = augment.build_augmentation_cache(corpus, method="tfidf", rng_seed=seed)
    defaults = dict(seed=seed, num_topics=3, hidden=8, set_size=2, shuffle_count=2,
                    batch_size=6, epochs=2)
    defaults.update(overrides)
    return corpus, triples, TrainConfig(**defaults)


class TestTrainConfig:
    def test_defaults_match_published_recipe(self):
        cfg = TrainConfig(seed=1)
        assert (cfg.num_topics, cfg.hidden) == (50, 100)
        assert (cfg.set_size, cfg.shuffle_count) == (4, 8)
        assert cfg.temperature == 0.2
        assert cfg.learning_rate == 0.002
        assert (cfg.batch_size, cfg.epochs) == (200, 200)
        assert cfg.moo_strategy == "mgda"

    @pytest.mark.parametrize("bad", [
        dict(num_topics=0), dict(batch_size=0), dict(epochs=-1),
        dict(set_size=0), dict(set_size=300), dict(shuffle_count=0),
        dict(temperature=0.0), dict(learning_rate=-1.0),
        dict(moo_strategy="sgd"), dict(pool_positive="median"),
    ])
    def test_validate_rejects(self, bad):
        cfg = TrainConfig(seed=1, **bad)
        with pytest.raises(ConfigError):
            cfg.validate()


class TestPrepareTrainingData:
    def test_builds_three_matrices(self, tiny_texts):
        corpus, triples, _ = tiny_setup(tiny_texts)
        data = trainer.prepare_training_data(corpus, triples)
        V = corpus.vocabulary.size
        assert data.Xc.shape == data.Xp.shape == data.Xm.shape == (6, V)
        assert data.doc_ids == list(range(6))

    def test_counts_stored_narrow(self, tiny_texts):
        corpus, triples, _ = tiny_setup(tiny_texts)
        data = trainer.prepare_training_data(corpus, triples)
        assert data.X.dtype == np.uint8
        assert data.X.nbytes == 3 * 6 * corpus.vocabulary.size
        np.testing.assert_array_equal(data.X, oracles.prepare_training_data(corpus, triples).X)

    def test_record_for_anchor_without_vocabulary_words(self, tiny_texts):
        """build_augmentation_cache writes no record for such an anchor, so a
        cache that has one was built for another corpus or vocabulary."""
        corpus, triples, _ = tiny_setup(tiny_texts)
        corpus = make_corpus([(t, None) for t in tiny_texts + ["zzz qqq"]], corpus.vocabulary)
        triples.append(AugmentedTriple(anchor_id=6, positive_text=triples[0].positive_text,
                                       negative_text=triples[0].negative_text, method="tfidf"))
        with pytest.raises(DataError, match="document 6"):
            trainer.prepare_training_data(corpus, triples)

    def test_bag_of_words_views_equal_their_text(self):
        """Bag-of-words views fill the same counts as the same views rendered to
        text and tokenised again; the planted counts exceed 255 (uint16)."""
        corpus = planted_corpus(3, 12, doc_len=6000)
        vocab = corpus.vocabulary
        triples = augment.build_augmentation_cache(corpus, method="tfidf", rng_seed=3)

        def as_text(view):
            return bow_to_text(BowDocument({vocab.index[w]: c for w, c in view.items()}), vocab)
        texts = [dataclasses.replace(t, positive_text=as_text(t.positive_text),
                                     negative_text=as_text(t.negative_text)) for t in triples]
        data = trainer.prepare_training_data(corpus, triples)
        assert data.X.dtype == np.uint16
        for other in (trainer.prepare_training_data(corpus, texts),
                      oracles.prepare_training_data(corpus, triples)):
            assert other.doc_ids == data.doc_ids
            np.testing.assert_array_equal(other.X, data.X)

    @pytest.mark.parametrize("change, message", [
        (dict(vocab_hash="0" * 64), "document 2 was built against another vocabulary"),
        (dict(negative_text={"apple": 1, "zebra": 2}),
         "document 2 holds a word that is not in the vocabulary: 'zebra'"),
    ])
    def test_bag_of_words_view_of_another_vocabulary(self, tiny_texts, change, message):
        corpus, triples, _ = tiny_setup(tiny_texts)
        triples[2] = dataclasses.replace(triples[2], **change)
        with pytest.raises(DataError, match=message):
            trainer.prepare_training_data(corpus, triples)

    def test_missing_augmentation(self, tiny_texts):
        corpus, triples, _ = tiny_setup(tiny_texts)
        with pytest.raises(DataError, match="does not cover"):
            trainer.prepare_training_data(corpus, triples[:-1])

    def test_oov_augmentation_text(self, tiny_texts):
        corpus, triples, _ = tiny_setup(tiny_texts)
        triples[0] = AugmentedTriple(anchor_id=0, positive_text="zzz qqq",
                                     negative_text=triples[0].negative_text,
                                     method="tfidf")
        with pytest.raises(DataError, match="empty"):
            trainer.prepare_training_data(corpus, triples)


class TestTrainStep:
    def test_log_record_fields(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts)
        data = trainer.prepare_training_data(corpus, triples)
        state = trainer.init_state(corpus.vocabulary.size, cfg,
                                   corpus.vocabulary.content_hash())
        rec = trainer.train_step(np.arange(6), state, data, cfg, step=0)
        for key in ("step", "elbo", "recon", "kl", "infonce", "alpha",
                    "g_infonce_norm", "g_elbo_norm", "direction_norm"):
            assert key in rec
        assert np.isfinite(rec["elbo"]) and np.isfinite(rec["infonce"])
        assert 0.0 <= rec["alpha"] <= 1.0

    def test_batch_smaller_than_set_size(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts, set_size=4)
        data = trainer.prepare_training_data(corpus, triples)
        state = trainer.init_state(corpus.vocabulary.size, cfg,
                                   corpus.vocabulary.content_hash())
        with pytest.raises(ConfigError):
            trainer.train_step(np.arange(2), state, data, cfg, step=0)

    def test_linear_alpha_zero_is_pure_elbo_step(self, tiny_texts):
        """strategy=linear, alpha=0 must update the encoder bitwise like a
        hand-composed ELBO-only step with the same rng stream."""
        corpus, triples, cfg = tiny_setup(tiny_texts, moo_strategy="linear",
                                          linear_alpha=0.0)
        data = trainer.prepare_training_data(corpus, triples)
        V = corpus.vocabulary.size
        state = trainer.init_state(V, cfg, corpus.vocabulary.content_hash())
        enc0 = state.enc.copy()
        dec0 = state.dec.copy()
        rng = np.random.default_rng(cfg.seed)
        ntm.init_params(V, cfg.hidden, cfg.num_topics, rng)  # advance like init_state

        batch = np.arange(6)
        trainer.train_step(batch, state, data, cfg, step=0)

        # replay the rng draws in train_step order: eps_x, eps_p, eps_m, M
        cache = ntm.encode_batch(data.Xc[batch], enc0)
        eps_x = rng.standard_normal(cache.mu.shape)
        rng.standard_normal(cache.mu.shape)  # eps_p
        rng.standard_normal(cache.mu.shape)  # eps_m
        from paretopic import setcl
        setcl.build_index_matrix(6, cfg.shuffle_count, rng)
        res = ntm.elbo_with_grads(data.Xc[batch], enc0, dec0, eps_x, cache=cache)
        expect_enc = ntm.pack_encoder(enc0) - cfg.learning_rate * res.g_enc
        expect_dec = ntm.pack_decoder(dec0) - cfg.learning_rate * res.g_dec
        np.testing.assert_array_equal(ntm.pack_encoder(state.enc), expect_enc)
        np.testing.assert_array_equal(ntm.pack_decoder(state.dec), expect_dec)

    @pytest.mark.parametrize("source", ["tiny", "planted"])
    def test_same_as_float64_counts(self, tiny_texts, source):
        """Narrow integer counts train bit for bit like float64 counts; the
        planted documents hold counts above 255 (uint16)."""
        if source == "tiny":
            corpus, triples, cfg = tiny_setup(tiny_texts)
        else:
            corpus = planted_corpus(3, 12, doc_len=6000)
            triples = augment.build_augmentation_cache(corpus, method="tfidf", rng_seed=3)
            cfg = TrainConfig(seed=3, num_topics=5, hidden=8, set_size=2, shuffle_count=2,
                              batch_size=6, epochs=1)
        runs = []
        for data in (trainer.prepare_training_data(corpus, triples),
                     oracles.prepare_training_data(corpus, triples)):
            state = trainer.init_state(corpus.vocabulary.size, cfg,
                                       corpus.vocabulary.content_hash())
            records = [trainer.train_step(np.array(rows), state, data, cfg, step)
                       for step, rows in enumerate([[0, 2, 4, 1, 3, 5], [5, 4, 3, 2, 1, 0],
                                                    [1, 2, 3, 4, 5, 0]])]
            runs.append((data.X.dtype, ntm.pack_encoder(state.enc),
                         ntm.pack_decoder(state.dec), records))
        assert runs[0][0] == (np.uint8 if source == "tiny" else np.uint16)
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])
        assert runs[0][3] == runs[1][3]

    def test_decoder_ignores_contrastive_gradient(self, tiny_texts):
        """The decoder update must be identical under linear alpha=0 and
        alpha=1 given the same rng stream (it always gets plain ELBO)."""
        decs = []
        for alpha in (0.0, 1.0):
            corpus, triples, cfg = tiny_setup(tiny_texts, moo_strategy="linear",
                                              linear_alpha=alpha)
            data = trainer.prepare_training_data(corpus, triples)
            state = trainer.init_state(corpus.vocabulary.size, cfg,
                                       corpus.vocabulary.content_hash())
            trainer.train_step(np.arange(6), state, data, cfg, step=0)
            decs.append(ntm.pack_decoder(state.dec))
        np.testing.assert_array_equal(decs[0], decs[1])


# every blend strategy, the pooling modes the default leaves out, and the own negative
STEP_SETTINGS = [dict(moo_strategy=name) for name in moo.STRATEGIES] + [
    dict(pool_positive="mean", pool_negative="mean"),
    dict(pool_positive="sum", pool_negative="sum"),
    dict(include_own_negative=True)]


class TestStackedStep:
    @pytest.mark.parametrize("size", ["tiny", "planted"])
    @pytest.mark.parametrize("settings", STEP_SETTINGS,
                             ids=lambda d: "-".join(map(str, d.values())))
    def test_matches_per_view_oracle(self, tiny_texts, size, settings):
        """Three steps with one workspace land on the bytes and records of three
        per-view oracle steps from the same state; planted is B=50, V=200, T=5."""
        if size == "tiny":
            corpus, triples, cfg = tiny_setup(tiny_texts, **settings)
            batches = [[0, 2, 4, 1, 3, 5], [5, 4, 3, 2, 1, 0], [1, 2, 3, 4, 5, 0]]
        else:
            corpus = planted_corpus(4, 150, doc_len=600)
            triples = augment.build_augmentation_cache(corpus, method="tfidf", rng_seed=4)
            cfg = TrainConfig(seed=4, num_topics=5, batch_size=50, **settings)
            batches = np.random.default_rng(4).permutation(150).reshape(3, 50)
        data = trainer.prepare_training_data(corpus, triples)
        runs = []
        for step_fn in (partial(trainer.train_step, workspace={}), oracles.train_step_per_view):
            state = trainer.init_state(corpus.vocabulary.size, cfg,
                                       corpus.vocabulary.content_hash())
            records = [step_fn(np.array(rows), state, data, cfg, step)
                       for step, rows in enumerate(batches)]
            runs.append((state.enc.flat.tobytes(), state.dec.flat.tobytes(), records))
        assert runs[0] == runs[1]

    def test_workspace_step_allocates_a_quarter_of_the_per_view_step(self):
        """At the gate's size (B=200, V=200, H=100, T=5), after a warm-up step, the
        peak of what one step allocates (tracemalloc sees numpy's buffers)."""
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(3, 200, 200), dtype=np.uint8)
        X[..., 0] += 1  # no empty document
        data = trainer.TrainData(doc_ids=list(range(200)), X=X)
        cfg = TrainConfig(seed=0, num_topics=5, batch_size=200)
        peaks = []
        for step_fn in (partial(trainer.train_step, workspace={}), oracles.train_step_per_view):
            state = trainer.init_state(200, cfg, "hash")
            step_fn(np.arange(200), state, data, cfg, 0)
            tracemalloc.start()
            try:
                step_fn(np.arange(200), state, data, cfg, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 4 * peaks[0] <= peaks[1], peaks


class TestFit:
    def test_zero_epochs_returns_initial_state(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=0)
        state, records = trainer.fit(corpus, triples, cfg)
        assert records == []
        rng = np.random.default_rng(cfg.seed)
        enc, dec = ntm.init_params(corpus.vocabulary.size, cfg.hidden,
                                   cfg.num_topics, rng)
        np.testing.assert_array_equal(ntm.pack_encoder(state.enc),
                                      ntm.pack_encoder(enc))

    def test_deterministic_given_seed(self, tiny_texts):
        runs = []
        for _ in range(2):
            corpus, triples, cfg = tiny_setup(tiny_texts, epochs=3)
            state, records = trainer.fit(corpus, triples, cfg)
            runs.append((ntm.pack_encoder(state.enc), ntm.pack_decoder(state.dec),
                         records))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_batch_size_larger_than_corpus(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts, batch_size=10)
        with pytest.raises(ConfigError, match="batch size"):
            trainer.fit(corpus, triples, cfg)

    def test_records_one_per_full_batch(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts, batch_size=4, epochs=3)
        _, records = trainer.fit(corpus, triples, cfg)
        assert len(records) == 3  # floor(6/4) = 1 batch per epoch
        assert [r["step"] for r in records] == [0, 1, 2]

    def test_vocab_hash_mismatch(self, tiny_texts):
        corpus, triples, cfg = tiny_setup(tiny_texts)
        state = trainer.init_state(corpus.vocabulary.size, cfg, "wrong-hash")
        with pytest.raises(DataError, match="vocabulary"):
            trainer.fit(corpus, triples, cfg, state=state)


class TestCheckpoints:
    def test_save_load_save_is_byte_identical(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=1)
        state, _ = trainer.fit(corpus, triples, cfg)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        trainer.save_checkpoint(state, str(p1))
        loaded = trainer.load_checkpoint(str(p1))
        trainer.save_checkpoint(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_matches_uninterrupted_run(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=4)
        full_state, _ = trainer.fit(corpus, triples, cfg)

        corpus2, triples2, cfg2 = tiny_setup(tiny_texts, epochs=2)
        half_state, _ = trainer.fit(corpus2, triples2, cfg2)
        path = tmp_path / "half.json"
        trainer.save_checkpoint(half_state, str(path))
        resumed = trainer.load_checkpoint(
            str(path), expect_vocab_hash=corpus.vocabulary.content_hash())
        cfg2.epochs = 4
        final, _ = trainer.fit(corpus2, triples2, cfg2, state=resumed, start_epoch=2)
        np.testing.assert_array_equal(ntm.pack_encoder(final.enc),
                                      ntm.pack_encoder(full_state.enc))
        np.testing.assert_array_equal(ntm.pack_decoder(final.dec),
                                      ntm.pack_decoder(full_state.dec))

    def test_resume_from_pickled_state_matches_uninterrupted_run(self, tiny_texts):
        """Pickling rebuilds the parameter views, so training the unpickled
        state updates its fields and its flat vector alike."""
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=2)
        full, full_records = trainer.fit(corpus, triples, cfg)
        half, half_records = trainer.fit(corpus, triples, dataclasses.replace(cfg, epochs=1))
        resumed = pickle.loads(pickle.dumps(half))
        final, rest_records = trainer.fit(corpus, triples, cfg, state=resumed, start_epoch=1)
        assert half_records + rest_records == full_records
        for got, want in ((final.enc, full.enc), (final.dec, full.dec)):
            np.testing.assert_array_equal(got.flat, want.flat)
            for a, b in zip(got.arrays(), want.arrays()):
                assert np.shares_memory(a, got.flat)
                np.testing.assert_array_equal(a, b)

    def test_vocab_hash_check(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=0)
        state, _ = trainer.fit(corpus, triples, cfg)
        path = tmp_path / "c.json"
        trainer.save_checkpoint(state, str(path))
        with pytest.raises(DataError, match="hash"):
            trainer.load_checkpoint(str(path), expect_vocab_hash="nope")

    def test_array_shape_must_match_header(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=0)
        state, _ = trainer.fit(corpus, triples, cfg)
        path = tmp_path / "c.json"
        trainer.save_checkpoint(state, str(path))
        doc = json.loads(path.read_text())
        doc["encoder"]["W_mu"] = np.zeros((cfg.hidden, cfg.num_topics + 1)).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="W_mu has shape"):
            trainer.load_checkpoint(str(path))

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataError, match="format_version"):
            trainer.load_checkpoint(str(path))

    def test_epoch_checkpoints_written(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=2)
        trainer.fit(corpus, triples, cfg, checkpoint_dir=str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["epoch_0000.json", "epoch_0001.json"]

    def test_write_train_log(self, tiny_texts, tmp_path):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=2)
        _, records = trainer.fit(corpus, triples, cfg)
        path = tmp_path / "log.jsonl"
        trainer.write_train_log(records, str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(records)


class TestContrastivePathIsolation:
    def test_infonce_has_no_decoder_dependence(self, tiny_texts):
        """Perturbing decoder params must not change the contrastive loss."""
        corpus, triples, cfg = tiny_setup(tiny_texts)
        data = trainer.prepare_training_data(corpus, triples)
        state = trainer.init_state(corpus.vocabulary.size, cfg,
                                   corpus.vocabulary.content_hash())
        recs = []
        for bump in (0.0, 0.5):
            st = copy.deepcopy(state)
            st.rng = np.random.default_rng(123)
            st.dec.beta[...] += bump
            recs.append(trainer.train_step(np.arange(6), st, data, cfg, step=0))
        assert recs[0]["infonce"] == recs[1]["infonce"]


def outputs_at_blas_threads(fit: str) -> list[str]:
    """stdout of `fit_hashes.py fit` run in a fresh interpreter at 1, then 2 BLAS threads."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, str(tests / "fit_hashes.py"), fit], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_gate_training_independent_of_blas_threads():
    outputs = outputs_at_blas_threads("gate")
    assert outputs[0].startswith("24 ")
    assert outputs[0] == outputs[1]


def test_every_blend_strategy_independent_of_blas_threads():
    outputs = outputs_at_blas_threads("blend")
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
