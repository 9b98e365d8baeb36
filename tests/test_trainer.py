import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paretopic import augment, ntm, trainer
from paretopic.augment import AugmentedTriple
from paretopic.corpus import build_vocabulary, make_corpus
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

    def test_interrupted_save_keeps_previous_checkpoint(self, tiny_texts, tmp_path,
                                                       monkeypatch):
        corpus, triples, cfg = tiny_setup(tiny_texts, epochs=1)
        state, _ = trainer.fit(corpus, triples, cfg)
        path = tmp_path / "model.json"
        trainer.save_checkpoint(state, str(path))
        before = path.read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise KeyboardInterrupt

        monkeypatch.setattr(trainer.json, "dump", dump_then_fail)
        with pytest.raises(KeyboardInterrupt):
            trainer.save_checkpoint(trainer.init_state(state.V, cfg, state.vocab_hash),
                                    str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

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
            st.dec.beta = st.dec.beta + bump
            recs.append(trainer.train_step(np.arange(6), st, data, cfg, step=0))
        assert recs[0]["infonce"] == recs[1]["infonce"]


# The acceptance gate's planted fit (T=5, H=100, B=200) cut to 3 epochs of
# 600-token documents: 24 steps, a few seconds per run.
THREAD_FIT = """
import hashlib, json
from conftest import planted_corpus
from test_acceptance import make_triples
from paretopic import trainer
corpus = planted_corpus(1, 1600, doc_len=600)
cfg = trainer.TrainConfig(seed=1, num_topics=5, hidden=100, batch_size=200, epochs=3)
state, records = trainer.fit(corpus, make_triples(corpus, 1), cfg)
h = hashlib.sha256(json.dumps(records).encode())
for a in state.enc.arrays() + state.dec.arrays():
    h.update(a.tobytes())
print(len(records), h.hexdigest())
"""


def test_gate_training_independent_of_blas_threads():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-c", THREAD_FIT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("24 ")
    assert outputs[0] == outputs[1]
