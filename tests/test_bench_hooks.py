"""The benchmark under bench/ reaches into the program by name; these calls must keep working.

The check runs in a subprocess because installing the tracer rebinds
functions inside the imported package. It reads bench/ and writes only
to a temporary directory.
"""
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent("""
    import os, sys
    root, work = sys.argv[1], sys.argv[2]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import numpy as np
    import paretopic.cli
    import checks, inputs, tracing
    from paretopic import augment, corpus, evaluate, trainer

    tracer = tracing.Tracer()
    tracer.install()  # resolves every TARGETS entry
    assert hasattr(trainer.train_step, "__wrapped__")

    rng = np.random.default_rng(0)
    V = inputs.PLANTED_V
    words = [inputs.word_name(i, V) for i in range(V)]
    vocab = corpus.Vocabulary(words=words, df=[1] * V)
    train, cache, model = (os.path.join(work, n)
                           for n in ("train.jsonl", "cache.jsonl", "model.json"))
    counts, labels = inputs.planted_docs(rng, 6)
    inputs.write_jsonl(train, counts, labels)
    docs = corpus.make_corpus(corpus.load_corpus(train), vocab)

    inputs.closed_form_checkpoint(model, words, inputs.PLANTED_T, 8, seed=0)
    state = trainer.load_checkpoint(model, expect_vocab_hash=vocab.content_hash())
    assert (state.V, state.H, state.T) == (V, 8, inputs.PLANTED_T)

    # the benchmark permutes the topics of a checkpoint the program wrote
    saved, permuted = os.path.join(work, "saved.json"), os.path.join(work, "permuted.json")
    trainer.save_checkpoint(state, saved)
    perm = np.roll(np.arange(state.T), 1)
    inputs.permuted_checkpoint(saved, permuted, perm)
    moved = trainer.load_checkpoint(permuted, expect_vocab_hash=vocab.content_hash())
    assert np.array_equal(moved.dec.beta[perm], state.dec.beta)
    assert np.array_equal(moved.enc.W_mu[:, perm], state.enc.W_mu)

    inputs.tfidf_cache(cache, counts, words, rng)
    triples = augment.load_augmentations(cache, len(docs.documents))
    data = trainer.prepare_training_data(docs, triples)
    assert data.Xc.shape == (6, V)

    elbo_err, inf_err = checks.encoder_gradient_errors(
        state, [data.Xc, data.Xp, data.Xm], np.random.default_rng(1))
    assert max(elbo_err) < 1e-4 and max(inf_err) < 1e-4, (elbo_err, inf_err)

    tracer.active = True
    stats = evaluate.CooccurrenceStats.from_corpus(docs)
    topic_stats = evaluate.CooccurrenceStats.from_corpus(docs, topics=[[0, 1, 2], [3, 4]])
    tracer.active = False
    spans = [s for s in tracer.spans if s[0] == "evaluate.cooccurrence"]
    assert len(spans) == 2, spans
    assert spans[0][5] == len(stats.pair_doc_freq) > spans[1][5], spans
    assert spans[1][5] == len(topic_stats.pair_doc_freq) > 0, spans
    print("ok")
""")


def test_bench_hooks_resolve_and_run(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
