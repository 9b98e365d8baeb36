"""End-to-end acceptance gate.

Each criterion records a one-line PASS/FAIL verdict that the conftest
terminal-summary hook prints after the run. Criteria 5, 6 and 8 train
real models on the planted-topic corpus and dominate the runtime
(several minutes); everything else finishes in seconds.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

import conftest
from conftest import (PLANTED_T, PLANTED_BLOCK, block_of, planted_corpus,
                      ACCEPTANCE_RESULTS)
from paretopic import augment, cli, diffnet, evaluate, moo, ntm, setcl, trainer


def record(num, passed, detail):
    ACCEPTANCE_RESULTS[num] = (bool(passed), detail)
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def sparse_counts(rng, B, V, nnz=6):
    """Batch of short documents: nnz random words with counts 1-3 each."""
    X = np.zeros((B, V))
    for i in range(B):
        words = rng.choice(V, size=nnz, replace=False)
        X[i, words] = rng.integers(1, 4, size=nnz)
    return X


def test_criterion_1_gradient_fidelity():
    V, T, H, B, K, S = 50, 8, 16, 12, 3, 2
    tau = 0.2
    rng = np.random.default_rng(11)
    Xc = sparse_counts(rng, B, V)
    Xp = sparse_counts(rng, B, V)
    Xm = sparse_counts(rng, B, V)
    eps_x = rng.standard_normal((B, T))
    eps_p = rng.standard_normal((B, T))
    eps_m = rng.standard_normal((B, T))
    members = setcl.members_matrix(
        setcl.build_sets(setcl.build_index_matrix(B, S, rng), K))

    ne = sum(np.prod(s) for s in ntm.encoder_shapes(V, H, T))
    enc0, dec0 = ntm.init_params(V, H, T, rng)
    # a generic parameter point, away from the near-zero init
    params0 = np.concatenate([ntm.pack_encoder(enc0), ntm.pack_decoder(dec0)])
    params0 += 0.3 * rng.standard_normal(params0.shape)

    def split(p):
        return (ntm.unpack_encoder(p[:ne], V, H, T),
                ntm.unpack_decoder(p[ne:], V, T))

    def elbo_loss_and_grad(p):
        enc, dec = split(p)
        res = ntm.elbo_with_grads(Xc, enc, dec, eps_x)
        return res.loss, np.concatenate([res.g_enc, res.g_dec])

    def view_grad(X, enc, eps, dz):
        cache = ntm.encode_batch(X, enc)
        dmu = dz
        dlogvar = dz * eps * 0.5 * np.exp(cache.logvar / 2.0)
        return ntm.encoder_backward(cache, enc, dmu, dlogvar)

    def infonce_loss_and_grad(p):
        enc, dec = split(p)
        zs = []
        for X, eps in ((Xc, eps_x), (Xp, eps_p), (Xm, eps_m)):
            cache = ntm.encode_batch(X, enc)
            zs.append(ntm.reparameterize(cache, eps))
        loss, dZ, dZp, dZm = setcl.infonce_with_grads(*zs, members, tau)
        g_enc = (view_grad(Xc, enc, eps_x, dZ) + view_grad(Xp, enc, eps_p, dZp)
                 + view_grad(Xm, enc, eps_m, dZm))
        return loss, np.concatenate([g_enc, np.zeros(p.size - ne)])

    t0 = time.time()
    err_elbo = diffnet.grad_check(elbo_loss_and_grad, params0, n_probes=100,
                                  rng_seed=1)
    err_inf = diffnet.grad_check(infonce_loss_and_grad, params0, n_probes=100,
                                 rng_seed=2)
    elapsed = time.time() - t0
    record(1, err_elbo < 1e-4 and err_inf < 1e-4 and elapsed < 60,
           f"max rel err elbo={err_elbo:.2e}, infonce={err_inf:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(12)
    t0 = time.time()
    max_dev = 0.0
    max_kkt = 0.0
    norm_ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 1001))
        scale = 10.0 ** rng.uniform(-2, 2)
        g1 = scale * rng.standard_normal(dim)
        g2 = scale * rng.standard_normal(dim)
        a = moo.alpha_min_norm(g1, g2)
        a_grid = moo.alpha_grid_oracle(g1, g2, steps=10_000)
        max_dev = max(max_dev, abs(a - a_grid))
        d = a * g1 + (1 - a) * g2
        dn = float(d @ d)
        norm_ok = norm_ok and math.sqrt(dn) <= min(
            np.linalg.norm(g1), np.linalg.norm(g2)) + 1e-12
        if 0.0 < a < 1.0:
            ref = max(1.0, abs(dn))
            max_kkt = max(max_kkt, abs(float(d @ g1) - dn) / ref,
                          abs(float(d @ g2) - dn) / ref)
    elapsed = time.time() - t0
    record(2, max_dev <= 1e-4 and max_kkt <= 1e-8 and norm_ok and elapsed < 60,
           f"max |alpha-grid|={max_dev:.2e}, max KKT residual={max_kkt:.2e}, "
           f"norm bound {'held' if norm_ok else 'VIOLATED'}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def lexmin_matching(scores):
    """Perfect matching with lexicographically smallest sorted weights;
    for distinct weights this is the brute-force minimum matching."""
    n = len(scores)
    best_key, best = None, None
    for perm in itertools.permutations(range(n)):
        key = tuple(sorted(scores[i][j] for i, j in enumerate(perm)))
        if best_key is None or key < best_key:
            best_key, best = key, perm
    return {(i, j) for i, j in enumerate(best)}


def test_criterion_3_metric_identities():
    t0 = time.time()
    checks = []

    # NPMI = 1: the pair always co-occurs but is not in every document
    perfect = evaluate.CooccurrenceStats(
        doc_count=2, word_doc_freq={0: 1, 1: 1}, pair_doc_freq={(0, 1): 1})
    v1, _ = evaluate.npmi([[0, 1]], perfect, eps=1e-300)
    checks.append(("npmi=1", abs(v1[0] - 1.0) < 1e-12))

    # NPMI = 0: independent words, p_ij = p_i * p_j
    indep = evaluate.CooccurrenceStats(
        doc_count=4, word_doc_freq={0: 2, 1: 2}, pair_doc_freq={(0, 1): 1})
    v0, _ = evaluate.npmi([[0, 1]], indep, eps=1e-300)
    checks.append(("npmi=0", abs(v0[0]) < 1e-12))

    # NPMI -> -1: both words occur, never together (rate is 1/log eps)
    never = evaluate.CooccurrenceStats(
        doc_count=2, word_doc_freq={0: 1, 1: 1}, pair_doc_freq={})
    vm, _ = evaluate.npmi([[0, 1]], never, eps=1e-300)
    checks.append(("npmi->-1", abs(vm[0] + 1.0) < 3e-3))

    T = 4
    disjoint = [list(range(10 * t, 10 * t + 10)) for t in range(T)]
    identical = [list(range(10))] * T
    checks.append(("td disjoint", evaluate.topic_diversity(disjoint) == 1.0))
    checks.append(("td identical",
                   abs(evaluate.topic_diversity(identical) - 1.0 / T) < 1e-12))

    p = np.array([0.2, 0.3, 0.5])
    checks.append(("js identical", evaluate.js_divergence(p, p.copy()) == 0.0))
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    checks.append(("js disjoint",
                   abs(evaluate.js_divergence(a, b) - math.log(2)) < 1e-12))

    rng = np.random.default_rng(13)
    mismatches = 0
    for _ in range(200):
        A = [rng.dirichlet(np.ones(6)) for _ in range(3)]
        B = [rng.dirichlet(np.ones(6)) for _ in range(3)]
        scores = [[evaluate.js_divergence(x, y) for y in B] for x in A]
        assert len({w for row in scores for w in row}) == 9
        got = {(i, j) for i, j, _ in
               evaluate.align_topics(A, B, threshold=float("inf"))}
        mismatches += got != lexmin_matching(scores)
    checks.append(("matching oracle", mismatches == 0))

    elapsed = time.time() - t0
    failed = [name for name, ok in checks if not ok]
    record(3, not failed and elapsed < 60,
           f"{len(checks)} identities, failed={failed or 'none'}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def instance_infonce_oracle(Z, Zp, Zm, tau):
    """Instance-wise InfoNCE: each document against its positive view and
    every other document's negative view."""
    B = Z.shape[0]
    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    total = 0.0
    for i in range(B):
        pos = math.exp(cos(Z[i], Zp[i]) / tau)
        den = pos + sum(math.exp(cos(Z[i], Zm[j]) / tau)
                        for j in range(B) if j != i)
        total += -math.log(pos / den)
    return total


def test_criterion_4_reductions(tiny_texts):
    rng = np.random.default_rng(14)
    checks = []

    B, T, tau = 10, 6, 0.2
    worst = 0.0
    for _ in range(20):
        Z = rng.standard_normal((B, T))
        Zp = rng.standard_normal((B, T))
        Zm = rng.standard_normal((B, T))
        members = setcl.members_matrix(
            setcl.build_sets(setcl.build_index_matrix(B, 1, rng), 1))
        loss, *_ = setcl.infonce_with_grads(Z, Zp, Zm, members, tau,
                                            want_grads=False)
        worst = max(worst, abs(loss - instance_infonce_oracle(Z, Zp, Zm, tau)))
    checks.append(("K=1 S=1 oracle", worst < 1e-10))

    count_ok = True
    for B, K, S in itertools.product((4, 7, 20, 53), (1, 2, 3, 4), (1, 2, 8)):
        if K > B:
            continue
        sets = setcl.build_sets(setcl.build_index_matrix(B, S, rng), K)
        count_ok = count_ok and len(sets) == S * (B // K)
    checks.append(("set count", count_ok))

    # linear alpha=0 must be a bitwise ELBO-only encoder step
    from paretopic.corpus import build_vocabulary, make_corpus
    vocab = build_vocabulary(tiny_texts, min_df=1, max_df_frac=1.0, max_size=100)
    corpus = make_corpus([(t, None) for t in tiny_texts], vocab)
    triples = augment.build_augmentation_cache(corpus, method="tfidf", rng_seed=0)
    cfg = trainer.TrainConfig(seed=0, num_topics=3, hidden=8, set_size=2,
                              shuffle_count=2, batch_size=6, epochs=1,
                              moo_strategy="linear", linear_alpha=0.0)
    data = trainer.prepare_training_data(corpus, triples)
    V = vocab.size
    state = trainer.init_state(V, cfg, vocab.content_hash())
    enc0 = state.enc.copy()
    dec0 = state.dec.copy()
    replay = np.random.default_rng(cfg.seed)
    ntm.init_params(V, cfg.hidden, cfg.num_topics, replay)
    trainer.train_step(np.arange(6), state, data, cfg, step=0)
    cache = ntm.encode_batch(data.Xc, enc0)
    eps_x = replay.standard_normal(cache.mu.shape)
    replay.standard_normal(cache.mu.shape)  # positive-view draw
    replay.standard_normal(cache.mu.shape)  # negative-view draw
    res = ntm.elbo_with_grads(data.Xc, enc0, dec0, eps_x, cache=cache)
    expect = ntm.pack_encoder(enc0) - cfg.learning_rate * res.g_enc
    checks.append(("linear alpha=0 bitwise",
                   np.array_equal(ntm.pack_encoder(state.enc), expect)))

    failed = [name for name, ok in checks if not ok]
    record(4, not failed, f"failed={failed or 'none'}, worst oracle gap "
           f"{worst:.1e}")


# ----------------------------------------------- planted-topic training runs

SEEDS = (1, 2, 3, 4, 5)
N_TRAIN = 1600


def make_triples(corpus, seed):
    aug = augment.TfidfAugmenter(corpus)
    triples = []
    for i in corpus.trainable_indices():
        doc = corpus.documents[i]
        pos = aug.augment(doc, "related", rng_seed=seed * 100003 + i)
        neg = aug.augment(doc, "unrelated", rng_seed=seed * 100003 + i + 1)
        triples.append(augment.AugmentedTriple(
            anchor_id=i,
            positive_text=augment.bow_to_text(pos, corpus.vocabulary),
            negative_text=augment.bow_to_text(neg, corpus.vocabulary),
            method="tfidf"))
    return triples


def run_planted(seed, strategy):
    train = planted_corpus(seed, N_TRAIN)
    test = planted_corpus(seed + 5000, 2000 - N_TRAIN)
    triples = make_triples(train, seed)
    cfg = trainer.TrainConfig(seed=seed, num_topics=5, hidden=100,
                              moo_strategy=strategy,
                              linear_alpha=0.5 if strategy == "linear" else 0.0)
    state, records = trainer.fit(train, triples, cfg)
    topics = ntm.top_words(state.dec, train.vocabulary.words, n=10)
    covered = set()
    for tw in topics:
        blocks = np.bincount([block_of(w) for w in tw], minlength=PLANTED_T)
        if blocks.max() >= 6:
            covered.add(int(blocks.argmax()))
    _, mean_npmi = evaluate.npmi(
        topics, evaluate.CooccurrenceStats.from_corpus(test))
    return {
        "seed": seed,
        "td": evaluate.topic_diversity(topics),
        "covered": len(covered),
        "npmi": mean_npmi,
        "alphas": [r["alpha"] for r in records],
        "state": state,
        "corpus": train,
    }


@pytest.fixture(scope="session")
def planted_runs():
    """5 MGDA runs and 5 Linear-0.5 runs; shared by criteria 5, 6 and 8."""
    out = {"mgda": [], "linear": [], "mgda_seconds": 0.0}
    for strategy in ("mgda", "linear"):
        t0 = time.time()
        for seed in SEEDS:
            res = run_planted(seed, strategy)
            if not (strategy == "mgda" and seed == SEEDS[0]):
                res.pop("state")
                res.pop("corpus")
            out[strategy].append(res)
        if strategy == "mgda":
            out["mgda_seconds"] = time.time() - t0
    return out


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_planted_topic_recovery(planted_runs):
    runs = planted_runs["mgda"]
    mean_td = float(np.mean([r["td"] for r in runs]))
    mean_cov = float(np.mean([r["covered"] for r in runs]))
    mean_npmi = float(np.mean([r["npmi"] for r in runs]))
    secs = planted_runs["mgda_seconds"]
    record(5, mean_td >= 0.9 and mean_cov >= 4 and mean_npmi >= 0.2
           and secs < 900,
           f"mean TD={mean_td:.3f} (>=0.9), mean blocks covered={mean_cov:.1f} "
           f"(>=4), mean NPMI={mean_npmi:.3f} (>=0.2), 5 seeds in {secs:.0f}s")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_blend_noninferiority(planted_runs):
    npmi_mgda = float(np.mean([r["npmi"] for r in planted_runs["mgda"]]))
    npmi_lin = float(np.mean([r["npmi"] for r in planted_runs["linear"]]))
    alphas = np.concatenate([r["alphas"] for r in planted_runs["mgda"]])
    finite = bool(np.all(np.isfinite(alphas)))
    # the alpha trajectory shape is reported as an artifact, not asserted
    n = len(planted_runs["mgda"][0]["alphas"])
    early = float(np.mean([np.mean(r["alphas"][:n // 10])
                           for r in planted_runs["mgda"]]))
    late = float(np.mean([np.mean(r["alphas"][-n // 10:])
                          for r in planted_runs["mgda"]]))
    record(6, npmi_mgda >= npmi_lin - 0.01 and finite,
           f"NPMI mgda={npmi_mgda:.3f} vs linear-0.5={npmi_lin:.3f} "
           f"(non-inferiority margin 0.01), alphas finite={finite}, "
           f"alpha early mean={early:.2f} late mean={late:.2f}")


# ---------------------------------------------------------------- criterion 7

def write_jsonl(path, texts):
    with open(path, "w", encoding="utf-8") as fh:
        for text in texts:
            fh.write(json.dumps({"text": text}) + "\n")


def test_criterion_7_determinism(tmp_path, tiny_texts):
    write_jsonl(tmp_path / "corpus.jsonl", tiny_texts)
    corpus = str(tmp_path / "corpus.jsonl")
    vocab = str(tmp_path / "vocab.json")
    cache = str(tmp_path / "aug.jsonl")
    assert cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                     "--min-df", "1", "--max-df-frac", "1.0"]) == 0
    assert cli.main(["augment", "--input", corpus, "--vocab", vocab,
                     "--output", cache, "--seed", "0"]) == 0
    blobs = []
    for tag in ("a", "b"):
        ckpt = str(tmp_path / f"model_{tag}.json")
        topics = str(tmp_path / f"topics_{tag}.txt")
        metrics = str(tmp_path / f"metrics_{tag}.json")
        assert cli.main(["train", "--input", corpus, "--vocab", vocab,
                         "--cache", cache, "--checkpoint", ckpt,
                         "--seed", "5", "--set", "model.T=3",
                         "--set", "model.H=8", "--set", "setcl.K=2",
                         "--set", "setcl.S=2", "--set", "train.batch_size=6",
                         "--set", "train.epochs=3"]) == 0
        assert cli.main(["topics", "--checkpoint", ckpt, "--vocab", vocab,
                         "--output", topics]) == 0
        assert cli.main(["eval", "--topics", topics, "--vocab", vocab,
                         "--reference", corpus, "--output", metrics]) == 0
        blobs.append(tuple(open(p, "rb").read()
                           for p in (ckpt, topics, metrics)))
    identical = blobs[0] == blobs[1]
    record(7, identical, "two train+eval runs byte-identical: "
           f"{identical} (checkpoint, topics, metrics)")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_probe_sanity(planted_runs):
    run = planted_runs["mgda"][0]
    state, corpus = run["state"], run["corpus"]
    vocab = corpus.vocabulary
    by_label = {}
    for doc in corpus.documents:
        by_label.setdefault(doc.label, []).append(doc)
    rng = np.random.default_rng(18)
    wins = 0
    for _ in range(100):
        t_same, t_other = rng.choice(PLANTED_T, size=2, replace=False)
        a, b = rng.choice(len(by_label[t_same]), size=2, replace=False)
        c = rng.integers(len(by_label[t_other]))
        texts = [augment.bow_to_text(by_label[t_same][i], vocab) for i in (a, b)]
        other = augment.bow_to_text(by_label[t_other][c], vocab)
        same_sim = evaluate.similarity_probe(texts[0], texts[1], state.enc, vocab)
        diff_sim = evaluate.similarity_probe(texts[0], other, state.enc, vocab)
        wins += same_sim > diff_sim
    record(8, wins >= 90,
           f"same-topic similarity won {wins}/100 pairs (>=90 required)")
