"""The benchmark's three workloads.

Each workload has a ``setup`` that makes its inputs from the seed (timed as
``setup_s``) and a ``round`` that runs the same operations on them every
time (timed as ``wall_s``, program calls only). ``Ops`` runs and times each
call into the program and counts it, and counts each correctness check; a
failed check is a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import time
import traceback

import numpy as np

import checks
import inputs
from paretopic import cli, corpus, evaluate, trainer


class OperationError(RuntimeError):
    """A program call failed; the round cannot go on."""


def run_cli(*argv) -> str:
    """Run one subcommand in this process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != cli.EXIT_OK:
        raise OperationError(f"paretopic {argv[0]} exited with code {code}")
    return out.getvalue()


class Ops:
    """Counts, times and (through the tracer) traces one round's operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seconds: dict[str, float] = {}

    def call(self, name, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # any failure of the program is counted, then ends the round
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc()}")
            raise OperationError(f"{name} failed: {exc!r}") from exc
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def cli(self, *argv) -> str:
        return self.call(argv[0], run_cli, *argv)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())

    @property
    def wall_s(self) -> float:
        return sum(self.seconds.values())


def _paths(d, *names):
    return [os.path.join(d, n) for n in names]


def _proxy_f1(classify_output: str) -> float:
    return float(re.search(r"macro-F1 = ([0-9.]+)", classify_output).group(1))


def _read_pipeline_outputs(ops, topics_path, metrics_path, reference_counts):
    """Checks shared by the workloads that run ``eval``; returns the quality figures."""
    topics = checks.read_topics(topics_path)
    with open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    npmi_ref = checks.npmi_reference(topics, reference_counts)
    ops.check("npmi_recomputed", abs(metrics["npmi"] - npmi_ref) <= 1e-9,
              f"program {metrics['npmi']!r} vs {npmi_ref!r}")
    td_ref = checks.diversity_reference(topics)
    ops.check("td_recomputed", metrics["td"] == td_ref, f"program {metrics['td']!r} vs {td_ref!r}")
    return topics, {"npmi": metrics["npmi"], "topic_diversity": metrics["td"]}


class PlantedPipeline:
    """The tests' planted corpus through every subcommand, as a user runs it."""

    name = "planted-pipeline"
    N_TRAIN = 200
    N_REF = 200
    T = 5
    BATCH = 50
    EPOCHS = 750  # 3,000 steps; seeds 1-14 all covered >= 4 blocks by step 2,000
    N_PROBES = 20

    def setup(self, d, seed):
        rng = np.random.default_rng(seed)
        train, ref = _paths(d, "train.jsonl", "reference.jsonl")
        inputs.write_jsonl(train, *inputs.planted_docs(rng, self.N_TRAIN))
        ref_counts, ref_labels = inputs.planted_docs(rng, self.N_REF)
        ref_texts = inputs.write_jsonl(ref, ref_counts, ref_labels)
        pairs = rng.choice(self.N_REF, size=(self.N_PROBES, 2), replace=False)
        self.state = {"dir": d, "seed": seed, "ref_counts": ref_counts,
                      "probe_texts": [(ref_texts[a], ref_texts[b]) for a, b in pairs],
                      "perm": rng.permutation(self.T)}

    def round(self, ops, r):
        s = self.state
        train, ref = _paths(s["dir"], "train.jsonl", "reference.jsonl")
        vocab, cache, model, copy, log, topics, metrics, align, csv = _paths(
            r, "vocab.json", "cache.jsonl", "model.json", "model_perm.json", "log.jsonl",
            "topics.txt", "metrics.json", "align.json", "features.csv")
        seed = s["seed"]
        ops.cli("build-vocab", "--input", train, "--output", vocab,
                "--min-df", 1, "--max-df-frac", 1.0)
        ops.cli("augment", "--input", train, "--vocab", vocab, "--output", cache,
                "--mode", "tfidf", "--seed", seed)
        ops.cli("train", "--input", train, "--vocab", vocab, "--cache", cache,
                "--checkpoint", model, "--log", log, "--seed", seed,
                "--set", f"model.T={self.T}", "--set", "model.H=100",
                "--set", f"train.batch_size={self.BATCH}",
                "--set", f"train.epochs={self.EPOCHS}", "--set", "moo.strategy=mgda")
        ops.cli("topics", "--checkpoint", model, "--vocab", vocab, "--output", topics)
        ops.cli("eval", "--topics", topics, "--vocab", vocab, "--reference", ref,
                "--output", metrics)
        inputs.permuted_checkpoint(model, copy, s["perm"])
        ops.cli("align", "--checkpoint-a", model, "--checkpoint-b", copy, "--vocab", vocab,
                "--output", align)
        out = ops.cli("classify", "--input", ref, "--vocab", vocab, "--checkpoint", model,
                      "--output", csv, "--seed", seed)
        sims = _probe_batch(ops, model, vocab, s["probe_texts"])

        top, quality = _read_pipeline_outputs(ops, topics, metrics, s["ref_counts"])
        covered = checks.blocks_covered(top)
        ops.check("planted_blocks_covered", covered >= 4, f"{covered} of {self.T}")
        ops.check("theta_rows_sum_to_1", checks.theta_rows_ok(csv, self.N_REF, self.T))
        ops.check("align_recovers_permutation", checks.alignment_is(align, s["perm"]))
        ops.check("probe_in_range", all(0.0 <= v <= 1.0 + 1e-12 for v in sims))
        quality["proxy_macro_f1"] = _proxy_f1(out)
        quality["blocks_covered"] = covered
        docs = self.N_TRAIN
        quality["preprocess_docs_per_s"] = docs / (ops.seconds["build-vocab"] + ops.seconds["augment"])
        quality["train_docs_per_s"] = self.EPOCHS * (docs // self.BATCH) * self.BATCH / ops.seconds["train"]
        quality["eval_docs_per_s"] = self.N_REF / ops.seconds["eval"]
        return quality


def _probe_batch(ops, model, vocab_path, pairs):
    """Load the model once, then one ``similarity_probe`` call per text pair."""
    def probe():
        vocab = corpus.Vocabulary.load(vocab_path)
        state = trainer.load_checkpoint(model, expect_vocab_hash=vocab.content_hash())
        return [evaluate.similarity_probe(a, b, state.enc, vocab) for a, b in pairs]

    return ops.call("probe", probe)


# The relative tolerance of the program's own gradient self-test.
GRAD_TOL = 1e-4


class WideTrain:
    """``train`` alone on a 2,000-word, 50-topic corpus of short documents."""

    name = "wide-train"
    N_TRAIN = 4000
    T = 50
    BATCH = 200
    EPOCHS = 2
    PROBE_DOCS = 32

    def setup(self, d, seed):
        rng = np.random.default_rng(seed)
        train, vocab, cache = _paths(d, "train.jsonl", "vocab.json", "cache.jsonl")
        counts, labels = inputs.wide_docs(rng, self.N_TRAIN)
        inputs.write_jsonl(train, counts, labels)
        run_cli("build-vocab", "--input", train, "--output", vocab)
        words = inputs.read_vocab_words(vocab)
        # The views of ``augment --mode tfidf``, written by the benchmark:
        # the program's augment takes about 10 s on this corpus, and set-up
        # runs three times.
        inputs.tfidf_cache(cache, counts, words, rng)
        self.state = {"dir": d, "seed": seed, "probe_views": _probe_views(
            cache, counts[:self.PROBE_DOCS], words)}

    def round(self, ops, r):
        s = self.state
        train, vocab, cache = _paths(s["dir"], "train.jsonl", "vocab.json", "cache.jsonl")
        model, log = _paths(r, "model.json", "log.jsonl")
        ops.cli("train", "--input", train, "--vocab", vocab, "--cache", cache,
                "--checkpoint", model, "--log", log, "--seed", s["seed"],
                "--set", f"model.T={self.T}", "--set", "model.H=100",
                "--set", f"train.batch_size={self.BATCH}",
                "--set", f"train.epochs={self.EPOCHS}", "--set", "moo.strategy=mgda")
        steps_per_epoch = self.N_TRAIN // self.BATCH
        ops.check("log_finite_alpha_in_0_1", checks.log_is_sane(log))
        epochs = checks.epoch_mean_elbo(log, steps_per_epoch)
        ops.check("elbo_decreases", len(epochs) == self.EPOCHS and epochs[-1] < epochs[0],
                  f"epoch means {epochs}")
        state = trainer.load_checkpoint(model)
        elbo_err, inf_err = checks.encoder_gradient_errors(
            state, s["probe_views"], np.random.default_rng(s["seed"]))
        ops.check("elbo_encoder_gradient", max(elbo_err) < GRAD_TOL, f"rel err {elbo_err}")
        ops.check("infonce_encoder_gradient", max(inf_err) < GRAD_TOL, f"rel err {inf_err}")
        return {"train_docs_per_s":
                self.EPOCHS * steps_per_epoch * self.BATCH / ops.seconds["train"],
                "elbo_grad_rel_err": max(elbo_err), "infonce_grad_rel_err": max(inf_err)}


def _probe_views(cache_path, counts, words):
    """Anchor, positive and negative count matrices of the first documents."""
    V = counts.shape[1]
    index = {w: i for i, w in enumerate(words)}
    anchors = np.zeros((counts.shape[0], len(words)))
    for j in range(V):
        col = index.get(inputs.word_name(j, V))
        if col is not None:
            anchors[:, col] = counts[:, j]
    views = [anchors, np.zeros_like(anchors), np.zeros_like(anchors)]
    with open(cache_path, encoding="utf-8") as fh:
        for i, line in zip(range(counts.shape[0]), fh):
            rec = json.loads(line)
            for view, key in ((views[1], "positive_text"), (views[2], "negative_text")):
                for w in rec[key].split():
                    view[i, index[w]] += 1
    return views


class EvalReference:
    """The read side on a closed-form model: topics, eval, align, classify, probes."""

    name = "eval-reference"
    N_REF = 2000
    T = 50
    H = 100
    N_PROBE_PAIRS = 50

    def setup(self, d, seed):
        rng = np.random.default_rng(seed)
        ref, vocab, model, copy = _paths(d, "reference.jsonl", "vocab.json",
                                         "model.json", "model_perm.json")
        counts, labels = inputs.wide_docs(rng, self.N_REF)
        inputs.write_jsonl(ref, counts, labels)
        run_cli("build-vocab", "--input", ref, "--output", vocab)
        words = inputs.read_vocab_words(vocab)
        inputs.closed_form_checkpoint(model, words, self.T, self.H, seed)
        perm = rng.permutation(self.T)
        inputs.permuted_checkpoint(model, copy, perm)
        names = [inputs.word_name(i, inputs.WIDE_V) for i in range(inputs.WIDE_V)]
        pairs = []
        for _ in range(self.N_PROBE_PAIRS):
            same, other = rng.choice(self.T, size=2, replace=False)
            a, b = inputs.pure_topic_docs(rng, 2, same)
            c = inputs.pure_topic_docs(rng, 1, other)[0]
            pairs += [(inputs.doc_text(a, names), inputs.doc_text(b, names)),
                      (inputs.doc_text(a, names), inputs.doc_text(c, names))]
        self.state = {"dir": d, "counts": counts, "perm": perm, "probe_texts": pairs}

    def round(self, ops, r):
        s = self.state
        ref, vocab, model, copy = _paths(s["dir"], "reference.jsonl", "vocab.json",
                                         "model.json", "model_perm.json")
        topics, metrics, align, csv = _paths(r, "topics.txt", "metrics.json", "align.json",
                                             "features.csv")
        ops.cli("topics", "--checkpoint", model, "--vocab", vocab, "--output", topics)
        ops.cli("eval", "--topics", topics, "--vocab", vocab, "--reference", ref,
                "--output", metrics)
        ops.cli("align", "--checkpoint-a", model, "--checkpoint-b", copy, "--vocab", vocab,
                "--output", align)
        out = ops.cli("classify", "--input", ref, "--vocab", vocab, "--checkpoint", model,
                      "--output", csv)
        sims = _probe_batch(ops, model, vocab, s["probe_texts"])

        top, quality = _read_pipeline_outputs(ops, topics, metrics, s["counts"])
        heads = [[inputs.word_name(t * inputs.BLOCK + i, inputs.WIDE_V) for i in range(10)]
                 for t in range(self.T)]
        ops.check("top_words_are_block_heads",
                  [sorted(t) for t in top] == [sorted(h) for h in heads])
        ops.check("td_is_1", quality["topic_diversity"] == 1.0)
        ops.check("align_recovers_permutation", checks.alignment_is(align, s["perm"]))
        ops.check("theta_rows_sum_to_1", checks.theta_rows_ok(csv, self.N_REF, self.T))
        wins = sum(sims[i] > sims[i + 1] for i in range(0, len(sims), 2))
        ops.check("same_topic_probes_win", wins == self.N_PROBE_PAIRS,
                  f"{wins} of {self.N_PROBE_PAIRS}")
        quality["proxy_macro_f1"] = _proxy_f1(out)
        quality["eval_docs_per_s"] = self.N_REF / ops.seconds["eval"]
        return quality


WORKLOADS = {w.name: w for w in (PlantedPipeline, WideTrain, EvalReference)}
