"""Command-line interface: the full pipeline as subcommands.

Exit codes: 0 success, 1 usage/config error, 2 data error (including an output
file that cannot be written), 3 numeric or runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import augment as augment_mod
from . import corpus as corpus_mod
from . import diffnet, evaluate, moo, ntm, setcl, trainer
from .errors import ConfigError, DataError, NumericError, output_file, read_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

# config key -> TrainConfig field; the field's type converts the value
CONFIG_KEYS = {
    "model.T": "num_topics",
    "model.H": "hidden",
    "setcl.K": "set_size",
    "setcl.S": "shuffle_count",
    "setcl.tau": "temperature",
    "train.lr": "learning_rate",
    "train.batch_size": "batch_size",
    "train.epochs": "epochs",
    "train.seed": "seed",
    "moo.strategy": "moo_strategy",
    "moo.linear_alpha": "linear_alpha",
}

def _apply_config_item(overrides: dict, item: str, where: str) -> None:
    """Parse one key=value item into overrides[field]; where prefixes errors."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    field = CONFIG_KEYS[key]
    try:
        overrides[field] = typing.get_type_hints(trainer.TrainConfig)[field](value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def _checked(kind, ok, expected: str):
    """An argparse type: kind(text), refused unless ok(value) holds."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    convert.__name__ = kind.__name__  # argparse names the type in its own errors
    return convert


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_TOP_N = _checked(int, lambda v: v >= 2, "an integer >= 2")  # NPMI scores word pairs
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_OPEN_FRACTION = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_DF_FRACTION = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_NONNEGATIVE = _checked(float, lambda v: v >= 0.0, "a number >= 0")  # also refuses nan


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def parse_config_file(path: str) -> dict:
    """Flat key=value config; '#' starts a comment."""
    overrides = {}
    for lineno, raw in read_lines(path, "config file"):
        line = raw.split("#", 1)[0].strip()
        if line:
            _apply_config_item(overrides, line, f"{path}:{lineno}")
    return overrides


def resolve_train_config(args) -> trainer.TrainConfig:
    overrides = {}
    if args.config is not None:  # an empty path is a data error, as for every input
        overrides.update(parse_config_file(args.config))
    for item in args.set or []:
        _apply_config_item(overrides, item, "--set")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if "seed" not in overrides:
        raise ConfigError("train requires an explicit seed (--seed or train.seed)")
    config = trainer.TrainConfig(**overrides)
    config.validate()
    return config


def print_resolved_config(config: trainer.TrainConfig) -> None:
    print("# resolved config")
    reverse = {field: key for key, field in CONFIG_KEYS.items()}
    for f in dataclasses.fields(config):
        key = reverse.get(f.name, f.name)
        print(f"{key} = {getattr(config, f.name)}")


def _load_vocab_corpus(corpus_path, vocab_path):
    vocab = corpus_mod.Vocabulary.load(vocab_path)
    entries = corpus_mod.load_corpus(corpus_path)
    return corpus_mod.make_corpus(entries, vocab)


def cmd_build_vocab(args) -> int:
    print(f"# build-vocab input={args.input} min_df={args.min_df} "
          f"max_df_frac={args.max_df_frac} max_size={args.max_size}")
    entries = corpus_mod.load_corpus(args.input)
    vocab = corpus_mod.build_vocabulary([t for t, _ in entries], min_df=args.min_df,
                                        max_df_frac=args.max_df_frac,
                                        max_size=args.max_size)
    vocab.save(args.output)
    print(f"vocabulary of {vocab.size} words written to {args.output}")
    return EXIT_OK


def cmd_augment(args) -> int:
    print(f"# augment input={args.input} mode={args.mode} seed={args.seed}")
    llm_options = None
    if args.mode == "llm":
        if not args.endpoint:
            raise ConfigError("--endpoint is required for llm augmentation")
        try:
            augment_mod.check_endpoint(args.endpoint)
        except ValueError as exc:
            raise ConfigError(f"--endpoint: {exc}") from exc
        llm_options = {"endpoint": args.endpoint, "timeout": args.timeout,
                       "model": args.model}
    corpus = _load_vocab_corpus(args.input, args.vocab)
    triples = augment_mod.build_augmentation_cache(
        corpus, method=args.mode, replace_frac=args.replace_frac, rng_seed=args.seed,
        llm_options=llm_options)
    augment_mod.cache_augmentations(triples, args.output)
    print(f"{len(triples)} augmented triples written to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = resolve_train_config(args)
    print_resolved_config(config)
    corpus = _load_vocab_corpus(args.input, args.vocab)
    triples = augment_mod.load_augmentations(args.cache, len(corpus.documents))
    state, records = trainer.fit(corpus, triples, config)
    trainer.save_checkpoint(state, args.checkpoint)
    if args.log:
        trainer.write_train_log(records, args.log)
    final = records[-1] if records else {}
    print(f"trained {len(records)} steps; checkpoint written to {args.checkpoint}")
    if final:
        print(f"final: elbo={final['elbo']:.4f} infonce={final['infonce']:.4f} "
              f"alpha={final['alpha']}")
    return EXIT_OK


def cmd_topics(args) -> int:
    print(f"# topics checkpoint={args.checkpoint} top_n={args.top_n}")
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    if args.top_n > vocab.size:
        raise ConfigError(f"--top-n {args.top_n} exceeds the vocabulary size {vocab.size}")
    state = trainer.load_checkpoint(args.checkpoint, expect_vocab_hash=vocab.content_hash())
    topics = ntm.top_words(state.dec, vocab.words, args.top_n)
    evaluate.save_topics(topics, vocab, args.output)
    print(f"{len(topics)} topics written to {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    print(f"# eval topics={args.topics} reference={args.reference}")
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    topics = evaluate.load_topics(args.topics, vocab)
    reference = corpus_mod.make_corpus(corpus_mod.load_corpus(args.reference), vocab)
    stats = evaluate.CooccurrenceStats.from_corpus(reference, topics=topics)
    per_topic, mean_npmi = evaluate.npmi(topics, stats)
    td = evaluate.topic_diversity(topics)
    metrics = {"npmi": mean_npmi, "npmi_per_topic": per_topic, "td": td,
               "num_topics": len(topics)}
    with output_file(args.output) as fh:
        json.dump(metrics, fh, sort_keys=True)
    print(f"npmi={mean_npmi:.4f} td={td:.4f} -> {args.output}")
    return EXIT_OK


def cmd_align(args) -> int:
    print(f"# align a={args.checkpoint_a} b={args.checkpoint_b} threshold={args.threshold}")
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    state_a = trainer.load_checkpoint(args.checkpoint_a, expect_vocab_hash=vocab.content_hash())
    state_b = trainer.load_checkpoint(args.checkpoint_b, expect_vocab_hash=vocab.content_hash())
    matching = evaluate.align_topics(diffnet.softmax(state_a.dec.beta),
                                     diffnet.softmax(state_b.dec.beta), threshold=args.threshold)
    report = [{"topic_a": i, "topic_b": j, "js": js} for i, j, js in matching]
    print(json.dumps(report, indent=2))
    if args.output:
        with output_file(args.output) as fh:
            json.dump(report, fh, sort_keys=True)
    return EXIT_OK


def cmd_classify(args) -> int:
    # The built-in score is a ridge proxy (one-hot labels fit on [theta 1] with
    # penalty λ = 1e-4, in closed form), not the Random Forest protocol; use
    # the exported CSV with an external classifier for that.
    print(f"# classify input={args.input} checkpoint={args.checkpoint}")
    corpus = _load_vocab_corpus(args.input, args.vocab)
    vocab = corpus.vocabulary
    state = trainer.load_checkpoint(args.checkpoint, expect_vocab_hash=vocab.content_hash())
    _, labels, f1 = evaluate.classification_features(corpus, state.enc,
                                                     csv_path=args.output,
                                                     seed=args.seed)
    print(f"feature table written to {args.output} ({len(labels)} rows)")
    if f1 is None:
        print("corpus has unlabeled documents; proxy classifier skipped")
    else:
        print(f"ridge-proxy macro-F1 = {f1:.4f}")
    return EXIT_OK


def cmd_probe(args) -> int:
    print(f"# probe checkpoint={args.checkpoint}")
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    state = trainer.load_checkpoint(args.checkpoint, expect_vocab_hash=vocab.content_hash())
    sim = evaluate.similarity_probe(args.text_a, args.text_b, state.enc, vocab)
    print(f"similarity = {sim:.6f}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Gradient checks and solver-oracle spot checks; exit 0 iff all pass."""
    rng = np.random.default_rng(0)
    results = []

    def check(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    V, H, T, B, K, S = 30, 12, 6, 10, 3, 2
    enc, dec = ntm.init_params(V, H, T, rng)
    # sparse, modest counts: keeps the loss small so central differences stay
    # accurate on near-zero-gradient coordinates
    Xc = np.zeros((B, V))
    for i in range(B):
        idx = rng.choice(V, 6, replace=False)
        Xc[i, idx] = rng.integers(1, 4, size=6)
    eps = rng.standard_normal((B, T))

    def elbo_of_enc(flat):
        e = ntm.unpack_encoder(flat, V, H, T)
        res = ntm.elbo_with_grads(Xc, e, dec, eps)
        return res.loss, res.g_enc

    err = diffnet.grad_check(elbo_of_enc, ntm.pack_encoder(enc), n_probes=40, rng_seed=1)
    check(f"elbo encoder gradient (rel err {err:.2e})", err < 1e-4)

    def elbo_of_dec(flat):
        d = ntm.unpack_decoder(flat, V, T)
        res = ntm.elbo_with_grads(Xc, enc, d, eps)
        return res.loss, res.g_dec

    err = diffnet.grad_check(elbo_of_dec, ntm.pack_decoder(dec), n_probes=40, rng_seed=2)
    check(f"elbo decoder gradient (rel err {err:.2e})", err < 1e-4)

    Z = rng.standard_normal((B, T))
    Zp = rng.standard_normal((B, T))
    Zm = rng.standard_normal((B, T))
    members = setcl.build_sets(setcl.build_index_matrix(B, S, 3), K)

    def inf_of_z(zflat):
        z = zflat.reshape(B, T)
        loss, dZ, _, _ = setcl.infonce_with_grads(z, Zp, Zm, members, 0.2)
        return loss, dZ.ravel()

    err = diffnet.grad_check(inf_of_z, Z.ravel(), n_probes=40, rng_seed=4)
    check(f"setwise infonce gradient (rel err {err:.2e})", err < 1e-4)

    worst = 0.0
    for i in range(200):
        dim = int(rng.integers(2, 50))
        g1 = rng.standard_normal(dim)
        g2 = rng.standard_normal(dim)
        a_closed = moo.alpha_min_norm(g1, g2)
        a_grid = moo.alpha_grid_oracle(g1, g2, steps=10_000)
        worst = max(worst, abs(a_closed - a_grid))
    check(f"min-norm solver vs grid oracle (max dev {worst:.2e})", worst <= 1e-4)

    ok = all(results)
    print("selftest:", "all checks passed" if ok else "FAILURES present")
    return EXIT_OK if ok else EXIT_RUNTIME


def build_parser() -> _Parser:
    parser = _Parser(prog="paretopic",
                     description="Setwise contrastive neural topic model with "
                                 "Pareto-balanced two-objective training.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, needs=(), may_read=(), writes=(), may_write=()):
        """A subcommand with required flags needs and writes and optional flags may_read
        and may_write; before func runs, main checks each output given (writes, may_write):
        its directory, and that it names no input given (needs, may_read) and no other
        output."""
        p = sub.add_parser(name, help=help)
        for flag in needs + writes:
            p.add_argument(f"--{flag}", required=True)
        for flag in may_read + may_write:
            p.add_argument(f"--{flag}")
        p.set_defaults(func=func, inputs=needs + may_read, outputs=writes + may_write)
        return p

    p = command("build-vocab", cmd_build_vocab, "build a df-filtered vocabulary from JSONL",
                needs=("input",), writes=("output",))
    p.add_argument("--min-df", type=int, default=corpus_mod.DEFAULT_MIN_DF)
    p.add_argument("--max-df-frac", type=_DF_FRACTION, default=corpus_mod.DEFAULT_MAX_DF_FRAC)
    p.add_argument("--max-size", type=_POSITIVE_INT, default=corpus_mod.DEFAULT_MAX_SIZE)

    p = command("augment", cmd_augment, "build the positive/negative augmentation cache",
                needs=("input", "vocab"), writes=("output",))
    p.add_argument("--mode", choices=["llm", "tfidf"], default="tfidf")
    p.add_argument("--endpoint", help="chat-completions endpoint URL (llm mode)")
    p.add_argument("--model", default="gpt-3.5-turbo")
    p.add_argument("--timeout", type=_checked(float, lambda v: 0.0 < v < float("inf"),
                                              "a finite number > 0"), default=30.0)
    p.add_argument("--replace-frac", type=_OPEN_FRACTION, default=augment_mod.DEFAULT_REPLACE_FRAC)
    p.add_argument("--seed", type=_SEED, default=0)

    p = command("train", cmd_train, "train the topic model (defaults: K=4 S=8 "
                                    "tau=0.2 lr=0.002 B=200)",
                needs=("input", "vocab", "cache"), may_read=("config",), writes=("checkpoint",),
                may_write=("log",))
    p.add_argument("--seed", type=int,
                   help="mandatory unless train.seed is in the --config file (flat key=value)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable); flags win over the file")

    p = command("topics", cmd_topics, "dump top words per topic from a checkpoint",
                needs=("checkpoint", "vocab"), writes=("output",))
    p.add_argument("--top-n", type=_TOP_N, default=evaluate.DEFAULT_TOP_N)

    command("eval", cmd_eval, "NPMI and topic diversity against a reference corpus",
            needs=("topics", "vocab", "reference"), writes=("output",))

    p = command("align", cmd_align, "competitive-linking alignment of two checkpoints",
                needs=("checkpoint-a", "checkpoint-b", "vocab"), may_write=("output",))
    p.add_argument("--threshold", type=_NONNEGATIVE, default=evaluate.DEFAULT_ALIGN_THRESHOLD)

    p = command("classify", cmd_classify, "export theta features and score the "
                                          "ridge proxy (stand-in for the external "
                                          "Random Forest protocol)",
                needs=("input", "vocab", "checkpoint"), writes=("output",))
    p.add_argument("--seed", type=_SEED, default=0)

    p = command("probe", cmd_probe, "cosine similarity of two texts' topic vectors",
                needs=("checkpoint", "vocab"))
    p.add_argument("--text-a", required=True)
    p.add_argument("--text-b", required=True)
    command("selftest", cmd_selftest, "gradient checks and solver oracle suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        path_of = {f: getattr(args, f.replace("-", "_")) for f in args.inputs + args.outputs}
        flag_of = {os.path.realpath(path_of[flag]): flag for flag in args.inputs
                   if path_of[flag] is not None}
        for flag in (f for f in args.outputs if path_of[f] is not None):  # before any read
            path = path_of[flag]
            if not path:
                raise DataError("cannot write '': the path is empty")
            if os.path.isdir(path):
                raise DataError(f"cannot write {path}: it is a directory")
            if os.path.exists(path) and not os.path.isfile(path):
                raise DataError(f"cannot write {path}: it is not a regular file")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise DataError(f"cannot write {path}: its directory does not exist")
            real = os.path.realpath(path)
            if real in flag_of:
                raise DataError(f"cannot write {path}: --{flag} names the same file as "
                                f"--{flag_of[real]}")
            flag_of[real] = flag
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # an OSError is an output the program cannot write
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ValueError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
