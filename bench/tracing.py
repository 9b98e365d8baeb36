"""Spans around the program's public functions, wrapped from outside.

``Tracer.install`` replaces each function listed in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent, round). Every
module of the package that bound the same function object, for example
``trainer.vectorize`` and ``evaluate.vectorize`` (``from .corpus import
vectorize``), gets the wrapper too, so calls are seen whichever name they
go through. Nothing under ``src/`` changes.

Spans are kept in memory, and only while ``active`` is set: the benchmark
sets it around the program's own operations, so its correctness checks,
which call some of the same functions, leave no spans. ``per_layer``
derives the per-layer metrics from the spans; self times are a span's
duration minus its direct children's.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# (module, attribute) -> span name. Attributes with a dot are classmethods.
TARGETS = {
    ("corpus", "vectorize"): "corpus.vectorize",
    ("corpus", "build_vocabulary"): "corpus.build_vocabulary",
    ("corpus", "load_corpus"): "corpus.load_corpus",
    ("augment", "build_augmentation_cache"): "augment.build_cache",
    ("augment", "cache_augmentations"): "augment.cache_augmentations",
    ("augment", "load_augmentations"): "augment.load_cache",
    ("trainer", "prepare_training_data"): "trainer.prepare",
    ("trainer", "train_step"): "trainer.step",
    ("trainer", "save_checkpoint"): "trainer.save_checkpoint",
    ("trainer", "load_checkpoint"): "trainer.load_checkpoint",
    ("ntm", "encode_batch"): "ntm.encode",
    ("ntm", "encoder_backward"): "ntm.encoder_backward",
    ("ntm", "elbo_with_grads"): "ntm.elbo",
    ("ntm", "top_words"): "ntm.top_words",
    ("ntm", "doc_theta"): "ntm.doc_theta",
    ("setcl", "build_index_matrix"): "setcl.sets",
    ("setcl", "build_sets"): "setcl.sets",
    ("setcl", "members_matrix"): "setcl.sets",
    ("setcl", "infonce_with_grads"): "setcl.infonce",
    ("moo", "strategy_dispatch"): "moo.dispatch",
    ("diffnet", "sigmoid"): "diffnet.sigmoid",
    ("evaluate", "CooccurrenceStats.from_corpus"): "evaluate.cooccurrence",
    ("evaluate", "npmi"): "evaluate.npmi",
    ("evaluate", "align_topics"): "evaluate.align",
    ("evaluate", "classification_features"): "evaluate.classify",
    ("evaluate", "similarity_probe"): "evaluate.probe",
    ("cli", "cmd_build_vocab"): "cli.build_vocab",
    ("cli", "cmd_augment"): "cli.augment",
    ("cli", "cmd_train"): "cli.train",
    ("cli", "cmd_topics"): "cli.topics",
    ("cli", "cmd_eval"): "cli.eval",
    ("cli", "cmd_align"): "cli.align",
    ("cli", "cmd_classify"): "cli.classify",
}


def _file_size(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Sizes recorded on a span when its call returns.
SIZES = {
    "augment.cache_augmentations": _file_size,
    "trainer.save_checkpoint": _file_size,
    "trainer.prepare": lambda a, k, data: data.Xc.nbytes + data.Xp.nbytes + data.Xm.nbytes,
    "evaluate.cooccurrence": lambda a, k, stats: len(stats.pair_doc_freq),
}

# name, unit
PER_LAYER = [
    ("corpus.vectorize_calls", "count"),
    ("corpus.vectorize_s", "s"),
    ("corpus.build_vocabulary_s", "s"),
    ("corpus.load_corpus_s", "s"),
    ("augment.build_cache_s", "s"),
    ("augment.cache_bytes", "bytes"),
    ("augment.load_cache_s", "s"),
    ("trainer.prepare_s", "s"),
    ("trainer.train_data_bytes", "bytes"),
    ("trainer.steps", "count"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
    ("trainer.step_self_ms", "ms"),
    ("trainer.save_checkpoint_s", "s"),
    ("trainer.load_checkpoint_s", "s"),
    ("trainer.checkpoint_bytes", "bytes"),
    ("ntm.encode_calls_per_step", "count"),
    ("ntm.encode_ms_per_step", "ms"),
    ("ntm.encoder_backward_calls_per_step", "count"),
    ("ntm.encoder_backward_ms_per_step", "ms"),
    ("ntm.elbo_self_ms_per_step", "ms"),
    ("ntm.top_words_s", "s"),
    ("ntm.doc_theta_s", "s"),
    ("setcl.sets_ms_per_step", "ms"),
    ("setcl.infonce_ms_per_step", "ms"),
    ("moo.dispatch_ms_per_step", "ms"),
    ("diffnet.sigmoid_ms_per_step", "ms"),
    ("evaluate.cooccurrence_s", "s"),
    ("evaluate.cooccurrence_pairs", "count"),
    ("evaluate.npmi_s", "s"),
    ("evaluate.align_s", "s"),
    ("evaluate.classify_s", "s"),
    ("evaluate.probe_ms_p50", "ms"),
    ("cli.build_vocab_s", "s"),
    ("cli.augment_s", "s"),
    ("cli.train_s", "s"),
    ("cli.topics_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.align_s", "s"),
    ("cli.classify_s", "s"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.round = -1
        # [name, start, end, parent index, round, size]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.round, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if size_of is not None:
                span[5] = size_of(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "paretopic") -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for (mod_name, attr), name in TARGETS.items():
            module = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self._wrap(name, fn)))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "size"],
                       "spans": self.spans}, fh)

    def per_layer(self, n_rounds: int) -> dict[str, float]:
        """Per-layer metrics: per round, per training step or per call."""
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans])
        child = np.zeros(len(spans))
        in_step = np.zeros(len(spans), dtype=bool)
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
                in_step[i] = spans[p][0] == "trainer.step" or in_step[p]
        self_time = dur - child
        names = np.array([s[0] for s in spans], dtype=object)

        def sel(name, step_only=False):
            mask = names == name
            return mask & in_step if step_only else mask

        def per_round_s(name):
            return float(dur[sel(name)].sum()) / n_rounds

        def sizes(name):
            vals = [spans[i][5] for i in np.flatnonzero(sel(name))]
            return float(np.mean(vals)) if vals else 0.0

        step_ms = dur[sel("trainer.step")] * 1e3
        steps = len(step_ms)

        def per_step(values):
            return float(values.sum()) / steps if steps else 0.0

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        out = {
            "corpus.vectorize_calls": float(sel("corpus.vectorize").sum()) / n_rounds,
            "corpus.vectorize_s": per_round_s("corpus.vectorize"),
            "corpus.build_vocabulary_s": per_round_s("corpus.build_vocabulary"),
            "corpus.load_corpus_s": per_round_s("corpus.load_corpus"),
            "augment.build_cache_s": per_round_s("augment.build_cache"),
            "augment.cache_bytes": sizes("augment.cache_augmentations"),
            "augment.load_cache_s": per_round_s("augment.load_cache"),
            "trainer.prepare_s": per_round_s("trainer.prepare"),
            "trainer.train_data_bytes": sizes("trainer.prepare"),
            "trainer.steps": steps / n_rounds,
            "trainer.step_ms_p50": pct(step_ms, 50),
            "trainer.step_ms_p99": pct(step_ms, 99),
            "trainer.step_self_ms": per_step(self_time[sel("trainer.step")] * 1e3),
            "trainer.save_checkpoint_s": per_round_s("trainer.save_checkpoint"),
            "trainer.load_checkpoint_s": per_round_s("trainer.load_checkpoint"),
            "trainer.checkpoint_bytes": sizes("trainer.save_checkpoint"),
            "ntm.encode_calls_per_step": per_step(sel("ntm.encode", True)),
            "ntm.encode_ms_per_step": per_step(dur[sel("ntm.encode", True)] * 1e3),
            "ntm.encoder_backward_calls_per_step": per_step(sel("ntm.encoder_backward", True)),
            "ntm.encoder_backward_ms_per_step":
                per_step(dur[sel("ntm.encoder_backward", True)] * 1e3),
            "ntm.elbo_self_ms_per_step": per_step(self_time[sel("ntm.elbo", True)] * 1e3),
            "ntm.top_words_s": per_round_s("ntm.top_words"),
            "ntm.doc_theta_s": per_round_s("ntm.doc_theta"),
            "setcl.sets_ms_per_step": per_step(dur[sel("setcl.sets", True)] * 1e3),
            "setcl.infonce_ms_per_step": per_step(dur[sel("setcl.infonce", True)] * 1e3),
            "moo.dispatch_ms_per_step": per_step(dur[sel("moo.dispatch", True)] * 1e3),
            "diffnet.sigmoid_ms_per_step": per_step(dur[sel("diffnet.sigmoid", True)] * 1e3),
            "evaluate.cooccurrence_s": per_round_s("evaluate.cooccurrence"),
            "evaluate.cooccurrence_pairs": sizes("evaluate.cooccurrence"),
            "evaluate.npmi_s": per_round_s("evaluate.npmi"),
            "evaluate.align_s": per_round_s("evaluate.align"),
            "evaluate.classify_s": per_round_s("evaluate.classify"),
            "evaluate.probe_ms_p50": pct(dur[sel("evaluate.probe")] * 1e3, 50),
        }
        for sub in ("build_vocab", "augment", "train", "topics", "eval", "align", "classify"):
            out[f"cli.{sub}_s"] = per_round_s(f"cli.{sub}")
        return out
