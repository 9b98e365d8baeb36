"""Hashes of small planted fits, one line each: a byte-identity check of training.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/fit_hashes.py blend

`gate` is the acceptance gate's planted fit (T=5, H=100, B=200) cut to 3 epochs
of 600-token documents: 24 steps, a few seconds per run. It prints the step count
and one hash of the records and the parameters.

`blend` is a small planted fit (V=200, T=5, 8 epochs of 4 steps) under each blend
strategy; each line hashes the encoder and decoder bytes, then the records.
`test_trainer.py` runs both at 1 and 2 BLAS threads and compares the outputs.
"""
import argparse
import hashlib
import json

from conftest import planted_corpus
from test_acceptance import make_triples
from paretopic import trainer


def gate():
    corpus = planted_corpus(1, 1600, doc_len=600)
    cfg = trainer.TrainConfig(seed=1, num_topics=5, hidden=100, batch_size=200, epochs=3)
    state, records = trainer.fit(corpus, make_triples(corpus, 1), cfg)
    h = hashlib.sha256(json.dumps(records).encode())
    for a in state.enc.arrays() + state.dec.arrays():
        h.update(a.tobytes())
    print(len(records), h.hexdigest())


def blend():
    corpus = planted_corpus(1, 400, doc_len=600)
    triples = make_triples(corpus, 1)
    for strategy, alpha in [("mgda", 0.5), ("linear", 0.5), ("linear", 0.0), ("random", 0.5),
                            ("pcgrad", 0.5)]:
        cfg = trainer.TrainConfig(seed=1, num_topics=5, hidden=60, batch_size=100, epochs=8,
                                  moo_strategy=strategy, linear_alpha=alpha)
        state, records = trainer.fit(corpus, triples, cfg)
        h = hashlib.sha256()
        for a in state.enc.arrays() + state.dec.arrays():
            h.update(a.tobytes())
        h.update(json.dumps(records).encode())
        print(strategy, alpha, len(records), h.hexdigest()[:16])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fit", choices=["gate", "blend"])
    {"gate": gate, "blend": blend}[parser.parse_args().fit]()
