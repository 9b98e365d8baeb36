import ast
import builtins
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from paretopic import augment, cli, errors, evaluate, trainer
from paretopic.corpus import Vocabulary, load_corpus, make_corpus
from paretopic.errors import ConfigError


def write_jsonl(path, texts, labels=None):
    with open(path, "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            rec = {"text": text}
            if labels is not None:
                rec["label"] = labels[i]
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture
def workdir(tmp_path, tiny_texts):
    write_jsonl(tmp_path / "corpus.jsonl", tiny_texts, labels=[0, 0, 1, 1, 0, 1])
    return tmp_path


class TestConfigFile:
    def test_parse_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.T = 7\nsetcl.K=2  # inline comment\n\n"
                        "# full comment line\nmoo.strategy = linear\n")
        overrides = cli.parse_config_file(str(path))
        assert overrides == {"num_topics": 7, "set_size": 2,
                             "moo_strategy": "linear"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.layers = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.T = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            cli.parse_config_file(str(path))

    def test_boolean_spellings(self, tmp_path):
        path = tmp_path / "c.cfg"
        for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("false", False), ("NO", False)):
            path.write_text(f"setcl.include_own_negative = {text}\n")
            assert cli.parse_config_file(str(path)) == {"include_own_negative": value}
        for text in ("ture", "on", "2", ""):
            path.write_text(f"setcl.include_own_negative = {text}\n")
            with pytest.raises(ConfigError, match="bad value"):
                cli.parse_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.T 3\n")
        with pytest.raises(ConfigError, match="key=value"):
            cli.parse_config_file(str(path))


class TestExitCodes:
    def test_missing_seed_is_usage_error(self, workdir, capsys):
        code = cli.main(["train", "--input", str(workdir / "corpus.jsonl"),
                         "--vocab", "v.json", "--cache", "c.jsonl",
                         "--checkpoint", "ck.json"])
        assert code == cli.EXIT_USAGE
        assert "seed" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == cli.EXIT_USAGE

    def test_invalid_config_combination(self, workdir, capsys):
        # K larger than the batch size must be rejected before training
        code = cli.main(["train", "--input", str(workdir / "corpus.jsonl"),
                         "--vocab", "v.json", "--cache", "c.jsonl",
                         "--checkpoint", "ck.json", "--seed", "1",
                         "--set", "setcl.K=500", "--set", "train.batch_size=6"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("via", ["set", "config"])
    def test_bad_boolean_is_usage_error(self, workdir, capsys, via):
        args = ["train", "--input", str(workdir / "corpus.jsonl"), "--vocab", "v.json",
                "--cache", "c.jsonl", "--checkpoint", "ck.json", "--seed", "1"]
        if via == "set":
            args += ["--set", "setcl.include_own_negative=ture"]
        else:
            (workdir / "c.cfg").write_text("setcl.include_own_negative = ture\n")
            args += ["--config", str(workdir / "c.cfg")]
        assert cli.main(args) == cli.EXIT_USAGE
        assert "bad value for setcl.include_own_negative" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        (["train.lr=inf"], "learning_rate must be finite"),
        (["setcl.tau=nan"], "temperature must be finite"),
        (["moo.strategy=linear", "moo.linear_alpha=1.5"], "linear_alpha must lie in [0, 1]"),
        (["moo.linear_alpha=nan"], "linear_alpha must be finite"),
        (["moo.tie_eps=1e-9"], "unknown config key 'moo.tie_eps'"),
    ], ids=["lr-inf", "tau-nan", "alpha-above-one", "alpha-nan", "tie-eps-not-a-key"])
    def test_bad_number_is_usage_error_before_any_read(self, tmp_path, capsys,
                                                       settings, message):
        # none of the files exists: the config must be rejected before any read
        args = ["train", "--input", str(tmp_path / "corpus.jsonl"), "--vocab", "v.json",
                "--cache", "c.jsonl", "--checkpoint", str(tmp_path / "ck.json"),
                "--seed", "1"]
        for item in settings:
            args += ["--set", item]
        assert cli.main(args) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--set", "train.seed=-1"]],
                             ids=["flag", "config"])
    def test_negative_train_seed_is_usage_error_before_any_read(self, tmp_path, capsys, seed):
        # none of the files exists: the seed must be rejected before any read
        code = cli.main(["train", "--input", str(tmp_path / "corpus.jsonl"), "--vocab", "v.json",
                         "--cache", "c.jsonl", "--checkpoint", str(tmp_path / "ck.json"), *seed])
        assert code == cli.EXIT_USAGE
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["build-vocab", "--max-size", "-1"], "expected an integer >= 1, got '-1'"),
        (["build-vocab", "--max-size", "0"], "expected an integer >= 1, got '0'"),
        (["build-vocab", "--max-df-frac", "1.5"], "expected a number in (0, 1], got '1.5'"),
        (["augment", "--vocab", "v.json", "--replace-frac", "1.5"],
         "expected a number in (0, 1), got '1.5'"),
        (["augment", "--vocab", "v.json", "--drop-frac", "0"],
         "expected a number in (0, 1), got '0'"),
        (["topics", "--checkpoint", "ck.json", "--vocab", "v.json", "--top-n", "-1"],
         "expected an integer >= 1, got '-1'"),
        (["topics", "--checkpoint", "ck.json", "--vocab", "v.json", "--top-n", "0"],
         "expected an integer >= 1, got '0'"),
        (["align", "--checkpoint-a", "a.json", "--checkpoint-b", "b.json", "--vocab", "v.json",
          "--threshold", "nan"], "expected a number >= 0, got 'nan'"),
        (["augment", "--vocab", "v.json", "--seed", "-1"], "expected an integer >= 0, got '-1'"),
        (["classify", "--vocab", "v.json", "--checkpoint", "ck.json", "--seed", "-1"],
         "expected an integer >= 0, got '-1'"),
        (["augment", "--vocab", "v.json", "--timeout", "0"],
         "expected a finite number > 0, got '0'"),
        (["augment", "--vocab", "v.json", "--timeout", "-1"],
         "expected a finite number > 0, got '-1'"),
        (["augment", "--vocab", "v.json", "--timeout", "nan"],
         "expected a finite number > 0, got 'nan'"),
        (["augment", "--vocab", "v.json", "--timeout", "inf"],
         "expected a finite number > 0, got 'inf'"),
        (["augment", "--vocab", "v.json", "--mode", "llm", "--endpoint", "file:///x"],
         "endpoint must be an http:// or https:// URL, got 'file:///x'"),
        (["augment", "--vocab", "v.json", "--mode", "llm"],
         "--endpoint is required for llm augmentation"),
    ], ids=["max-size-negative", "max-size-zero", "max-df-frac-above-one",
            "replace-frac-above-one", "drop-frac-zero", "top-n-negative", "top-n-zero",
            "threshold-nan", "augment-seed-negative", "classify-seed-negative",
            "timeout-zero", "timeout-negative", "timeout-nan", "timeout-inf",
            "endpoint-file-scheme", "endpoint-missing"])
    def test_out_of_range_flag_is_usage_error_before_any_read(self, tmp_path, capsys,
                                                              args, message):
        # none of the files exists: the flag must be rejected before any read
        out = ["--output", str(tmp_path / "out")]
        if args[0] in ("build-vocab", "augment", "classify"):
            out += ["--input", str(tmp_path / "corpus.jsonl")]
        assert cli.main(args + out) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_checkpoint_is_data_error(self, workdir, capsys, value):
        vocab_path, ckpt = str(workdir / "vocab.json"), workdir / "model.json"
        assert cli.main(["build-vocab", "--input", str(workdir / "corpus.jsonl"),
                         "--output", vocab_path, "--min-df", "1", "--max-df-frac", "1.0"]) == 0
        vocab = Vocabulary.load(vocab_path)
        state = trainer.init_state(vocab.size, trainer.TrainConfig(seed=0, num_topics=3,
                                                                   hidden=8),
                                   vocab.content_hash())
        state.dec.beta[1, 2] = value
        trainer.save_checkpoint(state, str(ckpt))
        capsys.readouterr()
        assert cli.main(["topics", "--checkpoint", str(ckpt), "--vocab", vocab_path,
                         "--output", str(workdir / "topics.txt")]) == cli.EXIT_DATA
        assert "beta holds non-finite values" in capsys.readouterr().err
        assert not (workdir / "topics.txt").exists()

    def test_inconsistent_checkpoint_is_data_error(self, workdir, capsys):
        corpus = str(workdir / "corpus.jsonl")
        vocab_path = str(workdir / "vocab.json")
        ckpt = workdir / "model.json"
        assert cli.main(["build-vocab", "--input", corpus, "--output", vocab_path,
                         "--min-df", "1", "--max-df-frac", "1.0"]) == 0
        vocab = Vocabulary.load(vocab_path)
        cfg = trainer.TrainConfig(seed=0, num_topics=3, hidden=8)
        trainer.save_checkpoint(trainer.init_state(vocab.size, cfg, vocab.content_hash()),
                                str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["encoder"]["W_mu"] = [row + [0.0] for row in doc["encoder"]["W_mu"]]
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["classify", "--input", corpus, "--vocab", vocab_path,
                         "--checkpoint", str(ckpt),
                         "--output", str(workdir / "f.csv")]) == cli.EXIT_DATA
        assert cli.main(["probe", "--checkpoint", str(ckpt), "--vocab", vocab_path,
                         "--text-a", "apple", "--text-b", "orbit"]) == cli.EXIT_DATA
        assert "W_mu has shape (8, 4), expected (8, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["seed", "default_rng"])
    def test_rng_name_not_a_bit_generator_is_data_error(self, workdir, capsys, name):
        """The checkpoint names a numpy.random function, not a bit generator:
        a data error, raised without calling it (np.random.seed() would reseed
        the global RNG)."""
        vocab_path, ckpt = str(workdir / "vocab.json"), workdir / "model.json"
        assert cli.main(["build-vocab", "--input", str(workdir / "corpus.jsonl"),
                         "--output", vocab_path, "--min-df", "1", "--max-df-frac", "1.0"]) == 0
        vocab = Vocabulary.load(vocab_path)
        cfg = trainer.TrainConfig(seed=0, num_topics=3, hidden=8)
        trainer.save_checkpoint(trainer.init_state(vocab.size, cfg, vocab.content_hash()),
                                str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["rng_state"]["bit_generator"] = name
        ckpt.write_text(json.dumps(doc))
        np.random.seed(5)
        before = np.random.get_state()
        capsys.readouterr()
        assert cli.main(["topics", "--checkpoint", str(ckpt), "--vocab", vocab_path,
                         "--output", str(workdir / "topics.txt")]) == cli.EXIT_DATA
        assert "names no numpy bit generator" in capsys.readouterr().err
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])

    def test_duplicate_anchor_in_cache_is_data_error(self, workdir, capsys):
        corpus = str(workdir / "corpus.jsonl")
        vocab, cache = str(workdir / "vocab.json"), workdir / "aug.jsonl"
        assert cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                         "--min-df", "1", "--max-df-frac", "1.0"]) == 0
        assert cli.main(["augment", "--input", corpus, "--vocab", vocab,
                         "--output", str(cache), "--mode", "tfidf", "--seed", "0"]) == 0
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines + lines[:1]))
        capsys.readouterr()
        assert cli.main(["train", "--input", corpus, "--vocab", vocab,
                         "--cache", str(cache), "--checkpoint", str(workdir / "ck.json"),
                         "--seed", "1"]) == cli.EXIT_DATA
        assert f"aug.jsonl:{len(lines) + 1}: duplicate anchor_id" in capsys.readouterr().err
        assert not (workdir / "ck.json").exists()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = cli.main(["build-vocab", "--input", str(tmp_path / "nope.jsonl"),
                         "--output", str(tmp_path / "v.json")])
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("target, edit, command", [
        ("ck.json", lambda text: "[1, 2]", "topics"),
        ("ck.json", lambda text: '{"format_version": 1}', "topics"),
        ("vocab.json", lambda text: "5", "topics"),
        ("aug.jsonl", lambda text: edit_first_record(text, anchor_id="0"), "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, positive_text=["apple"]), "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, vocab_hash="0" * 64), "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, positive_text={"zebra": 1}), "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, positive_text={"apple": 0}), "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, positive_text={"apple": True}),
         "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, positive_text={"apple": 1.5}),
         "train"),
        ("aug.jsonl", lambda text: edit_first_record(text, negative_text={}), "train"),
        ("corpus.jsonl", lambda text: text + '{"text": 5}\n', "build-vocab"),
        ("corpus.jsonl", lambda text: text + '{"text": "apple", "label": [1]}\n',
         "build-vocab"),
    ], ids=["checkpoint-list", "checkpoint-no-hash", "vocab-int", "cache-anchor-str",
            "cache-text-list", "cache-vocab-hash", "cache-unknown-word", "cache-count-0",
            "cache-count-true", "cache-count-float", "cache-empty-map", "corpus-text-int",
            "corpus-label-list"])
    def test_malformed_json_is_data_error(self, workdir, capsys, target, edit, command):
        argv = reader_argv(workdir)
        path = workdir / target
        path.write_text(edit(path.read_text() if path.exists() else ""))
        capsys.readouterr()
        assert cli.main(argv[command]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("target, what, command", [
        ("corpus.jsonl", "corpus file", "build-vocab"),
        ("c.cfg", "config file", "train-config"),
        ("vocab.json", "vocabulary file", "topics"),
        ("aug.jsonl", "augmentation cache", "train"),
        ("topics.txt", "topics file", "eval"),
        ("ck.json", "checkpoint", "topics"),
    ], ids=["corpus", "config", "vocabulary", "cache", "topics", "checkpoint"])
    def test_undecodable_input_is_data_error(self, workdir, capsys, target, what, command):
        argv = reader_argv(workdir)
        path = workdir / target
        path.write_bytes((path.read_bytes() if path.exists() else b"") + b"\xff\n")
        capsys.readouterr()
        assert cli.main(argv[command]) == cli.EXIT_DATA
        assert f"data error: cannot read {what} {path}: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_non_finite_loss_is_runtime_error(self, workdir, capsys):
        argv = reader_argv(workdir)["train"]
        capsys.readouterr()
        assert cli.main(argv + [*TINY_TRAIN, "--set", "train.lr=1e300"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error: setwise InfoNCE loss is non-finite" in err
        assert "(epoch 1, step 1)" in err
        assert not (workdir / "ck.json").exists()

    @pytest.mark.parametrize("command, flag, output", [
        pytest.param(command, flag, output, id=case if output == "missing" else f"{case}-{output}")
        for case, command, flag in [
            ("build-vocab", "build-vocab", "--output"), ("augment", "augment", "--output"),
            ("augment-llm", "augment-llm", "--output"),
            ("train-checkpoint", "train", "--checkpoint"), ("train-log", "train", "--log"),
            ("topics", "topics", "--output"), ("eval", "eval", "--output"),
            ("align", "align", "--output"), ("classify", "classify", "--output")]
        for output in ("missing", "directory", "empty", "fifo")])
    def test_output_in_missing_directory_is_data_error(self, workdir, capsys, command, flag,
                                                       output):
        # every input is missing too, so only a check made before any read names the output;
        # the llm case has real inputs and must not ask the endpoint for views it cannot write
        gone = str(workdir / "gone.json")
        corpus, vocab = str(workdir / "corpus.jsonl"), str(workdir / "vocab.json")
        base = {
            "build-vocab": ["build-vocab", "--input", gone],
            "augment": ["augment", "--input", gone, "--vocab", gone],
            "augment-llm": ["augment", "--input", corpus, "--vocab", vocab, "--mode", "llm",
                            "--endpoint", "http://localhost/v1/chat/completions"],
            "train": ["train", "--input", gone, "--vocab", gone, "--cache", gone,
                      "--checkpoint", str(workdir / "ck.json"), "--seed", "1"],
            "topics": ["topics", "--checkpoint", gone, "--vocab", gone],
            "eval": ["eval", "--topics", gone, "--vocab", gone, "--reference", gone],
            "align": ["align", "--checkpoint-a", gone, "--checkpoint-b", gone, "--vocab", gone],
            "classify": ["classify", "--input", gone, "--vocab", gone, "--checkpoint", gone],
        }[command]
        if command == "augment-llm":
            reader_argv(workdir)  # writes vocab.json
        missing, adir, fifo = str(workdir / "missing" / "out"), workdir / "adir", workdir / "fifo"
        adir.mkdir()
        os.mkfifo(fifo)  # stands for any path that exists and is no regular file, /dev/null too
        path, refusal = {
            "missing": (missing, f"{missing}: its directory does not exist"),
            "directory": (str(adir), f"{adir}: it is a directory"),
            "empty": ("", "'': the path is empty"),
            "fifo": (str(fifo), f"{fifo}: it is not a regular file"),
        }[output]
        names = sorted(os.listdir(workdir))
        capsys.readouterr()
        with mock.patch.object(augment, "llm_augment", return_value="apple fruit") as llm:
            assert cli.main(base + [flag, path]) == cli.EXIT_DATA  # the last flag wins
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: cannot write {refusal}\n"
        assert llm.call_count == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(workdir)) == names

    def test_top_n_above_vocabulary_size_is_usage_error(self, workdir, capsys):
        argv = reader_argv(workdir)["topics"]  # its checkpoint is missing: refused before that read
        size = Vocabulary.load(str(workdir / "vocab.json")).size
        capsys.readouterr()
        assert cli.main(argv + ["--top-n", str(size + 1)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"usage error: --top-n {size + 1} exceeds the vocabulary size {size}" in err
        assert not (workdir / "topics.json").exists()


def test_config_keys_name_each_field_once(capsys):
    fields = [f.name for f in dataclasses.fields(trainer.TrainConfig)]
    assert sorted(cli.CONFIG_KEYS.values()) == sorted(fields)
    cli.print_resolved_config(trainer.TrainConfig(seed=0))
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "# resolved config"
    assert sorted(line.split(" = ")[0] for line in lines) == sorted(cli.CONFIG_KEYS)


class TestByteOrderMark:
    @pytest.mark.parametrize("target, load", [
        ("corpus.jsonl", lambda path, vocab: load_corpus(path)),
        ("c.cfg", lambda path, vocab: cli.parse_config_file(path)),
        ("aug.jsonl", lambda path, vocab: augment.load_augmentations(path, 6)),
        ("vocab.json", lambda path, vocab: Vocabulary.load(path)),
        ("topics.txt", lambda path, vocab: evaluate.load_topics(path, vocab)),
        ("ck.json", lambda path, vocab: checkpoint_fields(trainer.load_checkpoint(path))),
    ], ids=["corpus", "config", "cache", "vocabulary", "topics", "checkpoint"])
    def test_marked_file_loads_as_unmarked(self, workdir, target, load):
        reader_argv(workdir)  # writes vocab.json and aug.jsonl
        vocab = Vocabulary.load(str(workdir / "vocab.json"))
        (workdir / "c.cfg").write_text("model.T = 3\nsetcl.K=2  # comment\n")
        (workdir / "topics.txt").write_text(f"{vocab.words[0]} {vocab.words[1]}\n")
        state = trainer.init_state(vocab.size, trainer.TrainConfig(seed=1, num_topics=3,
                                                                   hidden=4), "0" * 64)
        trainer.save_checkpoint(state, str(workdir / "ck.json"))
        plain = workdir / target
        marked = workdir / f"marked-{target}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load(str(marked), vocab) == load(str(plain), vocab)


def checkpoint_fields(state) -> tuple:
    return (state.enc.flat.tolist(), state.dec.flat.tolist(), state.V, state.H, state.T,
            state.vocab_hash, state.rng.bit_generator.state)


def test_cli_imports_no_http_client_and_only_numpy_outside_stdlib():
    """The CLI loads the HTTP client only when llm augmentation runs, and the program
    depends on nothing outside the standard library but numpy."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, paretopic.cli; print(sorted({'requests', 'urllib3', "
             "'urllib.request', 'http.client'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    imported = set()
    for path in (root / "src" / "paretopic").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == {"numpy"}
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(root / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in dependencies] == ["numpy"]


def reader_argv(workdir) -> dict:
    """Write a vocabulary and an augmentation cache of the workdir corpus; return the
    argv of each command that reads them, keyed by command."""
    corpus, vocab = str(workdir / "corpus.jsonl"), str(workdir / "vocab.json")
    cache, ckpt = str(workdir / "aug.jsonl"), str(workdir / "ck.json")
    train = ["train", "--input", corpus, "--vocab", vocab, "--cache", cache,
             "--checkpoint", ckpt, "--seed", "1"]
    argv = {
        "build-vocab": ["build-vocab", "--input", corpus, "--output", vocab,
                        "--min-df", "1", "--max-df-frac", "1.0"],
        "topics": ["topics", "--checkpoint", ckpt, "--vocab", vocab,
                   "--output", str(workdir / "topics.json")],
        "eval": ["eval", "--topics", str(workdir / "topics.txt"), "--vocab", vocab,
                 "--reference", corpus, "--output", str(workdir / "eval.json")],
        "train": train,
        "train-config": train + ["--config", str(workdir / "c.cfg")],
    }
    assert cli.main(argv["build-vocab"]) == 0
    assert cli.main(["augment", "--input", corpus, "--vocab", vocab,
                     "--output", cache, "--mode", "tfidf", "--seed", "0"]) == 0
    return argv


TINY_TRAIN = ["--set", "model.T=3", "--set", "model.H=8", "--set", "setcl.K=2",
              "--set", "setcl.S=2", "--set", "train.batch_size=6"]


def edit_first_record(jsonl: str, **changes) -> str:
    first, *rest = jsonl.splitlines(keepends=True)
    return json.dumps({**json.loads(first), **changes}) + "\n" + "".join(rest)


class TestPipeline:
    def test_end_to_end(self, workdir, capsys):
        root = workdir
        corpus = str(root / "corpus.jsonl")
        vocab = str(root / "vocab.json")
        cache = str(root / "aug.jsonl")
        ckpt = str(root / "model.json")
        topics = str(root / "topics.txt")
        metrics = str(root / "metrics.json")

        assert cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                         "--min-df", "1", "--max-df-frac", "1.0"]) == 0
        assert cli.main(["augment", "--input", corpus, "--vocab", vocab,
                         "--output", cache, "--mode", "tfidf", "--seed", "0"]) == 0
        assert cli.main(["train", "--input", corpus, "--vocab", vocab,
                         "--cache", cache, "--checkpoint", ckpt, "--seed", "7",
                         "--set", "model.T=3", "--set", "model.H=8",
                         "--set", "setcl.K=2", "--set", "setcl.S=2",
                         "--set", "train.batch_size=6",
                         "--set", "train.epochs=2"]) == 0
        out = capsys.readouterr().out
        assert "# resolved config" in out
        assert "model.T = 3" in out
        assert "train.seed = 7" in out

        assert cli.main(["topics", "--checkpoint", ckpt, "--vocab", vocab,
                         "--output", topics, "--top-n", "4"]) == 0
        with open(topics) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 3
        assert all(len(l.split()) == 4 for l in lines)

        assert cli.main(["eval", "--topics", topics, "--vocab", vocab,
                         "--reference", corpus, "--output", metrics]) == 0
        with open(metrics) as fh:
            m = json.load(fh)
        assert set(m) == {"npmi", "npmi_per_topic", "td", "num_topics"}
        assert m["num_topics"] == 3

        capsys.readouterr()  # flush earlier subcommand chatter
        assert cli.main(["align", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt,
                         "--vocab", vocab, "--threshold", "0.5"]) == 0
        report = json.loads("".join(
            l for l in capsys.readouterr().out.splitlines(keepends=True)
            if not l.startswith("#")))
        assert all(r["topic_a"] == r["topic_b"] for r in report)
        assert len(report) == 3

        csv_out = str(root / "features.csv")
        assert cli.main(["classify", "--input", corpus, "--vocab", vocab,
                         "--checkpoint", ckpt, "--output", csv_out]) == 0
        with open(csv_out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["theta_0", "theta_1", "theta_2", "label"]

        assert cli.main(["probe", "--checkpoint", ckpt, "--vocab", vocab,
                         "--text-a", "apple banana", "--text-b", "rocket orbit"]) == 0
        assert "similarity" in capsys.readouterr().out

    def test_determinism_byte_identical(self, workdir):
        root = workdir
        corpus = str(root / "corpus.jsonl")
        vocab = str(root / "vocab.json")
        cache = str(root / "aug.jsonl")
        cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                  "--min-df", "1", "--max-df-frac", "1.0"])
        cli.main(["augment", "--input", corpus, "--vocab", vocab,
                  "--output", cache, "--seed", "0"])
        blobs = []
        for tag in ("a", "b"):
            ckpt = str(root / f"model_{tag}.json")
            topics = str(root / f"topics_{tag}.txt")
            metrics = str(root / f"metrics_{tag}.json")
            assert cli.main(["train", "--input", corpus, "--vocab", vocab,
                             "--cache", cache, "--checkpoint", ckpt,
                             "--seed", "3", "--set", "model.T=3",
                             "--set", "model.H=8", "--set", "setcl.K=2",
                             "--set", "setcl.S=2", "--set", "train.batch_size=6",
                             "--set", "train.epochs=2"]) == 0
            cli.main(["topics", "--checkpoint", ckpt, "--vocab", vocab,
                      "--output", topics])
            cli.main(["eval", "--topics", topics, "--vocab", vocab,
                      "--reference", corpus, "--output", metrics])
            blobs.append(tuple(open(p, "rb").read()
                               for p in (ckpt, topics, metrics)))
        assert blobs[0] == blobs[1]

    def test_views_of_words_the_tokeniser_drops_train(self, tmp_path):
        """A hand-made vocabulary may hold words no text tokenises to ("a", "12").
        Every document here holds one word, so each negative view is made of
        such words alone; a bag-of-words cache keeps them."""
        corpus, vocab = str(tmp_path / "corpus.jsonl"), tmp_path / "vocab.json"
        cache = str(tmp_path / "aug.jsonl")
        write_jsonl(corpus, ["apple apple", "apple", "apple apple apple", "apple",
                             "apple apple", "apple"])
        vocab.write_text(json.dumps({"words": ["apple", "a", "12"], "df": [6, 1, 1]}))
        assert cli.main(["augment", "--input", corpus, "--vocab", str(vocab),
                         "--output", cache, "--mode", "tfidf", "--seed", "0"]) == 0
        assert cli.main(["train", "--input", corpus, "--vocab", str(vocab), "--cache", cache,
                         "--checkpoint", str(tmp_path / "ck.json"), "--seed", "1",
                         "--set", "model.T=2", "--set", "model.H=4", "--set", "setcl.K=2",
                         "--set", "setcl.S=2", "--set", "train.batch_size=6",
                         "--set", "train.epochs=1"]) == 0

    def test_oov_topics_file_is_data_error(self, workdir, capsys):
        root = workdir
        corpus = str(root / "corpus.jsonl")
        vocab = str(root / "vocab.json")
        cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                  "--min-df", "1", "--max-df-frac", "1.0"])
        bad_topics = root / "topics.txt"
        bad_topics.write_text("apple zzzz\n")
        code = cli.main(["eval", "--topics", str(bad_topics), "--vocab", vocab,
                         "--reference", corpus, "--output", str(root / "m.json")])
        assert code == cli.EXIT_DATA


    def test_empty_topics_file_is_data_error(self, workdir, capsys):
        corpus, vocab = str(workdir / "corpus.jsonl"), str(workdir / "vocab.json")
        cli.main(["build-vocab", "--input", corpus, "--output", vocab,
                  "--min-df", "1", "--max-df-frac", "1.0"])
        empty = workdir / "topics.txt"
        empty.write_text("\n  \n")
        code = cli.main(["eval", "--topics", str(empty), "--vocab", vocab,
                         "--reference", corpus, "--output", str(workdir / "m.json")])
        assert code == cli.EXIT_DATA
        assert "holds no topic line" in capsys.readouterr().err


class TestCommandOutputs:
    def test_train_log_has_one_finite_record_per_step(self, workdir, capsys):
        log = workdir / "log.jsonl"
        argv = reader_argv(workdir)["train"] + TINY_TRAIN + ["--set", "train.epochs=3"]
        assert cli.main(argv + ["--log", str(log)]) == 0
        assert "trained 3 steps" in capsys.readouterr().out
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["step"] for r in records] == [0, 1, 2]
        assert all(math.isfinite(v) for r in records for v in r.values())

    def test_align_output_is_the_printed_report(self, workdir, capsys):
        ckpt, out = str(workdir / "ck.json"), workdir / "align.json"
        assert cli.main(reader_argv(workdir)["train"] + TINY_TRAIN
                        + ["--set", "train.epochs=1"]) == 0
        capsys.readouterr()
        assert cli.main(["align", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt,
                         "--vocab", str(workdir / "vocab.json"), "--output", str(out)]) == 0
        printed = capsys.readouterr().out.split("\n", 1)[1]  # after the "# align" line
        assert json.loads(out.read_text()) == json.loads(printed)
        assert len(json.loads(printed)) == 3

    def test_classify_labeled_corpus_prints_the_score_the_benchmark_reads(self, workdir,
                                                                          capsys):
        argv = reader_argv(workdir)
        assert cli.main(argv["train"] + TINY_TRAIN + ["--set", "train.epochs=1"]) == 0
        capsys.readouterr()
        assert cli.main(["classify", "--input", str(workdir / "corpus.jsonl"),
                         "--vocab", str(workdir / "vocab.json"),
                         "--checkpoint", str(workdir / "ck.json"),
                         "--output", str(workdir / "features.csv")]) == 0
        # bench/workloads.py parses the score with this pattern
        scores = re.findall(r"macro-F1 = ([0-9.]+)", capsys.readouterr().out)
        assert len(scores) == 1 and 0.0 <= float(scores[0]) <= 1.0

    def test_classify_unlabeled_corpus_writes_features_and_skips_proxy(self, tmp_path,
                                                                        tiny_texts, capsys):
        write_jsonl(tmp_path / "corpus.jsonl", tiny_texts)  # no labels
        argv = reader_argv(tmp_path)
        assert cli.main(argv["train"] + TINY_TRAIN + ["--set", "train.epochs=1"]) == 0
        out = tmp_path / "features.csv"
        capsys.readouterr()
        assert cli.main(["classify", "--input", str(tmp_path / "corpus.jsonl"),
                         "--vocab", str(tmp_path / "vocab.json"),
                         "--checkpoint", str(tmp_path / "ck.json"), "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "corpus has unlabeled documents; proxy classifier skipped" in printed
        assert "macro-F1" not in printed
        rows = out.read_text().splitlines()
        assert rows[0] == "theta_0,theta_1,theta_2,label"
        assert len(rows) == 1 + len(tiny_texts) and all(r.endswith(",") for r in rows[1:])

    def test_dropout_augmentation(self, workdir):
        reader_argv(workdir)  # writes vocab.json
        vocab = Vocabulary.load(str(workdir / "vocab.json"))
        docs = [{vocab.words[w] for w in doc.counts} for doc in
                make_corpus(load_corpus(str(workdir / "corpus.jsonl")), vocab).documents]
        caches = []
        for name in ("a.jsonl", "b.jsonl"):
            path = workdir / name
            assert cli.main(["augment", "--input", str(workdir / "corpus.jsonl"),
                             "--vocab", str(workdir / "vocab.json"), "--output", str(path),
                             "--mode", "dropout", "--seed", "4"]) == 0
            caches.append(path.read_bytes())
        assert caches[0] == caches[1]
        records = [json.loads(line) for line in caches[0].decode().splitlines()]
        assert [r["anchor_id"] for r in records] == list(range(len(docs)))
        for r in records:
            assert r["method"] == "dropout"
            for view in (r["positive_text"], r["negative_text"]):
                assert view and view.keys() <= set(vocab.words)
                assert all(type(c) is int and c > 0 for c in view.values())
            assert r["positive_text"].keys() <= docs[r["anchor_id"]]
            assert not r["negative_text"].keys() & docs[r["anchor_id"]]


    @pytest.mark.parametrize("output", ["vocabulary", "cache", "checkpoint", "train-log",
                                        "topics", "eval", "align", "features"])
    def test_interrupted_write_keeps_previous_file(self, workdir, monkeypatch, output):
        """Each output's first chunk lands, then the process is interrupted (the
        checkpoint is one write): the previous file stays and no temporary file is left."""
        argv = reader_argv(workdir)
        train = argv["train"] + TINY_TRAIN + ["--set", "train.epochs=1"]
        assert cli.main(train) == 0
        corpus, vocab, ckpt = (str(workdir / n) for n in ("corpus.jsonl", "vocab.json", "ck.json"))
        topics, out = str(workdir / "topics.txt"), workdir / "out"
        assert cli.main(["topics", "--checkpoint", ckpt, "--vocab", vocab, "--output", topics]) == 0
        command = {
            "vocabulary": ["build-vocab", "--input", corpus, "--min-df", "1", "--output"],
            "cache": ["augment", "--input", corpus, "--vocab", vocab, "--output"],
            "checkpoint": train + ["--checkpoint"],  # the last flag wins
            "train-log": train + ["--log"],
            "topics": ["topics", "--checkpoint", ckpt, "--vocab", vocab, "--output"],
            "eval": ["eval", "--topics", topics, "--vocab", vocab, "--reference", corpus,
                     "--output"],
            "align": ["align", "--checkpoint-a", ckpt, "--checkpoint-b", ckpt, "--vocab", vocab,
                      "--output"],
            "features": ["classify", "--input", corpus, "--vocab", vocab, "--checkpoint", ckpt,
                         "--output"],
        }[output] + [str(out)]

        class FirstWriteThenInterrupt:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text)
                raise KeyboardInterrupt

        def open_then_interrupt(file, mode="r", **kwargs):  # only out's handle: the others land
            fh = builtins.open(file, mode, **kwargs)
            return FirstWriteThenInterrupt(fh) if str(file).startswith(real_out) else fh

        out.write_bytes(b"previous\n")
        real_out = os.path.realpath(out)
        names = sorted(os.listdir(workdir))
        monkeypatch.setattr(errors, "open", open_then_interrupt, raising=False)
        with pytest.raises(KeyboardInterrupt):
            cli.main(command)
        assert out.read_bytes() == b"previous\n"
        assert sorted(os.listdir(workdir)) == names

    @pytest.mark.parametrize("case", ["train-log-over-checkpoint", "augment-over-input",
                                      "augment-over-input-through-link"])
    def test_output_naming_another_file_of_the_command_is_data_error(self, workdir, capsys,
                                                                      case):
        argv = reader_argv(workdir)
        assert cli.main(argv["train"] + TINY_TRAIN + ["--set", "train.epochs=1"]) == 0
        corpus, vocab, ckpt = (str(workdir / n) for n in ("corpus.jsonl", "vocab.json", "ck.json"))
        link = workdir / "link.jsonl"
        link.symlink_to("corpus.jsonl")
        augment_over = ["augment", "--input", corpus, "--vocab", vocab, "--output"]
        command, refusal = {
            "train-log-over-checkpoint": (argv["train"] + TINY_TRAIN + ["--log", ckpt],
                                          f"{ckpt}: --log names the same file as --checkpoint"),
            "augment-over-input": (augment_over + [corpus],
                                   f"{corpus}: --output names the same file as --input"),
            "augment-over-input-through-link": (
                augment_over + [str(link)], f"{link}: --output names the same file as --input"),
        }[case]
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        capsys.readouterr()
        assert cli.main(command) == cli.EXIT_DATA
        assert capsys.readouterr() == ("", f"data error: cannot write {refusal}\n")
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before
        assert link.is_symlink()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL " not in out
