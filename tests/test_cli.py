import json

import pytest

from paretopic import cli, trainer
from paretopic.corpus import Vocabulary
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
        ("corpus.jsonl", lambda text: text + '{"text": 5}\n', "build-vocab"),
    ], ids=["checkpoint-list", "checkpoint-no-hash", "vocab-int", "cache-anchor-str",
            "cache-text-list", "corpus-text-int"])
    def test_malformed_json_is_data_error(self, workdir, capsys, target, edit, command):
        corpus, vocab = str(workdir / "corpus.jsonl"), str(workdir / "vocab.json")
        cache, ckpt = str(workdir / "aug.jsonl"), str(workdir / "ck.json")
        argv = {
            "build-vocab": ["build-vocab", "--input", corpus, "--output", vocab,
                            "--min-df", "1", "--max-df-frac", "1.0"],
            "topics": ["topics", "--checkpoint", ckpt, "--vocab", vocab,
                       "--output", str(workdir / "topics.json")],
            "train": ["train", "--input", corpus, "--vocab", vocab, "--cache", cache,
                      "--checkpoint", ckpt, "--seed", "1"],
        }
        assert cli.main(argv["build-vocab"]) == 0
        assert cli.main(["augment", "--input", corpus, "--vocab", vocab,
                         "--output", cache, "--mode", "tfidf", "--seed", "0"]) == 0
        path = workdir / target
        path.write_text(edit(path.read_text() if path.exists() else ""))
        capsys.readouterr()
        assert cli.main(argv[command]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err


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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL " not in out
