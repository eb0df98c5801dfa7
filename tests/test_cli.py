import os
import random

import numpy as np
import pytest

from malsieve.cli import main
from malsieve.ensemble import EnsemblePool, WeightVector, save_pool, save_selection, vote
from malsieve.ga import GAConfig
from malsieve.learners import LearnerSpec, TrainedLearner
from malsieve.records import load_records
from malsieve.vectorize import load_dataset, load_vocabulary, save_dataset, vectorize_all

from binfixtures import STORED, build_dex, build_zip, simple_manifest

INTERNET = "android.permission.INTERNET"
SEND_SMS = "android.permission.SEND_SMS"
BOOT = "android.intent.action.BOOT_COMPLETED"


def write_apk(path, permissions, actions=(), refs=()):
    payload = build_zip(
        [
            ("AndroidManifest.xml", simple_manifest(list(permissions), list(actions)), STORED),
            ("classes.dex", build_dex(list(refs)), STORED),
        ]
    )
    path.write_bytes(payload)


def make_corpus(directory, n_per_class=12):
    directory.mkdir(exist_ok=True)
    for i in range(n_per_class):
        write_apk(
            directory / f"mal{i:02d}.apk",
            [SEND_SMS, INTERNET],
            [BOOT],
            [("Landroid/telephony/SmsManager;", "sendTextMessage")],
        )
        write_apk(
            directory / f"ben{i:02d}.apk",
            [INTERNET],
            [],
            [("Ljava/lang/Object;", "toString")],
        )


# --- extract ---

def test_extract_two_valid_apks(tmp_path, capsys):
    write_apk(tmp_path / "a.apk", [INTERNET])
    write_apk(tmp_path / "b.apk", [SEND_SMS])
    out = tmp_path / "records.tsv"
    code = main(
        ["extract", str(tmp_path / "a.apk"), str(tmp_path / "b.apk"),
         "--out", str(out), "--label", "+1"]
    )
    assert code == 0
    records = load_records(out)
    assert [r.app_id for r in records] == ["a", "b"]
    assert all(r.label == 1 for r in records)


def test_extract_tolerates_one_corrupt_apk(tmp_path, capsys):
    write_apk(tmp_path / "good.apk", [INTERNET])
    (tmp_path / "bad.apk").write_bytes(b"this is not an archive")
    out = tmp_path / "records.tsv"
    code = main(["extract", str(tmp_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert len(load_records(out)) == 1
    assert "NotAnArchive" in captured.err


def test_extract_strict_fails_on_corrupt(tmp_path):
    write_apk(tmp_path / "good.apk", [INTERNET])
    (tmp_path / "bad.apk").write_bytes(b"junk")
    code = main(["extract", str(tmp_path), "--strict", "--out", str(tmp_path / "r.tsv")])
    assert code != 0


def test_extract_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["extract", str(empty)])
    assert code != 0
    assert "no inputs" in capsys.readouterr().err


def test_extract_all_inputs_failing(tmp_path):
    (tmp_path / "bad.apk").write_bytes(b"junk")
    code = main(["extract", str(tmp_path / "bad.apk"), "--out", str(tmp_path / "r.tsv")])
    assert code != 0


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_extract_skips_file_name_that_cannot_be_an_app_id(tmp_path, capsys, char):
    apks = tmp_path / "apks"
    apks.mkdir()
    write_apk(apks / "good.apk", [INTERNET])
    write_apk(apks / f"ab{char}cd.apk", [SEND_SMS])
    out = tmp_path / "records.tsv"
    assert main(["extract", str(apks), "--label", "+1", "--out", str(out)]) == 0
    assert "FormatError: app id" in capsys.readouterr().err
    assert [r.app_id for r in load_records(out)] == ["good"]
    assert main(["extract", str(apks), "--strict", "--out", str(out)]) == 1


def test_extract_skips_file_name_that_is_not_utf8(tmp_path, capfd):
    # the app id of b"bad\xff.apk" holds a lone surrogate, which no UTF-8
    # records file can hold; the good APK's record must still be written
    apks = tmp_path / "apks"
    apks.mkdir()
    write_apk(apks / "good.apk", [INTERNET])
    try:
        bad = os.path.join(os.fsencode(apks), b"bad\xff.apk")
        with open(bad, "wb") as fh:
            fh.write((apks / "good.apk").read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    if sorted(os.listdir(os.fsencode(apks))) != [b"bad\xff.apk", b"good.apk"]:
        pytest.skip("the filesystem rewrote a file name that is not UTF-8")
    out = tmp_path / "records.tsv"
    assert main(["extract", str(apks), "--label", "+1", "--out", str(out)]) == 0
    assert "FormatError: app id 'bad\\udcff' cannot be encoded as UTF-8" in capfd.readouterr().err
    assert [r.app_id for r in load_records(out)] == ["good"]


# --- pipeline chain ---

@pytest.fixture()
def pipeline(tmp_path):
    apks = tmp_path / "apks"
    make_corpus(apks)
    records = tmp_path / "records.tsv"
    # label by filename prefix: extract each class separately
    mal = sorted(str(p) for p in apks.glob("mal*.apk"))
    ben = sorted(str(p) for p in apks.glob("ben*.apk"))
    mal_out = tmp_path / "mal.tsv"
    ben_out = tmp_path / "ben.tsv"
    assert main(["extract", *mal, "--label", "+1", "--out", str(mal_out)]) == 0
    assert main(["extract", *ben, "--label", "-1", "--out", str(ben_out)]) == 0
    records.write_text(mal_out.read_text() + ben_out.read_text())
    return tmp_path, records


def test_vectorize_train_select_evaluate_predict(pipeline, capsys):
    tmp_path, records = pipeline
    vocab = tmp_path / "vocab.tsv"
    dataset = tmp_path / "data.svm"
    code = main(
        ["vectorize", str(records), "--dataset-out", str(dataset),
         "--vocab-out", str(vocab), "--min-doc-freq", "2"]
    )
    assert code == 0
    loaded_vocab = load_vocabulary(vocab)
    assert "perm:" + SEND_SMS in loaded_vocab.names
    data = load_dataset(dataset)
    assert len(data) == 24

    pool_dir = tmp_path / "pool"
    code = main(
        ["train-pool", str(dataset), "--out", str(pool_dir),
         "--pool-size", "5", "--learner", "linear", "--epochs", "10",
         "--learning-rate", "0.5", "--seed", "3"]
    )
    assert code == 0
    assert (pool_dir / "pool.txt").exists()

    selection = tmp_path / "selection.txt"
    report = tmp_path / "ga-report.txt"
    code = main(
        ["select", str(pool_dir), str(dataset), "--out", str(selection),
         "--report", str(report), "--pop-size", "8", "--max-iter", "5",
         "--seed", "1"]
    )
    assert code == 0
    assert report.read_text().startswith("malsieve-ga-report v1")

    code = main(["evaluate", str(pool_dir), str(dataset), "--selection", str(selection)])
    assert code == 0
    line = capsys.readouterr().out
    assert "accuracy=" in line and "f1=" in line

    predictions = tmp_path / "labels.tsv"
    code = main(
        ["predict", str(pool_dir), str(records), "--selection", str(selection),
         "--vocab", str(vocab), "--out", str(predictions)]
    )
    assert code == 0
    lines = predictions.read_text().splitlines()
    assert len(lines) == 24
    assert all(line.split("\t")[1] in ("+1", "-1") for line in lines)
    # the corpus is cleanly separable, so the ensemble should label it
    labels = {line.split("\t")[0]: line.split("\t")[1] for line in lines}
    assert labels["mal00"] == "+1"
    assert labels["ben00"] == "-1"


def test_vectorize_ignores_the_order_of_names_in_a_record(pipeline):
    # a record is a set of names: shuffling each line's names, blocks
    # included, changes neither the vocabulary nor the dataset
    tmp_path, records = pipeline
    rng = random.Random(5)
    shuffled_lines = []
    for line in records.read_text().splitlines():
        fields = line.split("\t")
        names = fields[2:]
        while len(names) > 1 and names == fields[2:]:
            rng.shuffle(names)
        shuffled_lines.append("\t".join(fields[:2] + names) + "\n")
    shuffled = tmp_path / "shuffled.tsv"
    shuffled.write_text("".join(shuffled_lines))
    assert shuffled.read_text() != records.read_text()
    outputs = []
    for source in (records, shuffled):
        vocab, dataset = tmp_path / f"{source.stem}.vocab", tmp_path / f"{source.stem}.svm"
        assert main(["vectorize", str(source), "--min-doc-freq", "1",
                     "--vocab-out", str(vocab), "--dataset-out", str(dataset)]) == 0
        outputs.append((vocab.read_bytes(), dataset.read_bytes()))
    assert outputs[0] == outputs[1]


def test_vectorize_takes_one_of_vocab_and_vocab_out(pipeline, tmp_path, capsys):
    # given both, --vocab-out used to be ignored: exit 0 and no file
    _, records = pipeline
    vocab, out = tmp_path / "vocab.tsv", tmp_path / "out.tsv"
    assert main(["vectorize", str(records), "--vocab-out", str(vocab),
                 "--dataset-out", str(tmp_path / "a.svm")]) == 0
    with pytest.raises(SystemExit) as info:
        main(["vectorize", str(records), "--vocab", str(vocab), "--vocab-out", str(out),
              "--dataset-out", str(tmp_path / "b.svm")])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "b.svm").exists()


@pytest.mark.parametrize("flags, named", [
    (["--min-doc-freq", "5"], "--min-doc-freq"),
    (["--max-api-features", "0"], "--max-api-features"),
    (["--min-doc-freq", "2", "--max-api-features", "2000"],
     "--min-doc-freq and --max-api-features"),
])
def test_vectorize_refuses_vocabulary_flags_with_vocab(pipeline, tmp_path, capsys, flags,
                                                      named):
    # they shape only a vocabulary that vectorize builds, which --vocab skips
    _, records = pipeline
    vocab = tmp_path / "vocab.tsv"
    assert main(["vectorize", str(records), "--vocab-out", str(vocab),
                 "--dataset-out", str(tmp_path / "a.svm")]) == 0
    capsys.readouterr()
    out = tmp_path / "b.svm"
    assert main(["vectorize", str(records), "--vocab", str(vocab), "--dataset-out", str(out),
                 *flags]) == 2
    assert capsys.readouterr().err.startswith(f"vectorize: {named} cannot act with --vocab")
    assert not out.exists()


def test_vectorize_rejects_unlabeled(pipeline, tmp_path):
    _, records = pipeline
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(records.read_text() + "mystery\t?\tperm:" + INTERNET + "\n")
    code = main(["vectorize", str(mixed), "--dataset-out", str(tmp_path / "d.svm")])
    assert code != 0


def test_vectorize_with_vocab_streams_its_records(pipeline, tmp_path, monkeypatch):
    # each record is vectorized as it is read, as predict does; the corpus
    # is never loaded whole
    import malsieve.cli

    _, records = pipeline
    vocab, built = tmp_path / "vocab.tsv", tmp_path / "built.svm"
    assert main(["vectorize", str(records), "--vocab-out", str(vocab),
                 "--dataset-out", str(built)]) == 0
    expected = tmp_path / "expected.svm"
    save_dataset(vectorize_all(load_records(records), load_vocabulary(vocab)), expected)

    def refuse(*args, **kwargs):
        raise AssertionError("vectorize --vocab loaded the whole corpus")

    monkeypatch.setattr(malsieve.cli, "load_records", refuse)
    out = tmp_path / "reused.svm"
    assert main(["vectorize", str(records), "--vocab", str(vocab),
                 "--dataset-out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes() == built.read_bytes()


def test_vectorize_with_vocab_rejects_unlabeled_and_writes_no_dataset(pipeline, tmp_path,
                                                                      capsys):
    _, records = pipeline
    vocab = tmp_path / "vocab.tsv"
    assert main(["vectorize", str(records), "--vocab-out", str(vocab),
                 "--dataset-out", str(tmp_path / "a.svm")]) == 0
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text("mystery\t?\tperm:" + INTERNET + "\n" + records.read_text())
    out = tmp_path / "b.svm"
    capsys.readouterr()
    assert main(["vectorize", str(mixed), "--vocab", str(vocab),
                 "--dataset-out", str(out)]) == 1
    assert "records must be labeled" in capsys.readouterr().err
    assert not out.exists()


def test_predict_dataset_input_and_tie_rule(tmp_path, capsys):
    # zero-weight learners give margin 0 on anything: tie votes malicious
    learners = tuple(
        TrainedLearner(
            dim=3,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.zeros(3), "b": np.zeros(1)},
        )
        for _ in range(2)
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners), pool_dir)
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=3 n=2\n+1 0\n-1 1 2\n")
    code = main(["predict", str(pool_dir), str(dataset)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["sample_0\t+1", "sample_1\t+1"]


def test_predict_batch_matches_per_sample_vote(tmp_path, capsys):
    # 150 samples span several blocks of densified rows, the last one partial
    rng = np.random.default_rng(4)
    learners = tuple(
        TrainedLearner(
            dim=6,
            spec=LearnerSpec(kind="mlp", hidden_units=3),
            params={"W1": rng.normal(size=(6, 3)), "b1": rng.normal(size=3),
                    "w2": rng.normal(size=3), "b2": np.zeros(1)},
        )
        for _ in range(5)
    )
    pool = EnsemblePool(learners=learners)
    save_pool(pool, tmp_path / "pool")
    omega = WeightVector((1, 0, 1, 1, 1))
    save_selection(omega, tmp_path / "selection.txt")
    lines = ["+1 " + " ".join(map(str, np.flatnonzero(rng.random(6) < 0.4)))
             for _ in range(150)]
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=6 n=150\n" + "\n".join(line.strip() for line in lines) + "\n")
    code = main(["predict", str(tmp_path / "pool"), str(dataset),
                 "--selection", str(tmp_path / "selection.txt")])
    assert code == 0
    expected = [
        f"sample_{k}\t{'+1' if vote(pool, omega, v) == 1 else '-1'}"
        for k, v in enumerate(load_dataset(dataset).vectors)
    ]
    out = capsys.readouterr().out.splitlines()
    assert out == expected
    assert {line[-2:] for line in out} == {"+1", "-1"}


def random_mlp_pool(rng, dim, n):
    learners = tuple(
        TrainedLearner(
            dim=dim,
            spec=LearnerSpec(kind="mlp", hidden_units=3),
            params={"W1": rng.normal(size=(dim, 3)), "b1": rng.normal(size=3),
                    "w2": rng.normal(size=3), "b2": np.zeros(1)},
        )
        for _ in range(n)
    )
    return EnsemblePool(learners=learners)


def test_evaluate_counts_match_predict_labels(tmp_path, capsys):
    # 75 samples: two full blocks of densified rows and a partial third
    rng = np.random.default_rng(11)
    save_pool(random_mlp_pool(rng, 8, 7), tmp_path / "pool")
    save_selection(WeightVector((1, 1, 0, 1, 1, 0, 1)), tmp_path / "selection.txt")
    labels = rng.choice(["+1", "-1"], size=75)
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=8 n=75\n" + "".join(
        " ".join([label, *map(str, np.flatnonzero(rng.random(8) < 0.4))]) + "\n"
        for label in labels
    ))
    common = [str(tmp_path / "pool"), str(dataset), "--selection", str(tmp_path / "selection.txt")]
    assert main(["evaluate", *common]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    assert main(["predict", *common]) == 0
    predicted = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    pairs = list(zip(predicted, labels))
    assert len(pairs) == 75
    counts = {name: str(pairs.count(pair)) for name, pair in
              (("tp", ("+1", "+1")), ("fp", ("+1", "-1")), ("tn", ("-1", "-1")),
               ("fn", ("-1", "+1")))}
    assert {name: fields[name] for name in counts} == counts
    assert set(predicted) == {"+1", "-1"}


def test_predict_records_and_their_dataset_agree(tmp_path, capsys):
    rng = np.random.default_rng(12)
    names = [f"perm:p{i}" for i in range(4)] + [f"api:a{i}" for i in range(6)]
    records = tmp_path / "r.tsv"
    records.write_text("".join(
        f"app{k}\t{rng.choice(['+1', '-1'])}\t"
        + "\t".join(n for n in names if rng.random() < 0.5) + "\n"
        for k in range(80)
    ))
    vocab, dataset = tmp_path / "vocab.tsv", tmp_path / "d.svm"
    assert main(["vectorize", str(records), "--vocab-out", str(vocab),
                 "--dataset-out", str(dataset), "--min-doc-freq", "1"]) == 0
    dim = load_vocabulary(vocab).dimension
    save_pool(random_mlp_pool(rng, dim, 5), tmp_path / "pool")
    capsys.readouterr()
    assert main(["predict", str(tmp_path / "pool"), str(records), "--vocab", str(vocab)]) == 0
    from_records = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert main(["predict", str(tmp_path / "pool"), str(dataset)]) == 0
    from_dataset = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [app_id for app_id, _ in from_records] == [f"app{k}" for k in range(80)]
    assert [label for _, label in from_records] == [label for _, label in from_dataset]
    assert {label for _, label in from_records} == {"+1", "-1"}


def test_predict_zero_known_features_is_tieward(tmp_path, capsys):
    learners = (
        TrainedLearner(
            dim=2,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.array([1.0, -1.0]), "b": np.zeros(1)},
        ),
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners), pool_dir)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("0\tperm:known_a\t2\n1\tperm:known_b\t2\n")
    records = tmp_path / "r.tsv"
    records.write_text("stranger\t?\tperm:unseen_thing\n")
    code = main(["predict", str(pool_dir), str(records), "--vocab", str(vocab)])
    assert code == 0
    assert capsys.readouterr().out == "stranger\t+1\n"


def test_predict_refuses_vocab_for_a_dataset_input(tmp_path, capsys):
    # a dataset input has no use for --vocab, even one naming no file
    write_small_artifacts(tmp_path)
    out = tmp_path / "labels.txt"
    for vocab in ("vocab.tsv", "nonexistent.tsv"):
        assert main(["predict", f"{tmp_path}/pool", f"{tmp_path}/d.svm",
                     "--vocab", f"{tmp_path}/{vocab}", "--out", str(out)]) == 2
        assert "--vocab" in capsys.readouterr().err
    assert not out.exists()
    assert main(["predict", f"{tmp_path}/pool", f"{tmp_path}/r.records"]) == 2
    assert "--vocab" in capsys.readouterr().err


def test_predict_dimension_mismatch_fails(tmp_path):
    learners = (
        TrainedLearner(
            dim=4,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.zeros(4), "b": np.zeros(1)},
        ),
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners), pool_dir)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("0\tperm:a\t2\n")  # dimension 1 != model dimension 4
    records = tmp_path / "r.tsv"
    records.write_text("app\t?\tperm:a\n")
    code = main(["predict", str(pool_dir), str(records), "--vocab", str(vocab)])
    assert code == 1


def test_evaluate_dimension_mismatch_names_both_dimensions(tmp_path, capsys):
    learners = (
        TrainedLearner(
            dim=4,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.zeros(4), "b": np.zeros(1)},
        ),
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners), pool_dir)
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=3 n=2\n+1 0\n-1 2\n")
    assert main(["evaluate", str(pool_dir), str(dataset)]) == 1
    assert "DimensionMismatch: input dimension 3 != model dimension 4" in capsys.readouterr().err


# --- bad flags ---

@pytest.mark.parametrize(
    "flags",
    [["--pool-size", "0"], ["--learning-rate", "-1"], ["--batch-size", "-3"],
     ["--batch-size", "0"]],
)
def test_train_pool_bad_flag_is_usage_error(tmp_path, capsys, flags):
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=2 n=2\n+1 0\n-1 1\n")
    code = main(["train-pool", str(dataset), "--out", str(tmp_path / "p"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "InvalidConfig" in err and "Traceback" not in err


def test_vectorize_bad_min_doc_freq_is_usage_error(tmp_path, capsys):
    records = tmp_path / "r.records"
    records.write_text("a\t+1\tperm:" + INTERNET + "\n")
    out = tmp_path / "o.svm"
    code = main(
        ["vectorize", str(records), "--dataset-out", str(out), "--min-doc-freq", "0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "InvalidConfig" in err and "Traceback" not in err


# --- flags are the config keys ---

def cli_exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag before main runs it
        return exc.code


@pytest.fixture
def recorded(monkeypatch):
    """The arguments train-pool passes to train_pool and select to run_ga."""
    import malsieve.cli
    import malsieve.ensemble

    calls = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = (args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(malsieve.ensemble, "train_pool",
                        record("train_pool", malsieve.ensemble.train_pool))
    monkeypatch.setattr(malsieve.cli, "run_ga", record("run_ga", malsieve.cli.run_ga))
    return calls


@pytest.mark.parametrize(
    "pool_flags, select_flags, n, spec, master_seed, ga_config",
    [
        ([], [], 20,
         LearnerSpec(kind="mlp", learning_rate=0.3, epochs=40, hidden_units=16,
                     l2=0.0001, rng_seed=0, batch_size=32),
         0,
         GAConfig(pop_size=30, max_iter=50, crossover_rate=0.8, mutation_rate=0.05,
                  elite_count=2, rng_seed=0, diversity_norm="selected")),
        (["--pool-size", "3", "--learner", "linear", "--epochs", "2", "--seed", "7",
          "--batch-size", "20"],
         ["--diversity-norm", "pairs", "--seed", "7", "--pop-size", "4",
          "--max-iter", "3"],
         3,
         LearnerSpec(kind="linear", learning_rate=0.3, epochs=2, hidden_units=16,
                     l2=0.0001, rng_seed=7, batch_size=20),
         7,
         GAConfig(pop_size=4, max_iter=3, crossover_rate=0.8, mutation_rate=0.05,
                  elite_count=2, rng_seed=7, diversity_norm="pairs")),
        (["--learning-rate", "0.5", "--hidden-units", "3", "--l2", "0",
          "--batch-size", "5", "--learner", "mlp", "--epochs", "1"],
         ["--crossover-rate", "1", "--mutation-rate", "0.5", "--elite-count", "0",
          "--pop-size", "2", "--max-iter", "1"],
         20,
         LearnerSpec(kind="mlp", learning_rate=0.5, epochs=1, hidden_units=3, l2=0.0,
                     rng_seed=0, batch_size=5),
         0,
         GAConfig(pop_size=2, max_iter=1, crossover_rate=1.0, mutation_rate=0.5,
                  elite_count=0, rng_seed=0, diversity_norm="selected")),
    ],
    ids=["defaults", "bench-spellings", "every-other-flag"],
)
def test_flags_build_the_specs(tmp_path, recorded, pool_flags, select_flags, n, spec,
                               master_seed, ga_config):
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=2 n=20\n" + "+1 0\n-1 1\n" * 10)
    pool = tmp_path / "pool"
    assert main(["train-pool", str(dataset), "--out", str(pool), *pool_flags]) == 0
    args, kwargs = recorded["train_pool"]
    assert args[0].shape == (20, 2) and args[1].tolist() == [1, -1] * 10
    assert args[2:] == (n, spec) and kwargs == {"master_seed": master_seed}
    assert main(["select", str(pool), str(dataset), "--out", str(tmp_path / "s.txt"),
                 *select_flags]) == 0
    assert recorded["run_ga"][1] == {"config": ga_config}


def test_vectorize_flags_reach_build_vocabulary(tmp_path, monkeypatch):
    import malsieve.cli

    seen = []
    real = malsieve.cli.build_vocabulary
    monkeypatch.setattr(malsieve.cli, "build_vocabulary",
                        lambda records, **kw: seen.append(kw) or real(records, **kw))
    records = tmp_path / "r.records"
    records.write_text(f"a\t+1\tperm:{INTERNET}\nb\t-1\tperm:{INTERNET}\n")
    out = str(tmp_path / "o.svm")
    assert main(["vectorize", str(records), "--dataset-out", out]) == 0
    assert main(["vectorize", str(records), "--dataset-out", out,
                 "--min-doc-freq", "1", "--max-api-features", "5"]) == 0
    assert seen == [{"min_doc_freq": 2, "max_api_features": 2000},
                    {"min_doc_freq": 1, "max_api_features": 5}]


@pytest.mark.parametrize("argv", [["--learner", "svm"], ["--batch-size", "x"],
                                  ["--epochs", "1.5"], ["--l2", "nan"],
                                  ["--learning-rate", "inf"]])
def test_train_pool_bad_flag_value_exits_2(tmp_path, argv):
    dataset = tmp_path / "d.svm"
    dataset.write_text("dim=2 n=2\n+1 0\n-1 1\n")
    assert cli_exit_code(["train-pool", str(dataset), "--out", str(tmp_path / "p"),
                          *argv]) == 2
    assert not (tmp_path / "p").exists()


# --- experiment command ---

TINY_EXPERIMENT = """
repeats=2
master_seed=5
synthetic_samples=200
synthetic_features=10
pool_size=4
learner=linear
learning_rate=0.5
epochs=3
pop_size=6
max_iter=4
elite_count=1
"""


def test_experiment_command_byte_identical_reports(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(TINY_EXPERIMENT)
    out1 = tmp_path / "report1.txt"
    out2 = tmp_path / "report2.txt"
    assert main(["experiment", str(config), "--out", str(out1)]) == 0
    assert main(["experiment", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "summary method=selective metric=f1" in out1.read_text()


def test_experiment_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("repeats=0\n")
    assert main(["experiment", str(config)]) == 2
    assert "InvalidConfig" in capsys.readouterr().err


def test_experiment_rejects_unknown_key(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("nonsense_key=1\n")
    assert main(["experiment", str(config)]) == 2


@pytest.mark.parametrize("argv, message", [
    (["{t}/exp.cfg", "--print-default-config"], "not allowed with argument"),
    ([], "one of the arguments config --print-default-config is required"),
], ids=["both", "neither"])
def test_experiment_takes_one_of_config_and_print_default_config(tmp_path, capsys, argv,
                                                                message):
    # given both, one of them would go unused
    (tmp_path / "exp.cfg").write_text(TINY_EXPERIMENT)
    assert cli_exit_code(["experiment", *(a.format(t=tmp_path) for a in argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_experiment_rejects_fitness_on_the_training_split(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(TINY_EXPERIMENT + "fitness_split=train\n")
    out = tmp_path / "report.txt"
    assert main(["experiment", str(config), "--out", str(out)]) == 2
    assert "InvalidConfig: fitness_split" in capsys.readouterr().err
    assert not out.exists()


def test_print_default_config_round_trips(tmp_path, capsys):
    assert main(["experiment", "--print-default-config"]) == 0
    text = capsys.readouterr().out
    config = tmp_path / "default.cfg"
    config.write_text(text)
    from malsieve.experiment import ExperimentConfig, parse_config

    assert parse_config(text) == ExperimentConfig()


def test_print_default_config_honours_out(tmp_path, capsys):
    out = tmp_path / "default.cfg"
    assert main(["experiment", "--print-default-config", "--out", str(out)]) == 0
    from malsieve.experiment import DEFAULT_CONFIG_TEXT

    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == DEFAULT_CONFIG_TEXT


# --- malformed text artifacts ---

def write_small_artifacts(tmp_path):
    learners = tuple(
        TrainedLearner(
            dim=3,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.array([1.0, -1.0, 0.5]), "b": np.zeros(1)},
        )
        for _ in range(2)
    )
    save_pool(EnsemblePool(learners=learners), tmp_path / "pool")
    save_selection(WeightVector((1, 1)), tmp_path / "selection.txt")
    (tmp_path / "vocab.tsv").write_text("0\tperm:a\t2\n1\tperm:b\t2\n2\tapi:c\t2\n")
    (tmp_path / "d.svm").write_text("dim=3 n=2\n+1 0\n-1 1 2\n")
    (tmp_path / "r.records").write_text("app1\t+1\tperm:a\napp2\t-1\tapi:c\n")
    (tmp_path / "exp.cfg").write_text(TINY_EXPERIMENT)


@pytest.mark.parametrize(
    "path, content, argv, error",
    [
        ("d.svm", b"dim=3 n=1\n+1 0\xff\n",
         ["evaluate", "{t}/pool", "{t}/d.svm"], "FormatError"),
        ("r.records", b"app1\t+1\tperm:\xe9\n",
         ["vectorize", "{t}/r.records", "--dataset-out", "{t}/o.svm"], "FormatError"),
        ("pool/learner_000.model", b"malsieve-model v1\nkind=\xc0\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError"),
        ("selection.txt", b"malsieve-selection v1\nn=2\nomega=1\x801\n",
         ["predict", "{t}/pool", "{t}/d.svm", "--selection", "{t}/selection.txt"],
         "FormatError"),
        ("exp.cfg", b"repeats=2\n\xfe\n",
         ["experiment", "{t}/exp.cfg"], "InvalidConfig"),
        ("vocab.tsv", b"0\tperm:a\t2\n1\tperm:b\t2\n2\tperm:a\t2\n",
         ["predict", "{t}/pool", "{t}/r.records", "--vocab", "{t}/vocab.tsv"],
         "FormatError"),
        ("pool/pool.txt", b"malsieve-pool v1\nn=0\ndim=3\nmaster_seed=0\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError"),
        ("pool/pool.txt",
         b"malsieve-pool v1\nn=1\ndim=3\nmaster_seed=0\nlearner 0 seed=0 file=gone.model\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError"),
        # the readers turn the constructors' ValueErrors into typed errors
        ("d.svm", b"dim=3 n=1\n+1 0 3\n",
         ["evaluate", "{t}/pool", "{t}/d.svm"], "FormatError: line 2: index 3 >= dimension 3"),
        ("d.svm", b"dim=3 n=1\n+1 2 1\n",
         ["select", "{t}/pool", "{t}/d.svm", "--out", "{t}/s.txt"],
         "FormatError: line 2: indices must be strictly increasing"),
        ("d.svm", b"dim=3 n=1\n+1 x\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError: line 2"),
        ("selection.txt", b"malsieve-selection v1\nn=2\nomega=12\n",
         ["evaluate", "{t}/pool", "{t}/d.svm", "--selection", "{t}/selection.txt"],
         "FormatError: line 3: bad header field omega (bits must be 0 or 1)"),
        ("selection.txt", b"malsieve-selection v1\nn=0\nomega=\n",
         ["predict", "{t}/pool", "{t}/d.svm", "--selection", "{t}/selection.txt"],
         "FormatError: line 3: bad header field omega (weight vector must have at least one position)"),
        ("pool/learner_001.model",
         b"malsieve-model v1\nkind=linear\ndim=3\nlearning_rate=0.3\nepochs=40\n"
         b"hidden_units=16\nl2=0.0001\nbatch_size=32\nrng_seed=0\n"
         b"param w 2x2 0x1p+0 0x1p+0 0x1p+0\nparam b 1 0x0p+0\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError: line 10: param w has shape 2x2, expected 3"),
        ("pool/pool.txt", b"malsieve-pool v1\nn=two\ndim=3\nmaster_seed=0\n",
         ["predict", "{t}/pool", "{t}/d.svm"], "FormatError: line 2: bad header field n ("),
        ("exp.cfg", b"repeats=2.5\n",
         ["experiment", "{t}/exp.cfg"], "InvalidConfig: bad value for repeats"),
    ],
    ids=["dataset-not-utf8", "records-not-utf8", "model-not-utf8", "selection-not-utf8",
         "config-not-utf8", "vocab-duplicate-name", "pool-n-0", "pool-model-missing",
         "dataset-index-past-dim", "dataset-row-not-increasing", "dataset-index-not-int",
         "selection-bit-2", "selection-empty", "model-param-count", "pool-n-not-int",
         "config-repeats-not-int"],
)
def test_malformed_text_artifact_is_usage_error(tmp_path, capsys, path, content, argv, error):
    write_small_artifacts(tmp_path)
    (tmp_path / path).write_bytes(content)
    code = main([arg.format(t=tmp_path) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err


@pytest.mark.parametrize("rows", ["dim=4 n=1\n+1 3\n", "dim=4 n=0\n"], ids=["rows", "empty"])
@pytest.mark.parametrize("argv", [
    ["select", "{t}/pool", "{t}/wide.svm", "--out", "{t}/s.txt"],
    ["evaluate", "{t}/pool", "{t}/wide.svm"],
    ["predict", "{t}/pool", "{t}/wide.svm"],
], ids=["select", "evaluate", "predict"])
def test_dataset_of_another_width_is_one_dimension_mismatch(tmp_path, capsys, argv, rows):
    write_small_artifacts(tmp_path)  # a pool of dimension 3
    (tmp_path / "wide.svm").write_text(rows)
    assert main([arg.format(t=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"{argv[0]}: DimensionMismatch: input dimension 4 != model dimension 3\n" == err
    assert not (tmp_path / "s.txt").exists()


def test_predict_records_whose_first_app_id_looks_like_a_header(tmp_path, capsys):
    write_small_artifacts(tmp_path)
    records = tmp_path / "dim.records"
    records.write_text("dim=1\t?\tperm:a\nn=2\t?\tapi:c\n")
    assert main(["predict", f"{tmp_path}/pool", str(records),
                 "--vocab", f"{tmp_path}/vocab.tsv"]) == 0
    assert capsys.readouterr().out == "dim=1\t+1\nn=2\t+1\n"


def test_select_on_empty_dataset_fails_with_empty_dataset(tmp_path, capsys):
    write_small_artifacts(tmp_path)
    (tmp_path / "empty.svm").write_text("dim=3 n=0\n")
    code = main(["select", str(tmp_path / "pool"), str(tmp_path / "empty.svm"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "EmptyDataset" in err and "Traceback" not in err
