import numpy as np
import pytest

from malsieve.cli import main
from malsieve.ensemble import EnsemblePool, WeightVector, save_pool, save_selection, vote
from malsieve.learners import LearnerSpec, TrainedLearner
from malsieve.records import load_records
from malsieve.vectorize import load_dataset, load_vocabulary

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


def test_vectorize_rejects_unlabeled(pipeline, tmp_path):
    _, records = pipeline
    mixed = tmp_path / "mixed.tsv"
    mixed.write_text(records.read_text() + "mystery\t?\tperm:" + INTERNET + "\n")
    code = main(["vectorize", str(mixed), "--dataset-out", str(tmp_path / "d.svm")])
    assert code != 0


def test_predict_dataset_input_and_tie_rule(tmp_path, capsys):
    # zero-weight learners give margin 0 on anything: tie votes malicious
    learners = tuple(
        TrainedLearner(
            kind="linear",
            dim=3,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.zeros(3), "b": np.zeros(1)},
        )
        for _ in range(2)
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners, bootstrap_seeds=(0, 0)), pool_dir)
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
            kind="mlp",
            dim=6,
            spec=LearnerSpec(kind="mlp", hidden_units=3),
            params={"W1": rng.normal(size=(6, 3)), "b1": rng.normal(size=3),
                    "w2": rng.normal(size=3), "b2": np.zeros(1)},
        )
        for _ in range(5)
    )
    pool = EnsemblePool(learners=learners, bootstrap_seeds=(0,) * 5)
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


def test_predict_zero_known_features_is_tieward(tmp_path, capsys):
    learners = (
        TrainedLearner(
            kind="linear",
            dim=2,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.array([1.0, -1.0]), "b": np.zeros(1)},
        ),
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners, bootstrap_seeds=(0,)), pool_dir)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("0\tperm:known_a\t2\n1\tperm:known_b\t2\n")
    records = tmp_path / "r.tsv"
    records.write_text("stranger\t?\tperm:unseen_thing\n")
    code = main(["predict", str(pool_dir), str(records), "--vocab", str(vocab)])
    assert code == 0
    assert capsys.readouterr().out == "stranger\t+1\n"


def test_predict_dimension_mismatch_fails(tmp_path):
    learners = (
        TrainedLearner(
            kind="linear",
            dim=4,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.zeros(4), "b": np.zeros(1)},
        ),
    )
    pool_dir = tmp_path / "pool"
    save_pool(EnsemblePool(learners=learners, bootstrap_seeds=(0,)), pool_dir)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("0\tperm:a\t2\n")  # dimension 1 != model dimension 4
    records = tmp_path / "r.tsv"
    records.write_text("app\t?\tperm:a\n")
    code = main(["predict", str(pool_dir), str(records), "--vocab", str(vocab)])
    assert code == 1


# --- bad flags ---

@pytest.mark.parametrize(
    "flags",
    [["--pool-size", "0"], ["--learning-rate", "-1"], ["--batch-size", "-3"]],
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


def test_print_default_config_round_trips(tmp_path, capsys):
    assert main(["experiment", "--print-default-config"]) == 0
    text = capsys.readouterr().out
    config = tmp_path / "default.cfg"
    config.write_text(text)
    from malsieve.experiment import ExperimentConfig, parse_config

    assert parse_config(text) == ExperimentConfig()


# --- malformed text artifacts ---

def write_small_artifacts(tmp_path):
    learners = tuple(
        TrainedLearner(
            kind="linear",
            dim=3,
            spec=LearnerSpec(kind="linear"),
            params={"w": np.array([1.0, -1.0, 0.5]), "b": np.zeros(1)},
        )
        for _ in range(2)
    )
    save_pool(EnsemblePool(learners=learners, bootstrap_seeds=(0, 1)), tmp_path / "pool")
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
    ],
    ids=["dataset-not-utf8", "records-not-utf8", "model-not-utf8", "selection-not-utf8",
         "config-not-utf8", "vocab-duplicate-name", "pool-n-0", "pool-model-missing"],
)
def test_malformed_text_artifact_is_usage_error(tmp_path, capsys, path, content, argv, error):
    write_small_artifacts(tmp_path)
    (tmp_path / path).write_bytes(content)
    code = main([arg.format(t=tmp_path) for arg in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err


def test_select_on_empty_dataset_fails_with_empty_dataset(tmp_path, capsys):
    write_small_artifacts(tmp_path)
    (tmp_path / "empty.svm").write_text("dim=3 n=0\n")
    code = main(["select", str(tmp_path / "pool"), str(tmp_path / "empty.svm"),
                 "--out", str(tmp_path / "s.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "EmptyDataset" in err and "Traceback" not in err
