import gc

import numpy as np
import pytest

import malsieve.experiment
from malsieve.errors import FormatError, InvalidConfig, RunFailed, SingleClassData
from malsieve.evaluation import inject_label_noise, split, stratified_split_indices
from malsieve.experiment import (
    DEFAULT_CONFIG_TEXT,
    METHODS,
    SYNTHETIC_CONCEPT_NOISE,
    ExperimentConfig,
    config_text,
    format_report,
    parse_config,
    repeated_experiment,
    run_one,
    synthetic_dataset,
)
from malsieve.records import FeatureRecord
from malsieve.vectorize import (
    Dataset,
    FeatureVector,
    build_vocabulary,
    dense_matrix,
    feature_indices,
    save_dataset,
    vectorize_all,
)

from mlfixtures import dense


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        repeats=2,
        master_seed=3,
        synthetic_samples=200,
        synthetic_features=10,
        pool_size=4,
        learner="linear",
        learning_rate=0.5,
        epochs=3,
        pop_size=6,
        max_iter=4,
        elite_count=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def labeled_records(labels, seed: int = 4) -> list[FeatureRecord]:
    """One record per label, holding two of six permissions: a positive
    draws from P0-P3, a negative from P2-P5, so the label is learnable."""
    rng = np.random.default_rng(seed)
    records = []
    for i, label in enumerate(labels):
        perm_pool = ["P0", "P1", "P2", "P3"] if label == 1 else ["P2", "P3", "P4", "P5"]
        perms = [perm_pool[j] for j in rng.integers(0, 4, size=2)]
        features = tuple(dict.fromkeys(f"perm:{p}" for p in perms))
        records.append(FeatureRecord(app_id=f"app{i}", label=label, features=features))
    return records


# --- config parsing ---

def test_default_config_text_round_trips():
    assert parse_config(DEFAULT_CONFIG_TEXT) == ExperimentConfig()


def test_parse_config_overrides_and_comments():
    config = parse_config("# comment\nrepeats=5\n\nlearner=linear\nbatch_size=5\n")
    assert config.repeats == 5
    assert config.learner == "linear"
    assert config.batch_size == 5


def test_unknown_key_rejected():
    # learner_seed and synthetic_concept_noise were keys once
    for key in ("frobnicate", "learner_seed", "synthetic_concept_noise"):
        with pytest.raises(InvalidConfig, match=f"unknown or malformed key at line 2: '{key}'"):
            parse_config(f"repeats=1\n{key}=0\n")


def test_bad_value_names_key():
    with pytest.raises(InvalidConfig, match="repeats"):
        parse_config("repeats=abc\n")


@pytest.mark.parametrize("line", ["train_fraction=nan", "validation_fraction=nan",
                                  "test_fraction=nan", "l2=nan", "learning_rate=inf",
                                  "noise_fraction=-inf"])
def test_non_finite_float_rejected_naming_key(line):
    # NaN fractions passed the split checks, and a NaN l2 or infinite rate
    # ended in a NonFiniteLoss that blamed the learning rate
    key = line.partition("=")[0]
    with pytest.raises(InvalidConfig, match=f"bad value for {key}: .*finite"):
        parse_config(line + "\n")


@pytest.mark.parametrize("value", ["none", "None"])
def test_batch_size_must_be_a_positive_integer(value):
    # a full batch is a batch_size of the training rows or more
    with pytest.raises(InvalidConfig, match="batch_size"):
        parse_config(f"batch_size={value}\n")


def test_repeated_key_rejected_naming_key():
    # the last value used to win silently
    with pytest.raises(InvalidConfig, match="epochs given twice"):
        parse_config("epochs=3\nrepeats=2\nepochs=5\n")


@pytest.mark.parametrize("line, message", [
    ("synthetic_samples=9", "synthetic_samples must be >= 10"),
    ("synthetic_features=0", "synthetic_features must be >= 1"),
    ("noise_fraction=0.7", r"noise_fraction must be in \[0, 0.5\]"),
    ("noise_test=maybe", r"bad value for noise_test: 'maybe' \(expected true/false\)"),
    # build_vocabulary refuses these too, but only inside each run
    ("min_doc_freq=0", "min_doc_freq must be >= 1"),
    ("max_api_features=-1", "max_api_features must be >= 0"),
])
def test_out_of_range_value_rejected_naming_its_key(line, message):
    with pytest.raises(InvalidConfig, match=message):
        parse_config(line + "\n")


def test_zero_repeats_rejected():
    with pytest.raises(InvalidConfig):
        parse_config("repeats=0\n")


def test_out_of_range_learner_rate_rejected():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(learning_rate=-1.0)


def test_unknown_learner_rejected_naming_key():
    with pytest.raises(InvalidConfig, match="learner must be one of"):
        parse_config("learner=svm\n")


def test_unknown_fitness_split_rejected():
    with pytest.raises(InvalidConfig, match="fitness_split"):
        ExperimentConfig(fitness_split="test")


def test_fitness_on_the_training_split_is_rejected():
    # fitness is measured on held-out rows, never on the rows the pool trained on
    assert malsieve.experiment.FITNESS_SPLITS == ("validation",)
    with pytest.raises(InvalidConfig, match="fitness_split"):
        parse_config("fitness_split=train\n")


# --- synthetic data ---

def test_synthetic_dataset_balanced_and_deterministic():
    a = synthetic_dataset(300, 12, 0.1, seed=5)
    b = synthetic_dataset(300, 12, 0.1, seed=5)
    c = synthetic_dataset(300, 12, 0.1, seed=6)
    assert a.vectors == b.vectors
    assert a.vectors != c.vectors
    labels = a.labels()
    assert labels.count(1) == labels.count(-1) == 150
    assert a.dimension == 12


def test_synthetic_concept_noise_flips_equal_counts():
    clean = synthetic_dataset(200, 8, 0.0, seed=1)
    noisy = synthetic_dataset(200, 8, 0.2, seed=1)
    assert [v.indices for v in clean.vectors] == [v.indices for v in noisy.vectors]
    flips_up = sum(
        1 for a, b in zip(clean.labels(), noisy.labels()) if a == -1 and b == 1
    )
    flips_down = sum(
        1 for a, b in zip(clean.labels(), noisy.labels()) if a == 1 and b == -1
    )
    assert flips_up == flips_down == 20


def test_synthetic_concept_is_learnable():
    # a linear learner on the clean concept should beat chance comfortably
    from malsieve.learners import LearnerSpec, predict_labels, train

    data = synthetic_dataset(400, 10, 0.0, seed=2)
    learner = train(LearnerSpec(kind="linear", learning_rate=0.5, epochs=30), *dense(data))
    accuracy = float(np.mean(predict_labels(learner, data.to_dense()) == data.label_array()))
    assert accuracy >= 0.9


# --- runs ---

def test_single_run_produces_three_methods():
    outcome = run_one(synthetic_dataset(200, 10, 0.1, seed=9), tiny_config(), 0)
    assert set(outcome.metrics) == {"single", "full_pool", "selective"}
    for report in outcome.metrics.values():
        assert 0.0 <= report.f1 <= 1.0
    assert 1 <= outcome.omega.selected_count <= 4


def test_repeats_one_summary_equals_single_run():
    config = tiny_config(repeats=1)
    summary = repeated_experiment(config)
    for method in ("single", "full_pool", "selective"):
        report = summary.outcomes[0].metrics[method]
        s = summary.summaries[(method, "f1")]
        assert s.worst == s.best == s.mean == report.f1
        assert s.std == 0.0


def test_experiment_deterministic_reports():
    config = tiny_config()
    a = format_report(repeated_experiment(config), config)
    b = format_report(repeated_experiment(config), config)
    assert a == b


def test_different_master_seed_changes_report():
    a = format_report(repeated_experiment(tiny_config()), tiny_config())
    config2 = tiny_config(master_seed=4)
    b = format_report(repeated_experiment(config2), config2)
    assert a != b


def test_report_structure():
    config = tiny_config()
    summary = repeated_experiment(config)
    report = format_report(summary, config)
    lines = report.splitlines()
    assert lines[0] == "malsieve-experiment-report v1"
    assert sum(1 for l in lines if l.startswith("run ")) == 2 * 3
    assert sum(1 for l in lines if l.startswith("summary ")) == 3 * 4
    assert any("omega=" in l for l in lines if "selective" in l)
    assert "config repeats=2" in lines


def test_failure_propagates_with_run_index():
    all_positive = Dataset(
        [FeatureVector((k % 4,), 1) for k in range(40)], dimension=4
    )
    with pytest.raises(SingleClassData, match="run 0"):
        repeated_experiment(tiny_config(), source=all_positive)


def test_failure_keeps_error_type_and_line(monkeypatch):
    original = FormatError("bad weights", 7)

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(malsieve.experiment, "run_one", fail)
    with pytest.raises(FormatError, match="run 0: line 7: bad weights") as info:
        repeated_experiment(tiny_config(), source=synthetic_dataset(40, 4, 0.1, seed=1))
    assert info.value.line == 7
    assert info.value.__cause__ is original


def test_failure_wraps_multi_argument_exception(monkeypatch):
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(malsieve.experiment, "run_one", fail)
    with pytest.raises(RunFailed, match="run 0: UnicodeDecodeError") as info:
        repeated_experiment(tiny_config(), source=synthetic_dataset(40, 4, 0.1, seed=1))
    assert info.value.__cause__ is original


NO_SECOND_CLASS = "SingleClassData: noise injection needs both classes present"

# (source, config overrides, each run's failure, whether the pool trained
# before it)
PARTIAL_FAILURES = {
    "training split lacks a class": (
        Dataset([FeatureVector((k % 4,), 1) for k in range(40)], dimension=4),
        {}, NO_SECOND_CLASS, False),
    # 40 positives and 4 negatives: every negative lands in train
    "validation split lacks a class": (
        labeled_records([1] * 40 + [-1] * 4), {"min_doc_freq": 1}, NO_SECOND_CLASS, True),
    # 0.3 of 4 negatives is one validation row; 0.2 of them is no test row
    "noised test split lacks a class": (
        labeled_records([1] * 40 + [-1] * 4),
        {"min_doc_freq": 1, "noise_test": True, "train_fraction": 0.5,
         "validation_fraction": 0.3},
        NO_SECOND_CLASS, True),
    "split fails": (
        labeled_records([1, -1, 1, -1]), {"min_doc_freq": 1},
        "TooSmall: need at least 5 samples, got 4", False),
    "vocabulary fails": (
        labeled_records([1, -1] * 20), {"min_doc_freq": 1000},
        "EmptyCorpus: no feature met the document-frequency threshold", False),
}


def test_allow_partial_records_failures(monkeypatch):
    # each run reports its error line; a split or vocabulary error comes
    # before any training, a held-out split's noise error after it
    trained = []
    real = malsieve.experiment.train_pool
    monkeypatch.setattr(malsieve.experiment, "train_pool",
                        lambda *a, **k: trained.append(1) or real(*a, **k))
    for case, (source, overrides, message, trains) in PARTIAL_FAILURES.items():
        trained.clear()
        config = tiny_config(allow_partial=True, **overrides)
        summary = repeated_experiment(config, source=source)
        assert summary.outcomes == (None, None), case
        assert summary.summaries == {}, case
        report = format_report(summary, config).splitlines()
        failed = [line for line in report if " failed " in line]
        assert failed == [f"run {r} failed {message}" for r in range(2)], case
        assert bool(trained) == trains, case


def test_noise_test_protocol_changes_scores():
    clean = repeated_experiment(tiny_config(repeats=1))
    noisy = repeated_experiment(tiny_config(repeats=1, noise_test=True))
    assert (
        clean.outcomes[0].metrics["full_pool"]
        != noisy.outcomes[0].metrics["full_pool"]
    )


def test_records_source_pipeline(tmp_path):
    from malsieve.records import format_record

    records = labeled_records([-1, 1] * 30)
    path = tmp_path / "corpus.records"
    path.write_text("".join(format_record(r) + "\n" for r in records), encoding="utf-8")
    config = tiny_config(
        repeats=1, dataset=str(path), min_doc_freq=1, noise_fraction=0.1
    )
    summary = repeated_experiment(config)
    assert summary.summaries[("selective", "accuracy")].mean > 0.0


def test_records_corpus_with_an_unlabeled_record_rejected(tmp_path):
    path = tmp_path / "corpus.records"
    path.write_text("a\t+1\tperm:p\nb\t?\tperm:p\nc\t-1\tperm:q\n", encoding="utf-8")
    with pytest.raises(InvalidConfig, match="experiment requires labeled records"):
        repeated_experiment(tiny_config(dataset=str(path)))


def test_zero_noise_runs_on_a_split_without_the_minority_class():
    # 40 positives and 4 negatives: every negative lands in train, so the
    # validation and test splits hold one class. Noise needs both classes;
    # zero noise flips nothing and so corrupts no split.
    vectors = [FeatureVector((k % 4,), 1 if k < 40 else -1) for k in range(44)]
    source = Dataset(vectors, dimension=4)
    outcome = run_one(source, tiny_config(noise_fraction=0.0), 0)
    assert set(outcome.metrics) == set(METHODS)
    with pytest.raises(SingleClassData):
        run_one(source, tiny_config(noise_fraction=0.1), 0)


def test_test_labels_stay_clean_by_default():
    # rebuild the run's split with the same derived seeds and check the
    # metrics were computed against unmodified test labels
    from malsieve.rng import derive_seed

    config = tiny_config(repeats=1)
    source = synthetic_dataset(
        config.synthetic_samples,
        config.synthetic_features,
        SYNTHETIC_CONCEPT_NOISE,
        derive_seed(config.master_seed, "synthetic"),
    )
    summary = repeated_experiment(config, source=source)
    run_seed = derive_seed(config.master_seed, "run", 0)
    _, _, test_set = split(source, config.split_spec(derive_seed(run_seed, "split")))
    reports = summary.outcomes[0].metrics
    total = reports["single"].tp + reports["single"].fp
    total += reports["single"].tn + reports["single"].fn
    assert total == len(test_set)
    positives = reports["single"].tp + reports["single"].fn
    assert positives == test_set.labels().count(1)


def test_dataset_file_source_matches_in_memory_dataset(tmp_path):
    # dataset= may name a dataset file instead of a records file
    config = tiny_config(repeats=1)
    source = synthetic_dataset(
        config.synthetic_samples, config.synthetic_features,
        SYNTHETIC_CONCEPT_NOISE, seed=9,
    )
    path = tmp_path / "data.svm"
    save_dataset(source, path)
    from_file = parse_config(config_text(config).replace("dataset=synthetic", f"dataset={path}"))
    assert from_file.dataset == str(path)
    assert format_report(repeated_experiment(from_file), config) == format_report(
        repeated_experiment(config, source=source), config
    )


# --- one dense view per split ---

def test_single_learner_scores_as_trained_and_predicted_on_dense_splits():
    # rebuild the run's noisy training split and its single learner, then
    # score that learner on the whole test split densified at once
    from malsieve.evaluation import compute_metrics
    from malsieve.learners import predict_labels, train
    from malsieve.rng import derive_seed

    config = tiny_config(repeats=1, synthetic_samples=300, synthetic_features=12)
    source = synthetic_dataset(300, 12, 0.1, seed=8)
    outcome = run_one(source, config, 2)
    run_seed = derive_seed(config.master_seed, "run", 2)
    train_set, _, test_set = split(source, config.split_spec(derive_seed(run_seed, "split")))
    assert len(test_set) > 32  # more than one prediction block
    X, y = dense(train_set)
    noisy = inject_label_noise(y, y, config.noise_spec(derive_seed(run_seed, "noise", "train")))
    spec = config.learner_spec(derive_seed(run_seed, "single", 0))
    single = train(spec, X, noisy)
    expected = compute_metrics(predict_labels(single, test_set.to_dense()),
                               test_set.label_array())
    got = outcome.metrics["single"]
    assert (got.tp, got.fp, got.tn, got.fn) == (
        expected.tp, expected.fp, expected.tn, expected.fn
    )


def as_dataset(records: list[FeatureRecord]) -> Dataset:
    """The records vectorized under the vocabulary of all of them."""
    return vectorize_all(records, build_vocabulary(records, min_doc_freq=1))


def as_records(source: Dataset) -> list[FeatureRecord]:
    """One record per vector, holding permission f<i> for each column i;
    a vocabulary that holds all of them gives each its column back."""
    return [FeatureRecord(f"app{k}", v.label, tuple(f"perm:f{i:02d}" for i in v.indices))
            for k, v in enumerate(source.vectors)]


def test_run_one_densifies_the_training_split_once(monkeypatch):
    synthetic = synthetic_dataset(300, 12, 0.1, seed=8)
    real_fill, real_to_dense = malsieve.experiment.dense_matrix, Dataset.to_dense
    for source in (synthetic, as_records(synthetic)):
        fills, blocks = [], []
        monkeypatch.setattr(malsieve.experiment, "dense_matrix",
                            lambda *a: fills.append(real_fill(*a)) or fills[-1])
        monkeypatch.setattr(Dataset, "to_dense",
                            lambda self, *a: blocks.append(real_to_dense(self, *a)) or blocks[-1])
        config = tiny_config(repeats=1, synthetic_samples=300, synthetic_features=12,
                             min_doc_freq=1)
        run_one(source, config, 0)
        monkeypatch.undo()
        # one fill of the training split, one byte per entry: uint8, not float64
        assert [(X.shape, X.dtype, X.nbytes) for X in fills] == [((180, 12), np.uint8, 2160)]
        # the held-out splits are densified a prediction block at a time
        assert blocks and all(rows <= 32 and d == 12 for rows, d in (X.shape for X in blocks))


def test_records_and_their_dataset_give_the_same_report():
    # both kinds of source take one path: the records' training split
    # holds all six permissions, so its vocabulary is the whole corpus's
    records = labeled_records([-1, 1] * 30)
    for noise_test in (False, True):
        config = tiny_config(min_doc_freq=1, noise_test=noise_test)
        from_records = format_report(repeated_experiment(config, source=records), config)
        assert from_records == format_report(
            repeated_experiment(config, source=as_dataset(records)), config)


# --- one split at a time ---

def count_feature_vectors() -> int:
    gc.collect()
    return sum(type(o) is FeatureVector for o in gc.get_objects())


def test_no_feature_vector_is_alive_while_the_pool_trains(monkeypatch):
    # the training split becomes its matrix with no vector made, and the
    # held-out splits are not built yet; a dataset source's own vectors
    # are all that is alive
    alive = []
    real = malsieve.experiment.train_pool

    def count(*args, **kwargs):
        alive.append(count_feature_vectors())
        return real(*args, **kwargs)

    monkeypatch.setattr(malsieve.experiment, "train_pool", count)
    records = labeled_records([-1, 1] * 100)
    for source in (records, as_dataset(records)):
        alive.clear()
        before = count_feature_vectors()
        run_one(source, tiny_config(min_doc_freq=1, noise_test=True), 0)
        assert alive == [before]


def test_held_out_splits_are_built_after_the_stage_before_them(monkeypatch):
    calls = []
    for name in ("train_pool", "run_ga"):
        real = getattr(malsieve.experiment, name)
        monkeypatch.setattr(malsieve.experiment, name,
                            lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k))
    real_init = Dataset.__init__
    monkeypatch.setattr(Dataset, "__init__",
                        lambda self, *a, **k: calls.append("Dataset") or real_init(self, *a, **k))
    records = labeled_records([-1, 1] * 100)
    for source in (records, as_dataset(records)):
        calls.clear()
        run_one(source, tiny_config(min_doc_freq=1, noise_test=True), 0)
        # each held-out split is one build, with its final labels
        assert calls == ["train_pool", "Dataset", "run_ga", "Dataset"]


def test_a_run_builds_one_feature_vector_per_held_out_sample(monkeypatch):
    from malsieve.rng import derive_seed

    built = []
    real = FeatureVector.__post_init__
    monkeypatch.setattr(FeatureVector, "__post_init__",
                        lambda self: built.append(self) or real(self))
    records = labeled_records([-1, 1] * 100)
    source_data = as_dataset(records)
    for noise_test in (False, True):
        config = tiny_config(min_doc_freq=1, noise_test=noise_test)
        run_seed = derive_seed(config.master_seed, "run", 0)
        _, validation, test = stratified_split_indices(
            [r.label for r in records], config.split_spec(derive_seed(run_seed, "split")))
        for source in (records, source_data):
            built.clear()
            run_one(source, config, 0)
            assert len(built) == len(validation) + len(test)


def test_training_matrix_from_records_equals_the_vectorized_one():
    # random corpora over a small universe, vocabularies that know part of
    # it, and names no vocabulary holds; each corpus also holds a record
    # of unknown names only and one of no names
    universe = ([f"perm:p{i}" for i in range(5)] + [f"action:a{i}" for i in range(4)]
                + [f"api:Lx;->m{i}" for i in range(8)])
    unknown = ["perm:zz", "action:zz", "api:Lz;->z", "noprefix"]
    rng = np.random.default_rng(11)
    for _ in range(200):
        known = rng.choice(len(universe), size=rng.integers(1, len(universe) + 1), replace=False)
        vocab = build_vocabulary(
            [FeatureRecord("v", 1, tuple(universe[j] for j in known))], min_doc_freq=1)
        names = universe + unknown
        records = [
            # drawn with replacement, so a name may repeat
            FeatureRecord(f"a{k}", int(rng.choice([-1, 1])),
                          tuple(names[j] for j in rng.integers(0, len(names),
                                                               size=rng.integers(0, 12))))
            for k in range(rng.integers(0, 8))
        ]
        records += [FeatureRecord("unknown", 1, tuple(unknown * 2)), FeatureRecord("none", -1, ())]
        order = rng.permutation(len(records))
        records = [records[i] for i in order]

        expected = vectorize_all(records, vocab).to_dense()
        got = dense_matrix((feature_indices(r, vocab) for r in records), len(records),
                           vocab.dimension)
        assert got.dtype == expected.dtype == np.uint8
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        dense_matrix([(0,)], 2, 3)
