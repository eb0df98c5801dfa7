import numpy as np
import pytest

import malsieve.experiment
from malsieve.errors import FormatError, InvalidConfig, RunFailed, SingleClassData
from malsieve.evaluation import NoiseSpec, SplitSpec, inject_label_noise, split
from malsieve.experiment import (
    DEFAULT_CONFIG_TEXT,
    ExperimentConfig,
    format_report,
    parse_config,
    repeated_experiment,
    run_one,
    synthetic_dataset,
)
from malsieve.vectorize import Dataset, FeatureVector


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


# --- config parsing ---

def test_default_config_text_round_trips():
    assert parse_config(DEFAULT_CONFIG_TEXT) == ExperimentConfig()


def test_parse_config_overrides_and_comments():
    config = parse_config("# comment\nrepeats=5\n\nlearner=linear\nbatch_size=none\n")
    assert config.repeats == 5
    assert config.learner == "linear"
    assert config.batch_size is None


def test_unknown_key_rejected():
    with pytest.raises(InvalidConfig, match="frobnicate"):
        parse_config("frobnicate=1\n")


def test_bad_value_names_key():
    with pytest.raises(InvalidConfig, match="repeats"):
        parse_config("repeats=abc\n")


def test_zero_repeats_rejected():
    with pytest.raises(InvalidConfig):
        parse_config("repeats=0\n")


def test_out_of_range_learner_rate_rejected():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(learning_rate=-1.0)


def test_unknown_fitness_split_rejected():
    with pytest.raises(InvalidConfig, match="fitness_split"):
        ExperimentConfig(fitness_split="test")


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
    learner = train(LearnerSpec(kind="linear", learning_rate=0.5, epochs=30), data)
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
        [FeatureVector(4, (k % 4,), 1) for k in range(40)], dimension=4
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


def test_allow_partial_records_failures():
    all_positive = Dataset(
        [FeatureVector(4, (k % 4,), 1) for k in range(40)], dimension=4
    )
    summary = repeated_experiment(tiny_config(allow_partial=True), source=all_positive)
    assert len(summary.failures) == 2
    assert summary.summaries == {}
    report = format_report(summary, tiny_config(allow_partial=True))
    assert "run 0 failed SingleClassData" in report


def test_noise_test_protocol_changes_scores():
    clean = repeated_experiment(tiny_config(repeats=1))
    noisy = repeated_experiment(tiny_config(repeats=1, noise_test=True))
    assert (
        clean.outcomes[0].metrics["full_pool"]
        != noisy.outcomes[0].metrics["full_pool"]
    )


def test_records_source_pipeline(tmp_path):
    from malsieve.records import FeatureRecord, save_records

    rng = np.random.default_rng(4)
    records = []
    for i in range(60):
        label = 1 if i % 2 else -1
        perm_pool = ["P0", "P1", "P2", "P3"] if label == 1 else ["P2", "P3", "P4", "P5"]
        perms = [perm_pool[j] for j in rng.integers(0, 4, size=2)]
        records.append(
            FeatureRecord(
                app_id=f"app{i}",
                label=label,
                features=tuple(dict.fromkeys(f"perm:{p}" for p in perms)),
            )
        )
    path = tmp_path / "corpus.records"
    save_records(records, path)
    config = tiny_config(
        repeats=1, dataset=str(path), min_doc_freq=1, noise_fraction=0.1
    )
    summary = repeated_experiment(config)
    assert summary.summaries[("selective", "accuracy")].mean > 0.0


def test_test_labels_stay_clean_by_default():
    # rebuild the run's split with the same derived seeds and check the
    # metrics were computed against unmodified test labels
    from malsieve.rng import derive_seed

    config = tiny_config(repeats=1)
    source = synthetic_dataset(
        config.synthetic_samples,
        config.synthetic_features,
        config.synthetic_concept_noise,
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
