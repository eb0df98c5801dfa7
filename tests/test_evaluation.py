import numpy as np
import pytest

from malsieve.errors import (
    EmptyDataset,
    InvalidConfig,
    LengthMismatch,
    SingleClassData,
    TooSmall,
)
from malsieve.evaluation import (
    MetricsReport,
    NoiseSpec,
    SplitSpec,
    class_shuffles,
    compute_metrics,
    equal_count_flips,
    inject_label_noise,
    metrics_from_counts,
    split,
    stratified_split_indices,
    summarize_metric,
)
from malsieve.rng import make_rng
from malsieve.vectorize import Dataset, FeatureVector


def balanced_dataset(n_per_class, dim=None):
    total = 2 * n_per_class
    dim = dim or total
    vectors = [
        FeatureVector((k,), 1 if k < n_per_class else -1) for k in range(total)
    ]
    return Dataset(vectors, dimension=dim)


# --- split ---

def test_split_counts_small_fixture():
    data = balanced_dataset(5)
    train, val, test = split(data, SplitSpec(seed=1))
    assert (len(train), len(val), len(test)) == (6, 2, 2)
    for part in (train, val, test):
        labels = part.labels()
        assert labels.count(1) == labels.count(-1)


def test_split_deterministic():
    data = balanced_dataset(20)
    a = split(data, SplitSpec(seed=9))
    b = split(data, SplitSpec(seed=9))
    for part_a, part_b in zip(a, b):
        assert part_a.vectors == part_b.vectors


def test_split_partition_is_exhaustive_and_disjoint():
    data = balanced_dataset(17)
    train, val, test = split(data, SplitSpec(seed=3))
    combined = sorted(
        v.indices for part in (train, val, test) for v in part.vectors
    )
    assert combined == sorted(v.indices for v in data.vectors)
    seen = [v.indices for part in (train, val, test) for v in part.vectors]
    assert len(seen) == len(set(seen))


def test_split_too_small():
    with pytest.raises(TooSmall):
        split(balanced_dataset(2), SplitSpec())


def test_split_refuses_unlabeled_data():
    with pytest.raises(ValueError, match="labeled"):
        stratified_split_indices([1, -1, None, 1, -1], SplitSpec())


def test_split_spec_validation():
    with pytest.raises(InvalidConfig):
        SplitSpec(0.5, 0.2, 0.2)
    with pytest.raises(InvalidConfig):
        SplitSpec(0.8, 0.2, -0.0)


def test_split_spec_rejects_a_nan_fraction():
    # NaN passes both `<= 0` and the sum-to-1 tolerance check
    with pytest.raises(InvalidConfig, match="positive"):
        SplitSpec(float("nan"), 0.2, 0.2)


def test_stratified_indices_stable_under_label_view():
    labels = [1, -1] * 10
    a = stratified_split_indices(labels, SplitSpec(seed=4))
    b = stratified_split_indices(list(labels), SplitSpec(seed=4))
    assert a == b


def list_split_indices(labels, spec):
    """The list-based split that `class_shuffles` replaced, kept as the
    reference: each class's members shuffled by its own generator, then
    cut into validation, test and train."""
    labels = list(labels)
    train_idx, val_idx, test_idx = [], [], []
    for cls in (1, -1):
        members = [i for i, l in enumerate(labels) if l == cls]
        if not members:
            continue
        rng = make_rng(spec.seed, "split", cls)
        shuffled = [members[j] for j in rng.permutation(len(members))]
        n_val = int(spec.validation_fraction * len(members))
        n_test = int(spec.test_fraction * len(members))
        val_idx += shuffled[:n_val]
        test_idx += shuffled[n_val : n_val + n_test]
        train_idx += shuffled[n_val + n_test :]
    return sorted(train_idx), sorted(val_idx), sorted(test_idx)


@pytest.mark.parametrize("fractions", [(0.6, 0.2, 0.2), (0.5, 0.3, 0.2), (0.8, 0.1, 0.1),
                                       (1 / 3, 1 / 3, 1 / 3), (0.1, 0.45, 0.45)])
def test_stratified_indices_equal_the_list_based_split(fractions):
    rng = np.random.default_rng(37)
    for trial in range(60):
        m = int(rng.integers(5, 301))
        share = [0.0, 1.0][trial] if trial < 2 else rng.uniform(0.05, 0.95)
        labels = np.where(rng.random(m) < share, 1, -1).astype(np.int8)
        spec = SplitSpec(*fractions, seed=int(rng.integers(0, 2**31)))
        got = stratified_split_indices(labels, spec)
        assert got == list_split_indices(labels.tolist(), spec)
        assert all(type(i) is int for part in got for i in part)


def test_class_shuffles_permute_each_class_by_its_own_generator():
    labels = np.array([1, -1, -1, 1, 1, -1, 1])
    shuffles = class_shuffles(labels, [make_rng(5, "a"), make_rng(5, "b")])
    assert [s.tolist() for s in shuffles] == [
        [[0, 3, 4, 6][j] for j in make_rng(5, "a").permutation(4)],
        [[1, 2, 5][j] for j in make_rng(5, "b").permutation(3)],
    ]
    # one generator twice draws the +1 permutation first
    rng = make_rng(5, "c")
    shared = class_shuffles(labels, [rng, rng])
    rng = make_rng(5, "c")
    assert shared[0].tolist() == [[0, 3, 4, 6][j] for j in rng.permutation(4)]
    assert shared[1].tolist() == [[1, 2, 5][j] for j in rng.permutation(3)]


# --- label noise ---

def balanced_labels(n_per_class):
    return np.array([1] * n_per_class + [-1] * n_per_class, dtype=np.int8)


def test_zero_fraction_is_identity():
    labels = balanced_labels(10)
    noisy = inject_label_noise(labels, labels, NoiseSpec(noise_fraction=0.0, seed=1))
    assert np.array_equal(noisy, labels)


def test_ten_percent_swap_on_balanced_data():
    labels = balanced_labels(100)
    noisy = inject_label_noise(labels, labels, NoiseSpec(noise_fraction=0.1, seed=5))
    flips_pos = int(np.sum((labels == 1) & (noisy == -1)))
    flips_neg = int(np.sum((labels == -1) & (noisy == 1)))
    assert flips_pos == flips_neg == 10
    assert np.sum(noisy == 1) == np.sum(noisy == -1) == 100


def test_double_application_is_involution():
    labels = balanced_labels(50)
    spec = NoiseSpec(noise_fraction=0.2, seed=8)
    once = inject_label_noise(labels, labels, spec)
    twice = inject_label_noise(once, labels, spec)
    assert np.array_equal(twice, labels)
    assert not np.array_equal(once, labels)


def test_involution_property_random_specs():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        labels = balanced_labels(n)
        spec = NoiseSpec(
            noise_fraction=float(rng.uniform(0, 0.5)), seed=int(rng.integers(0, 10**9))
        )
        once = inject_label_noise(labels, labels, spec)
        twice = inject_label_noise(once, labels, spec)
        assert np.array_equal(twice, labels)


def test_noise_leaves_its_input_arrays_unchanged():
    labels = balanced_labels(30)
    clean = labels.copy()
    noisy = inject_label_noise(labels, clean, NoiseSpec(noise_fraction=0.3, seed=2))
    assert not np.array_equal(noisy, labels)
    assert np.array_equal(labels, balanced_labels(30))
    assert np.array_equal(clean, balanced_labels(30))


def test_a_dataset_built_with_noisy_labels_keeps_them_through_split():
    labels = balanced_labels(20)
    noisy = inject_label_noise(labels, labels, NoiseSpec(noise_fraction=0.3, seed=2))
    data = Dataset([FeatureVector((k,), l) for k, l in enumerate(noisy.tolist())],
                   dimension=40)
    spec = SplitSpec(seed=4)
    for rows, part in zip(stratified_split_indices(noisy, spec), split(data, spec)):
        assert part.dimension == 40
        assert part.labels() == tuple(noisy[rows].tolist())
        assert [v.indices for v in part.vectors] == [(k,) for k in rows]


def test_noise_requires_both_classes():
    labels = np.ones(4, dtype=np.int8)
    with pytest.raises(SingleClassData):
        inject_label_noise(labels, labels, NoiseSpec(noise_fraction=0.1, seed=0))


def test_noise_on_unbalanced_labels_keeps_its_contract():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        share = float(rng.uniform(0.05, 0.95))
        n_pos = min(max(int(round(share * n)), 1), n - 1)
        clean = np.where(rng.permutation(n) < n_pos, 1, -1).astype(np.int8)
        # labels noised once already, so that flips drawn from `clean` land
        # on labels that differ from it
        labels = inject_label_noise(clean, clean, NoiseSpec(0.25, seed + 100))
        labels_before, clean_before = labels.copy(), clean.copy()
        spec = NoiseSpec(noise_fraction=float(rng.uniform(0.0, 0.5)), seed=seed)

        noisy = inject_label_noise(labels, clean, spec)
        # the input arrays stay, and int8 stays int8
        assert np.array_equal(labels, labels_before) and np.array_equal(clean, clean_before)
        assert noisy.dtype == np.int8 and noisy.shape == labels.shape
        # flips are chosen from `clean` and applied to `labels`
        flipped = np.flatnonzero(noisy != labels)
        rngs = [make_rng(seed, "noise", cls) for cls in (1, -1)]
        assert sorted(flipped.tolist()) == sorted(
            equal_count_flips(clean, spec.noise_fraction, rngs).tolist())
        assert np.array_equal(noisy[flipped], -labels[flipped])
        # each class of `clean` loses exactly floor(f x the smaller class)
        k = int(spec.noise_fraction * min(n_pos, n - n_pos))
        assert [int(np.sum(clean[flipped] == cls)) for cls in (1, -1)] == [k, k]
        # a second application with the same spec is an involution
        assert np.array_equal(inject_label_noise(noisy, clean, spec), labels)

        for cls in (1, -1):
            one_class = np.full(n, cls, dtype=np.int8)
            with pytest.raises(SingleClassData):
                inject_label_noise(one_class, one_class, spec)


# the two flip loops `equal_count_flips` replaced, frozen as they were:
# the label noise's, over a generator per class, and the synthetic
# dataset's, over one running generator

def frozen_noise_flips(base, flip_fraction, seed):
    members = {cls: [i for i, l in enumerate(base) if l == cls] for cls in (1, -1)}
    k = int(flip_fraction * min(len(m) for m in members.values()))
    flip = set()
    for cls in (1, -1):
        rng = make_rng(seed, "noise", cls)
        order = rng.permutation(len(members[cls]))
        flip.update(members[cls][j] for j in order[:k])
    return flip


def frozen_synthetic_flips(labels, concept_noise, rng):
    concept = labels.copy()
    k = int(concept_noise * min(np.sum(concept == 1), np.sum(concept == -1)))
    flipped = labels.copy()
    for cls in (1, -1):
        members = np.flatnonzero(concept == cls)
        picked = members[rng.permutation(members.shape[0])[:k]]
        flipped[picked] = -cls
    return flipped


@pytest.mark.parametrize("n_pos, n_neg", [(50, 50), (80, 20), (7, 93), (1, 1), (3, 40)])
@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.37, 0.5])
def test_equal_count_flips_match_the_frozen_loops(n_pos, n_neg, fraction):
    order = np.random.default_rng(n_pos * 1000 + n_neg).permutation(n_pos + n_neg)
    labels = np.where(order < n_pos, 1, -1)
    for seed in range(5):
        rngs = [make_rng(seed, "noise", cls) for cls in (1, -1)]
        flips = equal_count_flips(labels, fraction, rngs)
        assert set(flips.tolist()) == frozen_noise_flips(labels.tolist(), fraction, seed)
        assert len(flips) == len(set(flips.tolist()))

        rng, frozen_rng = make_rng(seed, "synthetic"), make_rng(seed, "synthetic")
        flipped = labels.copy()
        flipped[equal_count_flips(labels, fraction, (rng, rng))] *= -1
        assert np.array_equal(flipped, frozen_synthetic_flips(labels, fraction, frozen_rng))
        # both used the generator for the same draws, so they go on alike
        assert rng.integers(0, 2**62) == frozen_rng.integers(0, 2**62)


def test_noise_spec_never_targets_test():
    with pytest.raises(InvalidConfig):
        NoiseSpec(noise_fraction=0.9, seed=0)


def test_split_then_noise_leaves_test_untouched():
    labels = balanced_labels(25)
    train_idx, val_idx, test_idx = stratified_split_indices(labels, SplitSpec(seed=6))
    before = labels.copy()
    for rows, seed in ((train_idx, 7), (val_idx, 8)):
        part = labels[rows]
        inject_label_noise(part, part, NoiseSpec(noise_fraction=0.3, seed=seed))
    assert np.array_equal(labels[test_idx], before[test_idx])


# --- metrics ---

def test_all_correct_metrics():
    preds = np.array([1, -1, 1, -1])
    report = compute_metrics(preds, preds.copy())
    assert (report.accuracy, report.precision, report.recall, report.f1) == (
        1.0, 1.0, 1.0, 1.0,
    )
    assert not report.degenerate


def test_hand_computed_confusion():
    report = metrics_from_counts(tp=3, fp=1, tn=4, fn=2)
    assert report.precision == pytest.approx(0.75)
    assert report.recall == pytest.approx(0.6)
    assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert report.f1 == pytest.approx(0.6667, abs=1e-4)
    assert report.accuracy == pytest.approx(0.7)


def test_degenerate_nothing_to_find_nothing_claimed():
    report = compute_metrics(np.array([-1, -1]), np.array([-1, -1]))
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.degenerate


def test_degenerate_positives_exist_but_none_claimed():
    report = compute_metrics(np.array([-1, -1]), np.array([1, -1]))
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.degenerate


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        compute_metrics(np.array([1, -1]), np.array([1]))
    with pytest.raises(EmptyDataset, match="^need at least one sample$"):
        compute_metrics(np.array([]), np.array([]))
    with pytest.raises(EmptyDataset):
        metrics_from_counts(0, 0, 0, 0)


def test_metric_identities_over_random_counts():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 30, size=4))
        if tp + fp + tn + fn == 0:
            tp = 1
        report = metrics_from_counts(tp, fp, tn, fn)
        assert report.accuracy == (tp + tn) / (tp + fp + tn + fn)
        if tp + fp > 0:
            assert report.precision == tp / (tp + fp)
        if tp + fn > 0:
            assert report.recall == tp / (tp + fn)
        if report.precision + report.recall > 0:
            expected_f1 = (
                2 * report.precision * report.recall
                / (report.precision + report.recall)
            )
            assert report.f1 == expected_f1
        else:
            assert report.f1 == 0.0
        assert report.degenerate == ((tp + fp == 0) or (tp + fn == 0))
        assert report.tp + report.fp + report.tn + report.fn == tp + fp + tn + fn


def test_compute_metrics_agrees_with_counts():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        preds = rng.choice([1, -1], size=n)
        labels = rng.choice([1, -1], size=n)
        report = compute_metrics(preds, labels)
        tp = int(np.sum((preds == 1) & (labels == 1)))
        fp = int(np.sum((preds == 1) & (labels == -1)))
        tn = int(np.sum((preds == -1) & (labels == -1)))
        fn = int(np.sum((preds == -1) & (labels == 1)))
        assert report == metrics_from_counts(tp, fp, tn, fn)


def test_summary_ordering():
    reports = [
        metrics_from_counts(tp=a, fp=1, tn=5, fn=1) for a in (1, 3, 7, 2)
    ]
    summary = summarize_metric(reports, "f1")
    assert summary.worst <= summary.mean <= summary.best
    assert summary.std >= 0.0
