import itertools
from dataclasses import replace

import numpy as np
import pytest

import malsieve.ensemble
from malsieve.cli import main
from malsieve.ensemble import (
    EnsemblePool,
    WeightVector,
    bootstrap_seed,
    load_pool,
    load_selection,
    majority_vote_matrix,
    precompute_predictions,
    save_pool,
    save_selection,
    train_pool,
    vote,
)
from malsieve.errors import (
    AllZeroWeights,
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    NonFiniteLoss,
    RunFailed,
)
from malsieve.learners import (
    LearnerSpec,
    TrainedLearner,
    init_params,
    load_model,
    predict_labels,
    train,
)
from malsieve.rng import derive_seed
from malsieve.vectorize import Dataset, FeatureVector

from mlfixtures import (
    brute_force_vote,
    dense,
    one_hot_dataset,
    pool_from_matrix,
    random_sign_matrix,
    replicate,
)


# --- bootstrap ---

def test_bootstrap_singleton():
    data = Dataset([FeatureVector((0,), 1)], dimension=2)
    assert replicate(data, seed=4).vectors == data.vectors


def test_bootstrap_deterministic_per_seed():
    data = one_hot_dataset(50, labels=[1 if k % 2 else -1 for k in range(50)])
    a = replicate(data, seed=11)
    b = replicate(data, seed=11)
    c = replicate(data, seed=12)
    assert a.vectors == b.vectors
    assert a.vectors != c.vectors
    assert len(a) == len(data)


def test_bootstrap_distinct_fraction_near_632():
    m = 1000
    data = one_hot_dataset(m, labels=[1] * m)
    fractions = []
    for seed in range(50):
        fractions.append(len(set(replicate(data, seed).vectors)) / m)
    observed = float(np.mean(fractions))
    expected = 1.0 - (1.0 - 1.0 / m) ** m
    assert abs(observed - expected) <= 0.02


# --- pool training ---

def small_training_data(m=60):
    rng = np.random.default_rng(2)
    vectors = []
    for k in range(m):
        idx = tuple(sorted(rng.choice(6, size=2, replace=False).tolist()))
        vectors.append(FeatureVector(idx, 1 if 0 in idx else -1))
    return Dataset(vectors, dimension=6)


def test_train_pool_single_learner():
    pool = train_pool(*dense(small_training_data()), 1, LearnerSpec(kind="linear", epochs=5), 7)
    assert pool.size == 1


@pytest.mark.parametrize("n", [0, -1])
def test_train_pool_refuses_a_size_below_1(n):
    with pytest.raises(InvalidConfig, match="pool size must be >= 1"):
        train_pool(*dense(small_training_data()), n, LearnerSpec(epochs=1), 7)


def test_pool_learners_must_share_a_dimension():
    learners = tuple(
        TrainedLearner(LearnerSpec(), {"w": np.zeros(dim), "b": np.zeros(1)})
        for dim in (3, 4)
    )
    with pytest.raises(DimensionMismatch, match=r"learners disagree on dimension: \[3, 4\]"):
        EnsemblePool(learners)


def test_train_pool_deterministic():
    spec = LearnerSpec(kind="linear", epochs=5)
    a = train_pool(*dense(small_training_data()), 5, spec, master_seed=3)
    b = train_pool(*dense(small_training_data()), 5, spec, master_seed=3)
    assert a.learners == b.learners


def test_train_pool_replicates_pairwise_distinct():
    data = one_hot_dataset(500, labels=[1 if k % 2 else -1 for k in range(500)])
    pool = train_pool(*dense(data), 5, LearnerSpec(kind="linear", epochs=1), master_seed=9)
    replicates = [replicate(data, bootstrap_seed(9, i)).vectors for i in range(pool.size)]
    for a, b in itertools.combinations(replicates, 2):
        assert a != b


def test_train_pool_propagates_failure_with_index():
    data = Dataset([FeatureVector((0,), 1) for _ in range(10)], dimension=2)
    with pytest.raises(Exception, match="learner 0"):
        train_pool(*dense(data), 3, LearnerSpec(kind="linear", epochs=1), master_seed=0)


def sparse_training_data(m=61, d=40, seed=5):
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(m):
        idx = tuple(sorted(rng.choice(d, size=int(rng.integers(1, 8)), replace=False).tolist()))
        label = 1 if sum(i % 3 == 0 for i in idx) * 2 >= len(idx) else -1
        vectors.append(FeatureVector(idx, label))
    return Dataset(vectors, dimension=d)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("batch_size", [61, 8])  # 61 rows: full batch; 8 does not divide 61
def test_train_pool_matches_training_each_replicate(kind, batch_size):
    """Rows of one shared matrix train each learner bit for bit as a
    densified copy of its bootstrap replicate does."""
    data = sparse_training_data()
    spec = LearnerSpec(kind=kind, learning_rate=0.2, epochs=6, hidden_units=5,
                       l2=1e-3, batch_size=batch_size, rng_seed=11)
    pool = train_pool(*dense(data), 4, spec, master_seed=21)
    for i, learner in enumerate(pool.learners):
        seed = derive_seed(21, "bootstrap", i)
        assert bootstrap_seed(21, i) == seed
        reference = train(
            replace(spec, rng_seed=derive_seed(21, "learner", i, spec.rng_seed)),
            *dense(replicate(data, seed)),
        )
        assert learner.spec == reference.spec
        assert set(learner.params) == set(reference.params)
        for key in learner.params:
            assert np.array_equal(learner.params[key], reference.params[key]), key


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("batch_size", [61, 8])  # 61 rows: full batch; 8 does not divide 61
def test_uint8_matrix_trains_as_its_float64_widening(kind, batch_size):
    """`to_dense` builds uint8; `train` and `train_pool` widen what they
    gather, so params match training on the float64 matrix bit for bit."""
    data = sparse_training_data()
    X, y = dense(data)
    assert X.dtype == np.uint8
    X64 = X.astype(np.float64)
    spec = LearnerSpec(kind=kind, learning_rate=0.2, epochs=6, hidden_units=5,
                       l2=1e-3, batch_size=batch_size, rng_seed=11)
    pairs = [(train(spec, X, y), train(spec, X64, y))]
    pairs += zip(train_pool(X, y, 3, spec, master_seed=21).learners,
                 train_pool(X64, y, 3, spec, master_seed=21).learners)
    for got, want in pairs:
        assert got == want  # equal dim and spec, np.array_equal params


def test_precompute_predictions_equal_predict_labels_on_float64_rows():
    data = sparse_training_data()  # 61 rows: a short last prediction block
    spec = LearnerSpec(kind="mlp", learning_rate=0.2, epochs=3, hidden_units=5, rng_seed=4)
    learners = train_pool(*dense(data), 3, spec, master_seed=5).learners
    spec = replace(spec, kind="linear")
    learners += train_pool(*dense(data), 2, spec, master_seed=6).learners
    X64 = data.to_dense().astype(np.float64)
    expected = np.stack([predict_labels(learner, X64) for learner in learners])
    assert np.array_equal(precompute_predictions(learners, data), expected)


@pytest.mark.parametrize("m", [0, 1, 40], ids=["empty", "one-row", "two-blocks"])
def test_precompute_predictions_checks_the_width_before_any_block(m, monkeypatch):
    learners = [TrainedLearner(LearnerSpec(), {"w": np.ones(3), "b": np.zeros(1)})] * 2
    data = Dataset([FeatureVector((m % 4,), 1)] * m, dimension=4)
    monkeypatch.setattr(Dataset, "to_dense", lambda *a: pytest.fail("densified"))
    with pytest.raises(DimensionMismatch, match=r"^input dimension 4 != model dimension 3$"):
        precompute_predictions(learners, data)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_a_learner_is_as_wide_as_its_first_layer_weights(kind):
    spec = LearnerSpec(kind=kind, hidden_units=2)
    learner = TrainedLearner(spec, init_params(spec, 3))
    assert learner.dim == 3
    with pytest.raises(DimensionMismatch, match=r"^input dimension 5 != model dimension 3$"):
        precompute_predictions([learner], one_hot_dataset(5))


def test_train_pool_failure_keeps_error_type_and_line(monkeypatch):
    original = FormatError("bad weights", 7)

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(malsieve.ensemble, "train", fail)
    with pytest.raises(FormatError, match="learner 0: line 7: bad weights") as info:
        train_pool(*dense(small_training_data()), 2, LearnerSpec(kind="linear"), master_seed=0)
    assert info.value.line == 7
    assert info.value.__cause__ is original


def test_train_pool_failure_wraps_multi_argument_exception(monkeypatch):
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(malsieve.ensemble, "train", fail)
    with pytest.raises(RunFailed, match="learner 0: UnicodeDecodeError") as info:
        train_pool(*dense(small_training_data()), 2, LearnerSpec(kind="linear"), master_seed=0)
    assert info.value.__cause__ is original


# --- voting ---

def test_majority_vote_example():
    matrix = np.array([[1], [1], [-1]], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    assert vote(pool, WeightVector((1, 1, 1)), one_hot_dataset(1)).tolist() == [1]


def test_tie_votes_malicious():
    matrix = np.array([[1], [-1]], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    assert vote(pool, WeightVector((1, 1)), one_hot_dataset(1)).tolist() == [1]


def test_vote_matches_brute_force_for_all_nonzero_omegas():
    rng = np.random.default_rng(17)
    n, m = 6, 50
    matrix = random_sign_matrix(rng, n, m)
    pool = pool_from_matrix(matrix)
    samples = one_hot_dataset(m)
    for bits in itertools.product((0, 1), repeat=n):
        if not any(bits):
            continue
        fast = majority_vote_matrix(matrix, bits)
        for k in range(m):
            assert fast[k] == brute_force_vote(matrix, bits, k)
        assert np.array_equal(vote(pool, WeightVector(bits), samples), fast)


def test_stacked_masks_vote_row_by_row():
    rng = np.random.default_rng(19)
    matrix = random_sign_matrix(rng, 6, 40)
    masks = np.array([bits for bits in itertools.product((0, 1), repeat=6)][1:])
    votes = majority_vote_matrix(matrix, masks)
    assert votes.shape == (63, 40)
    for mask, row in zip(masks, votes):
        assert np.array_equal(row, majority_vote_matrix(matrix, mask))
    with pytest.raises(AllZeroWeights):
        majority_vote_matrix(matrix, np.vstack([masks[:2], np.zeros(6, dtype=int)]))


def test_single_bit_omega_equals_learner_prediction():
    rng = np.random.default_rng(23)
    matrix = random_sign_matrix(rng, 5, 30)
    for i in range(5):
        bits = tuple(1 if j == i else 0 for j in range(5))
        votes = majority_vote_matrix(matrix, bits)
        assert np.array_equal(votes, matrix[i])


def test_deselected_learners_are_inert():
    rng = np.random.default_rng(29)
    for _ in range(20):
        matrix = random_sign_matrix(rng, 7, 40)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=7))
        if not any(bits):
            bits = (1,) + bits[1:]
        baseline = majority_vote_matrix(matrix, bits)
        flipped = matrix.copy()
        for i, b in enumerate(bits):
            if b == 0:
                flipped[i] = -flipped[i]
        assert np.array_equal(majority_vote_matrix(flipped, bits), baseline)


def test_duplicating_a_selected_learner_keeps_strict_majorities():
    rng = np.random.default_rng(31)
    for _ in range(20):
        matrix = random_sign_matrix(rng, 5, 30)
        omega = (1, 1, 1, 1, 1)
        sums = np.array(omega) @ matrix.astype(np.int64)
        votes = majority_vote_matrix(matrix, omega)
        dup = int(rng.integers(0, 5))
        bigger = np.vstack([matrix, matrix[dup]])
        votes2 = majority_vote_matrix(bigger, (1,) * 6)
        strict = np.abs(sums) >= 2
        assert np.array_equal(votes2[strict], votes[strict])


def test_all_zero_weights_rejected():
    matrix = np.array([[1, -1]], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    with pytest.raises(AllZeroWeights):
        vote(pool, WeightVector((0,)), one_hot_dataset(2))
    with pytest.raises(AllZeroWeights):
        majority_vote_matrix(matrix, (0,))


def test_mask_of_another_length_than_the_pool_rejected():
    matrix = np.array([[1, -1], [-1, -1]], dtype=np.int8)
    with pytest.raises(DimensionMismatch, match="weight vector length 3 != pool size 2"):
        majority_vote_matrix(matrix, (1, 1, 1))


def test_vote_dimension_mismatch():
    pool = pool_from_matrix(np.array([[1, -1]], dtype=np.int8))
    with pytest.raises(DimensionMismatch):
        vote(pool, WeightVector((1,)), one_hot_dataset(3))


# --- ensemble accuracy ---

def test_accuracy_echoing_labels():
    labels = [1, -1, 1, -1]
    matrix = np.array([labels, labels], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(4, labels)
    votes = majority_vote_matrix(precompute_predictions(pool.learners, data), (1, 1))
    accuracy = np.mean(votes == data.label_array())
    assert accuracy == 1.0


def test_accuracy_constant_learner_on_balanced_data():
    labels = [1, 1, -1, -1]
    matrix = np.array([[1, 1, 1, 1]], dtype=np.int8)
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(4, labels)
    votes = majority_vote_matrix(precompute_predictions(pool.learners, data), (1,))
    accuracy = np.mean(votes == data.label_array())
    assert accuracy == 0.5


def test_accuracy_matches_hand_count_on_fixture():
    # six samples, three learners; votes per sample (tie -> +1):
    #   k0: +,+,-  -> +1   label +1  correct
    #   k1: +,-,-  -> -1   label +1  wrong
    #   k2: -,-,-  -> -1   label -1  correct
    #   k3: +,+,+  -> +1   label -1  wrong
    #   k4: +,-,+  -> +1   label +1  correct
    #   k5: -,+,-  -> -1   label -1  correct
    matrix = np.array(
        [
            [1, 1, -1, 1, 1, -1],
            [1, -1, -1, 1, -1, 1],
            [-1, -1, -1, 1, 1, -1],
        ],
        dtype=np.int8,
    )
    labels = [1, 1, -1, -1, 1, -1]
    pool = pool_from_matrix(matrix)
    data = one_hot_dataset(6, labels)
    votes = majority_vote_matrix(precompute_predictions(pool.learners, data), (1, 1, 1))
    accuracy = np.mean(votes == data.label_array())
    assert accuracy == pytest.approx(4 / 6)


def test_float_product_votes_equal_the_int64_product():
    # majority_vote_matrix sums in float64 for BLAS; the int64 sums are
    # the reference, and even selections of +-1 rows tie often
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 7, 50):
        matrix = random_sign_matrix(rng, n, 300)
        masks = rng.integers(0, 2, size=(40, n))
        masks[masks.sum(axis=1) == 0, 0] = 1
        sums = masks.astype(np.int64) @ matrix.astype(np.int64)
        expected = np.where(sums >= 0, 1, -1)
        assert np.any(sums == 0) or n == 1
        assert np.array_equal(majority_vote_matrix(matrix, masks), expected)
        for mask, row in zip(masks, expected):
            assert np.array_equal(majority_vote_matrix(matrix, mask), row)


# --- serialization ---

def test_pool_round_trip(tmp_path):
    spec = LearnerSpec(kind="mlp", epochs=3, hidden_units=4)
    pool = train_pool(*dense(small_training_data()), 3, spec, 5)
    save_pool(pool, tmp_path / "pool")
    loaded = load_pool(tmp_path / "pool")
    assert loaded.learners == pool.learners
    assert loaded.master_seed == pool.master_seed


def test_selection_round_trip(tmp_path):
    omega = WeightVector((1, 0, 1, 1, 0))
    path = tmp_path / "selection.txt"
    save_selection(omega, path)
    assert load_selection(path) == omega
    assert "omega=10110" in path.read_text()


def test_load_selection_rejects_omega_of_another_length_than_n(tmp_path):
    path = tmp_path / "selection.txt"
    path.write_text("malsieve-selection v1\nn=3\nomega=10\n")
    with pytest.raises(FormatError, match="omega length disagrees with n"):
        load_selection(path)


def test_load_pool_names_the_row_of_a_missing_model_file(tmp_path):
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5), root)
    (root / "learner_001.model").unlink()
    lines = (root / "pool.txt").read_text().splitlines()
    lineno = next(k for k, line in enumerate(lines, start=1) if line.startswith("learner 1 "))
    with pytest.raises(FormatError, match="no model file 'learner_001.model'") as info:
        load_pool(root)
    assert info.value.line == lineno


@pytest.mark.parametrize("line, edit, message", [
    (5, lambda l: l.replace("epochs=2", "epochs=two"), "bad header field epochs"),
    (11, lambda l: l + " zz", "bad param line"),
    (11, lambda l: " ".join([*l.split()[:3], "inf", *l.split()[4:]]),
     "param w holds a non-finite value"),
], ids=["header-field", "param-row", "non-finite-value"])
def test_load_pool_names_the_model_file_at_fault(tmp_path, line, edit, message):
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 3, LearnerSpec(epochs=2), 5), root)
    model = root / "learner_001.model"
    lines = model.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    model.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        load_pool(root)
    assert str(info.value).startswith(f"learner_001.model: line {line}: {message}")
    assert info.value.line == line


def test_load_pool_refuses_a_manifest_dim_other_than_the_models(tmp_path):
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5), root)
    manifest = root / "pool.txt"
    manifest.write_text(manifest.read_text().replace("\ndim=6\n", "\ndim=7\n"))
    with pytest.raises(DimensionMismatch, match="manifest dim disagrees with model files"):
        load_pool(root)


def test_load_selection_rejects_a_stray_line(tmp_path):
    # a garbage line used to be skipped
    path = tmp_path / "selection.txt"
    path.write_text("malsieve-selection v1\nn=3\ngarbage\nomega=101\n")
    with pytest.raises(FormatError, match="unrecognized line") as info:
        load_selection(path)
    assert info.value.line == 3


def test_load_selection_rejects_a_key_given_twice(tmp_path):
    # the last n= used to win silently
    path = tmp_path / "selection.txt"
    path.write_text("malsieve-selection v1\nn=2\nomega=101\nn=3\n")
    with pytest.raises(FormatError, match="n given twice") as info:
        load_selection(path)
    assert info.value.line == 4


def test_load_pool_rejects_a_key_given_twice(tmp_path):
    pool = train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5)
    save_pool(pool, tmp_path / "pool")
    manifest = tmp_path / "pool" / "pool.txt"
    manifest.write_text(manifest.read_text() + "master_seed=6\n")
    with pytest.raises(FormatError, match="master_seed given twice") as info:
        load_pool(tmp_path / "pool")
    assert info.value.line == len(manifest.read_text().splitlines())


@pytest.mark.parametrize("file, key, value", [
    ("learner_001.model", "dim", "3.0"),
    ("learner_001.model", "epochs", "1.5"),
    ("learner_000.model", "l2", "nan"),
    ("learner_000.model", "batch_size", "none"),
    ("pool.txt", "n", "two"),
    ("pool.txt", "master_seed", ""),
    ("selection.txt", "n", "2.0"),
    ("selection.txt", "omega", "1x"),
])
def test_a_bad_header_value_is_refused_with_its_key_and_line(tmp_path, file, key, value):
    # each loader used to parse its header itself, naming no line and,
    # for the selection file and the pool's ints, no key
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5), root)
    save_selection(WeightVector((1, 0)), root / "selection.txt")
    path = root / file
    lines = path.read_text().splitlines()
    lineno = next(k for k, line in enumerate(lines, start=1) if line.startswith(f"{key}="))
    lines[lineno - 1] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    load = {"pool.txt": lambda path: load_pool(path.parent), "selection.txt": load_selection}
    with pytest.raises(FormatError, match=rf"^line {lineno}: bad header field {key} \(") as info:
        load.get(file, load_model)(path)
    assert info.value.line == lineno


@pytest.mark.parametrize("name", ["absolute", "../outside.model", "sub/learner_001.model",
                                  ".", ".."])
def test_load_pool_rejects_a_model_file_outside_the_pool(tmp_path, name):
    # a manifest line used to load any path it named, in or out of the pool
    pool = train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5)
    root = tmp_path / "pool"
    save_pool(pool, root)
    (root / "sub").mkdir()
    for copy in (tmp_path / "outside.model", root / "sub" / "learner_001.model"):
        copy.write_bytes((root / "learner_001.model").read_bytes())
    if name == "absolute":
        name = str(tmp_path / "outside.model")
    manifest = root / "pool.txt"
    lines = manifest.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("learner 1 "))
    lines[lineno - 1] = lines[lineno - 1].replace("file=learner_001.model", f"file={name}")
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="learner row is not") as info:
        load_pool(root)
    assert info.value.line == lineno


def test_save_pool_deletes_model_files_the_manifest_does_not_name(tmp_path):
    # a learner_002.model used to stay beside a manifest with n=2
    root = tmp_path / "pool"
    data = dense(small_training_data())
    save_pool(train_pool(*data, 3, LearnerSpec(epochs=2), 5), root)
    (root / "notes.txt").write_text("kept\n")
    (root / "learner_x.txt").write_text("kept\n")
    pool = train_pool(*data, 2, LearnerSpec(epochs=2), 6)
    save_pool(pool, root)
    assert sorted(p.name for p in root.iterdir()) == [
        "learner_000.model", "learner_001.model", "learner_x.txt", "notes.txt", "pool.txt"
    ]
    assert load_pool(root).learners == pool.learners


def test_a_save_pool_that_fails_part_way_leaves_no_pool_to_load(tmp_path):
    # the manifest of the earlier pool used to stay, naming a model file
    # the failed save had already replaced
    root = tmp_path / "pool"
    data = dense(small_training_data())
    save_pool(train_pool(*data, 2, LearnerSpec(epochs=2), 5), root)
    pool = train_pool(*data, 2, LearnerSpec(epochs=2), 6)
    pool.learners[1].params["b"][0] = np.inf
    with pytest.raises(NonFiniteLoss):
        save_pool(pool, root)
    with pytest.raises(FormatError, match="no pool manifest"):
        load_pool(root)


@pytest.mark.parametrize("drop", ["seed=", "file=", "seed=|file="])
def test_load_pool_rejects_a_learner_field_without_its_key(tmp_path, drop):
    # `learner 0 5 learner_000.model` used to load
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 2, LearnerSpec(epochs=2), 5), root)
    manifest = root / "pool.txt"
    lines = manifest.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("learner 1 "))
    for key in drop.split("|"):
        lines[lineno - 1] = lines[lineno - 1].replace(key, "")
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="learner row is not") as info:
        load_pool(root)
    assert info.value.line == lineno


MASTER = -3  # negative, as `train-pool --seed -3` gives


def swap_rows(lines, rows, tmp_path):
    lines[rows[0]], lines[rows[1]] = lines[rows[1]], lines[rows[0]]
    return rows[0]


def edit_seed(lines, rows, tmp_path):
    seed = bootstrap_seed(MASTER, 2)
    lines[rows[2]] = lines[rows[2]].replace(f"seed={seed}", f"seed={seed + 1}")
    return rows[2]


def rename_file(name):
    def tamper(lines, rows, tmp_path):
        lines[rows[1]] = lines[rows[1]].replace("learner_001.model", name(tmp_path))
        return rows[1]
    return tamper


def drop_row(lines, rows, tmp_path):
    del lines[rows[2]]


def add_row(lines, rows, tmp_path):
    lines.append(f"learner 3 seed={bootstrap_seed(MASTER, 3)} file=learner_003.model")


# each edit of a 3-learner manifest returns the index of the line the
# FormatError names, or None where the row count disagrees with n
MANIFEST_TAMPERS = {
    "swap": swap_rows,
    "seed": edit_seed,
    "other-plain-name": rename_file(lambda tmp_path: "learner_002.model"),
    "parent-path": rename_file(lambda tmp_path: "../outside.model"),
    "absolute-path": rename_file(lambda tmp_path: str(tmp_path / "outside.model")),
    "drop": drop_row,
    "add": add_row,
}


def tampered_pool(tmp_path, how):
    """A saved 3-learner pool whose manifest `how` edited, with every
    model file a row could name present, and the line the error names."""
    root = tmp_path / "pool"
    save_pool(train_pool(*dense(small_training_data()), 3, LearnerSpec(epochs=2), MASTER), root)
    for copy in (tmp_path / "outside.model", root / "learner_003.model"):
        copy.write_bytes((root / "learner_001.model").read_bytes())
    manifest = root / "pool.txt"
    lines = manifest.read_text().splitlines()
    rows = [k for k, line in enumerate(lines) if line.startswith("learner ")]
    index = MANIFEST_TAMPERS[how](lines, rows, tmp_path)
    manifest.write_text("\n".join(lines) + "\n")
    return root, None if index is None else index + 1


@pytest.mark.parametrize("how", sorted(MANIFEST_TAMPERS))
def test_load_pool_accepts_only_the_rows_save_pool_writes(tmp_path, how):
    # a reordered manifest, an edited seed and another plain file name
    # used to load
    root, line = tampered_pool(tmp_path, how)
    with pytest.raises(FormatError) as info:
        load_pool(root)
    assert info.value.line == line


@pytest.mark.parametrize("how", sorted(MANIFEST_TAMPERS))
def test_predict_on_a_tampered_manifest_exits_2(tmp_path, capsys, how):
    root, _ = tampered_pool(tmp_path, how)
    data = tmp_path / "d.svm"
    data.write_text("dim=6 n=1\n+1 0 3\n")
    assert main(["predict", str(root), str(data)]) == 2
    err = capsys.readouterr().err
    assert "predict: FormatError" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["", "2", "1021", "1a0", "１"])
def test_weight_string_accepts_only_0_and_1(text):
    with pytest.raises(ValueError):
        WeightVector.from_string(text)
