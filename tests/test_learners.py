import numpy as np
import pytest

from malsieve.errors import DimensionMismatch, FormatError, NonFiniteLoss, SingleClassData
from malsieve.learners import (
    LearnerSpec,
    TrainedLearner,
    decision_values,
    gradient,
    init_params,
    load_model,
    loss,
    predict_labels,
    save_model,
    train,
)
from malsieve.vectorize import Dataset, FeatureVector


def labeled(dim, indices, label):
    return FeatureVector(dim, tuple(indices), label)


def separable_1d(n_per_class=100):
    vectors = [labeled(1, (0,), 1) for _ in range(n_per_class)]
    vectors += [labeled(1, (), -1) for _ in range(n_per_class)]
    return Dataset(vectors, dimension=1)


def xor_dataset(n_per_corner=50):
    corners = [((), -1), ((0,), 1), ((1,), 1), ((0, 1), -1)]
    vectors = [labeled(2, idx, y) for idx, y in corners for _ in range(n_per_corner)]
    return Dataset(vectors, dimension=2)


def row(x):
    """One sample as a one-row dense matrix."""
    return Dataset([x]).to_dense()


def training_accuracy(learner, data):
    preds = predict_labels(learner, data.to_dense())
    return float(np.mean(preds == data.label_array()))


def test_linear_fits_separable_data():
    spec = LearnerSpec(kind="linear", learning_rate=0.5, epochs=50, rng_seed=1)
    learner = train(spec, separable_1d())
    assert training_accuracy(learner, separable_1d()) == 1.0


def test_held_out_positive_predicted_positive():
    spec = LearnerSpec(kind="linear", learning_rate=0.5, epochs=50, rng_seed=1)
    learner = train(spec, separable_1d())
    assert predict_labels(learner, row(labeled(1, (0,), None)))[0] == 1


def test_single_class_data_rejected():
    data = Dataset([labeled(2, (0,), 1) for _ in range(10)], dimension=2)
    with pytest.raises(SingleClassData):
        train(LearnerSpec(kind="linear"), data)


def test_mlp_learns_xor():
    # not linearly separable, so this exercises the hidden layer
    spec = LearnerSpec(
        kind="mlp", learning_rate=0.5, epochs=300, hidden_units=8, rng_seed=0
    )
    learner = train(spec, xor_dataset())
    assert training_accuracy(learner, xor_dataset()) >= 0.95


def test_zero_weight_margin_is_zero_and_predicts_malicious():
    learner = TrainedLearner(
        kind="linear",
        dim=3,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.zeros(3), "b": np.zeros(1)},
    )
    x = row(labeled(3, (1,), None))
    assert learner.margins(x)[0] == 0.0
    assert predict_labels(learner, x)[0] == 1


def test_positive_weight_on_active_index():
    learner = TrainedLearner(
        kind="linear",
        dim=2,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.array([1.0, 0.0]), "b": np.zeros(1)},
    )
    assert predict_labels(learner, row(labeled(2, (0,), None)))[0] == 1
    assert predict_labels(learner, row(labeled(2, (1,), None)))[0] == 1  # margin 0 tie


def test_margin_sign_matches_predicted_label():
    rng = np.random.default_rng(5)
    learner = TrainedLearner(
        kind="linear",
        dim=6,
        spec=LearnerSpec(kind="linear"),
        params={"w": rng.normal(size=6), "b": rng.normal(size=1)},
    )
    for _ in range(100):
        k = int(rng.integers(0, 7))
        x = row(labeled(6, sorted(rng.choice(6, size=k, replace=False).tolist()), None))
        m = learner.margins(x)[0]
        assert predict_labels(learner, x)[0] == (1 if m >= 0 else -1)
        assert predict_labels(learner, x)[0] in (1, -1)


def test_margin_monotone_in_single_weight():
    base = np.array([0.3, -0.2])
    x = row(labeled(2, (0,), None))
    margins = []
    for delta in (-0.5, 0.0, 0.5, 1.0):
        learner = TrainedLearner(
            kind="linear",
            dim=2,
            spec=LearnerSpec(kind="linear"),
            params={"w": base + np.array([delta, 0.0]), "b": np.zeros(1)},
        )
        margins.append(learner.margins(x)[0])
    assert margins == sorted(margins)
    assert margins[-1] - margins[0] == pytest.approx(1.5)


def test_dimension_mismatch():
    learner = TrainedLearner(
        kind="linear",
        dim=4,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.zeros(4), "b": np.zeros(1)},
    )
    with pytest.raises(DimensionMismatch):
        predict_labels(learner, row(labeled(3, (0,), None)))
    with pytest.raises(DimensionMismatch):
        learner.margins(row(labeled(3, (0,), None)))


def finite_difference_gradients(kind, params, X, y, l2, h=1e-6):
    numeric = {}
    for key, arr in params.items():
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss(kind, params, decision_values(kind, params, X), y, l2)
            arr[idx] = orig - h
            down = loss(kind, params, decision_values(kind, params, X), y, l2)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        numeric[key] = g
    return numeric


def gradient_relative_error(kind, seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 11))
    n = 5
    X = rng.integers(0, 2, size=(n, d)).astype(np.float64)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0  # both classes
    l2 = float(rng.choice([0.0, 0.01]))
    if kind == "linear":
        params = {"w": rng.normal(size=d), "b": rng.normal(size=1)}
    else:
        params = init_params(LearnerSpec(kind="mlp", hidden_units=4, rng_seed=seed), d)
        params = {k: v + rng.normal(scale=0.3, size=v.shape) for k, v in params.items()}
    analytic = gradient(kind, params, X, y, l2)
    numeric = finite_difference_gradients(kind, params, X, y, l2)
    a = np.concatenate([analytic[k].ravel() for k in sorted(params)])
    f = np.concatenate([numeric[k].ravel() for k in sorted(params)])
    return float(np.linalg.norm(a - f) / max(np.linalg.norm(a) + np.linalg.norm(f), 1e-12))


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_gradients_match_finite_differences(kind):
    for seed in range(10):
        assert gradient_relative_error(kind, seed) <= 1e-4


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_training_is_bit_deterministic(kind):
    data = xor_dataset(10)
    spec = LearnerSpec(kind=kind, learning_rate=0.3, epochs=10, hidden_units=4, rng_seed=3)
    first = train(spec, data)
    second = train(spec, data)
    assert first == second
    for key in first.params:
        assert np.array_equal(first.params[key], second.params[key])


def test_full_batch_loss_non_increasing():
    data = separable_1d(30)
    X, y = data.to_dense(), data.label_array().astype(np.float64)

    def full_loss(params):
        return loss("linear", params, decision_values("linear", params, X), y, 0.0)

    # a run of k epochs replays the first k epochs of a longer one
    history = [full_loss(init_params(LearnerSpec(kind="linear"), 1))]
    for k in range(1, 41):
        spec = LearnerSpec(
            kind="linear", learning_rate=0.05, epochs=k, batch_size=None, rng_seed=0
        )
        history.append(full_loss(train(spec, data).params))
    assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_raises_non_finite_loss():
    data = separable_1d(20)
    spec = LearnerSpec(kind="linear", learning_rate=1.0, epochs=20, l2=1e200, rng_seed=0)
    with pytest.raises(NonFiniteLoss):
        train(spec, data)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_model_file_round_trip_is_exact(kind, tmp_path):
    data = xor_dataset(10)
    spec = LearnerSpec(kind=kind, learning_rate=0.3, epochs=5, hidden_units=4, rng_seed=9)
    learner = train(spec, data)
    path = tmp_path / "m.model"
    save_model(learner, path)
    loaded = load_model(path)
    assert loaded == learner
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(20, 2)).astype(np.float64)
    assert np.array_equal(loaded.margins(X), learner.margins(X))


def saved_three_wide_model(kind, tmp_path):
    data = Dataset(
        [labeled(3, (0,), 1), labeled(3, (1, 2), -1), labeled(3, (0, 2), 1)],
        dimension=3,
    )
    spec = LearnerSpec(kind=kind, epochs=2, hidden_units=4, rng_seed=1)
    path = tmp_path / "m.model"
    save_model(train(spec, data), path)
    return path


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_load_model_rejects_params_that_disagree_with_dim(kind, tmp_path):
    path = saved_three_wide_model(kind, tmp_path)
    text = path.read_text()
    assert "\ndim=3\n" in text
    path.write_text(text.replace("\ndim=3\n", "\ndim=4\n"))
    with pytest.raises(FormatError, match="shape"):
        load_model(path)


def test_load_model_rejects_params_that_disagree_with_hidden_units(tmp_path):
    path = saved_three_wide_model("mlp", tmp_path)
    text = path.read_text()
    path.write_text(text.replace("\nhidden_units=4\n", "\nhidden_units=5\n"))
    with pytest.raises(FormatError, match="shape"):
        load_model(path)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("token", ["nan", "-inf"])
def test_load_model_rejects_non_finite_values(kind, token, tmp_path):
    path = saved_three_wide_model(kind, tmp_path)
    lines = path.read_text().splitlines()
    last = lines[-1].split(" ")
    last[-1] = token
    lines[-1] = " ".join(last)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="non-finite") as info:
        load_model(path)
    assert info.value.line == len(lines)


def test_load_model_rejects_hex_float_past_the_float_range(tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0x1p+1024"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == len(lines)
