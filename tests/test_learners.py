import math
import re

import numpy as np
import pytest

import malsieve.learners
from malsieve.errors import (
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    LengthMismatch,
    NonFiniteLoss,
    SingleClassData,
)
from malsieve.learners import (
    LearnerSpec,
    TrainedLearner,
    _sigmoid,
    decision_values,
    gradient,
    hex_values,
    init_params,
    load_model,
    loss,
    predict_labels,
    save_model,
    train,
)
from malsieve.vectorize import Dataset, FeatureVector

from mlfixtures import dense


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
    return Dataset([x], dimension=x.dimension).to_dense()


def training_accuracy(learner, data):
    preds = predict_labels(learner, data.to_dense())
    return float(np.mean(preds == data.label_array()))


def test_linear_fits_separable_data():
    spec = LearnerSpec(kind="linear", learning_rate=0.5, epochs=50, rng_seed=1)
    learner = train(spec, *dense(separable_1d()))
    assert training_accuracy(learner, separable_1d()) == 1.0


def test_held_out_positive_predicted_positive():
    spec = LearnerSpec(kind="linear", learning_rate=0.5, epochs=50, rng_seed=1)
    learner = train(spec, *dense(separable_1d()))
    assert predict_labels(learner, row(labeled(1, (0,), None)))[0] == 1


def test_single_class_data_rejected():
    data = Dataset([labeled(2, (0,), 1) for _ in range(10)], dimension=2)
    with pytest.raises(SingleClassData):
        train(LearnerSpec(kind="linear"), *dense(data))


def test_mlp_learns_xor():
    # not linearly separable, so this exercises the hidden layer
    spec = LearnerSpec(
        kind="mlp", learning_rate=0.5, epochs=300, hidden_units=8, rng_seed=0
    )
    learner = train(spec, *dense(xor_dataset()))
    assert training_accuracy(learner, xor_dataset()) >= 0.95


def test_zero_weight_margin_is_zero_and_predicts_malicious():
    learner = TrainedLearner(
        dim=3,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.zeros(3), "b": np.zeros(1)},
    )
    x = row(labeled(3, (1,), None))
    assert decision_values(learner.kind, learner.params, x)[0] == 0.0
    assert predict_labels(learner, x)[0] == 1


def test_positive_weight_on_active_index():
    learner = TrainedLearner(
        dim=2,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.array([1.0, 0.0]), "b": np.zeros(1)},
    )
    assert predict_labels(learner, row(labeled(2, (0,), None)))[0] == 1
    assert predict_labels(learner, row(labeled(2, (1,), None)))[0] == 1  # margin 0 tie


def test_margin_sign_matches_predicted_label():
    rng = np.random.default_rng(5)
    learner = TrainedLearner(
        dim=6,
        spec=LearnerSpec(kind="linear"),
        params={"w": rng.normal(size=6), "b": rng.normal(size=1)},
    )
    for _ in range(100):
        k = int(rng.integers(0, 7))
        x = row(labeled(6, sorted(rng.choice(6, size=k, replace=False).tolist()), None))
        m = decision_values(learner.kind, learner.params, x)[0]
        assert predict_labels(learner, x)[0] == (1 if m >= 0 else -1)
        assert predict_labels(learner, x)[0] in (1, -1)


def test_margin_monotone_in_single_weight():
    base = np.array([0.3, -0.2])
    x = row(labeled(2, (0,), None))
    margins = []
    for delta in (-0.5, 0.0, 0.5, 1.0):
        learner = TrainedLearner(
            dim=2,
            spec=LearnerSpec(kind="linear"),
            params={"w": base + np.array([delta, 0.0]), "b": np.zeros(1)},
        )
        margins.append(decision_values(learner.kind, learner.params, x)[0])
    assert margins == sorted(margins)
    assert margins[-1] - margins[0] == pytest.approx(1.5)


def test_dimension_mismatch():
    learner = TrainedLearner(
        dim=4,
        spec=LearnerSpec(kind="linear"),
        params={"w": np.zeros(4), "b": np.zeros(1)},
    )
    with pytest.raises(DimensionMismatch):
        predict_labels(learner, row(labeled(3, (0,), None)))


def _masked_sigmoid(t):
    # the two-branch form _sigmoid replaced, frozen as it was
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bit_identical_to_the_masked_form():
    edges = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
             np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
    rng = np.random.default_rng(11)
    for t in [np.array(edges), rng.normal(scale=40, size=1801),
              rng.permutation(np.tile(edges, 9)), np.array([np.nan])]:
        assert np.array_equal(_sigmoid(t).view(np.uint64), _masked_sigmoid(t).view(np.uint64))


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
    first = train(spec, *dense(data))
    second = train(spec, *dense(data))
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
            kind="linear", learning_rate=0.05, epochs=k, batch_size=len(data), rng_seed=0
        )
        history.append(full_loss(train(spec, *dense(data)).params))
    assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_any_batch_size_of_the_rows_or_more_trains_the_same_full_batch(kind):
    data = xor_dataset(5)  # 20 rows
    X, y = dense(data)
    n = len(data)
    full, wider = (
        train(LearnerSpec(kind=kind, learning_rate=0.3, epochs=7, hidden_units=3,
                          l2=1e-3, rng_seed=4, batch_size=b), X, y).params
        for b in (n, 3 * n)
    )
    assert set(full) == set(wider)
    for key in full:
        assert np.array_equal(full[key], wider[key]), key


@pytest.mark.parametrize("batch_size", [0, -1])
def test_spec_rejects_a_batch_size_below_1(batch_size):
    with pytest.raises(InvalidConfig, match="batch_size must be >= 1$"):
        LearnerSpec(batch_size=batch_size)


@pytest.mark.parametrize("labels", [6, 2, 0])
def test_train_rejects_a_label_count_that_disagrees_with_the_rows(labels):
    # the clipped minibatch gather would otherwise train on repeated rows
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1, -1] * 3, dtype=np.int8)[:labels]
    with pytest.raises(LengthMismatch, match=f"3 rows of X but {labels} labels"):
        train(LearnerSpec(kind="linear", epochs=1), X, y)


def test_empty_training_data_rejected():
    with pytest.raises(SingleClassData):
        train(LearnerSpec(kind="linear"), np.zeros((0, 2)), np.zeros(0, dtype=np.int8))


@pytest.mark.parametrize("field", ["learning_rate", "l2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_settings(field, value):
    with pytest.raises(InvalidConfig, match=f"{field} must be finite"):
        LearnerSpec(**{field: value})


def test_learner_kind_is_its_specs():
    learner = train(LearnerSpec(kind="mlp", epochs=1, hidden_units=2), *dense(xor_dataset(2)))
    assert learner.kind == learner.spec.kind == "mlp"


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_raises_non_finite_loss():
    data = separable_1d(20)
    spec = LearnerSpec(kind="linear", learning_rate=1.0, epochs=20, l2=1e200, rng_seed=0)
    with pytest.raises(NonFiniteLoss):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
            train(spec, *dense(data))


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_model_file_round_trip_is_exact(kind, tmp_path):
    data = xor_dataset(10)
    spec = LearnerSpec(kind=kind, learning_rate=0.3, epochs=5, hidden_units=4, rng_seed=9)
    learner = train(spec, *dense(data))
    path = tmp_path / "m.model"
    save_model(learner, path)
    loaded = load_model(path)
    assert loaded == learner
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(20, 2)).astype(np.float64)
    assert np.array_equal(
        decision_values(kind, loaded.params, X), decision_values(kind, learner.params, X)
    )


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_save_model_rejects_a_non_finite_param_and_writes_no_file(kind, value, tmp_path):
    # the file used to be written, and load_model then refused it
    learner = train(LearnerSpec(kind=kind, epochs=1, hidden_units=2), *dense(xor_dataset(2)))
    name = "w" if kind == "linear" else "w2"
    learner.params[name][0] = value
    path = tmp_path / "m.model"
    with pytest.raises(NonFiniteLoss, match=f"param {name} "):
        save_model(learner, path)
    assert not path.exists()


def saved_three_wide_model(kind, tmp_path):
    data = Dataset(
        [labeled(3, (0,), 1), labeled(3, (1, 2), -1), labeled(3, (0, 2), 1)],
        dimension=3,
    )
    spec = LearnerSpec(kind=kind, epochs=2, hidden_units=4, rng_seed=1)
    path = tmp_path / "m.model"
    save_model(train(spec, *dense(data)), path)
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


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("token", ["1.5", "2", "-0.25", "1p0", "+1.8p0", "0X1P0", "-0X1p-3"])
def test_load_model_refuses_values_not_spelt_as_float_hex(kind, token, tmp_path):
    # float.fromhex reads unprefixed text as hex: 1.5 used to load as 1.3125
    path = saved_three_wide_model(kind, tmp_path)
    lines = path.read_text().splitlines()
    last = lines[-1].split(" ")
    last[-1] = token
    lines[-1] = " ".join(last)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == len(lines)


def test_load_model_refuses_a_decimal_row(tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("param w "))
    lines[row] = "param w 3 1.5 2 0x1p+0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == row + 1


def test_load_model_rejects_hex_float_past_the_float_range(tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0x1p+1024"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == len(lines)


def test_load_model_rejects_a_header_key_given_twice(tmp_path):
    # the last epochs= used to win silently
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    lines.insert(2, "epochs=7")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="epochs given twice") as info:
        load_model(path)
    assert info.value.line == lines.index("epochs=2") + 1


@pytest.mark.parametrize("line", ["l2=nan", "learning_rate=inf", "l2=-inf"])
def test_load_model_rejects_a_non_finite_setting(line, tmp_path):
    # these used to load, and the learner then trained to NonFiniteLoss
    path = saved_three_wide_model("linear", tmp_path)
    key = line.partition("=")[0]
    text = "".join(
        line + "\n" if old.startswith(key + "=") else old + "\n"
        for old in path.read_text().splitlines()
    )
    path.write_text(text)
    with pytest.raises(FormatError, match="finite"):
        load_model(path)


def test_load_model_rejects_a_batch_size_of_none(tmp_path):
    # a full batch is a batch_size of the training rows or more
    path = saved_three_wide_model("linear", tmp_path)
    text = path.read_text()
    assert "\nbatch_size=32\n" in text
    path.write_text(text.replace("\nbatch_size=32\n", "\nbatch_size=none\n"))
    with pytest.raises(FormatError, match="bad header field"):
        load_model(path)


@pytest.mark.parametrize("line", ["hello", "momentum=0.9"])
def test_load_model_rejects_a_stray_line(line, tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    lines.insert(3, line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="unrecognized line") as info:
        load_model(path)
    assert info.value.line == 4


@pytest.mark.parametrize("line, message", [
    ("kind=tree", "kind must be one of"),
    ("epochs=0", "epochs must be >= 1"),
    ("hidden_units=0", "hidden_units must be >= 1"),
])
def test_load_model_refuses_a_spec_the_learner_refuses(line, message, tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    key = line.partition("=")[0]
    lines = [line if old.startswith(key + "=") else old for old in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf"^bad header field \({message}"):
        load_model(path)


@pytest.mark.parametrize("prefix, message", [
    ("epochs=", "missing header field epochs"),
    ("param b ", r"model needs params \['b', 'w'\]"),
])
def test_load_model_refuses_a_file_without_one_of_its_lines(prefix, message, tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith(prefix)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=message) as info:
        load_model(path)
    assert info.value.line is None


@pytest.mark.parametrize("row", ["param w", "param w 3"])
def test_load_model_refuses_a_row_without_a_shape_and_values(row, tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    index = next(k for k, line in enumerate(lines) if line.startswith("param w "))
    lines[index] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == index + 1


def test_load_model_skips_blank_lines(tmp_path):
    path = saved_three_wide_model("mlp", tmp_path)
    learner = load_model(path)
    path.write_text(path.read_text().replace("\n", "\n\n  \n"))
    assert load_model(path) == learner


def test_load_model_header_is_every_spec_field(tmp_path):
    path = saved_three_wide_model("mlp", tmp_path)
    keys = [line.partition("=")[0] for line in path.read_text().splitlines()[1:9]]
    assert keys == ["kind", "dim", "learning_rate", "epochs", "hidden_units", "l2",
                    "rng_seed", "batch_size"]


@pytest.mark.parametrize("kind, name, shape", [
    ("linear", "w", "-1"), ("mlp", "W1", "-1x4"), ("mlp", "W1", "3x-1"),
])
def test_load_model_rejects_a_declared_dimension_below_1(kind, name, shape, tmp_path):
    # numpy's reshape reads -1 as "infer this axis", so these used to load
    path = saved_three_wide_model(kind, tmp_path)
    lines = path.read_text().splitlines()
    lineno, line = next(
        (k, line) for k, line in enumerate(lines, start=1)
        if line.startswith(f"param {name} ")
    )
    values = line.split(" ", 3)[3]
    lines[lineno - 1] = f"param {name} {shape} {values}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"param {name} has shape {shape}, expected") as info:
        load_model(path)
    assert info.value.line == lineno


@pytest.mark.parametrize("kind, name, shape, replaces", [
    ("linear", "v", "3", False),
    ("mlp", "w", "3", False),
    ("mlp", "W1", "3x4", False),
    ("linear", "w", "1x3", True),
    ("mlp", "W1", "4x3", True),
    ("mlp", "b1", "04", True),
], ids=["unknown-name", "other-kinds-name", "second-W1", "w-1x3", "W1-transposed", "b1-04"])
def test_load_model_refuses_a_param_row_before_decoding_it(
    kind, name, shape, replaces, tmp_path, monkeypatch
):
    # every row used to be decoded before the header was read; an unknown
    # name was then refused with no line, and `04` loaded as 4
    path = saved_three_wide_model(kind, tmp_path)
    lines = path.read_text().splitlines()
    values = " ".join(["0x1.8p+0"] * math.prod(int(n) for n in shape.split("x")))
    bad = f"param {name} {shape} {values}"
    if replaces:
        index = next(k for k, line in enumerate(lines) if line.startswith(f"param {name} "))
        lines[index] = bad
    else:
        lines.append(bad)
        index = len(lines) - 1
    path.write_text("\n".join(lines) + "\n")
    decoded = []
    monkeypatch.setattr(malsieve.learners, "hex_values",
                        lambda text, start=0: decoded.append(text) or hex_values(text, start))
    with pytest.raises(FormatError) as info:
        load_model(path)
    assert info.value.line == index + 1
    assert bad.removeprefix("param ") not in decoded


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("change", [-1, 1], ids=["one-short", "one-over"])
def test_load_model_refuses_a_row_whose_values_do_not_fill_its_shape(kind, change, tmp_path):
    path = saved_three_wide_model(kind, tmp_path)
    lines = path.read_text().splitlines()
    tokens = lines[-1].split(" ")
    lines[-1] = " ".join(tokens[:-1] if change < 0 else tokens + tokens[-1:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad param line") as info:
        load_model(path)
    assert info.value.line == len(lines)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("dim", ["0", "-1"])
@pytest.mark.parametrize("rows_follow", [False, True], ids=["header-only", "rows-follow"])
def test_load_model_refuses_a_header_dim_below_1(kind, dim, rows_follow, tmp_path):
    # with the rows edited to match, numpy's reshape would read -1 as
    # "infer this axis"
    path = saved_three_wide_model(kind, tmp_path)
    text = path.read_text().replace("\ndim=3\n", f"\ndim={dim}\n")
    if rows_follow:
        text = re.sub(r"^(param (?:w|W1)) 3", rf"\1 {dim}", text, flags=re.M)
    path.write_text(text)
    with pytest.raises(FormatError):
        load_model(path)


def test_load_model_rejects_a_param_row_given_twice(tmp_path):
    path = saved_three_wide_model("linear", tmp_path)
    lines = path.read_text().splitlines()
    lines.append(lines[-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="given twice") as info:
        load_model(path)
    assert info.value.line == len(lines)
