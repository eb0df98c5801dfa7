"""Component classifiers: a logistic-loss linear model and a one-hidden-
layer network, both trained by seeded minibatch gradient descent.

Labels are +1 (malicious) / -1 (benign) throughout. A learner's decision
margin is a real score; the predicted label is its sign with the tie at 0
resolved to +1, the fail-safe direction for a detector.

`loss` is the objective, computed from the margins, and `gradient` is its
exact analytic gradient; the finite-difference checks in the test suite
compare the two. Training takes a `gradient` step per minibatch and never
computes the loss itself; after each epoch it checks that every parameter
is still finite. `predict_labels` is the one place a margin becomes a
label.

`train_rows` is the one training routine. It reads its samples as rows of
a dense matrix shared by every learner of a pool, so a bootstrap replicate
is an index array and is never copied; `train` is its all-rows case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    NonFiniteLoss,
    SingleClassData,
    open_text,
)
from .rng import make_rng
from .vectorize import Dataset

KINDS = ("linear", "mlp")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "linear"
    learning_rate: float = 0.1
    epochs: int = 50
    hidden_units: int = 8
    l2: float = 0.0
    rng_seed: int = 0
    batch_size: int | None = 32  # None = full batch

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(f"kind must be one of {KINDS}")
        if not self.learning_rate > 0:
            raise InvalidConfig("learning_rate must be > 0")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.hidden_units < 1:
            raise InvalidConfig("hidden_units must be >= 1")
        if self.l2 < 0:
            raise InvalidConfig("l2 must be >= 0")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1 or None")


@dataclass(frozen=True, eq=False)
class TrainedLearner:
    kind: str
    dim: int
    spec: LearnerSpec
    params: dict[str, np.ndarray]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrainedLearner):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and self.spec == other.spec
            and set(self.params) == set(other.params)
            and all(np.array_equal(self.params[k], other.params[k]) for k in self.params)
        )

    def margins(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1] != self.dim:
            raise DimensionMismatch(
                f"matrix width {X.shape[1]} != learner dimension {self.dim}"
            )
        return decision_values(self.kind, self.params, X)


def init_params(spec: LearnerSpec, dim: int) -> dict[str, np.ndarray]:
    """Linear weights start at zero; hidden-layer weights are seeded
    symmetric uniform scaled by 1/sqrt(fan_in)."""
    if spec.kind == "linear":
        return {"w": np.zeros(dim), "b": np.zeros(1)}
    rng = make_rng(spec.rng_seed, "init")
    h = spec.hidden_units
    a1 = 1.0 / np.sqrt(dim)
    a2 = 1.0 / np.sqrt(h)
    return {
        "W1": rng.uniform(-a1, a1, size=(dim, h)),
        "b1": np.zeros(h),
        "w2": rng.uniform(-a2, a2, size=h),
        "b2": np.zeros(1),
    }


def decision_values(kind: str, params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return X @ params["w"] + params["b"][0]
    H = np.tanh(X @ params["W1"] + params["b1"])
    return H @ params["w2"] + params["b2"][0]


def gradient(
    kind: str,
    params: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> dict[str, np.ndarray]:
    """Exact analytic gradient of `loss` over the batch (X, y)."""
    n = X.shape[0]
    if kind == "linear":
        z = X @ params["w"] + params["b"][0]
        gz = -y * _sigmoid(-y * z) / n
        return {
            "w": X.T @ gz + l2 * params["w"],
            "b": np.array([np.sum(gz)]),
        }

    H = np.tanh(X @ params["W1"] + params["b1"])
    z = H @ params["w2"] + params["b2"][0]
    gz = -y * _sigmoid(-y * z) / n
    g_pre = (gz[:, None] * params["w2"][None, :]) * (1.0 - H * H)
    return {
        "W1": X.T @ g_pre + l2 * params["W1"],
        "b1": np.sum(g_pre, axis=0),
        "w2": H.T @ gz + l2 * params["w2"],
        "b2": np.array([np.sum(gz)]),
    }


def loss(
    kind: str, params: dict[str, np.ndarray], z: np.ndarray, y: np.ndarray, l2: float
) -> float:
    """Mean logistic loss of the margins z = decision_values(kind, params, X)
    against y, plus L2 on the weight matrices (biases excluded)."""
    mean = float(np.mean(np.logaddexp(0.0, -y * z)))
    if kind == "linear":
        return mean + 0.5 * l2 * float(params["w"] @ params["w"])
    return mean + 0.5 * l2 * (
        float(np.sum(params["W1"] ** 2)) + float(params["w2"] @ params["w2"])
    )


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def train(spec: LearnerSpec, data: Dataset) -> TrainedLearner:
    """Seeded minibatch gradient descent on the logistic loss.

    Deterministic given (spec, data).
    """
    if len(data) == 0:
        raise SingleClassData("empty dataset")
    return train_rows(spec, data.to_dense(), data.label_array(), np.arange(len(data)))


def train_rows(
    spec: LearnerSpec, X: np.ndarray, labels: np.ndarray, rows: np.ndarray
) -> TrainedLearner:
    """`train` on the dataset whose sample k is row rows[k] of X, labelled
    labels[rows[k]].

    X is only read, so one matrix serves every learner of a pool: each
    minibatch is gathered into one buffer, so X[rows] is never built.
    """
    y = labels[rows].astype(np.float64)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassData("training data must contain both classes")

    dim = X.shape[1]
    params = init_params(spec, dim)
    rng = make_rng(spec.rng_seed, "order")
    n = rows.shape[0]
    batch = n if spec.batch_size is None else min(spec.batch_size, n)
    buf = np.empty((batch, dim))

    for _epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            # mode="clip" skips the bounds check that makes take(out=) slow;
            # rows are valid indices by construction
            Xb = np.take(X, rows[idx], axis=0, out=buf[: len(idx)], mode="clip")
            grads = gradient(spec.kind, params, Xb, y[idx], spec.l2)
            for key, g in grads.items():
                params[key] -= spec.learning_rate * g
        if not all(np.all(np.isfinite(p)) for p in params.values()):
            raise NonFiniteLoss("parameters became non-finite; lower the learning rate")

    return TrainedLearner(kind=spec.kind, dim=dim, spec=spec, params=params)


def predict_labels(learner: TrainedLearner, X: np.ndarray) -> np.ndarray:
    """+1/-1 per row of X: the sign of the margin, an exact 0 counting as
    malicious."""
    m = learner.margins(X)
    return np.where(m >= 0.0, 1, -1).astype(np.int8)


# --- serialization ---

_FORMAT_TAG = "malsieve-model v1"


def save_model(learner: TrainedLearner, path: str | os.PathLike) -> None:
    spec = learner.spec
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_FORMAT_TAG + "\n")
        fh.write(f"kind={learner.kind}\n")
        fh.write(f"dim={learner.dim}\n")
        fh.write(f"learning_rate={spec.learning_rate!r}\n")
        fh.write(f"epochs={spec.epochs}\n")
        fh.write(f"hidden_units={spec.hidden_units}\n")
        fh.write(f"l2={spec.l2!r}\n")
        fh.write(f"rng_seed={spec.rng_seed}\n")
        fh.write(f"batch_size={'none' if spec.batch_size is None else spec.batch_size}\n")
        for name in sorted(learner.params):
            arr = learner.params[name]
            shape = "x".join(map(str, arr.shape))
            tokens = " ".join(v.hex() for v in arr.reshape(-1).tolist())
            fh.write(f"param {name} {shape} {tokens}\n")


def load_model(path: str | os.PathLike) -> TrainedLearner:
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _FORMAT_TAG:
        raise FormatError("not a model file", 1)
    fields: dict[str, str] = {}
    params: dict[str, np.ndarray] = {}
    param_lines: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("param "):
            try:
                _, name, shape_text, tokens = line.split(" ", 3)
                shape = tuple(int(s) for s in shape_text.split("x"))
                values = list(map(float.fromhex, tokens.split()))
                params[name] = np.array(values).reshape(shape)
            except (ValueError, OverflowError):  # fromhex overflows past 2**1024
                raise FormatError("bad param line", lineno)
            param_lines[name] = lineno
        elif "=" in line:
            key, _, value = line.partition("=")
            fields[key] = value
        else:
            raise FormatError("unrecognized line", lineno)
    try:
        batch_text = fields["batch_size"]
        spec = LearnerSpec(
            kind=fields["kind"],
            learning_rate=float(fields["learning_rate"]),
            epochs=int(fields["epochs"]),
            hidden_units=int(fields["hidden_units"]),
            l2=float(fields["l2"]),
            rng_seed=int(fields["rng_seed"]),
            batch_size=None if batch_text == "none" else int(batch_text),
        )
        dim = int(fields["dim"])
    except (KeyError, ValueError, InvalidConfig) as exc:
        raise FormatError(f"bad or missing header field ({exc})", None)
    h = spec.hidden_units
    shapes = {
        "linear": {"w": (dim,), "b": (1,)},
        "mlp": {"W1": (dim, h), "b1": (h,), "w2": (h,), "b2": (1,)},
    }[spec.kind]
    if set(params) != set(shapes):
        raise FormatError(f"model needs params {sorted(shapes)}", None)
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise FormatError(
                f"param {name} has shape {params[name].shape}, expected {shape}",
                param_lines[name],
            )
        if not np.all(np.isfinite(params[name])):
            raise FormatError(f"param {name} holds a non-finite value", param_lines[name])
    return TrainedLearner(kind=spec.kind, dim=dim, spec=spec, params=params)
