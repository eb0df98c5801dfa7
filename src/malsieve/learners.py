"""Component classifiers: a logistic-loss linear model and a one-hidden-
layer network, both trained by seeded minibatch gradient descent.

Labels are +1 (malicious) / -1 (benign) throughout. A learner's decision
margin is a real score; the predicted label is its sign with the tie at 0
resolved to +1, the fail-safe direction for a detector.

`loss` is the objective, computed from the margins, and `gradient` is its
exact analytic gradient; the finite-difference checks in the test suite
compare the two. Training takes a `gradient` step per minibatch and never
computes the loss itself; after each epoch it checks that every parameter
is still finite. `gradient` and `decision_values` share one forward pass,
`init_params` and `load_model` one table of parameter names and shapes,
and `predict_labels` and `ensemble.majority_vote_matrix` one sign rule,
`sign_labels`, which makes a margin or a vote sum a label.

`train` is the one training routine. Its samples are rows of a dense
matrix that the caller densified once and that every learner of a pool
reads; a bootstrap replicate is an index array into it, never a copy.
That matrix is the uint8 0/1 one `vectorize.dense_matrix` fills, from a
dataset through `Dataset.to_dense` or from a training split's items in
the experiment, and `train` widens only each gathered minibatch to
float64, so every product runs on float64 operands.

A model file holds each parameter as one row of `float.hex` text,
row-major. `save_model` writes it with `hex_floats`, one array pass per
block of values that gives the same bytes as a `float.hex` call per
value; `load_model` reads it back with `float.fromhex`, so the round
trip is exact. The file's header (dim and the spec) fixes the name and
shape of every row, so `load_model` checks a row's name and shape text
against it before it decodes the values. It decodes a row with
`hex_values`, a slice of text at a time, so no row becomes one list of
token strings, and refuses a finite value without float.hex's 0x prefix.
A non-finite value is neither saved nor loaded.
"""

from __future__ import annotations

import binascii
import os
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    LengthMismatch,
    NonFiniteLoss,
    FIELD_PARSERS,
    SingleClassData,
    read_tagged,
    write_tagged,
)
from .rng import make_rng

KINDS = ("linear", "mlp")


@dataclass(frozen=True)
class LearnerSpec:
    kind: str = "linear"
    learning_rate: float = 0.1
    epochs: int = 50
    hidden_units: int = 8
    l2: float = 0.0
    rng_seed: int = 0
    batch_size: int = 32  # the training rows or more is the full batch

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(f"kind must be one of {KINDS}")
        if not 0 < self.learning_rate < np.inf:
            raise InvalidConfig("learning_rate must be finite and > 0")
        if self.epochs < 1:
            raise InvalidConfig("epochs must be >= 1")
        if self.hidden_units < 1:
            raise InvalidConfig("hidden_units must be >= 1")
        if not 0 <= self.l2 < np.inf:
            raise InvalidConfig("l2 must be finite and >= 0")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")


@dataclass(frozen=True, eq=False)
class TrainedLearner:
    spec: LearnerSpec
    params: dict[str, np.ndarray]

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def dim(self) -> int:
        """The feature count: the first axis of the first-layer weights."""
        return self.params["w" if self.kind == "linear" else "W1"].shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrainedLearner):
            return NotImplemented
        return (
            self.spec == other.spec
            and set(self.params) == set(other.params)
            and all(np.array_equal(self.params[k], other.params[k]) for k in self.params)
        )


def param_shapes(spec: LearnerSpec, dim: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of each parameter of a spec's learner over dim
    features, in the order `init_params` draws them."""
    if spec.kind == "linear":
        return {"w": (dim,), "b": (1,)}
    h = spec.hidden_units
    return {"W1": (dim, h), "b1": (h,), "w2": (h,), "b2": (1,)}


def init_params(spec: LearnerSpec, dim: int) -> dict[str, np.ndarray]:
    """Biases and linear weights start at zero; hidden-layer weights are
    seeded symmetric uniform scaled by 1/sqrt(fan_in), their first axis."""
    params = {name: np.zeros(shape) for name, shape in param_shapes(spec, dim).items()}
    if spec.kind == "mlp":
        rng = make_rng(spec.rng_seed, "init")
        for name in ("W1", "w2"):
            a = 1.0 / np.sqrt(params[name].shape[0])
            params[name] = rng.uniform(-a, a, size=params[name].shape)
    return params


def _forward(kind: str, params: dict[str, np.ndarray], X: np.ndarray):
    """The margins of the rows of X and the hidden layer (None if linear)."""
    if kind == "linear":
        return X @ params["w"] + params["b"][0], None
    H = np.tanh(X @ params["W1"] + params["b1"])
    return H @ params["w2"] + params["b2"][0], H


def decision_values(kind: str, params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    return _forward(kind, params, X)[0]


def gradient(
    kind: str,
    params: dict[str, np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> dict[str, np.ndarray]:
    """Exact analytic gradient of `loss` over the batch (X, y)."""
    z, H = _forward(kind, params, X)
    gz = -y * _sigmoid(-y * z) / X.shape[0]
    if kind == "linear":
        return {"w": X.T @ gz + l2 * params["w"], "b": np.array([np.sum(gz)])}
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
    # e = exp(-|t|) cannot overflow; the mask, not np.abs, picks the
    # exponent's sign, so a nan keeps its sign bit as it did
    pos = t >= 0
    e = np.exp(np.where(pos, -t, t))
    return np.where(pos, 1.0, e) / (1.0 + e)


def train(
    spec: LearnerSpec, X: np.ndarray, labels: np.ndarray, rows: np.ndarray | None = None
) -> TrainedLearner:
    """Seeded minibatch gradient descent on the logistic loss, over the
    dataset whose sample k is row rows[k] of X, labelled labels[rows[k]];
    rows=None means every row. Deterministic given its arguments.

    X is only read, so one matrix serves every learner of a pool: each
    minibatch is gathered into one buffer of X's dtype, so X[rows] is
    never built, and widened into one float64 buffer for the products
    (exact for the uint8 0/1 matrix `vectorize.dense_matrix` fills).
    """
    if X.shape[0] != len(labels):
        raise LengthMismatch(f"{X.shape[0]} rows of X but {len(labels)} labels")
    if rows is None:
        rows = np.arange(X.shape[0])
    y = labels[rows].astype(np.float64)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise SingleClassData("training data must contain both classes")

    dim = X.shape[1]
    params = init_params(spec, dim)
    rng = make_rng(spec.rng_seed, "order")
    n = rows.shape[0]
    batch = min(spec.batch_size, n)
    gathered = np.empty((batch, dim), dtype=X.dtype)
    buf = np.empty((batch, dim))

    for _epoch in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            # mode="clip" skips the bounds check that makes take(out=) slow;
            # rows are valid indices by construction
            Xg = np.take(X, rows[idx], axis=0, out=gathered[: len(idx)], mode="clip")
            Xb = buf[: len(idx)]
            np.copyto(Xb, Xg)
            grads = gradient(spec.kind, params, Xb, y[idx], spec.l2)
            for key, g in grads.items():
                params[key] -= spec.learning_rate * g
        if not all(np.all(np.isfinite(p)) for p in params.values()):
            raise NonFiniteLoss("parameters became non-finite; lower the learning rate")

    return TrainedLearner(spec=spec, params=params)


def predict_labels(learner: TrainedLearner, X: np.ndarray) -> np.ndarray:
    """+1/-1 per row of X: the sign of the margin, an exact 0 counting as
    malicious."""
    if X.shape[1] != learner.dim:
        raise DimensionMismatch(f"matrix width {X.shape[1]} != learner dimension {learner.dim}")
    return sign_labels(decision_values(learner.kind, learner.params, X))


def sign_labels(scores: np.ndarray) -> np.ndarray:
    """+1 for each score of 0 or more, -1 below: the rule that turns a
    learner's margin, and an ensemble's vote sum, into a label."""
    return np.where(scores >= 0, 1, -1).astype(np.int8)


# --- serialization ---

_FORMAT_TAG = "malsieve-model v1"

# `hex_floats` writes each value as four null-padded 8-byte words: the
# prefix, the 13 mantissa digits (two words), then `p<exponent> `; one
# `bytes.translate` deletes the nulls. Values per pass: each temporary
# stays well under glibc's 128 KiB mmap threshold, since freeing a larger
# one raises that threshold and with it the peak RSS.
_HEX_BLOCK = 2048


def _words(texts: list[str]) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), np.uint64)


_HEX_PREFIX = _words(["0x0.", "0x1.", "-0x0.", "-0x1."])  # by 2 * sign + (exponent > 0)
# by biased exponent: 0 is subnormal, and zero takes inf/nan's slot 2047
_HEX_SUFFIX = _words(["p-1022 ", *(f"p{e - 1023:+d} " for e in range(1, 2047)), "p+0 "])
_MANTISSA_DIGITS = np.frombuffer(bytes(3) + b"\xff" * 13, np.uint64)  # last 13 of 16
_ZERO_DIGITS = np.frombuffer(bytes(3) + b"0" + bytes(12), np.uint64)  # zero keeps one


def _hex_block(values: np.ndarray) -> str:
    bits = values.view(np.uint64)
    exponent = (bits >> 52) & 0x7FF
    words = np.empty((bits.size, 4), np.uint64)
    words[:, 0] = _HEX_PREFIX[(bits >> 63) * 2 + (exponent > 0)]
    digits = np.frombuffer(binascii.hexlify(bits.astype(">u8").tobytes()), np.uint64)
    np.bitwise_and(digits.reshape(-1, 2), _MANTISSA_DIGITS, out=words[:, 1:3])
    words[:, 3] = _HEX_SUFFIX[exponent]
    zero = (bits << 1) == 0
    words[zero, 1:3] = _ZERO_DIGITS
    words[zero, 3] = _HEX_SUFFIX[-1]
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def hex_floats(values: np.ndarray) -> str:
    """`" ".join(map(float.hex, values.reshape(-1).tolist()))`, row-major,
    in one array pass per block of values. Finite values only: zero's
    exponent word takes the slot of inf and nan."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return " ".join(
        _hex_block(flat[start : start + _HEX_BLOCK]) for start in range(0, flat.size, _HEX_BLOCK)
    )


# characters of a param row that `hex_values` decodes at once; its text
# and token list stay far below the size of a W1 row's
_DECODE_SLICE = 1 << 16


def hex_values(text: str, start: int = 0) -> np.ndarray:
    """The float64 values of the whitespace-separated tokens of
    text[start:], each read by `float.fromhex`, decoded a slice of about
    _DECODE_SLICE characters at a time, cut at a space. A finite value
    must carry float.hex's `0x` prefix (`0x...`, `-0x...`): a token without
    it, such as the decimal-looking `1.5` that `float.fromhex` would read
    as hex, raises ValueError. Non-finite tokens (`nan`, `-inf`) are read,
    for the caller to refuse."""

    def slices():
        begin = start
        while begin < len(text):
            end = text.find(" ", begin + _DECODE_SLICE)
            if end < 0:
                end = len(text)
            yield text[begin:end]
            begin = end + 1

    values = np.fromiter(
        chain.from_iterable(map(float.fromhex, s.split()) for s in slices()), np.float64
    )
    # a token `float.fromhex` reads holds an "x" only in its 0x prefix, and
    # every token with one is finite; so all finite values carry the
    # prefix exactly when the "x"s are as many (a one-character count is
    # several times faster than one of "0x")
    if text.count("x", start) != np.count_nonzero(np.isfinite(values)):
        raise ValueError("a finite value without float.hex's 0x prefix")
    return values


def save_model(learner: TrainedLearner, path: str | os.PathLike) -> None:
    """Write `load_model`'s file: one `param <name> <AxB> <float.hex per
    value>` row per parameter. A non-finite value is NonFiniteLoss, and no
    file is written."""
    params = sorted(learner.params.items())
    for name, arr in params:
        if not np.all(np.isfinite(arr)):
            raise NonFiniteLoss(f"param {name} holds a non-finite value")
    spec = learner.spec
    # file order: kind, dim, then the rest of the spec's fields
    header = {"kind": spec.kind, "dim": learner.dim}
    header.update((f.name, getattr(spec, f.name)) for f in fields(LearnerSpec))
    rows = (f"{name} {'x'.join(map(str, arr.shape))} {hex_floats(arr)}" for name, arr in params)
    write_tagged(path, _FORMAT_TAG, header, rows, row="param")


def load_model(path: str | os.PathLike) -> TrainedLearner:
    """The learner a `save_model` file holds. The header fixes which params
    the file has and their shapes, so a row whose name is unknown or given
    twice, or whose shape text is not the declared one, is a FormatError
    on its line before its values are decoded."""
    parsers = {"dim": int, **{f.name: FIELD_PARSERS[f.type] for f in fields(LearnerSpec)}}
    header, rows = read_tagged(path, _FORMAT_TAG, parsers, row="param")
    dim = header.pop("dim")
    if dim < 1:
        raise FormatError(f"bad header field dim ({dim} is below 1)", None)
    try:
        spec = LearnerSpec(**header)
    except InvalidConfig as exc:
        raise FormatError(f"bad header field ({exc})", None)
    shapes = param_shapes(spec, dim)
    params: dict[str, np.ndarray] = {}
    for lineno, row in rows:
        name_end = row.find(" ")
        shape_end = row.find(" ", name_end + 1)
        if shape_end < 0:
            raise FormatError("bad param line", lineno)
        name, shape_text = row[:name_end], row[name_end + 1 : shape_end]
        if name not in shapes:
            raise FormatError(f"unknown param {name!r} for a {spec.kind} model", lineno)
        if name in params:
            raise FormatError(f"param {name} given twice", lineno)
        if shape_text != (declared := "x".join(map(str, shapes[name]))):
            raise FormatError(f"param {name} has shape {shape_text}, expected {declared}", lineno)
        try:
            params[name] = hex_values(row, shape_end + 1).reshape(shapes[name])
        except (ValueError, OverflowError):  # fromhex overflows past 2**1024
            raise FormatError("bad param line", lineno)
        if not np.all(np.isfinite(params[name])):
            raise FormatError(f"param {name} holds a non-finite value", lineno)
    if len(params) != len(shapes):
        raise FormatError(f"model needs params {sorted(shapes)}", None)
    return TrainedLearner(spec=spec, params=params)
