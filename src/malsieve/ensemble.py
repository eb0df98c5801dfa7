"""Bootstrap pool construction, the prediction matrix and majority voting.

A pool holds N learners, each trained on its own bootstrap replicate
(M draws with replacement from the M training samples), kept as row
indices into the training matrix that the caller densified. A pool is
its learners and its master seed: learner i's bootstrap seed and model
file name follow from (master_seed, i), and are never stored. A binary
weight vector picks the sub-ensemble that actually votes: the prediction
is the sign of the sum of the selected learners' +1/-1 outputs, with a
tied sum counting as malicious. Deselected learners cannot influence the
outcome.

Every ensemble prediction takes one path: `precompute_predictions` turns
a dataset into the (N learners x M samples) +-1 matrix of any sequence
of N learners, and `majority_vote_matrix` turns rows of it into the
vote. The optimizer's fitness, the experiment's scores and `vote`, a
selection's vote on a dataset that the CLI calls, all go through these
two; `precompute_predictions` alone densifies samples for prediction
and checks a dataset's dimension against the learners'.
The dense matrix is uint8 0/1; `precompute_predictions` widens each
block of it to float64 once, for every learner's product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    EmptyDataset,
    FormatError,
    InvalidConfig,
    MalsieveError,
    read_tagged,
    with_context,
    write_tagged,
)
from .learners import (
    LearnerSpec,
    TrainedLearner,
    decision_values,
    load_model,
    save_model,
    sign_labels,
    train,
)
from .rng import derive_seed, make_rng
from .vectorize import Dataset


@dataclass(frozen=True)
class WeightVector:
    """0/1 selection mask over a pool: the GA's result (its population is
    one (P x N) int8 array) and the content of a selection file."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("weight vector must have at least one position")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def selected_count(self) -> int:
        return sum(self.bits)

    def to_string(self) -> str:
        return "".join(map(str, self.bits))

    @classmethod
    def from_string(cls, text: str) -> "WeightVector":
        # a character other than 0 or 1 stays as it is, for the bits check
        return cls(tuple(int(c) if c in "01" else c for c in text))


@dataclass(frozen=True)
class EnsemblePool:
    learners: tuple[TrainedLearner, ...]
    master_seed: int = 0

    def __post_init__(self):
        if not self.learners:
            raise ValueError("pool must hold at least one learner")
        dims = {l.dim for l in self.learners}
        if len(dims) != 1:
            raise DimensionMismatch(f"learners disagree on dimension: {sorted(dims)}")

    @property
    def size(self) -> int:
        return len(self.learners)

    @property
    def dim(self) -> int:
        return self.learners[0].dim


def bootstrap_seed(master_seed: int, i: int) -> int:
    """The seed of learner i's bootstrap replicate in a pool of master_seed."""
    return derive_seed(master_seed, "bootstrap", i)


def bootstrap_indices(m: int, seed: int) -> np.ndarray:
    """Row indices of m uniform draws with replacement from range(m);
    deterministic per seed."""
    if m == 0:
        raise EmptyDataset("cannot bootstrap an empty dataset")
    return make_rng(seed).integers(0, m, size=m)


def train_pool(
    X: np.ndarray, labels: np.ndarray, n: int, spec: LearnerSpec, master_seed: int
) -> EnsemblePool:
    """Train n learners on independent bootstrap replicates of the rows of X.

    Seeds for replicate i and for its learner's own randomness are both
    derived from (master_seed, i), so the pool is a pure function of its
    arguments and pool order is stable. Replicate i is the array of row
    indices `bootstrap_indices(len(X), bootstrap_seed(master_seed, i))`,
    and learner i trains on those rows of X, never on a copy of them.
    """
    if n < 1:
        raise InvalidConfig("pool size must be >= 1")
    learners: list[TrainedLearner] = []
    for i in range(n):
        rows = bootstrap_indices(X.shape[0], bootstrap_seed(master_seed, i))
        learner_seed = derive_seed(master_seed, "learner", i, spec.rng_seed)
        try:
            learners.append(train(replace(spec, rng_seed=learner_seed), X, labels, rows))
        except Exception as exc:
            raise with_context(exc, f"learner {i}") from exc
    return EnsemblePool(learners=tuple(learners), master_seed=master_seed)


def selection_masks(masks, pool_size: int) -> np.ndarray:
    """0/1 masks over a pool as a float64 array, an (N,) mask or a (P x N)
    stack; every mask must have pool_size positions and select a learner."""
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape[-1] != pool_size:
        raise DimensionMismatch(
            f"weight vector length {masks.shape[-1]} != pool size {pool_size}"
        )
    if not masks.any(axis=-1).all():
        raise AllZeroWeights("no learners selected")
    return masks


_BLOCK_ROWS = 32  # samples densified at once for prediction


def precompute_predictions(learners: Sequence[TrainedLearner], data: Dataset) -> np.ndarray:
    """(N x M) matrix of each of the N learners' +-1 prediction on each
    sample, densified a block of rows at a time so memory stays flat in M.
    Each uint8 block is widened to float64 once, for all N learners: numpy
    would otherwise widen it inside every learner's product. A learner of
    another dimension than data's raises DimensionMismatch, even on no rows;
    after that one check, each block's labels are the learners' margins
    through `sign_labels`, so `predict_labels`' own check is not repeated."""
    for learner in learners:
        if learner.dim != data.dimension:
            raise DimensionMismatch(
                f"input dimension {data.dimension} != model dimension {learner.dim}"
            )
    matrix = np.empty((len(learners), len(data)), dtype=np.int8)
    for start in range(0, len(data), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        X = data.to_dense(rows).astype(np.float64)
        for i, learner in enumerate(learners):
            matrix[i, rows] = sign_labels(decision_values(learner.kind, learner.params, X))
    return matrix


def majority_vote_matrix(matrix: np.ndarray, masks) -> np.ndarray:
    """Column-wise vote of the rows a 0/1 mask selects from a
    `precompute_predictions` matrix; a tied sum counts as +1. An (N,) mask
    gives (M,) votes, a (P x N) stack of masks gives (P x M)."""
    # float64, so the product runs on BLAS; exact for these small integer sums
    return sign_labels(selection_masks(masks, matrix.shape[0]) @ matrix.astype(np.float64))


def vote(pool: EnsemblePool, omega: WeightVector, data: Dataset) -> np.ndarray:
    """The (M,) vote of the learners omega selects on each sample of data."""
    return majority_vote_matrix(precompute_predictions(pool.learners, data), omega.bits)


# --- serialization ---

_POOL_TAG = "malsieve-pool v1"
_POOL_KEYS = ("n", "dim", "master_seed")
_SELECTION_TAG = "malsieve-selection v1"
_MODEL_FILE = "learner_{:03d}.model"  # learner i's model file in a pool directory


def _learner_row(master_seed: int, i: int) -> str:
    """Row i of a pool manifest, after its `learner ` word."""
    return f"{i} seed={bootstrap_seed(master_seed, i)} file={_MODEL_FILE.format(i)}"


def save_pool(pool: EnsemblePool, directory: str | os.PathLike) -> None:
    """Write one model file per learner, then the pool manifest: its
    header, then for each learner i the row `learner i seed=<bootstrap
    seed i> file=learner_<iii>.model`. Model files of an earlier pool in
    the directory that the manifest does not name are deleted, so the
    directory holds one pool. The earlier manifest goes first, so a save
    that fails part way leaves no pool to load, not a mix of two."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    (root / "pool.txt").unlink(missing_ok=True)
    names = [_MODEL_FILE.format(i) for i in range(pool.size)]
    for learner, name in zip(pool.learners, names):
        save_model(learner, root / name)
    header = dict(zip(_POOL_KEYS, (pool.size, pool.dim, pool.master_seed)))
    rows = [_learner_row(pool.master_seed, i) for i in range(pool.size)]
    write_tagged(root / "pool.txt", _POOL_TAG, header, rows, row="learner")
    for stale in root.glob("learner_*.model"):
        if stale.name not in names:
            stale.unlink()


def load_pool(directory: str | os.PathLike) -> EnsemblePool:
    """The pool a `save_pool` directory holds. Its learner rows must be
    the n rows `save_pool` writes for its master seed, in order: any other
    row is a FormatError naming its line. So the model files opened are
    the names `save_pool` gives, never a name read from the manifest. A
    model file's error starts with that file's name."""
    root = Path(directory)
    manifest = root / "pool.txt"
    if not manifest.exists():
        raise FormatError(f"no pool manifest at {manifest}", None)
    header, rows = read_tagged(manifest, _POOL_TAG, dict.fromkeys(_POOL_KEYS, int), row="learner")
    n, dim, master_seed = (header[k] for k in _POOL_KEYS)
    if n < 1:
        raise FormatError(f"pool needs n >= 1 learners, got n={n}", None)
    if len(rows) != n:
        raise FormatError(f"manifest must list learners 0..{n - 1}", None)
    learners = []
    for i, (lineno, row) in enumerate(rows):
        if row != (expected := _learner_row(master_seed, i)):
            raise FormatError(f"learner row is not 'learner {expected}'", lineno)
        if not (path := root / _MODEL_FILE.format(i)).is_file():
            raise FormatError(f"no model file {path.name!r} in {root}", lineno)
        try:
            learners.append(load_model(path))
        except MalsieveError as exc:  # an OSError names its path already
            raise with_context(exc, path.name) from exc
    pool = EnsemblePool(tuple(learners), master_seed)
    if pool.dim != dim:
        raise DimensionMismatch("manifest dim disagrees with model files")
    return pool


def save_selection(omega: WeightVector, path: str | os.PathLike) -> None:
    write_tagged(path, _SELECTION_TAG, {"n": len(omega), "omega": omega.to_string()})


def load_selection(path: str | os.PathLike) -> WeightVector:
    header, _ = read_tagged(path, _SELECTION_TAG, {"n": int, "omega": WeightVector.from_string})
    if len(header["omega"]) != header["n"]:
        raise FormatError("omega length disagrees with n", None)
    return header["omega"]
