"""Bootstrap pool construction, the prediction matrix and majority voting.

A pool holds N learners, each trained on its own bootstrap replicate
(M draws with replacement from the M training samples), kept as row
indices into the one dense matrix of the training set. A binary weight
vector picks the sub-ensemble that actually votes: the prediction is the
sign of the sum of the selected learners' +1/-1 outputs, with a tied sum
counting as malicious. Deselected learners cannot influence the outcome.

Every ensemble prediction takes one path: `precompute_predictions` turns
a dataset into the (N learners x M samples) +-1 matrix, and
`majority_vote_matrix` turns rows of it into the vote. The optimizer's
fitness, the experiment's scores and the CLI all go through these two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    EmptyDataset,
    FormatError,
    InvalidConfig,
    open_text,
    with_context,
)
from .learners import (
    LearnerSpec,
    TrainedLearner,
    load_model,
    predict_labels,
    save_model,
    train_rows,
)
from .rng import derive_seed, make_rng
from .vectorize import Dataset, FeatureVector


@dataclass(frozen=True)
class WeightVector:
    """0/1 selection mask over a pool; doubles as the GA chromosome."""

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

    def selected_indices(self) -> list[int]:
        return [i for i, b in enumerate(self.bits) if b]

    def to_string(self) -> str:
        return "".join(map(str, self.bits))

    @classmethod
    def from_string(cls, text: str) -> "WeightVector":
        if not text or any(c not in "01" for c in text):
            raise ValueError("weight string must be nonempty over {0,1}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def ones(cls, n: int) -> "WeightVector":
        return cls((1,) * n)


@dataclass(frozen=True)
class EnsemblePool:
    learners: tuple[TrainedLearner, ...]
    bootstrap_seeds: tuple[int, ...]
    master_seed: int = 0

    def __post_init__(self):
        if not self.learners:
            raise ValueError("pool must hold at least one learner")
        if len(self.bootstrap_seeds) != len(self.learners):
            raise ValueError("one bootstrap seed per learner required")
        dims = {l.dim for l in self.learners}
        if len(dims) != 1:
            raise DimensionMismatch(f"learners disagree on dimension: {sorted(dims)}")

    @property
    def size(self) -> int:
        return len(self.learners)

    @property
    def dim(self) -> int:
        return self.learners[0].dim


def bootstrap_indices(m: int, seed: int) -> np.ndarray:
    """Row indices of m uniform draws with replacement from range(m);
    deterministic per seed."""
    if m == 0:
        raise EmptyDataset("cannot bootstrap an empty dataset")
    return make_rng(seed).integers(0, m, size=m)


def bootstrap_sample(data: Dataset, seed: int) -> Dataset:
    """The replicate that `bootstrap_indices` draws, as a dataset."""
    return data.subset(bootstrap_indices(len(data), seed).tolist())


def train_pool(
    data: Dataset, n: int, spec: LearnerSpec, master_seed: int
) -> EnsemblePool:
    """Train n learners on independent bootstrap replicates.

    Seeds for replicate i and for its learner's own randomness are both
    derived from (master_seed, i), so the pool is a pure function of its
    arguments and pool order is stable. The data is densified once; each
    replicate is an array of row indices into that one matrix, and learner
    i trains on those rows exactly as `train` would on
    `bootstrap_sample(data, seed_i)`.
    """
    if n < 1:
        raise InvalidConfig("pool size must be >= 1")
    X = data.to_dense()
    labels = data.label_array()
    learners: list[TrainedLearner] = []
    seeds: list[int] = []
    for i in range(n):
        boot_seed = derive_seed(master_seed, "bootstrap", i)
        learner_spec = replace(
            spec, rng_seed=derive_seed(master_seed, "learner", i, spec.rng_seed)
        )
        rows = bootstrap_indices(len(data), boot_seed)
        try:
            learners.append(train_rows(learner_spec, X, labels, rows))
        except Exception as exc:
            raise with_context(exc, f"learner {i}") from exc
        seeds.append(boot_seed)
    return EnsemblePool(
        learners=tuple(learners), bootstrap_seeds=tuple(seeds), master_seed=master_seed
    )


def _check_omega(pool_size: int, omega: WeightVector) -> None:
    if len(omega) != pool_size:
        raise DimensionMismatch(
            f"weight vector length {len(omega)} != pool size {pool_size}"
        )
    if omega.selected_count < 1:
        raise AllZeroWeights("no learners selected")


def precompute_predictions(pool: EnsemblePool, data: Dataset) -> np.ndarray:
    """(N x M) matrix of each learner's +-1 prediction on each sample."""
    X = data.to_dense()
    return np.array([predict_labels(l, X) for l in pool.learners], dtype=np.int8)


def majority_vote_matrix(matrix: np.ndarray, omega: WeightVector) -> np.ndarray:
    """Column-wise vote of the rows omega selects from a
    `precompute_predictions` matrix; a tied sum counts as +1."""
    _check_omega(matrix.shape[0], omega)
    sums = matrix[omega.selected_indices()].sum(axis=0, dtype=np.int64)
    return np.where(sums >= 0, 1, -1).astype(np.int8)


def vote(pool: EnsemblePool, omega: WeightVector, x: FeatureVector) -> int:
    """The vote on one sample: `majority_vote_matrix` over its one-column
    prediction matrix."""
    one = Dataset([x], dimension=pool.dim)
    return int(majority_vote_matrix(precompute_predictions(pool, one), omega)[0])


# --- serialization ---

_POOL_TAG = "malsieve-pool v1"
_SELECTION_TAG = "malsieve-selection v1"


def save_pool(pool: EnsemblePool, directory: str | os.PathLike) -> None:
    """Write the pool manifest plus one model file per learner."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "pool.txt", "w", encoding="utf-8") as fh:
        fh.write(_POOL_TAG + "\n")
        fh.write(f"n={pool.size}\n")
        fh.write(f"dim={pool.dim}\n")
        fh.write(f"master_seed={pool.master_seed}\n")
        for i, (learner, seed) in enumerate(zip(pool.learners, pool.bootstrap_seeds)):
            name = f"learner_{i:03d}.model"
            save_model(learner, root / name)
            fh.write(f"learner {i} seed={seed} file={name}\n")


def load_pool(directory: str | os.PathLike) -> EnsemblePool:
    root = Path(directory)
    manifest = root / "pool.txt"
    if not manifest.exists():
        raise FormatError(f"no pool manifest at {manifest}", None)
    with open_text(manifest) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _POOL_TAG:
        raise FormatError("not a pool manifest", 1)
    header: dict[str, str] = {}
    entries: list[tuple[int, int, str, int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("learner "):
            try:
                _, idx_text, seed_field, file_field = line.split(" ")
                entries.append(
                    (int(idx_text),
                     int(seed_field.removeprefix("seed=")),
                     file_field.removeprefix("file="),
                     lineno)
                )
            except ValueError:
                raise FormatError("bad learner line", lineno)
        elif "=" in line:
            key, _, value = line.partition("=")
            header[key] = value
        else:
            raise FormatError("unrecognized line", lineno)
    try:
        n = int(header["n"])
        dim = int(header["dim"])
        master_seed = int(header["master_seed"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad or missing header field ({exc})", None)
    if n < 1:
        raise FormatError(f"pool needs n >= 1 learners, got n={n}", None)
    if len(entries) != n or sorted(e[0] for e in entries) != list(range(n)):
        raise FormatError(f"manifest must list learners 0..{n - 1}", None)
    entries.sort()
    for _, _, fname, lineno in entries:
        if not (root / fname).is_file():
            raise FormatError(f"no model file {fname!r} in {root}", lineno)
    learners = tuple(load_model(root / fname) for _, _, fname, _ in entries)
    pool = EnsemblePool(
        learners=learners,
        bootstrap_seeds=tuple(seed for _, seed, _, _ in entries),
        master_seed=master_seed,
    )
    if pool.dim != dim:
        raise DimensionMismatch("manifest dim disagrees with model files")
    return pool


def save_selection(omega: WeightVector, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_SELECTION_TAG + "\n")
        fh.write(f"n={len(omega)}\n")
        fh.write(f"omega={omega.to_string()}\n")


def load_selection(path: str | os.PathLike) -> WeightVector:
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _SELECTION_TAG:
        raise FormatError("not a selection file", 1)
    fields = dict(line.partition("=")[::2] for line in lines[1:] if "=" in line)
    try:
        n = int(fields["n"])
        omega = WeightVector.from_string(fields["omega"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad selection file ({exc})", None)
    if len(omega) != n:
        raise FormatError("omega length disagrees with n", None)
    return omega
